//go:build race

package unisem

// raceEnabled reports a -race build, whose detector allocates on its
// own, so allocation counts are not exact there.
const raceEnabled = true
