//go:build race

package slm

// raceEnabled reports a -race build. Its sync.Pool drops a share of what
// is put back, so a pooled call's allocation count is not exact there.
const raceEnabled = true
