package graph

import (
	"math"

	"repro/internal/par"
)

// PageRank's damping factor, iteration cap and early-exit L1 threshold.
const (
	prDamping    = 0.85
	prIterations = 40
	prTolerance  = 1e-8
)

// PageRank computes weighted PageRank over the directed graph, one
// score per view index. Edge weights bias the random walk; dangling
// mass is redistributed uniformly. Scores sum to 1 over all nodes. This
// is the "centrality measure[] to identify influential nodes" of
// Section III.B.
//
// The iteration runs pull-style: each node gathers from its in-edges in
// list order, so every node's score is independent of how nodes are
// partitioned across workers — results are bit-identical at any worker
// count (0 = GOMAXPROCS, 1 = sequential).
func (v *View) PageRank(workers int) []float64 {
	n := len(v.at)
	if n == 0 {
		return nil
	}

	// Per-node total outgoing weight, and the in-edge weights flattened
	// beside src so the hot loop touches only flat slices.
	outWeight := make([]float64, n)
	ws := make([]float64, len(v.src))
	for i := range n {
		ws := ws[v.inOff[i]:v.inOff[i+1]]
		if v.at[i] < 0 {
			// A range's row: its mentions weigh 1, and a sum of ones is
			// exact.
			outWeight[i] = float64(v.outOff[i+1] - v.outOff[i])
			for j := range ws {
				ws[j] = 1
			}
			continue
		}
		out, in := v.lists(i)
		for _, h := range out[:v.outOff[i+1]-v.outOff[i]] {
			outWeight[i] += h.w
		}
		for j, h := range in[:len(ws)] {
			ws[j] = h.w
		}
	}

	ranks := make([]float64, n)
	next := make([]float64, n)
	contrib := make([]float64, n)
	init := 1.0 / float64(n)
	for i := range ranks {
		ranks[i] = init
	}

	// A variable, so 1-d below is float64 arithmetic as it always was:
	// as a constant expression it would be folded exactly and round to
	// another bit pattern.
	d := prDamping
	for iter := 0; iter < prIterations; iter++ {
		var dangling float64
		for i := 0; i < n; i++ {
			if outWeight[i] == 0 {
				dangling += ranks[i]
				contrib[i] = 0
			} else {
				contrib[i] = ranks[i] / outWeight[i]
			}
		}
		base := (1-d)/float64(n) + d*dangling/float64(n)

		par.ForRange(n, workers, func(lo, hi int) {
			for u := lo; u < hi; u++ {
				var s float64
				for k := v.inOff[u]; k < v.inOff[u+1]; k++ {
					s += contrib[v.src[k]] * ws[k]
				}
				next[u] = base + d*s
			}
		})

		// Convergence delta sums sequentially in index order so the
		// early-exit decision is also worker-count independent.
		var delta float64
		for i := 0; i < n; i++ {
			delta += math.Abs(next[i] - ranks[i])
		}
		ranks, next = next, ranks
		if delta < prTolerance {
			break
		}
	}
	return ranks
}
