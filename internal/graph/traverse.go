package graph

import (
	"slices"
	"sort"
)

// Visit is one node settled by View.Expand: its view index, the depth
// at which it settled and its path score.
type Visit struct {
	Node  int32
	Depth int32
	Score float64
}

// ExpandOptions parameterizes View.Expand.
type ExpandOptions struct {
	MaxDepth int     // hop limit (0 = anchor only)
	Budget   int     // max nodes to settle; <=0 = unlimited
	Decay    float64 // per-hop score decay in (0, 1]
	// Prior is a multiplicative node prior by view index, typically a
	// centrality measure (nil = 1).
	Prior []float64
	// EdgeTypes is a per-type edge multiplier; unlisted types are not
	// traversed (nil = every type at 1). Only the edge types this
	// package declares can be listed.
	EdgeTypes map[EdgeType]float64
}

// Expander is the scratch state of View.Expand, reusable across calls
// and views so that an expansion allocates nothing once it has grown to
// the view's size. The zero value is ready; one Expander serves one
// goroutine at a time.
type Expander struct {
	best    []float64 // best score pushed per node; 0 = never pushed
	settled []bool
	pushed  []int32 // nodes with best != 0, reset by the next Expand
	heap    []Visit
	visits  []Visit
}

// reset clears what the previous expansion marked and sizes the
// per-node state for a view of n nodes.
func (x *Expander) reset(n int) {
	for _, i := range x.pushed {
		x.best[i] = 0
		x.settled[i] = false
	}
	x.pushed, x.heap, x.visits = x.pushed[:0], x.heap[:0], x.visits[:0]
	if len(x.best) < n {
		x.best = make([]float64, n)
		x.settled = make([]bool, n)
	}
}

// push and pop sift exactly like container/heap under Less(i, j) =
// score[i] > score[j]: with a settle budget, the order in which equal
// scores leave the queue decides which nodes settle.
func (x *Expander) push(it Visit) {
	h := append(x.heap, it)
	for j := len(h) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].Score > h[i].Score) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	x.heap = h
}

func (x *Expander) pop() Visit {
	h := x.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].Score > h[j].Score {
			j = j2
		}
		if !(h[j].Score > h[i].Score) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	x.heap = h[:n]
	return h[n]
}

// Expand is the topology-enhanced traversal of Section III.B: a
// best-first expansion from the anchor where a node's score is the best
// product of edge weights, per-hop decay, and a node prior. The
// highest-scoring nodes settle first, so a budget yields the most
// topologically relevant subgraph. Visits come back in settle order and
// belong to x: they are valid until its next Expand.
func (v *View) Expand(x *Expander, anchor int, opts ExpandOptions) []Visit {
	if opts.Decay <= 0 || opts.Decay > 1 {
		opts.Decay = 0.7
	}
	var mult [edgeCodes]float64 // multiplier by edge-type code
	if opts.EdgeTypes == nil {
		for c := range mult {
			mult[c] = 1
		}
	}
	for t, m := range opts.EdgeTypes {
		if c := edgeCode(t); c != 0 {
			mult[c] = m
		}
	}
	x.reset(len(v.at))
	x.best[anchor] = 1
	x.pushed = append(x.pushed, int32(anchor))
	x.push(Visit{Node: int32(anchor), Score: 1})
	for len(x.heap) > 0 {
		it := x.pop()
		if x.settled[it.Node] {
			continue
		}
		x.settled[it.Node] = true
		x.visits = append(x.visits, it)
		if opts.Budget > 0 && len(x.visits) >= opts.Budget {
			break
		}
		if int(it.Depth) >= opts.MaxDepth {
			continue
		}
		// Evaluated in this order, factor by factor: scores are compared
		// bit for bit with the reference expansion.
		lo, hi := v.outOff[it.Node], v.outOff[it.Node+1]
		out, _ := v.lists(int(it.Node))
		for k := lo; k < hi; k++ {
			if m := mult[v.typ[k]]; m != 0 {
				w := 1.0 // a range's row
				if out != nil {
					w = out[k-lo].w
				}
				to := v.dst[k]
				s := it.Score * opts.Decay * w * m
				if opts.Prior != nil {
					s *= opts.Prior[to]
				}
				if s <= x.best[to] {
					continue
				}
				if x.best[to] == 0 {
					x.pushed = append(x.pushed, to)
				}
				x.best[to] = s
				x.push(Visit{Node: to, Depth: it.Depth + 1, Score: s})
			}
		}
	}
	return x.visits
}

// ShortestPath returns one minimum-hop path between the nodes at view
// indices src and dst following any edge type, as view indices from src
// to dst, or nil if dst cannot be reached. Used to explain answers
// ("Patient X —received→ Drug Y —reported→ nausea").
func (v *View) ShortestPath(src, dst int) []int {
	if src == dst {
		return []int{src}
	}
	// Breadth-first over view indices; prev holds the predecessor's
	// index plus one, 0 for a node not reached yet.
	prev := make([]int32, v.Len())
	prev[src] = int32(src) + 1
	frontier := []int32{int32(src)}
	for len(frontier) > 0 {
		var next []int32
		for _, u := range frontier {
			// Adjacency order makes the chosen path deterministic.
			for _, nb := range v.dst[v.outOff[u]:v.outOff[u+1]] {
				if prev[nb] != 0 {
					continue
				}
				prev[nb] = u + 1
				if nb == int32(dst) {
					var path []int
					for cur := nb; ; cur = prev[cur] - 1 {
						path = append(path, int(cur))
						if cur == int32(src) {
							break
						}
					}
					slices.Reverse(path)
					return path
				}
				next = append(next, nb)
			}
		}
		frontier = next
	}
	return nil
}

// ConnectedComponents returns the weakly connected components as sorted
// slices of node ids, largest first. Useful as an index sanity check:
// a well-linked corpus should have one dominant component.
func (g *Graph) ConnectedComponents() [][]string {
	v := g.View(nil)
	seen := make([]bool, v.Len())
	var comps [][]string
	var stack []int32
	for start := range seen {
		if seen[start] {
			continue
		}
		var comp []string
		stack = append(stack[:0], int32(start))
		seen[start] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v.ID(int(u)))
			for _, nbs := range [2][]int32{v.dst[v.outOff[u]:v.outOff[u+1]], v.src[v.inOff[u]:v.inOff[u+1]]} {
				for _, nb := range nbs {
					if !seen[nb] {
						seen[nb] = true
						stack = append(stack, nb)
					}
				}
			}
		}
		sort.Strings(comp)
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool {
		if len(comps[i]) != len(comps[j]) {
			return len(comps[i]) > len(comps[j])
		}
		return comps[i][0] < comps[j][0]
	})
	return comps
}
