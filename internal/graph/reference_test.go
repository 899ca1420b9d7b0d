package graph

// Reference implementations the index-space View is tested against,
// and the naive graph the range rows are held to. Nothing outside the
// tests calls them.

import (
	"container/heap"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"repro/internal/par"
)

// refVisit is one node reached by a reference traversal, with the depth
// at which it was first seen and the accumulated path score.
type refVisit struct {
	ID    string
	Depth int
	Score float64
}

// BFS is the reachability oracle of the expansion property tests. It
// performs breadth-first expansion from the anchor nodes up to
// maxDepth hops, following only the given edge types (nil = all).
// Each node is visited once, at its minimum depth; anchors are depth 0.
// Results are ordered by (depth, id) for determinism.
func (g *Graph) BFS(anchors []string, maxDepth int, types ...EdgeType) []refVisit {
	var filter map[EdgeType]bool
	if len(types) > 0 {
		filter = make(map[EdgeType]bool, len(types))
		for _, t := range types {
			filter[t] = true
		}
	}
	depth := make(map[string]int)
	var frontier []string
	for _, a := range anchors {
		if !g.HasNode(a) {
			continue
		}
		if _, ok := depth[a]; !ok {
			depth[a] = 0
			frontier = append(frontier, a)
		}
	}
	d := 0
	for len(frontier) > 0 && d < maxDepth {
		var next []string
		for _, id := range frontier {
			for _, e := range g.Out(id) {
				if filter != nil && !filter[e.Type] {
					continue
				}
				if _, seen := depth[e.To]; !seen {
					depth[e.To] = d + 1
					next = append(next, e.To)
				}
			}
		}
		frontier = next
		d++
	}
	visits := make([]refVisit, 0, len(depth))
	for id, dd := range depth {
		visits = append(visits, refVisit{ID: id, Depth: dd, Score: 1.0 / float64(1+dd)})
	}
	sort.Slice(visits, func(i, j int) bool {
		if visits[i].Depth != visits[j].Depth {
			return visits[i].Depth < visits[j].Depth
		}
		return visits[i].ID < visits[j].ID
	})
	return visits
}

// expandItem is a priority-queue entry for weightedExpand.
type expandItem struct {
	id    string
	score float64
	depth int
	index int
}

type expandQueue []*expandItem

func (q expandQueue) Len() int           { return len(q) }
func (q expandQueue) Less(i, j int) bool { return q[i].score > q[j].score }
func (q expandQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i]; q[i].index = i; q[j].index = j }
func (q *expandQueue) Push(x interface{}) {
	it := x.(*expandItem)
	it.index = len(*q)
	*q = append(*q, it)
}
func (q *expandQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// refExpandOptions parameterizes weightedExpand.
type refExpandOptions struct {
	MaxDepth   int                  // hop limit (0 = anchors only)
	Budget     int                  // max nodes to settle; <=0 = unlimited
	Decay      float64              // per-hop score decay in (0, 1]
	NodeWeight func(*Node) float64  // multiplicative node prior (nil = 1)
	EdgeTypes  map[EdgeType]float64 // per-type edge multiplier (nil = 1)
}

// weightedExpand is the string-keyed expansion View.Expand replaced,
// kept verbatim as the reference it is compared against bit for bit:
// a best-first expansion from the anchors where a node's score is the
// best product of edge weights, per-hop decay, and a node prior
// (typically a centrality measure). The highest-scoring nodes settle
// first, so a budget yields the most topologically relevant subgraph.
func weightedExpand(g refReader, anchors []string, opts refExpandOptions) []refVisit {
	if opts.Decay <= 0 || opts.Decay > 1 {
		opts.Decay = 0.7
	}
	nodePrior := func(n *Node) float64 { return 1 }
	if opts.NodeWeight != nil {
		nodePrior = opts.NodeWeight
	}
	edgeMult := func(t EdgeType) float64 { return 1 }
	if opts.EdgeTypes != nil {
		edgeMult = func(t EdgeType) float64 {
			if m, ok := opts.EdgeTypes[t]; ok {
				return m
			}
			return 0 // unlisted types are not traversed
		}
	}

	settled := make(map[string]refVisit)
	best := make(map[string]float64)
	q := &expandQueue{}
	heap.Init(q)
	for _, a := range anchors {
		if !g.HasNode(a) {
			continue
		}
		if best[a] < 1 {
			best[a] = 1
			heap.Push(q, &expandItem{id: a, score: 1, depth: 0})
		}
	}
	for q.Len() > 0 {
		it := heap.Pop(q).(*expandItem)
		if _, done := settled[it.id]; done {
			continue
		}
		settled[it.id] = refVisit{ID: it.id, Depth: it.depth, Score: it.score}
		if opts.Budget > 0 && len(settled) >= opts.Budget {
			break
		}
		if it.depth >= opts.MaxDepth {
			continue
		}
		for _, e := range g.Out(it.id) {
			mult := edgeMult(e.Type)
			if mult == 0 {
				continue
			}
			n := g.Node(e.To)
			s := it.score * opts.Decay * e.Weight * mult * nodePrior(n)
			if s <= best[e.To] {
				continue
			}
			best[e.To] = s
			heap.Push(q, &expandItem{id: e.To, score: s, depth: it.depth + 1})
		}
	}
	visits := make([]refVisit, 0, len(settled))
	for _, v := range settled {
		visits = append(visits, v)
	}
	sort.Slice(visits, func(i, j int) bool {
		if visits[i].Score != visits[j].Score {
			return visits[i].Score > visits[j].Score
		}
		return visits[i].ID < visits[j].ID
	})
	return visits
}

// referencePageRank is the map-returning PageRank View.PageRank
// replaced, private index-space copy included, kept verbatim as the
// reference. It computes weighted PageRank over the directed graph. Edge
// weights bias the random walk; dangling mass is redistributed
// uniformly. Scores sum to 1 over all nodes. This is the "centrality
// measure[] to identify influential nodes" of Section III.B.
//
// The iteration runs pull-style over a dense index-space copy of the
// graph: each node gathers from its in-edges in list order, so every
// node's score is independent of how nodes are partitioned across
// workers — results are bit-identical at any worker count.
func referencePageRank(g refReader) map[string]float64 {
	n := g.NodeCount()
	out := make(map[string]float64, n)
	if n == 0 {
		return out
	}
	ids := g.NodeIDs()
	idx := make(map[string]int, n)
	for i, id := range ids {
		idx[id] = i
	}

	// CSR-style reverse adjacency plus per-node total outgoing weight:
	// the hot loop then touches only flat slices, no string hashing.
	outWeight := make([]float64, n)
	offs := make([]int, n+1)
	for i, id := range ids {
		for _, e := range g.Out(id) {
			outWeight[i] += e.Weight
		}
		offs[i+1] = offs[i] + len(g.In(id))
	}
	srcs := make([]int32, offs[n])
	ws := make([]float64, offs[n])
	for i, id := range ids {
		base := offs[i]
		for j, e := range g.In(id) {
			srcs[base+j] = int32(idx[e.From])
			ws[base+j] = e.Weight
		}
	}

	ranks := make([]float64, n)
	next := make([]float64, n)
	contrib := make([]float64, n)
	init := 1.0 / float64(n)
	for i := range ranks {
		ranks[i] = init
	}

	d := 0.85
	for iter := 0; iter < 40; iter++ {
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

		par.ForRange(n, 0, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				var s float64
				for k := offs[v]; k < offs[v+1]; k++ {
					s += contrib[srcs[k]] * ws[k]
				}
				next[v] = base + d*s
			}
		})

		// Convergence delta sums sequentially in index order so the
		// early-exit decision is also worker-count independent.
		var delta float64
		for i := 0; i < n; i++ {
			delta += math.Abs(next[i] - ranks[i])
		}
		ranks, next = next, ranks
		if delta < 1e-8 {
			break
		}
	}
	for i, id := range ids {
		out[id] = ranks[i]
	}
	return out
}

// refReader is what the references read of a graph: a Graph, or the
// naive refGraph.
type refReader interface {
	NodeIDs() []string
	NodeCount() int
	HasNode(id string) bool
	Node(id string) *Node
	Out(id string) []Edge
	In(id string) []Edge
}

// refGraph is the naive graph: every node a Node in a map and every edge
// an Edge in the lists of both its ends, in insertion order. It has no
// ranges, no half-edges and no vertex numbers, so a Graph whose rows are
// ranges is held to it.
type refGraph struct {
	nodes   map[string]Node
	out, in map[string][]Edge
	edges   int
}

func newRefGraph() *refGraph {
	return &refGraph{nodes: map[string]Node{}, out: map[string][]Edge{}, in: map[string][]Edge{}}
}

func (r *refGraph) EnsureNode(n Node) error {
	if _, ok := r.nodes[n.ID]; !ok {
		r.nodes[n.ID] = n
	}
	return nil
}

func (r *refGraph) ends(e *Edge) error {
	if !r.HasNode(e.From) || !r.HasNode(e.To) {
		return fmt.Errorf("%w: %s -> %s", ErrBadEdge, e.From, e.To)
	}
	if e.Weight == 0 {
		e.Weight = 1
	}
	return nil
}

func (r *refGraph) AddEdge(e Edge) error {
	if err := r.ends(&e); err != nil {
		return err
	}
	r.out[e.From] = append(r.out[e.From], e)
	r.in[e.To] = append(r.in[e.To], e)
	r.edges++
	return nil
}

func (r *refGraph) AddUndirected(e Edge) error {
	if err := r.ends(&e); err != nil {
		return err
	}
	rev := Edge{From: e.To, To: e.From, Type: e.Type, Weight: e.Weight}
	r.out[e.From] = append(r.out[e.From], e)
	r.in[e.To] = append(r.in[e.To], e)
	r.out[e.To] = append(r.out[e.To], rev)
	r.in[e.From] = append(r.in[e.From], rev)
	r.edges += 2
	return nil
}

func (r *refGraph) NodeIDs() []string { return slices.Sorted(maps.Keys(r.nodes)) }

func (r *refGraph) NodeCount() int { return len(r.nodes) }

func (r *refGraph) HasNode(id string) bool { _, ok := r.nodes[id]; return ok }

func (r *refGraph) Node(id string) *Node {
	n, ok := r.nodes[id]
	if !ok {
		return nil
	}
	return &n
}

func (r *refGraph) Out(id string) []Edge { return slices.Clone(r.out[id]) }

func (r *refGraph) In(id string) []Edge { return slices.Clone(r.in[id]) }

// refGraphOf loads a snapshot into the naive graph, through its full
// form.
func refGraphOf(data []byte) (*refGraph, error) {
	s, _, err := refExpand(data)
	if err != nil {
		return nil, err
	}
	r := newRefGraph()
	for _, n := range s.Nodes {
		r.EnsureNode(n.node())
	}
	for _, e := range s.Edges {
		if err := r.AddEdge(e); err != nil {
			return nil, err
		}
	}
	return r, nil
}
