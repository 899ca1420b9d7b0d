package retrieval

// The string-keyed retrieval Topology.Retrieve replaced, kept as the
// reference the index-space path is compared against bit for bit.
// Nothing outside the tests calls it.

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/slm"
	"repro/internal/workload"
)

func queryTerms(q string) map[string]bool {
	terms := make(map[string]bool)
	for _, w := range slm.Words(slm.Tokenize(q)) {
		if !slm.IsStopword(w) {
			terms[w] = true
		}
	}
	return terms
}

func lexicalOverlap(qTerms map[string]bool, text string) float64 {
	if len(qTerms) == 0 {
		return 0
	}
	hits := 0
	seen := map[string]bool{}
	for _, w := range slm.Words(slm.Tokenize(text)) {
		if qTerms[w] && !seen[w] {
			seen[w] = true
			hits++
		}
	}
	return float64(hits) / float64(len(qTerms))
}

type refItem struct {
	id    string
	score float64
	depth int
}

type refQueue []*refItem

func (q refQueue) Len() int            { return len(q) }
func (q refQueue) Less(i, j int) bool  { return q[i].score > q[j].score }
func (q refQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x interface{}) { *q = append(*q, x.(*refItem)) }
func (q *refQueue) Pop() interface{} {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// referenceExpand is graph.Graph's former WeightedExpand for one
// anchor: container/heap over string ids, maps for best and settled.
// It returns the settled score per node id.
func referenceExpand(g *graph.Graph, anchor string, maxDepth, budget int, decay float64,
	nodePrior func(*graph.Node) float64, edgeTypes map[graph.EdgeType]float64) map[string]float64 {
	settled := make(map[string]float64)
	best := map[string]float64{anchor: 1}
	q := &refQueue{}
	heap.Push(q, &refItem{id: anchor, score: 1})
	for q.Len() > 0 {
		it := heap.Pop(q).(*refItem)
		if _, done := settled[it.id]; done {
			continue
		}
		settled[it.id] = it.score
		if budget > 0 && len(settled) >= budget {
			break
		}
		if it.depth >= maxDepth {
			continue
		}
		for _, e := range g.Out(it.id) {
			mult := edgeTypes[e.Type] // unlisted types are not traversed
			if mult == 0 {
				continue
			}
			s := it.score * decay * e.Weight * mult * nodePrior(g.Node(e.To))
			if s <= best[e.To] {
				continue
			}
			best[e.To] = s
			heap.Push(q, &refItem{id: e.To, score: s, depth: it.depth + 1})
		}
	}
	return settled
}

// referenceRetrieve is Topology.Retrieve as it was over the string-keyed
// graph, given the PageRank prior as a map; depth 3, budget 256 and
// decay 0.7 are spelled here, not read from the package.
func referenceRetrieve(g *graph.Graph, ner *slm.NER, rank map[string]float64, query string, k int) []Evidence {
	var anchors []string
	seen := map[string]bool{}
	for _, e := range ner.Recognize(query) {
		id := index.EntityNodeID(e.Canonical)
		if !seen[id] && g.HasNode(id) {
			seen[id] = true
			anchors = append(anchors, id)
		}
	}
	sort.Strings(anchors)
	qTerms := queryTerms(query)
	var out []Evidence
	if len(anchors) == 0 {
		for _, typ := range []graph.NodeType{graph.NodeChunk, graph.NodeRow} {
			for _, n := range g.NodesOfType(typ) {
				text := n.Text
				if s := lexicalOverlap(qTerms, text); s > 0 {
					out = append(out, Evidence{NodeID: n.ID, Text: text, Score: s, Kind: string(typ)})
				}
			}
		}
	} else {
		edgeWeights := map[graph.EdgeType]float64{
			graph.EdgeMentions: 1.0,
			graph.EdgeNextTo:   0.4,
			graph.EdgePartOf:   0.2,
			graph.EdgeRelates:  0.5,
			graph.EdgeCueArg:   0.4,
			graph.EdgeCueIn:    0.6,
		}
		var norm float64
		for _, v := range rank {
			if v > norm {
				norm = v
			}
		}
		nodePrior := func(n *graph.Node) float64 { return 1 }
		if rank != nil && norm > 0 {
			nodePrior = func(n *graph.Node) float64 { return 0.5 + rank[n.ID]/norm }
		}
		total := make(map[string]float64)
		for _, a := range anchors {
			for id, s := range referenceExpand(g, a, 3, 256, 0.7, nodePrior, edgeWeights) {
				total[id] += s
			}
		}
		for id, s := range total {
			n := g.Node(id)
			if n.Type != graph.NodeChunk && n.Type != graph.NodeRow {
				continue
			}
			text := n.Text
			score := s * (1 + 2*lexicalOverlap(qTerms, text))
			out = append(out, Evidence{NodeID: id, Text: text, Score: score, Kind: string(n.Type)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].NodeID < out[j].NodeID
	})
	if k >= 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// benchCorpus generates one of the repository benchmark's two corpora
// at its size and indexes it.
func benchCorpus(t testing.TB, name string, seed uint64) (*workload.Corpus, *graph.Graph, *slm.NER) {
	t.Helper()
	var c *workload.Corpus
	switch name {
	case "ecommerce":
		c = workload.ECommerce(workload.ECommerceOptions{Products: 48, ReviewsPerProduct: 12, Quarters: 4, Noise: 0.3, Seed: seed})
	case "healthcare":
		c = workload.Healthcare(workload.HealthcareOptions{Drugs: 24, PatientsPerDrug: 20, Seed: seed})
	}
	ner := slm.NewNER()
	c.Register(ner)
	g, _, err := index.NewBuilder(ner, index.DefaultOptions()).Build(c.Sources)
	if err != nil {
		t.Fatal(err)
	}
	return c, g, ner
}

// TestRetrieveMatchesReference is the determinism contract of the
// index-space path: on the benchmark's corpora, for every generator
// query, the evidence is the reference's — same nodes in the same order
// with the same score bits, text and kind — under the default options
// and the centrality ablation, and PageRank has the bits the map-returning
// implementation produced before the view existed.
func TestRetrieveMatchesReference(t *testing.T) {
	// FNV-64a over (id, rank bits) in id order, recorded with
	// Graph.PageRank at the commit before the view replaced it.
	pageRankBefore := map[string]uint64{
		"ecommerce/42":    0xf6bbd47f7a25b501,
		"healthcare/42":   0x9e129a62c8d880fa,
		"ecommerce/1234":  0x90a5ffb04cf66c31,
		"healthcare/1234": 0x36c1e63164f3552b,
	}
	for _, seed := range []uint64{42, 1234} {
		for _, name := range []string{"ecommerce", "healthcare"} {
			c, g, ner := benchCorpus(t, name, seed)
			v := g.View(nil)
			pr := v.PageRank(0)
			rank := make(map[string]float64, len(pr))
			h := fnv.New64a()
			var b [8]byte
			for i, r := range pr {
				id := v.ID(i)
				rank[id] = r
				h.Write([]byte(id))
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(r))
				h.Write(b[:])
			}
			if got, want := h.Sum64(), pageRankBefore[fmt.Sprintf("%s/%d", name, seed)]; got != want {
				t.Errorf("%s seed %d: PageRank checksum %#x, before the view %#x", name, seed, got, want)
			}

			queries := []string{"what happened with the weather", "completely unrelated nonsense zzz"}
			for _, q := range c.Queries {
				queries = append(queries, q.Text)
			}
			for ab, opts := range map[string]TopologyOptions{"default": {}, "DisableCentral": {DisableCentral: true}} {
				r := NewTopology(g, ner, opts)
				refRank := rank
				if opts.DisableCentral {
					refRank = nil
				}
				for _, q := range queries {
					for _, k := range []int{0, 8, -1} {
						sameEvidence(t, fmt.Sprintf("%s seed %d %s %q k=%d", name, seed, ab, q, k),
							r.Retrieve(q, k), referenceRetrieve(g, ner, refRank, q, k))
					}
				}
			}
		}
	}
}

// Retrieve is RetrieveTagged over the recognizer's tags: on the
// benchmark's corpora, for every generator query, at every k, the
// evidence of the two entry points is the same.
func TestRetrieveTaggedMatchesRetrieve(t *testing.T) {
	for _, name := range []string{"ecommerce", "healthcare"} {
		c, g, ner := benchCorpus(t, name, 42)
		r := NewTopology(g, ner, TopologyOptions{})
		for _, q := range c.Queries {
			for _, k := range []int{0, 8, -1} {
				sameEvidence(t, fmt.Sprintf("%s %q k=%d", name, q.Text, k),
					r.RetrieveTagged(q.Text, ner.Recognize(q.Text), k), r.Retrieve(q.Text, k))
			}
		}
	}
}
