package retrieval

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
)

// sameEvidence fails unless got and want hold the same nodes in the
// same order with the same score bits, text and kind.
func sameEvidence(t *testing.T, what string, got, want []Evidence) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d evidence, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].NodeID != want[i].NodeID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) ||
			got[i].Text != want[i].Text || got[i].Kind != want[i].Kind {
			t.Fatalf("%s: evidence[%d] = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// A memoised expansion is the expansion: on the benchmark's corpora, a
// Topology warmed by every query in shuffled order answers each query,
// at every k, exactly as a new Topology's first call does.
func TestRetrieveMemoMatchesFresh(t *testing.T) {
	for _, seed := range []uint64{42, 1234} {
		for _, name := range []string{"ecommerce", "healthcare"} {
			c, g, ner := benchCorpus(t, name, seed)
			queries := []string{"completely unrelated nonsense zzz"}
			for _, q := range c.Queries {
				queries = append(queries, q.Text)
			}
			warm := NewTopology(g, ner, TopologyOptions{})
			rng := rand.New(rand.NewSource(int64(seed)))
			for _, i := range rng.Perm(len(queries)) {
				warm.Retrieve(queries[i], 8)
			}
			if len(warm.memo) == 0 {
				t.Fatalf("%s seed %d: no expansion memoised", name, seed)
			}
			for _, q := range queries {
				for _, k := range []int{0, 1, 8, -1} {
					got := warm.Retrieve(q, k)
					sameEvidence(t, name+" "+q, got, NewTopology(g, ner, TopologyOptions{}).Retrieve(q, k))
					if k == 0 && got != nil {
						t.Fatalf("%s %q: k = 0 returned %v, want no evidence", name, q, got)
					}
				}
			}
		}
	}
}

// The memo lives and dies with the view: after the graph grows and
// Refresh runs, an anchor expanded before answers with the new
// evidence, exactly as a Topology built after the mutation does.
func TestRetrieveMemoDiesWithView(t *testing.T) {
	c, g, ner := benchCorpus(t, "ecommerce", 42)
	r := NewTopology(g, ner, TopologyOptions{})
	q := c.Queries[0].Text
	anchors := r.anchors(q)
	if len(anchors) == 0 {
		t.Fatalf("%q has no anchor", q)
	}
	before := r.Retrieve(q, -1)

	// The probe sorts after every entity, so the anchor keeps its view
	// index and a memo that outlived the view would still answer for it.
	const probe = "row:~memo-probe"
	g.EnsureNode(graph.Node{ID: probe, Type: graph.NodeRow, Text: "memo probe"})
	if err := g.AddEdge(graph.Edge{From: r.view.Node(anchors[0]).ID, To: probe, Type: graph.EdgeMentions, Weight: 10}); err != nil {
		t.Fatal(err)
	}
	sameEvidence(t, "before Refresh", r.Retrieve(q, -1), before)

	r.Refresh()
	got := r.Retrieve(q, -1)
	if !slices.ContainsFunc(got, func(e Evidence) bool { return e.NodeID == probe }) {
		t.Fatalf("after Refresh: %s not retrieved", probe)
	}
	sameEvidence(t, "after Refresh", got, NewTopology(g, ner, TopologyOptions{}).Retrieve(q, -1))
}

// Concurrent Retrieve calls on a cold Topology share anchors, so they
// race to fill the same memo entries; each must return exactly what a
// separate Topology returns alone (run with -race).
func TestTopologyConcurrentRetrieveMatchesSequential(t *testing.T) {
	c, g, ner := benchCorpus(t, "ecommerce", 42)
	seq := NewTopology(g, ner, TopologyOptions{})
	want := make([][]Evidence, len(c.Queries))
	for i, q := range c.Queries {
		want[i] = seq.Retrieve(q.Text, -1)
	}
	r := NewTopology(g, ner, TopologyOptions{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 3*len(c.Queries); n++ {
				i := (w*5 + n) % len(c.Queries)
				if got := r.Retrieve(c.Queries[i].Text, -1); !slices.Equal(got, want[i]) {
					t.Errorf("worker %d: %q differs from its sequential result", w, c.Queries[i].Text)
				}
			}
		}(w)
	}
	wg.Wait()
}
