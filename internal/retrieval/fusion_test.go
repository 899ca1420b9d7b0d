package retrieval

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/slm"
	"repro/internal/vector"
)

func TestFusionCombines(t *testing.T) {
	g := testGraph(t)
	ner := testNER()
	embedder := slm.NewEmbedder(slm.DefaultEmbeddingDim)
	dense, err := NewDense(g, embedder, vector.NewFlat(embedder.Dim()))
	if err != nil {
		t.Fatal(err)
	}
	fusion := NewFusion(
		NewTopology(g, ner, TopologyOptions{}),
		dense,
		NewBM25(g),
	)
	if fusion.Name() != "rrf_fusion" {
		t.Errorf("name = %q", fusion.Name())
	}
	ev := fusion.Retrieve("How many units did Product Alpha sell in Q2?", 5)
	if len(ev) == 0 {
		t.Fatal("no fused evidence")
	}
	if len(ev) > 5 {
		t.Errorf("k not respected: %d", len(ev))
	}
	// Scores are strictly positive and descending.
	for i, e := range ev {
		if e.Score <= 0 {
			t.Errorf("score[%d] = %v", i, e.Score)
		}
		if i > 0 && ev[i-1].Score < e.Score {
			t.Error("not descending")
		}
	}
}

func TestFusionAgreementBoost(t *testing.T) {
	// A document found by all retrievers must outrank one found by a
	// single retriever at similar ranks. Construct via the shared
	// corpus: the on-topic chunk appears in all three top lists.
	g := testGraph(t)
	ner := testNER()
	embedder := slm.NewEmbedder(slm.DefaultEmbeddingDim)
	dense, err := NewDense(g, embedder, vector.NewFlat(embedder.Dim()))
	if err != nil {
		t.Fatal(err)
	}
	topo := NewTopology(g, ner, TopologyOptions{})
	bm := NewBM25(g)
	fusion := NewFusion(topo, dense, bm)

	query := "Product Beta units in Q2"
	fused := fusion.Retrieve(query, 3)
	if len(fused) == 0 {
		t.Fatal("no results")
	}
	// Count how many single retrievers rank the fused top-1 in their
	// own top-3; agreement should be at least 2 of 3.
	agree := 0
	for _, r := range []Retriever{topo, dense, bm} {
		for _, e := range r.Retrieve(query, 3) {
			if e.NodeID == fused[0].NodeID {
				agree++
				break
			}
		}
	}
	if agree < 2 {
		t.Errorf("fused top-1 %s agreed by only %d retrievers", fused[0].NodeID, agree)
	}
}

func TestFusionDeterministic(t *testing.T) {
	g := testGraph(t)
	fusion := NewFusion(NewBM25(g), NewBM25(g))
	a := fusion.Retrieve("Product Alpha stars", 4)
	b := fusion.Retrieve("Product Alpha stars", 4)
	if len(a) != len(b) {
		t.Fatal("length differs")
	}
	for i := range a {
		if a[i].NodeID != b[i].NodeID {
			t.Fatal("order differs")
		}
	}
}

// k < 0 means all evidence for every retriever; the fusion must hand it
// to its members, not a 20-item window.
func TestFusionNegativeKReturnsAll(t *testing.T) {
	g := graph.New()
	for i := 0; i < 30; i++ {
		g.EnsureNode(graph.Node{ID: fmt.Sprintf("chunk:d%02d", i), Type: graph.NodeChunk,
			Text: fmt.Sprintf("shipment %d arrived late", i)})
	}
	bm := NewBM25(g)
	all := bm.Retrieve("late shipment", -1)
	if len(all) != 30 {
		t.Fatalf("member returns %d of 30 documents", len(all))
	}
	fused := map[string]bool{}
	for _, e := range NewFusion(bm, NewTopology(g, testNER(), TopologyOptions{})).Retrieve("late shipment", -1) {
		fused[e.NodeID] = true
	}
	for _, e := range all {
		if !fused[e.NodeID] {
			t.Errorf("fused result misses %s", e.NodeID)
		}
	}
}
