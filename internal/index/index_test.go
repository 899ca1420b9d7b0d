package index

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/slm"
	"repro/internal/store"
	"repro/internal/table"
)

func testNER() *slm.NER {
	n := slm.NewNER()
	n.AddGazetteer(slm.EntProduct, "Product Alpha", "Product Beta")
	n.AddGazetteer(slm.EntDrug, "Drug A")
	n.AddGazetteer(slm.EntSideEffect, "nausea", "fatigue")
	return n
}

func testSources() *store.Multi {
	txt := store.NewTextStore("notes")
	txt.Add("n1", "Patient P-1 received Drug A on 2024-05-01. Patient P-1 reported nausea.")
	txt.Add("n2", "Product Alpha sold 42 units in Q2. Customers rated Product Alpha 4 stars.")

	cat := table.NewCatalog()
	sales := table.New("sales", table.Schema{
		{Name: "product", Type: table.TypeString},
		{Name: "revenue", Type: table.TypeFloat},
	})
	sales.MustAppend([]table.Value{table.S("Product Alpha"), table.F(100)})
	cat.Put(sales)

	js := store.NewJSONStore("logs")
	js.LoadLines(strings.NewReader(`{"id":"e1","product":"Product Beta","event":"return"}`))

	return store.NewMulti().
		Add(txt).
		Add(store.NewRelationalStore("db", cat)).
		Add(js)
}

func TestBuildBasic(t *testing.T) {
	b := NewBuilder(testNER(), DefaultOptions())
	g, stats, err := b.Build(testSources())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Docs != 2 {
		t.Errorf("docs = %d", stats.Docs)
	}
	if stats.Chunks == 0 || stats.Entities == 0 || stats.Rows != 2 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.Nodes != g.NodeCount() || stats.Edges != g.EdgeCount() {
		t.Error("stats disagree with graph")
	}
	if stats.SizeBytes <= 0 || stats.BuildTime < 0 {
		t.Errorf("accounting: %+v", stats)
	}
}

func TestBuildLinksCrossModal(t *testing.T) {
	b := NewBuilder(testNER(), DefaultOptions())
	g, _, err := b.Build(testSources())
	if err != nil {
		t.Fatal(err)
	}
	// "product alpha" entity must link both a text chunk and the
	// relational row — the cross-modal bridge of Section III.A.
	entID := EntityNodeID("product alpha")
	if !g.HasNode(entID) {
		t.Fatalf("entity node missing; nodes: %v", g.CountByType())
	}
	var hasChunk, hasRow bool
	for _, nb := range g.Neighbors(entID) {
		if strings.HasPrefix(nb, "chunk:") {
			hasChunk = true
		}
		if strings.HasPrefix(nb, "row:") {
			hasRow = true
		}
	}
	if !hasChunk || !hasRow {
		t.Errorf("cross-modal links: chunk=%v row=%v neighbors=%v", hasChunk, hasRow, g.Neighbors(entID))
	}
}

func TestBuildCueNodes(t *testing.T) {
	b := NewBuilder(testNER(), DefaultOptions())
	g, stats, err := b.Build(testSources())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cues == 0 {
		t.Fatal("no cues inferred")
	}
	cues := g.NodesOfType(graph.NodeCue)
	foundReceived := false
	for _, c := range cues {
		if c.Verb == "received" {
			foundReceived = true
		}
	}
	if !foundReceived {
		t.Errorf("no 'received' cue among %d cues", len(cues))
	}
	// Relates edge between patient and drug.
	if len(g.Neighbors(EntityNodeID("drug a"), graph.EdgeRelates)) == 0 {
		t.Error("no relates edges for drug a")
	}
}

func TestBuildAblationNoCues(t *testing.T) {
	opts := DefaultOptions()
	opts.DisableCues = true
	g, stats, err := NewBuilder(testNER(), opts).Build(testSources())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cues != 0 || len(g.NodesOfType(graph.NodeCue)) != 0 {
		t.Error("cues built despite ablation")
	}
	if stats.Entities == 0 {
		t.Error("entities should still exist")
	}
}

func TestBuildAblationNoEntities(t *testing.T) {
	opts := DefaultOptions()
	opts.DisableEntityNodes = true
	g, stats, err := NewBuilder(testNER(), opts).Build(testSources())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Entities != 0 || len(g.NodesOfType(graph.NodeEntity)) != 0 {
		t.Error("entity nodes built despite ablation")
	}
	if stats.Chunks == 0 {
		t.Error("chunks should still exist")
	}
}

func TestBuildChunkSequenceEdges(t *testing.T) {
	txt := store.NewTextStore("long")
	var sb strings.Builder
	for i := 0; i < 30; i++ {
		sb.WriteString("This is a long filler sentence with many additional words to overflow chunk budgets easily. ")
	}
	txt.Add("doc", sb.String())
	g, stats, err := NewBuilder(testNER(), DefaultOptions()).Build(store.NewMulti().Add(txt))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Chunks < 2 {
		t.Fatalf("chunks = %d", stats.Chunks)
	}
	first := "chunk:doc#0"
	if len(g.Neighbors(first, graph.EdgeNextTo)) == 0 {
		t.Error("no next edges between chunks")
	}
}

func TestBuildEmptySources(t *testing.T) {
	g, stats, err := NewBuilder(testNER(), DefaultOptions()).Build(store.NewMulti())
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeCount() != 0 || stats.Docs != 0 {
		t.Errorf("empty build: %+v", stats)
	}
}

func TestBuildDeterministic(t *testing.T) {
	b := NewBuilder(testNER(), DefaultOptions())
	g1, _, err := b.Build(testSources())
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := NewBuilder(testNER(), DefaultOptions()).Build(testSources())
	if err != nil {
		t.Fatal(err)
	}
	if g1.NodeCount() != g2.NodeCount() || g1.EdgeCount() != g2.EdgeCount() {
		t.Error("builds differ")
	}
}

func TestBuildCostAccounting(t *testing.T) {
	cost := slm.NewCostModel(slm.SLMProfile())
	b := NewBuilder(testNER().WithCost(cost), DefaultOptions()).WithCost(cost)
	_, stats, err := b.Build(testSources())
	if err != nil {
		t.Fatal(err)
	}
	if stats.ModelCalls == 0 {
		t.Error("model calls not accounted")
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Docs: 1, Chunks: 2}
	if !strings.Contains(s.String(), "docs=1") {
		t.Errorf("stats string: %q", s.String())
	}
}
