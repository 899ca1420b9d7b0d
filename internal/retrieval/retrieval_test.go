package retrieval

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/slm"
	"repro/internal/store"
	"repro/internal/table"
	"repro/internal/vector"
)

func testNER() *slm.NER {
	n := slm.NewNER()
	n.AddGazetteer(slm.EntProduct, "Product Alpha", "Product Beta", "Widget Pro")
	n.AddGazetteer(slm.EntDrug, "Drug A", "Drug B")
	n.AddGazetteer(slm.EntSideEffect, "nausea", "fatigue", "headache")
	return n
}

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	txt := store.NewTextStore("notes")
	txt.Add("doc-alpha", "Product Alpha sold 42 units in Q2. Customers rated Product Alpha 4 stars. Product Alpha shipping was fast.")
	txt.Add("doc-beta", "Product Beta sold 20 units in Q2. Product Beta was rated 2 stars.")
	txt.Add("doc-med", "Patient P-1 received Drug A on 2024-05-01. Patient P-1 reported nausea. Patient P-2 received Drug B.")
	txt.Add("doc-noise", "The weather was sunny. Traffic was heavy downtown. Nothing else happened.")

	cat := table.NewCatalog()
	sales := table.New("sales", table.Schema{
		{Name: "product", Type: table.TypeString},
		{Name: "revenue", Type: table.TypeFloat},
	})
	sales.MustAppend([]table.Value{table.S("Product Alpha"), table.F(4200)})
	sales.MustAppend([]table.Value{table.S("Product Beta"), table.F(2000)})
	cat.Put(sales)

	m := store.NewMulti().Add(txt).Add(store.NewRelationalStore("db", cat))
	g, _, err := index.NewBuilder(testNER(), index.DefaultOptions()).Build(m)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTopologyAnchored(t *testing.T) {
	g := testGraph(t)
	r := NewTopology(g, testNER(), TopologyOptions{})
	ev := r.Retrieve("How many units did Product Alpha sell in Q2?", 5)
	if len(ev) == 0 {
		t.Fatal("no evidence")
	}
	if !strings.Contains(ev[0].Text, "Product Alpha") {
		t.Errorf("top evidence off-topic: %q", ev[0].Text)
	}
	for _, e := range ev {
		if strings.Contains(e.Text, "weather") {
			t.Errorf("noise retrieved: %q", e.Text)
		}
	}
}

func TestTopologyCrossModal(t *testing.T) {
	g := testGraph(t)
	r := NewTopology(g, testNER(), TopologyOptions{})
	ev := r.Retrieve("Product Alpha revenue", 10)
	var hasChunk, hasRow bool
	for _, e := range ev {
		if e.Kind == "chunk" {
			hasChunk = true
		}
		if e.Kind == "row" {
			hasRow = true
		}
	}
	if !hasChunk || !hasRow {
		t.Errorf("cross-modal evidence: chunk=%v row=%v", hasChunk, hasRow)
	}
}

func TestTopologyFallsBackToLexicalScan(t *testing.T) {
	g := testGraph(t)
	r := NewTopology(g, testNER(), TopologyOptions{})
	ev := r.Retrieve("what happened with the weather", 3)
	if len(ev) == 0 {
		t.Fatal("fallback returned nothing")
	}
	if !strings.Contains(ev[0].Text, "weather") {
		t.Errorf("fallback top: %q", ev[0].Text)
	}
}

func TestTopologyAblationNoCentrality(t *testing.T) {
	g := testGraph(t)
	r := NewTopology(g, testNER(), TopologyOptions{DisableCentral: true})
	if r.prior != nil {
		t.Error("pagerank computed despite ablation")
	}
	if ev := r.Retrieve("Product Alpha units", 3); len(ev) == 0 {
		t.Error("ablated retriever returned nothing")
	}
}

func TestTopologyExplainPath(t *testing.T) {
	g := testGraph(t)
	r := NewTopology(g, testNER(), TopologyOptions{})
	ev := r.Retrieve("Product Alpha ratings", 1)
	if len(ev) == 0 {
		t.Fatal("no evidence")
	}
	path := r.ExplainPath("Product Alpha ratings", ev[0].NodeID)
	if len(path) < 2 {
		t.Errorf("path = %v", path)
	}
	if !strings.HasPrefix(path[0], "ent:") {
		t.Errorf("path should start at an entity anchor: %v", path)
	}
}

// The expansion Retrieve runs per anchor settles no more nodes than its
// budget, here a smaller one than Retrieve's.
func TestTopologyBudgetRespected(t *testing.T) {
	r := NewTopology(testGraph(t), testNER(), TopologyOptions{})
	anchors := r.anchors(nil, r.ner.Recognize("Product Alpha sales"))
	if len(anchors) == 0 {
		t.Fatal("no anchor")
	}
	opts := graph.ExpandOptions{MaxDepth: maxDepth, Budget: 3, Decay: decay, Prior: r.prior, EdgeTypes: edgeTypes}
	var x graph.Expander
	if unbounded := r.view.Expand(&x, anchors[0], graph.ExpandOptions{MaxDepth: maxDepth, Decay: decay, EdgeTypes: edgeTypes}); len(unbounded) <= 3 {
		t.Fatalf("only %d nodes in reach: the budget cannot bite", len(unbounded))
	}
	if got := r.view.Expand(&x, anchors[0], opts); len(got) != 3 {
		t.Errorf("budget 3 settled %d nodes", len(got))
	}
}

func TestDenseRetrieval(t *testing.T) {
	g := testGraph(t)
	e := slm.NewEmbedder(slm.DefaultEmbeddingDim)
	d, err := NewDense(g, e, vector.NewFlat(e.Dim()))
	if err != nil {
		t.Fatal(err)
	}
	ev := d.Retrieve("patient reported nausea after drug", 3)
	if len(ev) == 0 {
		t.Fatal("no dense evidence")
	}
	if !strings.Contains(ev[0].Text, "nausea") && !strings.Contains(ev[0].Text, "Drug") {
		t.Errorf("top dense hit: %q", ev[0].Text)
	}
	if d.IndexSizeBytes() <= 0 {
		t.Error("index size must be positive")
	}
}

func TestDenseWithIVF(t *testing.T) {
	g := testGraph(t)
	e := slm.NewEmbedder(slm.DefaultEmbeddingDim)
	d, err := NewDense(g, e, vector.NewIVF(e.Dim(), 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	ev := d.Retrieve("Product Beta stars rating", 3)
	if len(ev) == 0 {
		t.Fatal("no IVF evidence")
	}
}

func TestBM25Retrieval(t *testing.T) {
	g := testGraph(t)
	r := NewBM25(g)
	ev := r.Retrieve("Product Beta units Q2", 3)
	if len(ev) == 0 {
		t.Fatal("no bm25 evidence")
	}
	if !strings.Contains(ev[0].Text, "Product Beta") {
		t.Errorf("top bm25 hit: %q", ev[0].Text)
	}
}

func TestBM25EmptyGraph(t *testing.T) {
	r := NewBM25(graph.New())
	if ev := r.Retrieve("anything", 3); len(ev) != 0 {
		t.Errorf("empty corpus returned %v", ev)
	}
}

func TestBM25NoMatch(t *testing.T) {
	g := testGraph(t)
	r := NewBM25(g)
	if ev := r.Retrieve("zzzz qqqq xxxx", 3); len(ev) != 0 {
		t.Errorf("nonsense query returned %v", ev)
	}
}

func TestRetrieverNames(t *testing.T) {
	g := testGraph(t)
	e := slm.NewEmbedder(32)
	d, _ := NewDense(g, e, vector.NewFlat(32))
	names := map[string]bool{}
	for _, r := range []Retriever{NewTopology(g, testNER(), TopologyOptions{}), d, NewBM25(g)} {
		if r.Name() == "" || names[r.Name()] {
			t.Errorf("bad name %q", r.Name())
		}
		names[r.Name()] = true
	}
}

func TestEvidenceHelpers(t *testing.T) {
	ev := []Evidence{
		{NodeID: "chunk:doc#0", Text: "a"},
		{NodeID: "row:db/sales/1", Text: "b"},
	}
	if got := Texts(ev); got[0] != "a" || got[1] != "b" {
		t.Errorf("Texts = %v", got)
	}
	ids := IDs(ev)
	if ids[0] != "doc#0" || ids[1] != "db/sales/1" {
		t.Errorf("IDs = %v", ids)
	}
}

func TestTopologyDeterministic(t *testing.T) {
	g := testGraph(t)
	r := NewTopology(g, testNER(), TopologyOptions{})
	a := r.Retrieve("Product Alpha sales in Q2", 5)
	b := r.Retrieve("Product Alpha sales in Q2", 5)
	if len(a) != len(b) {
		t.Fatal("nondeterministic length")
	}
	for i := range a {
		if a[i].NodeID != b[i].NodeID {
			t.Fatal("nondeterministic order")
		}
	}
}

func TestTopKRespected(t *testing.T) {
	g := testGraph(t)
	for _, r := range []Retriever{NewTopology(g, testNER(), TopologyOptions{}), NewBM25(g)} {
		if ev := r.Retrieve("Product Alpha Q2 units", 2); len(ev) > 2 {
			t.Errorf("%s returned %d > k", r.Name(), len(ev))
		}
	}
}

// The retriever reads the graph through the view its last Refresh took:
// what is indexed afterwards is invisible — and harmless — until the
// next Refresh, even with the centrality prior disabled.
func TestTopologyStaleUntilRefresh(t *testing.T) {
	for _, disableCentral := range []bool{false, true} {
		g := testGraph(t)
		ner := testNER()
		r := NewTopology(g, ner, TopologyOptions{DisableCentral: disableCentral})
		const query = "How is Widget Pro selling? Product Alpha too"
		before := r.Retrieve(query, -1)

		rec := store.Record{ID: "doc-widget", Source: "notes", Kind: store.KindText,
			Text: "Widget Pro sold 7 units in Q2. Product Alpha and Widget Pro shipped together."}
		if _, err := index.NewBuilder(ner, index.DefaultOptions()).IndexRecord(g, rec); err != nil {
			t.Fatal(err)
		}
		stale := r.Retrieve(query, -1)
		if len(stale) != len(before) {
			t.Fatalf("central=%v: stale view returned %d evidence, %d before the mutation", !disableCentral, len(stale), len(before))
		}
		for i := range stale {
			if stale[i] != before[i] {
				t.Errorf("central=%v: stale evidence[%d] = %+v, before the mutation %+v", !disableCentral, i, stale[i], before[i])
			}
		}

		r.Refresh()
		found := false
		for _, e := range r.Retrieve(query, -1) {
			found = found || strings.Contains(e.Text, "Widget Pro")
		}
		if !found {
			t.Errorf("central=%v: document indexed before Refresh not retrieved after it", !disableCentral)
		}
	}
}
