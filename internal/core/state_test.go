package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/slm"
	"repro/internal/table"
	"repro/internal/workload"
)

// brokenWriter fails every write with its own error.
type brokenWriter struct{ err error }

func (w brokenWriter) Write([]byte) (int, error) { return 0, w.err }

// TestWriteStateReportsEachWriter pins that the two serializers, which
// run at once, each report their own writer's failure and neither
// hides the other's.
func TestWriteStateReportsEachWriter(t *testing.T) {
	h := hybridFor(t, workload.ECommerce(workload.DefaultECommerceOptions()))
	graphDown, catalogDown := errors.New("graph writer down"), errors.New("catalog writer down")
	for _, c := range []struct {
		gw, cw             io.Writer
		wantGraph, wantCat error
	}{
		{brokenWriter{graphDown}, brokenWriter{catalogDown}, graphDown, catalogDown},
		{io.Discard, brokenWriter{catalogDown}, nil, catalogDown},
		{brokenWriter{graphDown}, io.Discard, graphDown, nil},
		{io.Discard, io.Discard, nil, nil},
	} {
		gerr, cerr := h.WriteState(c.gw, c.cw)
		if !errors.Is(gerr, c.wantGraph) || !errors.Is(cerr, c.wantCat) || (c.wantGraph == nil) != (gerr == nil) || (c.wantCat == nil) != (cerr == nil) {
			t.Errorf("errors %v / %v, want %v / %v", gerr, cerr, c.wantGraph, c.wantCat)
		}
	}
}

// TestWriteStateRacingIngest writes the state while Ingest runs (run it
// under -race): every pair written is of one epoch — the catalog's
// ratings rows are those of the review documents in the graph — and
// makes a system through NewHybridFromState.
func TestWriteStateRacingIngest(t *testing.T) {
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	h := hybridFor(t, c)
	ratings := func(cat *table.Catalog) int {
		tbl, err := cat.Get("ratings")
		if err != nil {
			t.Fatal(err)
		}
		return tbl.Len()
	}
	docs := func(g *graph.Graph) int { return g.CountByType()[graph.NodeDoc] }
	baseRatings, baseDocs := ratings(h.Catalog()), docs(h.Graph())

	const ingests = 10
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < ingests; i++ {
			if err := h.Ingest("reviews", fmt.Sprint("live-", i), fmt.Sprintf("Customer C-%d rated Product Alpha %d stars.", 900+i, 1+i%5)); err != nil {
				t.Error(err)
			}
		}
	}()
	for i := 0; i < 2*ingests; i++ {
		var gb, cb bytes.Buffer
		if gerr, cerr := h.WriteState(&gb, &cb); gerr != nil || cerr != nil {
			t.Fatal(gerr, cerr)
		}
		g, err := graph.ReadJSON(&gb)
		if err != nil {
			t.Fatal(err)
		}
		cat, err := table.ReadCatalogJSON(&cb)
		if err != nil {
			t.Fatal(err)
		}
		if nd, nr := docs(g)-baseDocs, ratings(cat)-baseRatings; nd != nr || nd < 0 || nd > ingests {
			t.Fatalf("state %d: the graph has %d of the ingested documents, the catalog %d of their ratings", i, nd, nr)
		}
		if i == 0 {
			ner := slm.NewNER()
			c.Register(ner)
			if ans := NewHybridFromState(g, cat, ner, DefaultHybridOptions()).Answer(c.Queries[0].Text); !ans.Answered() {
				t.Errorf("system from the written state: %v", ans.Err)
			}
		}
	}
	wg.Wait()
}

// TestStatsBuiltLoadedGrown: index statistics are read from the graph,
// so a built system, the same system after a write/read round trip and
// both after ten Ingests report the graph's own counters — and therefore
// the same numbers as each other, BuildTime aside (a loaded system
// built nothing). An Ingest the index refuses leaves them where they
// were. An Ingest that fails after IndexRecord has changed the graph
// cannot be provoked from outside (AddEdge fails only on an endpoint or
// a 257th edge type that applyDocument never hands it), so that case is
// not here.
func TestStatsBuiltLoadedGrown(t *testing.T) {
	ofGraph := func(g *graph.Graph) index.Stats {
		byType := g.CountByType()
		return index.Stats{
			Docs: byType[graph.NodeDoc], Chunks: byType[graph.NodeChunk], Entities: byType[graph.NodeEntity],
			Cues: byType[graph.NodeCue], Rows: byType[graph.NodeRow],
			Nodes: g.NodeCount(), Edges: g.EdgeCount(), SizeBytes: g.SizeBytes(),
		}
	}
	timeless := func(h *Hybrid) index.Stats {
		s, _ := h.Stats()
		s.BuildTime = 0
		return s
	}
	for name, c := range map[string]*workload.Corpus{
		"ecommerce":  workload.ECommerce(workload.DefaultECommerceOptions()),
		"healthcare": workload.Healthcare(workload.DefaultHealthcareOptions()),
	} {
		built := hybridFor(t, c)
		if s, _ := built.Stats(); s.BuildTime <= 0 || s.Docs == 0 || s.Rows == 0 || s.Cues == 0 {
			t.Errorf("%s built: %+v", name, s)
		}

		var gb, cb bytes.Buffer
		if gerr, cerr := built.WriteState(&gb, &cb); gerr != nil || cerr != nil {
			t.Fatal(gerr, cerr)
		}
		g, err := graph.ReadJSON(&gb)
		if err != nil {
			t.Fatal(err)
		}
		cat, err := table.ReadCatalogJSON(&cb)
		if err != nil {
			t.Fatal(err)
		}
		ner := slm.NewNER()
		c.Register(ner)
		loaded := NewHybridFromState(g, cat, ner, DefaultHybridOptions())
		if s, _ := loaded.Stats(); s.BuildTime != 0 {
			t.Errorf("%s loaded: BuildTime = %v, want 0", name, s.BuildTime)
		}

		check := func(stage string) {
			t.Helper()
			if got, want := timeless(built), ofGraph(built.Graph()); got != want {
				t.Errorf("%s built, %s: Stats %+v, graph %+v", name, stage, got, want)
			}
			if got, want := timeless(loaded), ofGraph(loaded.Graph()); got != want {
				t.Errorf("%s loaded, %s: Stats %+v, graph %+v", name, stage, got, want)
			}
			if b, l := timeless(built), timeless(loaded); b != l {
				t.Errorf("%s, %s: built %+v, loaded %+v", name, stage, b, l)
			}
		}
		check("as built")
		docs := timeless(built).Docs
		for i := 0; i < 10; i++ {
			id, text := fmt.Sprint("grown-", i), fmt.Sprintf("Customer C-%d rated Product Alpha %d stars. Patient P-%d received Drug Alpha.", 900+i, 1+i%5, 900+i)
			for _, h := range []*Hybrid{built, loaded} {
				if err := h.Ingest("notes", id, text); err != nil {
					t.Fatal(err)
				}
			}
		}
		check("grown")
		if got := timeless(built).Docs; got != docs+10 {
			t.Errorf("%s: %d docs after ten ingests onto %d", name, got, docs)
		}
		before := timeless(built)
		if err := built.Ingest("notes", "grown-0", "Customer C-1 rated Product Beta 2 stars."); !errors.Is(err, index.ErrDocExists) {
			t.Fatalf("%s: second ingest of one id: %v", name, err)
		}
		if after := timeless(built); after != before {
			t.Errorf("%s: a refused ingest moved Stats: %+v -> %+v", name, before, after)
		}
	}
}
