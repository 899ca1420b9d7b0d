package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/graph"
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
