package index

import (
	"bytes"
	"maps"
	"testing"

	"repro/internal/graph"
	"repro/internal/slm"
	"repro/internal/store"
	"repro/internal/workload"
)

// walkStats recomputes CountByType and SizeBytes the way they were
// defined before the graph kept them running: one walk over every
// node, payload field and out-edge.
func walkStats(g *graph.Graph) (map[graph.NodeType]int, int64) {
	counts := map[graph.NodeType]int{}
	var size int64
	for _, id := range g.NodeIDs() {
		n := g.Node(id)
		counts[n.Type]++
		size += int64(len(n.ID) + len(n.Label) + 16)
		for _, v := range []string{n.Text, n.Doc, n.EType, n.Verb, n.Arg1, n.Arg2} {
			if v != "" {
				size += int64(len(v) + 16)
			}
		}
		for _, e := range g.Out(id) {
			size += int64(len(e.From) + len(e.To) + len(e.Type) + 8)
		}
	}
	return counts, size
}

// The running statistics equal a full walk after a batch build, after
// incremental ingestion and after a JSON round trip.
func TestRunningStatsMatchFullWalk(t *testing.T) {
	check := func(stage string, g *graph.Graph) {
		t.Helper()
		counts, size := walkStats(g)
		if got := g.CountByType(); !maps.Equal(got, counts) {
			t.Errorf("%s: CountByType = %v, full walk %v", stage, got, counts)
		}
		if got := g.SizeBytes(); got != size {
			t.Errorf("%s: SizeBytes = %d, full walk %d", stage, got, size)
		}
	}
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	ner := slm.NewNER()
	c.Register(ner)
	b := NewBuilder(ner, DefaultOptions())
	g, _, err := b.Build(c.Sources)
	if err != nil {
		t.Fatal(err)
	}
	check("Build", g)

	stats, err := b.IndexRecord(g, store.Record{ID: "late-1", Source: "reviews", Kind: store.KindText,
		Text: "Product Alpha sold 42 units in Q2. Customers rated Product Alpha 4 stars."})
	if err != nil {
		t.Fatal(err)
	}
	check("IndexRecord", g)
	if counts, size := walkStats(g); stats.Entities != counts[graph.NodeEntity] || stats.SizeBytes != size {
		t.Errorf("IndexRecord stats: entities %d size %d, full walk %d and %d", stats.Entities, stats.SizeBytes, counts[graph.NodeEntity], size)
	}

	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := graph.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	check("ReadJSON", back)
	if back.SizeBytes() != g.SizeBytes() {
		t.Errorf("round trip changed SizeBytes: %d -> %d", g.SizeBytes(), back.SizeBytes())
	}

	// The returned counts are the caller's: writing to them changes nothing.
	g.CountByType()[graph.NodeEntity] = -1
	check("after caller wrote to CountByType's result", g)
}
