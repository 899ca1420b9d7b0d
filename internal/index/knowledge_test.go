package index

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/store"
)

func TestTriplesExtracted(t *testing.T) {
	b := NewBuilder(testNER(), DefaultOptions())
	g, _, err := b.Build(testSources())
	if err != nil {
		t.Fatal(err)
	}
	triples := Triples(g)
	if len(triples) == 0 {
		t.Fatal("no triples")
	}
	foundReceived := false
	for _, tr := range triples {
		if tr.Predicate == "received" {
			foundReceived = true
			if len(tr.Sources) == 0 {
				t.Error("received triple lacks provenance")
			}
		}
		if tr.Subject == "" || tr.Object == "" {
			t.Errorf("malformed triple %+v", tr)
		}
	}
	if !foundReceived {
		t.Errorf("no received triple among %d", len(triples))
	}
	// Sorted by subject.
	for i := 1; i < len(triples); i++ {
		if triples[i].Subject < triples[i-1].Subject {
			t.Fatal("triples not sorted")
		}
	}
}

func TestTriplesSerializers(t *testing.T) {
	b := NewBuilder(testNER(), DefaultOptions())
	g, _, err := b.Build(testSources())
	if err != nil {
		t.Fatal(err)
	}
	triples := Triples(g)

	var tsv bytes.Buffer
	if err := WriteTriplesTSV(&tsv, triples); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(tsv.String(), "\n"); lines != len(triples) {
		t.Errorf("tsv lines = %d, triples = %d", lines, len(triples))
	}

	var js bytes.Buffer
	if err := WriteTriplesJSON(&js, triples); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"predicate"`) {
		t.Error("json shape wrong")
	}
}

func TestIncrementalIndexRecord(t *testing.T) {
	b := NewBuilder(testNER(), DefaultOptions())
	g, stats0, err := b.Build(testSources())
	if err != nil {
		t.Fatal(err)
	}
	rec := store.Record{
		ID: "live-1", Source: "notes", Kind: store.KindText,
		Text: "Patient P-77 received Drug A on 2024-08-01. Patient P-77 reported fatigue.",
	}
	stats, err := b.IndexRecord(g, rec)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Nodes <= stats0.Nodes {
		t.Error("graph did not grow")
	}
	if !g.HasNode("doc:live-1") || !g.HasNode(EntityNodeID("p-77")) {
		t.Error("incremental nodes missing")
	}
	// Cue for the new relation exists.
	found := false
	for _, tr := range Triples(g) {
		if tr.Predicate == "received" && (tr.Subject == "p-77" || tr.Object == "p-77") {
			found = true
		}
	}
	if !found {
		t.Error("incremental cue missing")
	}
}

func TestIncrementalDuplicateRejected(t *testing.T) {
	b := NewBuilder(testNER(), DefaultOptions())
	g, _, err := b.Build(testSources())
	if err != nil {
		t.Fatal(err)
	}
	rec := store.Record{ID: "n1", Source: "notes", Kind: store.KindText, Text: "again"}
	if _, err := b.IndexRecord(g, rec); err == nil {
		t.Error("duplicate doc accepted")
	}
}

func TestIncrementalRowRecord(t *testing.T) {
	b := NewBuilder(testNER(), DefaultOptions())
	g, _, err := b.Build(testSources())
	if err != nil {
		t.Fatal(err)
	}
	rec := store.Record{
		ID: "logs/e99", Source: "logs", Kind: store.KindJSON,
		Text:   "service is SVC-9. latency ms is 42.",
		Fields: map[string]string{"service": "SVC-9", "latency_ms": "42"},
	}
	if _, err := b.IndexRecord(g, rec); err != nil {
		t.Fatal(err)
	}
	if !g.HasNode("row:logs/e99") {
		t.Error("row node missing")
	}
	// Duplicate row rejected.
	if _, err := b.IndexRecord(g, rec); err == nil {
		t.Error("duplicate row accepted")
	}
}

func TestIncrementalEquivalentToBatchAtThresholdOne(t *testing.T) {
	// Building doc-by-doc must yield the same node/edge counts as one
	// batch build.
	batchBuilder := NewBuilder(testNER(), DefaultOptions())
	batch, _, err := batchBuilder.Build(testSources())
	if err != nil {
		t.Fatal(err)
	}

	incBuilder := NewBuilder(testNER(), DefaultOptions())
	inc, _, err := incBuilder.Build(store.NewMulti()) // empty
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range testSources().Records() {
		if _, err := incBuilder.IndexRecord(inc, rec); err != nil {
			t.Fatal(err)
		}
	}
	if batch.NodeCount() != inc.NodeCount() || batch.EdgeCount() != inc.EdgeCount() {
		t.Errorf("batch %d/%d vs incremental %d/%d nodes/edges",
			batch.NodeCount(), batch.EdgeCount(), inc.NodeCount(), inc.EdgeCount())
	}
}
