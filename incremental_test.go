package unisem

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/index"
)

func TestIngestUpdatesAnswers(t *testing.T) {
	sys := buildDemo(t)

	// Before ingest: Product Beta has one 2-star review.
	ans, err := sys.Ask("What is the average rating of Product Beta?")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Text != "2" {
		t.Fatalf("pre-ingest rating = %q", ans.Text)
	}
	nodesBefore := sys.Stats().Nodes

	// Live-ingest a new review; no rebuild.
	if err := sys.Ingest("reviews", "r-live", "Customer C-9 rated Product Beta 4 stars."); err != nil {
		t.Fatal(err)
	}
	if sys.Stats().Nodes <= nodesBefore {
		t.Error("ingest did not grow the graph")
	}
	ans, err = sys.Ask("What is the average rating of Product Beta?")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Text != "3" { // (2+4)/2
		t.Errorf("post-ingest rating = %q", ans.Text)
	}
}

func TestIngestNewEntityRetrievable(t *testing.T) {
	sys := buildDemo(t)
	sys.Vocabulary(VocabProduct, "Product Nova")
	if err := sys.Ingest("reviews", "r-nova", "Customer C-11 rated Product Nova 5 stars. Product Nova shipped quickly."); err != nil {
		t.Fatal(err)
	}
	ans, err := sys.Ask("What is the average rating of Product Nova?")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Text != "5" {
		t.Errorf("new entity rating = %q (plan %s)", ans.Text, ans.Plan())
	}
	found := false
	for _, e := range ans.Evidence {
		if strings.Contains(e.Text, "Product Nova") {
			found = true
		}
	}
	if !found {
		t.Error("ingested document not retrieved as evidence")
	}
}

func TestIngestDuplicateRejected(t *testing.T) {
	sys := buildDemo(t)
	if err := sys.Ingest("reviews", "r1", "duplicate id"); !errors.Is(err, index.ErrDocExists) {
		t.Errorf("duplicate ingest: %v", err)
	}
}

func TestIngestBeforeBuild(t *testing.T) {
	sys := New()
	if err := sys.Ingest("x", "y", "z"); !errors.Is(err, ErrNotBuilt) {
		t.Errorf("err = %v", err)
	}
}

func TestExportKnowledgeTSV(t *testing.T) {
	sys := buildDemo(t)
	var buf bytes.Buffer
	if err := sys.ExportKnowledge(&buf, KnowledgeTSV); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "received") {
		t.Errorf("no treatment fact in:\n%s", out)
	}
	// TSV shape: 4 tab-separated fields per line.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if len(strings.Split(line, "\t")) != 4 {
			t.Errorf("bad TSV line %q", line)
		}
	}
}

func TestExportKnowledgeJSON(t *testing.T) {
	sys := buildDemo(t)
	var buf bytes.Buffer
	if err := sys.ExportKnowledge(&buf, KnowledgeJSON); err != nil {
		t.Fatal(err)
	}
	var triples []index.Triple
	if err := json.Unmarshal(buf.Bytes(), &triples); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(triples) == 0 {
		t.Fatal("no triples")
	}
	// Deterministic ordering.
	for i := 1; i < len(triples); i++ {
		if triples[i].Subject < triples[i-1].Subject {
			t.Fatal("triples not sorted")
		}
	}
	// Provenance present on at least one fact.
	hasSource := false
	for _, tr := range triples {
		if len(tr.Sources) > 0 {
			hasSource = true
		}
	}
	if !hasSource {
		t.Error("no source provenance")
	}
}

func TestExportKnowledgeErrors(t *testing.T) {
	sys := New()
	if err := sys.ExportKnowledge(&bytes.Buffer{}, KnowledgeTSV); !errors.Is(err, ErrNotBuilt) {
		t.Errorf("before build: %v", err)
	}
	built := buildDemo(t)
	if err := built.ExportKnowledge(&bytes.Buffer{}, KnowledgeFormat("xml")); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestIngestGrowsKnowledge(t *testing.T) {
	sys := buildDemo(t)
	var before bytes.Buffer
	sys.ExportKnowledge(&before, KnowledgeTSV)
	if err := sys.Ingest("notes", "n-live", "Patient P-9 received Drug A on 2024-06-01."); err != nil {
		t.Fatal(err)
	}
	var after bytes.Buffer
	sys.ExportKnowledge(&after, KnowledgeTSV)
	if after.Len() <= before.Len() {
		t.Error("knowledge did not grow after ingest")
	}
}
