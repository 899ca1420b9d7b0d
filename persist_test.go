package unisem

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/federate"
	"repro/internal/table"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	orig := buildDemo(t)

	// Reference answers before save.
	questions := []string{
		"What was the revenue of Product Alpha in Q3?",
		"What is the average rating of Product Alpha?",
		"Which side effects were reported for Drug A?",
	}
	want := map[string]string{}
	for _, q := range questions {
		ans, err := orig.Ask(q)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = ans.Text
	}

	if err := orig.Save(dir); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"graph.json", "catalog.json"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing %s: %v", f, err)
		}
	}

	loaded, err := Load(dir, func(s *System) {
		s.Vocabulary(VocabProduct, "Product Alpha", "Product Beta")
		s.Vocabulary(VocabDrug, "Drug A")
		s.Vocabulary(VocabSideEffect, "nausea", "fatigue")
	})
	if err != nil {
		t.Fatal(err)
	}

	// Same stats shape.
	if loaded.Stats().Nodes != orig.Stats().Nodes {
		t.Errorf("nodes: %d vs %d", loaded.Stats().Nodes, orig.Stats().Nodes)
	}
	// Same answers.
	for _, q := range questions {
		ans, err := loaded.Ask(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if ans.Text != want[q] {
			t.Errorf("%q: loaded %q, want %q", q, ans.Text, want[q])
		}
	}
	// Loaded system supports live ingest too.
	if err := loaded.Ingest("reviews", "r-after-load", "Customer C-8 rated Product Beta 4 stars."); err != nil {
		t.Fatal(err)
	}
}

func TestSaveBeforeBuild(t *testing.T) {
	if err := New().Save(t.TempDir()); !errors.Is(err, ErrNotBuilt) {
		t.Errorf("err = %v", err)
	}
}

func TestLoadMissingDir(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope"), nil); err == nil {
		t.Error("missing dir accepted")
	}
}

func TestLoadCorruptGraph(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "graph.json"), []byte("{bad"), 0o644)
	os.WriteFile(filepath.Join(dir, "catalog.json"), []byte("{}"), 0o644)
	if _, err := Load(dir, nil); err == nil {
		t.Error("corrupt graph accepted")
	}
}

func TestLoadCorruptCatalog(t *testing.T) {
	dir := t.TempDir()
	sys := buildDemo(t)
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, "catalog.json"), []byte("{bad"), 0o644)
	if _, err := Load(dir, nil); err == nil {
		t.Error("corrupt catalog accepted")
	}
}

// blipBackend undercuts the built-in backends' price for sales and then
// fails every scan transiently, so each query through it either retries
// (recording scan.retry) or, with retries disabled, fails straight over
// to the memory backend.
type blipBackend struct{ staticBackend }

func (blipBackend) Name() string { return "blip" }
func (blipBackend) Scan(federate.Fragment) (federate.Result, error) {
	return federate.Result{}, fault.Transient(errors.New("blip: try again"))
}

// TestLoadKeepsResilienceOptions pins that a loaded system runs under
// the same QueryTimeout and ScanRetries a built one does: both
// constructors translate the public options through hybridOptions.
func TestLoadKeepsResilienceOptions(t *testing.T) {
	dir := t.TempDir()
	if err := buildDemo(t).Save(dir); err != nil {
		t.Fatal(err)
	}
	sales := table.New("sales", table.Schema{{Name: "product", Type: table.TypeString}})
	sales.MustAppend([]table.Value{table.S("Product Alpha")})
	opts := DefaultOptions()
	opts.QueryTimeout = 30 * time.Millisecond
	opts.ScanRetries = -1

	// built and loaded construct the same system the two ways.
	built := func(b federate.Backend) *System {
		sys := NewWithOptions(opts)
		if err := sys.AddCSV("sales", strings.NewReader("product,quarter,revenue\nProduct Alpha,Q2,1200\n")); err != nil {
			t.Fatal(err)
		}
		sys.RegisterBackend(b)
		if err := sys.Build(); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	loaded := func(b federate.Backend) *System {
		sys, err := LoadWithOptions(dir, opts, func(s *System) { s.RegisterBackend(b) })
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	for name, construct := range map[string]func(federate.Backend) *System{"built": built, "loaded": loaded} {
		hung := construct(federate.NewChaos(staticBackend{tbl: sales}, federate.ChaosOptions{Hang: true}))
		if _, err := hung.Query("SELECT product FROM sales"); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: hanging backend under QueryTimeout: err = %v, want DeadlineExceeded", name, err)
		}

		flaky := construct(blipBackend{staticBackend{tbl: sales}})
		if _, err := flaky.Query("SELECT product FROM sales"); err != nil {
			t.Errorf("%s: failover past the blipping backend: %v", name, err)
		}
		metrics := strings.Join(flaky.Metrics(), " ")
		if strings.Contains(metrics, "scan.retry") || !strings.Contains(metrics, "scan.failover=1") {
			t.Errorf("%s: metrics = %q, want one failover and no retry under ScanRetries -1", name, metrics)
		}
	}
}
