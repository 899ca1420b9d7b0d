package unisem

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/federate"
	"repro/internal/table"
)

var errExploded = errors.New("backend exploded")

// panicBackend serves a table like staticBackend, and panics in Scan
// once it has served calm scans.
type panicBackend struct {
	staticBackend
	calm *atomic.Int32
}

func (panicBackend) Name() string { return "panicky" }

func (b panicBackend) Scan(ctx context.Context, f federate.Fragment) (federate.Result, error) {
	if b.calm.Add(-1) < 0 {
		panic(errExploded)
	}
	return b.staticBackend.Scan(ctx, f)
}

// wantInternal fails unless err is the *InternalError op returns for a
// panic with want, with the plan's fingerprint when plan is set.
func wantInternal(t *testing.T, err error, op string, want any, plan bool) {
	t.Helper()
	var ie *InternalError
	if !errors.Is(err, ErrInternal) || !errors.As(err, &ie) {
		t.Fatalf("%s: err = %v, want an InternalError", op, err)
	}
	if ie.Op != op || ie.Value != want || (ie.Fingerprint != "") != plan || (strings.Contains(err.Error(), "(plan ")) != plan {
		t.Errorf("%s: %#v (%v)", op, ie, err)
	}
	if wantErr, ok := want.(error); ok && !errors.Is(err, wantErr) {
		t.Errorf("%s: %v does not wrap %v", op, err, wantErr)
	}
}

// TestPanicIsInternalError routes queries to a backend whose Scan
// panics: Ask, AskAll and Query return ErrInternal instead of crashing
// the process, the panic reaching them from the scan's worker goroutine,
// with the plan's fingerprint once a plan was made; and the system stays
// usable: no lock is left held.
func TestPanicIsInternalError(t *testing.T) {
	withBackend := func(calm int32) *System {
		sys := buildDemo(t)
		lat := table.New("latencies", table.Schema{{Name: "service", Type: table.TypeString}, {Name: "latency_ms", Type: table.TypeFloat}})
		lat.MustAppend([]table.Value{table.S("api"), table.F(120)})
		b := panicBackend{staticBackend{tbl: lat}, new(atomic.Int32)}
		b.calm.Store(calm)
		sys.RegisterBackend(b)
		return sys
	}
	// Binding the question scans the backend for its schema: no plan yet.
	_, err := withBackend(0).Ask("What is the average latency?")
	wantInternal(t, err, "Ask", errExploded, false)

	// Past the binding scan, the plan's own scan panics.
	sys := withBackend(1)
	_, err = sys.Ask("What is the average latency?")
	wantInternal(t, err, "Ask", errExploded, true)
	_, err = sys.Query("SELECT AVG(latency_ms) FROM latencies")
	wantInternal(t, err, "Query", errExploded, true)
	answers, err := sys.AskAll([]string{"What is the average rating of Product Alpha?", "What is the average latency?"}, 2)
	wantInternal(t, err, "AskAll", errExploded, true)
	if answers != nil {
		t.Errorf("AskAll returned %d answers beside its error", len(answers))
	}

	done := make(chan error, 1)
	go func() { done <- sys.Ingest("reviews", "r9", "Customer C-9 rated Product Beta 4 stars.") }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Ingest is still waiting: a recovered panic left the read lock held")
	}
	if ans, err := sys.Ask("What is the average rating of Product Alpha?"); err != nil || ans.Text == "" {
		t.Errorf("after the panics: %q, %v", ans.Text, err)
	}
}

// panicFS creates files whose writes panic.
type panicFS struct{ osFS }

func (panicFS) Create(name string) (snapshotFile, error) {
	f, err := osFS{}.Create(name)
	return panicFile{f}, err
}

type panicFile struct{ snapshotFile }

func (panicFile) Write([]byte) (int, error) { panic("disk on fire") }

// TestSavePanicIsInternalError: a panic while Save writes — on the
// graph's writer or the catalog's, each on a goroutine of its own — is
// an ErrInternal without a plan, and the next Save and Load work.
func TestSavePanicIsInternalError(t *testing.T) {
	sys := buildTiny(t)
	dir := t.TempDir()
	wantInternal(t, sys.save(panicFS{}, dir), "Save", "disk on fire", false)
	if _, err := os.Stat(filepath.Join(dir, manifestName)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a Save that panicked committed a MANIFEST (%v)", err)
	}
	if err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverAs: what the boundary makes of a panic value, a plan's
// panic included, and that it leaves an error alone when nothing
// panicked.
func TestRecoverAs(t *testing.T) {
	run := func(v any) (err error) {
		defer recoverAs("Ingest", &err)
		if v != nil {
			panic(v)
		}
		return errExploded
	}
	if err := run(nil); err != errExploded {
		t.Errorf("no panic: err = %v", err)
	}
	wantInternal(t, run("index out of range"), "Ingest", "index out of range", false)
	err := run(&federate.PlanPanic{Fingerprint: "Scan(sales)", Value: errExploded})
	wantInternal(t, err, "Ingest", errExploded, true)
	if want := "unisem: Ingest: internal error: backend exploded (plan "; !strings.HasPrefix(err.Error(), want) {
		t.Errorf("err = %q, want it to start %q", err, want)
	}
}

// TestManifestVersions: version 1 (graph.json without a rows section)
// and 2 load; any other version is refused with the version named.
func TestManifestVersions(t *testing.T) {
	good := t.TempDir()
	if err := buildTiny(t).Save(good); err != nil {
		t.Fatal(err)
	}
	m, err := os.ReadFile(filepath.Join(good, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(m), `{"version":2,`) {
		t.Fatalf("Save wrote MANIFEST %s", m)
	}
	for version, want := range map[string]string{
		"1": "",
		"2": "",
		"3": "unisem: load: MANIFEST: format version 3, this build reads 2",
		"0": "unisem: load: MANIFEST: format version 0, this build reads 2",
	} {
		dir := copyDir(t, good)
		edited := strings.Replace(string(m), `"version":2`, `"version":`+version, 1)
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(edited), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(dir, nil)
		if got := fmtErr(err); got != want {
			t.Errorf("version %s: err = %q, want %q", version, got, want)
		}
	}
}

func fmtErr(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// nameless is a backend that panics when the federation asks its name,
// as registering it does.
type nameless struct{ staticBackend }

func (nameless) Name() string { panic(errExploded) }

// Build and Load recover a panic as Ask does: the backend a system
// registers before Build, or in Load's configure, panics when Build or
// Load attaches it, and each returns ErrInternal instead of crashing the
// process; the system Build left stays unbuilt.
func TestBuildAndLoadPanicIsInternalError(t *testing.T) {
	dir := t.TempDir()
	if err := buildDemo(t).Save(dir); err != nil {
		t.Fatal(err)
	}
	lat := table.New("latencies", table.Schema{{Name: "service", Type: table.TypeString}})
	sys := New()
	sys.AddDocument("notes", "n1", "Product Alpha sold well.")
	sys.RegisterBackend(nameless{staticBackend{tbl: lat}})
	wantInternal(t, sys.Build(), "Build", errExploded, false)
	if _, err := sys.Ask("What sold well?"); !errors.Is(err, ErrNotBuilt) {
		t.Errorf("Ask after a failed Build: %v", err)
	}
	loaded, err := Load(dir, func(s *System) { s.RegisterBackend(nameless{staticBackend{tbl: lat}}) })
	wantInternal(t, err, "Load", errExploded, false)
	if loaded != nil {
		t.Error("Load returned a system beside its error")
	}
}
