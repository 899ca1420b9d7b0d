package unisem

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
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
func (blipBackend) Scan(context.Context, federate.Fragment) (federate.Result, error) {
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

// readSnapshot returns the two files of a saved system.
func readSnapshot(t *testing.T, dir string) (graphJSON, catalogJSON string) {
	t.Helper()
	g, err := os.ReadFile(filepath.Join(dir, "graph.json"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := os.ReadFile(filepath.Join(dir, "catalog.json"))
	if err != nil {
		t.Fatal(err)
	}
	return string(g), string(c)
}

// TestLoadIgnoresStoredStatistics: catalog.json holds no statistics,
// and the "stats" block of a file from when it did — here one whose
// bounds and exact value sets lie about the rows beside them, so that
// believing it refutes predicates the rows satisfy — decides nothing:
// the loaded system's answers, result rows, plans and EXPLAIN (estimates
// and the optimizer's rules trace included) are the saved system's.
func TestLoadIgnoresStoredStatistics(t *testing.T) {
	dir := t.TempDir()
	orig := buildDemo(t)
	if err := orig.Save(dir); err != nil {
		t.Fatal(err)
	}
	_, catalog := readSnapshot(t, dir)
	if strings.Contains(catalog, `"stats"`) {
		t.Fatal("Save wrote statistics into catalog.json")
	}
	const lie = `"stats":[` +
		`{"col":"product","rows":3,"ndv":1,"min":"Product Zeta","max":"Product Zeta","exact":[{"v":"Product Zeta","n":3}]},` +
		`{"col":"quarter","rows":3,"ndv":1,"min":"Q9","max":"Q9","exact":[{"v":"Q9","n":3}]},` +
		`{"col":"revenue","rows":3,"ndv":3,"min":"5000","max":"9000","hist":[{"lo":"5000","hi":"9000","n":3,"ndv":3}]}],`
	lying := strings.Replace(catalog, `"name":"sales",`, `"name":"sales",`+lie, 1)
	if lying == catalog {
		t.Fatal("no sales table in catalog.json to attach statistics to")
	}
	if err := os.WriteFile(filepath.Join(dir, "catalog.json"), []byte(lying), 0o644); err != nil {
		t.Fatal(err)
	}
	// Builds that stored statistics wrote no MANIFEST.
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir, func(s *System) {
		s.Vocabulary(VocabProduct, "Product Alpha", "Product Beta")
		s.Vocabulary(VocabDrug, "Drug A")
		s.Vocabulary(VocabSideEffect, "nausea", "fatigue")
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, q := range []string{
		"SELECT product FROM sales WHERE revenue < 1400",
		"SELECT SUM(revenue) AS result FROM sales WHERE product = 'Product Alpha'",
		"SELECT product, revenue FROM sales WHERE quarter = 'Q2' ORDER BY revenue",
	} {
		want, err := orig.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) == 0 {
			t.Fatalf("%s: selects no rows, so it cannot tell a refuted scan from a real one", q)
		}
		got, err := loaded.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !slices.EqualFunc(got.Rows, want.Rows, slices.Equal[[]string]) {
			t.Errorf("%s: loaded rows %v, want %v", q, got.Rows, want.Rows)
		}
		if got.Plan() != want.Plan() || got.Explain() != want.Explain() {
			t.Errorf("%s: loaded plan and EXPLAIN\n%s\n%s\nwant\n%s\n%s", q, got.Plan(), got.Explain(), want.Plan(), want.Explain())
		}
	}
	for _, q := range []string{
		"What was the revenue of Product Alpha in Q3?",
		"What was the total revenue of Product Alpha?",
	} {
		want, err := orig.Ask(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Ask(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if got.Text != want.Text || got.Plan() != want.Plan() || got.Explain() != want.Explain() {
			t.Errorf("%q: loaded %q\n%s\n%s\nwant %q\n%s\n%s", q, got.Text, got.Plan(), got.Explain(), want.Text, want.Plan(), want.Explain())
		}
	}
}

// TestSaveRacingIngest runs Ingest, Ask and Save at once (run it under
// -race): every directory saved holds the graph and the catalog of one
// and the same number of ingests — byte for byte the two files a twin
// system saves after ingesting that prefix alone — and loads.
func TestSaveRacingIngest(t *testing.T) {
	const ingests = 12
	doc := func(i int) (id, text string) {
		return fmt.Sprintf("live-%d", i), fmt.Sprintf("Customer C-%d rated Product Beta %d stars. Customer C-%d praised Product Alpha.", 100+i, 1+i%5, 100+i)
	}
	// The twin's snapshot after each prefix; every ingest changes both files.
	twin := buildDemo(t)
	var graphs, catalogs []string
	for i := 0; ; i++ {
		dir := t.TempDir()
		if err := twin.Save(dir); err != nil {
			t.Fatal(err)
		}
		g, c := readSnapshot(t, dir)
		if i > 0 && (g == graphs[i-1] || c == catalogs[i-1]) {
			t.Fatalf("ingest %d left a file as it was", i)
		}
		graphs, catalogs = append(graphs, g), append(catalogs, c)
		if i == ingests {
			break
		}
		id, text := doc(i)
		if err := twin.Ingest("reviews", id, text); err != nil {
			t.Fatal(err)
		}
	}

	sys := buildDemo(t)
	root := t.TempDir()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	var saved []string
	go func() { // saves until the ingests are over, and once after
		defer wg.Done()
		for last := false; !last; {
			select {
			case <-done:
				last = true
			default:
			}
			dir := filepath.Join(root, fmt.Sprint("save-", len(saved)))
			if err := sys.Save(dir); err != nil {
				t.Error(err)
				return
			}
			saved = append(saved, dir)
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := sys.Ask("What is the average rating of Product Beta?"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < ingests; i++ {
		id, text := doc(i)
		if err := sys.Ingest("reviews", id, text); err != nil {
			t.Error(err)
		}
	}
	close(done)
	wg.Wait()

	prefixes := map[int]bool{}
	for _, dir := range saved {
		g, c := readSnapshot(t, dir)
		k := slices.Index(graphs, g)
		if k < 0 {
			t.Fatalf("%s: graph.json is the graph of no prefix of the ingests", dir)
		}
		if c != catalogs[k] {
			t.Fatalf("%s: graph.json is of %d ingests, catalog.json of %d", dir, k, slices.Index(catalogs, c))
		}
		prefixes[k] = true
		loaded, err := Load(dir, func(s *System) { s.Vocabulary(VocabProduct, "Product Alpha", "Product Beta") })
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		if got, want := loaded.Stats().Nodes, twin.Stats().Nodes; k == ingests && got != want {
			t.Errorf("%s: %d nodes loaded, the twin has %d", dir, got, want)
		}
	}
	if !prefixes[ingests] {
		t.Errorf("the save after the last ingest is of prefixes %v", prefixes)
	}
	t.Logf("%d saves, of prefixes %v", len(saved), prefixes)
}

// TestSaveReportsWriteErrors points the files a first Save writes (its
// epoch-1 names) at a device that takes no byte: Save returns the failed
// write's error (which the graph's buffered writer holds until its
// flush), and the graph's when both files fail.
func TestSaveReportsWriteErrors(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	sys := buildDemo(t)
	for _, c := range []struct {
		full []string
		want string
	}{
		{[]string{"graph.json", "catalog.json"}, "unisem: save graph: "},
		{[]string{"catalog.json"}, "unisem: save catalog: "},
		{[]string{"graph.json"}, "unisem: save graph: "},
	} {
		dir := t.TempDir()
		for _, name := range c.full {
			if err := os.Symlink("/dev/full", filepath.Join(dir, epochName(name, 1))); err != nil {
				t.Skip(err)
			}
		}
		for i := 0; i < 5; i++ { // the two writers race; the report does not
			err := sys.Save(dir)
			if err == nil || !strings.HasPrefix(err.Error(), c.want) || !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("%v on /dev/full: err = %v, want %s…: %v", c.full, err, c.want, syscall.ENOSPC)
			}
		}
	}
}

// TestLoadReportsGraphFirst pins which error Load returns now that it
// reads the two files at once: the graph's whenever the graph fails.
func TestLoadReportsGraphFirst(t *testing.T) {
	good := t.TempDir()
	if err := buildDemo(t).Save(good); err != nil {
		t.Fatal(err)
	}
	goodGraph, goodCatalog := readSnapshot(t, good)
	for _, c := range []struct {
		name           string
		graph, catalog *string // nil: no such file
		want           string
	}{
		{"both corrupt", ptr("{bad"), ptr("{bad"), "unisem: load graph: "},
		{"corrupt graph, no catalog", ptr("{bad"), nil, "unisem: load graph: "},
		{"no graph, corrupt catalog", nil, ptr("{bad"), "unisem: load: open "},
		{"corrupt catalog", &goodGraph, ptr("{bad"), "unisem: load catalog: "},
		{"no catalog", &goodGraph, nil, "unisem: load: open "},
		{"trailing bytes after the graph", ptr(goodGraph + "{}"), &goodCatalog, "unisem: load graph: "},
	} {
		dir := t.TempDir()
		for name, content := range map[string]*string{"graph.json": c.graph, "catalog.json": c.catalog} {
			if content != nil {
				if err := os.WriteFile(filepath.Join(dir, name), []byte(*content), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 5; i++ {
			_, err := Load(dir, nil)
			if err == nil || !strings.HasPrefix(err.Error(), c.want) {
				t.Fatalf("%s: err = %v, want %s…", c.name, err, c.want)
			}
			if c.graph == nil && !strings.Contains(err.Error(), "graph.json") {
				t.Fatalf("%s: err = %v, want the graph's", c.name, err)
			}
		}
	}
}

func ptr[T any](v T) *T { return &v }
