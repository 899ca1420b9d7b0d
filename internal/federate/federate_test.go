package federate

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/logical"
	"repro/internal/logical/refeval"
	"repro/internal/semop"
	"repro/internal/table"
)

// testCatalog builds a two-table catalog with enough rows that a scan
// driven by an equality is distinguishable from a full scan.
func testCatalog() *table.Catalog {
	c := table.NewCatalog()
	sales := table.New("sales", table.Schema{
		{Name: "product", Type: table.TypeString},
		{Name: "quarter", Type: table.TypeString},
		{Name: "units", Type: table.TypeInt},
	})
	products := []string{"Alpha", "Beta", "Gamma", "Delta"}
	for i := 0; i < 48; i++ {
		sales.MustAppend([]table.Value{
			table.S(products[i%len(products)]),
			table.S(fmt.Sprintf("Q%d", i%4+1)),
			table.I(int64(10 + i)),
		})
	}
	c.Put(sales)
	changes := table.New("metric_changes", table.Schema{
		{Name: "product", Type: table.TypeString},
		{Name: "change_pct", Type: table.TypeFloat},
	})
	for i := 0; i < 16; i++ {
		changes.MustAppend([]table.Value{
			table.S(products[i%len(products)]),
			table.F(float64(i*5 - 20)),
		})
	}
	c.Put(changes)
	return c
}

// render flattens a table to a comparable string (schema + all rows).
// rowsOf reads a scan's output as rows, applying a pending projection.
func rowsOf(t *testing.T, r Result) *table.Table {
	t.Helper()
	if r.Columns == nil {
		return r.Table
	}
	rows, err := table.Project(r.Table, r.Columns...)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func render(t *table.Table) string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Schema.Names(), ","))
	for _, row := range t.Rows {
		b.WriteByte('\n')
		for i, v := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(table.FormatValue(v))
		}
	}
	return b.String()
}

// drivingResidue returns the predicates the federation layer evaluates
// over the driving fragment's output: the residual Filter directly
// above Input 0, nil when the backend absorbed the whole conjunction.
func drivingResidue(n *logical.Node) []table.Pred {
	if n == nil {
		return nil
	}
	if c := n.Child(); n.Op == logical.OpFilter && c != nil && c.Op == logical.OpInput && c.Index == 0 {
		return n.Preds
	}
	for _, in := range n.In {
		if preds := drivingResidue(in); preds != nil {
			return preds
		}
	}
	return nil
}

func newTestExecutor(c *table.Catalog, workers int) *Executor {
	return New(c.Epoch, Options{Workers: workers}, NewMemory(c), NewSQL(c))
}

// execPlan runs a bound plan through the production composition:
// compile to the shared IR, optimize against the catalog that bound it
// (nil for no statistics), execute.
func execPlan(e *Executor, p *semop.Plan, c *table.Catalog) (*table.Table, *Run, error) {
	return e.ExecuteIR(logical.Optimize(semop.Compile(p), logical.CatalogStats(c)))
}

func TestMemoryIndexScanMatchesFilter(t *testing.T) {
	c := testCatalog()
	m := NewMemory(c)
	tbl, _ := c.Get("sales")
	preds := []table.Pred{
		{Col: "product", Op: table.OpEq, Val: table.S("Beta")},
		{Col: "units", Op: table.OpGt, Val: table.I(20)},
	}
	res, err := m.Scan(context.Background(), Fragment{Table: "sales", Preds: preds})
	if err != nil {
		t.Fatal(err)
	}
	want, err := refeval.Eval(&logical.Node{Op: logical.OpFilter, Preds: preds,
		In: []*logical.Node{{Op: logical.OpScan, Table: "sales"}}}, c)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(rowsOf(t, res)); got != render(want) {
		t.Errorf("equality-driven scan diverges from filter:\n%s\nvs\n%s", got, render(want))
	}
	if res.Scanned >= tbl.Len() {
		t.Errorf("scanned %d rows, want fewer than %d (no driving equality)", res.Scanned, tbl.Len())
	}
	if res.Scanned != 12 { // 48 rows / 4 products
		t.Errorf("scanned = %d, want the 12-row Beta bucket", res.Scanned)
	}
}

func TestMemoryIndexInvalidatesOnEpoch(t *testing.T) {
	c := testCatalog()
	m := NewMemory(c)
	pred := []table.Pred{{Col: "product", Op: table.OpEq, Val: table.S("Alpha")}}
	res, err := m.Scan(context.Background(), Fragment{Table: "sales", Preds: pred})
	if err != nil {
		t.Fatal(err)
	}
	before := res.Table.Len()

	tbl, _ := c.Get("sales")
	tbl.MustAppend([]table.Value{table.S("Alpha"), table.S("Q1"), table.I(99)})
	c.Put(tbl) // re-derives the fragments the scan reads

	res, err = m.Scan(context.Background(), Fragment{Table: "sales", Preds: pred})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Len() != before+1 {
		t.Errorf("post-mutation rows = %d, want %d (stale fragments)", res.Table.Len(), before+1)
	}
}

func TestExecuteMatchesSemopExec(t *testing.T) {
	c := testCatalog()
	e := newTestExecutor(c, 0)
	plans := map[string]*semop.Plan{
		"filtered aggregate": {
			Table: "sales", MetricCol: "units",
			Filters: []table.Pred{{Col: "product", Op: table.OpEq, Val: table.S("Alpha")}},
			Aggs:    []table.Agg{{Func: table.AggSum, Col: "units", As: "result"}},
		},
		"group by": {
			Table: "sales", MetricCol: "units",
			GroupBy: []string{"product"},
			Aggs:    []table.Agg{{Func: table.AggAvg, Col: "units", As: "result"}},
		},
		"join": {
			Table: "sales", MetricCol: "units",
			Filters:   []table.Pred{{Col: "quarter", Op: table.OpEq, Val: table.S("Q2")}},
			Aggs:      []table.Agg{{Func: table.AggAvg, Col: "units", As: "result"}},
			JoinTable: "metric_changes", JoinLeftCol: "product", JoinRightCol: "product",
			JoinFilters: []table.Pred{{Col: "change_pct", Op: table.OpGt, Val: table.F(15)}},
		},
		"compare": {
			Table: "sales", MetricCol: "units",
			Comparison: []string{"Alpha", "Beta"}, CompareCol: "product",
			GroupBy: []string{"product"},
			Aggs:    []table.Agg{{Func: table.AggSum, Col: "units", As: "result"}},
		},
		"list": {
			Table: "sales", MetricCol: "units",
			Filters:   []table.Pred{{Col: "quarter", Op: table.OpEq, Val: table.S("Q3")}},
			LimitRows: 50,
		},
	}
	for name, p := range plans {
		got, run, err := execPlan(e, p, c)
		if err != nil {
			t.Fatalf("%s: execute: %v", name, err)
		}
		want, err := refeval.Eval(semop.Compile(p), c)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if render(got) != render(want) {
			t.Errorf("%s: federated result diverges:\n%s\nvs\n%s", name, render(got), render(want))
		}
		if run.RowsOut != got.Len() {
			t.Errorf("%s: run.RowsOut = %d, want %d", name, run.RowsOut, got.Len())
		}
	}
}

func TestAggregatePushdownScansBucketOnly(t *testing.T) {
	c := testCatalog()
	e := newTestExecutor(c, 1)
	p := &semop.Plan{
		Table: "sales", MetricCol: "units",
		Filters: []table.Pred{{Col: "product", Op: table.OpEq, Val: table.S("Gamma")}},
		Aggs:    []table.Agg{{Func: table.AggSum, Col: "units", As: "result"}},
	}
	_, run, err := execPlan(e, p, c)
	if err != nil {
		t.Fatal(err)
	}
	fr := run.Fragments[0]
	if fr.Backend != "memory" {
		t.Errorf("backend = %s, want memory (cheapest)", fr.Backend)
	}
	if len(fr.Aggs) == 0 {
		t.Error("aggregate was not pushed down")
	}
	if fr.ActScanned != 12 {
		t.Errorf("scanned %d rows, want the 12-row Gamma bucket", fr.ActScanned)
	}
	if fr.Est.Scanned != fr.ActScanned {
		t.Errorf("est scan %d != actual %d (the per-value count should be exact)", fr.Est.Scanned, fr.ActScanned)
	}
}

// costBackend wraps another backend under a new name with a fixed
// planner cost, to steer routing in tests.
type costBackend struct {
	Backend
	name string
	cost float64
}

func (cb costBackend) Name() string { return cb.name }
func (cb costBackend) Estimate(tbl string, preds []table.Pred) (Estimate, bool) {
	est, ok := cb.Backend.Estimate(tbl, preds)
	est.Cost = cb.cost
	return est, ok
}

func TestPlannerRoutesToCheapestBackend(t *testing.T) {
	c := testCatalog()
	e := New(c.Epoch, Options{},
		costBackend{Backend: NewMemory(c), name: "pricey", cost: 1e6},
		costBackend{Backend: NewSQL(c), name: "bargain", cost: 1},
	)
	p := &semop.Plan{Table: "sales", MetricCol: "units", LimitRows: 10}
	_, run, err := execPlan(e, p, c)
	if err != nil {
		t.Fatal(err)
	}
	if got := run.Fragments[0].Backend; got != "bargain" {
		t.Errorf("planner chose %s, want bargain", got)
	}

	// Re-registering the expensive backend as cheap must flush cached
	// plans and flip the routing.
	e.Register(costBackend{Backend: NewMemory(c), name: "pricey", cost: 0.5})
	_, run, err = execPlan(e, p, c)
	if err != nil {
		t.Fatal(err)
	}
	if got := run.Fragments[0].Backend; got != "pricey" {
		t.Errorf("after re-registration planner chose %s, want pricey", got)
	}
}

func TestPlanCacheHitsAndEpochInvalidation(t *testing.T) {
	c := testCatalog()
	e := newTestExecutor(c, 1)
	p := &semop.Plan{
		Table: "sales", MetricCol: "units",
		Filters: []table.Pred{{Col: "product", Op: table.OpEq, Val: table.S("Alpha")}},
		Aggs:    []table.Agg{{Func: table.AggSum, Col: "units", As: "result"}},
	}
	if _, _, err := execPlan(e, p, c); err != nil {
		t.Fatal(err)
	}
	if _, _, err := execPlan(e, p, c); err != nil {
		t.Fatal(err)
	}
	hits, misses, size := e.PlanCacheStats()
	if hits != 1 || misses != 1 || size != 1 {
		t.Errorf("cache stats = %d hits %d misses %d entries, want 1/1/1", hits, misses, size)
	}

	tbl, _ := c.Get("sales")
	c.Put(tbl) // epoch bump invalidates the cached physical plan
	if _, _, err := execPlan(e, p, c); err != nil {
		t.Fatal(err)
	}
	hits, misses, _ = e.PlanCacheStats()
	if hits != 1 || misses != 2 {
		t.Errorf("post-epoch stats = %d hits %d misses, want 1 hit 2 misses", hits, misses)
	}
}

func TestSQLBackendParityWithMemory(t *testing.T) {
	c := testCatalog()
	s := NewSQL(c)
	m := NewMemory(c)
	frags := []Fragment{
		{Table: "sales", Preds: []table.Pred{{Col: "quarter", Op: table.OpEq, Val: table.S("Q1")}}},
		{Table: "sales",
			Preds:   []table.Pred{{Col: "units", Op: table.OpGe, Val: table.I(30)}},
			GroupBy: []string{"product"},
			Aggs:    []table.Agg{{Func: table.AggAvg, Col: "units", As: "result"}}},
		{Table: "metric_changes", Columns: []string{"product"}},
		// Float thresholds a 'g'-format writer would put in exponent form.
		{Table: "sales", Preds: []table.Pred{{Col: "units", Op: table.OpLt, Val: table.F(1e6)}}},
		{Table: "sales",
			Preds: []table.Pred{{Col: "units", Op: table.OpGt, Val: table.F(2.5e-7)}},
			Aggs:  []table.Agg{{Func: table.AggSum, Col: "units"}}},
	}
	for i, f := range frags {
		sr, err := s.Scan(context.Background(), f)
		if err != nil {
			t.Fatalf("frag %d: sql scan: %v", i, err)
		}
		mr, err := m.Scan(context.Background(), f)
		if err != nil {
			t.Fatalf("frag %d: memory scan: %v", i, err)
		}
		if got, want := render(rowsOf(t, sr)), render(rowsOf(t, mr)); got != want {
			t.Errorf("frag %d: sql and memory disagree:\n%s\nvs\n%s", i, got, want)
		}
	}
}

func TestSQLCanPushRejectsUnlexableLiterals(t *testing.T) {
	s := NewSQL(testCatalog())
	reject := []table.Pred{
		{Col: "bad col", Op: table.OpEq, Val: table.I(1)}, // non-identifier column
		{Col: "count", Op: table.OpGt, Val: table.I(2)},   // keyword column
		{Col: "product", Op: table.OpEq, Val: table.S("a\nb")},
		{Col: "units", Op: table.OpEq, Val: table.Null(table.TypeInt)},
		{Col: "units", Op: table.OpLt, Val: table.F(math.Inf(1))},
		{Col: "units", Op: table.OpEq, Val: table.F(math.NaN())},
	}
	for _, p := range reject {
		if s.CanPush("sales", p) {
			t.Errorf("CanPush accepted unlexable predicate %v", p)
		}
	}
	accept := []table.Pred{
		{Col: "units", Op: table.OpGt, Val: table.F(15.5)},
		{Col: "units", Op: table.OpLt, Val: table.F(-3)},
		{Col: "product", Op: table.OpContains, Val: table.S("Al'pha")},
		{Col: "units", Op: table.OpGt, Val: table.F(1e6)},    // writes 1000000.0
		{Col: "units", Op: table.OpGt, Val: table.F(2.5e-7)}, // writes 0.00000025
	}
	for _, p := range accept {
		if !s.CanPush("sales", p) {
			t.Errorf("CanPush rejected lexable predicate %v", p)
		}
	}
	// The planner must fall back to federation-side filtering, not fail.
	c := testCatalog()
	e := New(nil, Options{}, NewSQL(c))
	p := &semop.Plan{
		Table: "sales", MetricCol: "units",
		Filters:   []table.Pred{{Col: "units", Op: table.OpLt, Val: table.F(math.Inf(1))}},
		LimitRows: 50,
	}
	res, run, err := execPlan(e, p, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 48 {
		t.Errorf("rows = %d, want all 48 under the infinite threshold", res.Len())
	}
	if post := drivingResidue(run.Plan.Residual); len(run.Fragments[0].Preds) != 0 || len(post) != 1 {
		t.Errorf("unpushable predicate not kept federation-side: push=%v post=%v",
			run.Fragments[0].Preds, post)
	}
	want, _, err := execPlan(New(nil, Options{}, NewMemory(c)), p, c)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := render(res), render(want); got != want {
		t.Errorf("sql backend and memory backend disagree:\n%s\nvs\n%s", got, want)
	}
}

// A column named by a keyword has no dialect form, so its predicates
// stay in the residual and an SQL-only executor answers the filter the
// way the memory backend does.
func TestSQLBackendKeywordColumn(t *testing.T) {
	c := table.NewCatalog()
	tbl := table.New("tally", table.Schema{
		{Name: "product", Type: table.TypeString},
		{Name: "count", Type: table.TypeInt},
	})
	for i, name := range []string{"Alpha", "Beta", "Gamma", "Delta"} {
		tbl.MustAppend([]table.Value{table.S(name), table.I(int64(i))})
	}
	c.Put(tbl)
	p := &semop.Plan{
		Table:     "tally",
		Filters:   []table.Pred{{Col: "count", Op: table.OpGt, Val: table.I(2)}},
		LimitRows: 50,
	}
	got, _, err := execPlan(New(nil, Options{}, NewSQL(c)), p, c)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := execPlan(New(nil, Options{}, NewMemory(c)), p, c)
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(want) || got.Len() != 1 {
		t.Errorf("sql backend:\n%s\nmemory backend:\n%s", render(got), render(want))
	}
}

func TestGraphEvidenceBackend(t *testing.T) {
	g := graph.New()
	for i, name := range []string{"Drug A", "Drug B", "nausea"} {
		id := fmt.Sprintf("entity:%d", i)
		g.EnsureNode(graph.Node{ID: id, Type: graph.NodeEntity, Label: name,
			EType: "drug"})
	}
	epoch := uint64(1)
	ge := NewGraphEvidence(g, func() uint64 { return epoch })
	e := New(func() uint64 { return epoch }, Options{}, ge)

	p := &semop.Plan{
		Table: GraphEntitiesTable, MetricCol: "degree",
		Filters: []table.Pred{{Col: "etype", Op: table.OpEq, Val: table.S("drug")}},
		Aggs:    []table.Agg{{Func: table.AggCount, Col: "", As: "result"}},
	}
	res, run, err := execPlan(e, p, e.BindingCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || table.FormatValue(res.Rows[0][0]) != "3" {
		t.Errorf("count over graph_entities = %s, want 3", render(res))
	}
	// The graph backend pushes filters only: the planner must keep the
	// aggregate in the federation layer.
	if len(run.Fragments[0].Aggs) > 0 {
		t.Error("aggregate pushed to a backend that absorbs none")
	}
	if len(run.Fragments[0].Preds) == 0 {
		t.Error("filter was not pushed down to the graph backend")
	}

	// Epoch move re-materializes the views.
	g.EnsureNode(graph.Node{ID: "entity:3", Type: graph.NodeEntity, Label: "Drug C",
		EType: "drug"})
	epoch++
	res, _, err = execPlan(e, p, e.BindingCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if table.FormatValue(res.Rows[0][0]) != "4" {
		t.Errorf("post-ingest count = %s, want 4", table.FormatValue(res.Rows[0][0]))
	}
}

func TestBindingCatalogSpansBackends(t *testing.T) {
	c := testCatalog()
	g := graph.New()
	e := New(c.Epoch, Options{}, NewMemory(c), NewGraphEvidence(g, c.Epoch))
	bc := e.BindingCatalog()
	for _, want := range []string{"sales", "metric_changes", GraphEntitiesTable, GraphTriplesTable} {
		if _, err := bc.Get(want); err != nil {
			t.Errorf("binding catalog misses %s: %v", want, err)
		}
	}
	// Cached per epoch: same pointer until the epoch moves.
	if e.BindingCatalog() != bc {
		t.Error("binding catalog rebuilt without an epoch move")
	}
	tbl, _ := c.Get("sales")
	c.Put(tbl)
	if e.BindingCatalog() == bc {
		t.Error("binding catalog not rebuilt after epoch move")
	}
}

// bindingStats is the statistics source of a query that only binds
// against the federated schema surface — Hybrid's unbound-name fallback.
func bindingStats(e *Executor) logical.Stats {
	return logical.CatalogStats(e.BindingCatalog())
}

// TestBindingCatalogNotCachedAfterFailedScan pins the fallback
// surface's fault handling: a transient scan failure while
// materializing must not be cached for the epoch. The chaos schedule
// (seed 1) injects exactly one transient fault on the sole provider's
// unfiltered scan of sales.
func TestBindingCatalogNotCachedAfterFailedScan(t *testing.T) {
	c := testCatalog()
	e := New(c.Epoch, Options{}, NewChaos(NewMemory(c), ChaosOptions{Seed: 1, MaxTransient: 1, Tables: []string{"sales"}}))
	epoch := c.Epoch()
	first := e.BindingCatalog()
	if _, err := first.Get("sales"); !errors.Is(err, table.ErrNoTable) {
		t.Fatalf("first materialization: sales err = %v, want ErrNoTable (schedule should fail the scan)", err)
	}
	if _, err := first.Get("metric_changes"); err != nil {
		t.Errorf("untargeted table missing from the partial catalog: %v", err)
	}
	second := e.BindingCatalog()
	if _, err := second.Get("sales"); err != nil {
		t.Fatalf("second materialization still misses sales: %v (incomplete catalog was cached)", err)
	}
	if c.Epoch() != epoch {
		t.Fatal("epoch moved; the test must recover without an ingest")
	}
	if e.BindingCatalog() != second {
		t.Error("complete binding catalog not cached")
	}
}

// TestPlanningConsultsOnlyThePlansStatistics pins that lowering reads
// the statistics the plan was optimized against and nothing else: a
// pushed aggregate over the memory backend, planned at a fresh epoch,
// must not materialize the graph backend's views.
func TestPlanningConsultsOnlyThePlansStatistics(t *testing.T) {
	c := testCatalog()
	ge := NewGraphEvidence(graph.New(), c.Epoch)
	e := New(c.Epoch, Options{}, NewMemory(c), ge)
	before := viewsOf(ge)
	tbl, _ := c.Get("sales")
	c.Put(tbl) // epoch bump: nothing cached may serve the plan below
	p := &semop.Plan{
		Table: "sales", MetricCol: "units",
		GroupBy: []string{"product"},
		Aggs:    []table.Agg{{Func: table.AggSum, Col: "units", As: "result"}},
	}
	_, run, err := execPlan(e, p, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Fragments[0].Aggs) == 0 {
		t.Fatal("aggregate not pushed; the test needs the group-estimate path")
	}
	if got := run.Fragments[0].Est.Out; got != 4 {
		t.Errorf("pushed aggregate est out = %d, want the 4 product groups", got)
	}
	if viewsOf(ge) != before {
		t.Error("planning materialized the graph views: a second statistics source was consulted")
	}
}

// TestExecuteIRWithoutStatistics pins the nil-Stats contract: a plan
// carrying no statistics source lowers and runs (estimates fall back
// to the backends' own), and an Empty leaf, which only a schema source
// can materialize, fails with the no-schema error instead of panicking.
func TestExecuteIRWithoutStatistics(t *testing.T) {
	c := testCatalog()
	e := newTestExecutor(c, 1)
	p := &semop.Plan{
		Table: "sales", MetricCol: "units",
		GroupBy: []string{"product"},
		Aggs:    []table.Agg{{Func: table.AggSum, Col: "units", As: "result"}},
	}
	got, run, err := e.ExecuteIR(&logical.Optimized{Root: semop.Compile(p)})
	if err != nil {
		t.Fatal(err)
	}
	want, err := refeval.Eval(semop.Compile(p), c)
	if err != nil {
		t.Fatal(err)
	}
	if pushed := len(run.Fragments[0].Aggs) > 0; render(got) != render(want) || !pushed {
		t.Errorf("statistics-free run diverges (pushed=%v):\n%s\nvs\n%s", pushed, render(got), render(want))
	}

	empty := &logical.Node{Op: logical.OpEmpty, Table: "sales", Cols: []string{"units"}}
	if _, _, err := e.ExecuteIR(&logical.Optimized{Root: empty}); err == nil || !strings.Contains(err.Error(), "no schema for empty leaf sales") {
		t.Errorf("empty leaf without a schema source: err = %v, want the no-schema error", err)
	}
	res, _, err := e.ExecuteIR(&logical.Optimized{Root: empty, Stats: logical.CatalogStats(c)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 || strings.Join(res.Schema.Names(), ",") != "units" {
		t.Errorf("empty leaf = %d rows over %v, want 0 rows over [units]", res.Len(), res.Schema.Names())
	}
}

func TestNoBackendServesTable(t *testing.T) {
	e := New(nil, Options{}, NewMemory(table.NewCatalog()))
	_, _, err := execPlan(e, &semop.Plan{Table: "missing"}, nil)
	if !errors.Is(err, ErrNoBackend) {
		t.Errorf("err = %v, want ErrNoBackend", err)
	}
	if _, _, err := execPlan(e, nil, nil); !errors.Is(err, semop.ErrEmptyPlan) {
		t.Errorf("nil plan err = %v, want ErrEmptyPlan", err)
	}
}

func TestExplainDeterministicAcrossWorkers(t *testing.T) {
	p := &semop.Plan{
		Table: "sales", MetricCol: "units",
		Filters:   []table.Pred{{Col: "quarter", Op: table.OpEq, Val: table.S("Q2")}},
		Aggs:      []table.Agg{{Func: table.AggAvg, Col: "units", As: "result"}},
		JoinTable: "metric_changes", JoinLeftCol: "product", JoinRightCol: "product",
		JoinFilters: []table.Pred{{Col: "change_pct", Op: table.OpGt, Val: table.F(0)}},
	}
	var explains []string
	for _, workers := range []int{1, 2, 8} {
		c := testCatalog()
		e := newTestExecutor(c, workers)
		_, run, err := execPlan(e, p, c)
		if err != nil {
			t.Fatal(err)
		}
		explains = append(explains, Explain(run))
	}
	for i := 1; i < len(explains); i++ {
		if explains[i] != explains[0] {
			t.Errorf("explain differs at workers set %d:\n%s\nvs\n%s", i, explains[i], explains[0])
		}
	}
	if !strings.Contains(explains[0], "backend=memory") || !strings.Contains(explains[0], "est: scan") {
		t.Errorf("explain missing physical details:\n%s", explains[0])
	}
}
