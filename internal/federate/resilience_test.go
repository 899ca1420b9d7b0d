package federate

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/logical"
	"repro/internal/logical/refeval"
	"repro/internal/metrics"
	"repro/internal/semop"
	"repro/internal/table"
)

// resilienceTestPlans are the five physical-plan shapes the compilers
// emit, reused across the chaos tests.
func resilienceTestPlans() map[string]*semop.Plan {
	return map[string]*semop.Plan{
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
}

// TestTransientFaultsRetryToParity injects seeded transient failures
// on both backends and asserts every plan still returns results
// bit-identical to the reference evaluator's — through retries,
// without a single real sleep.
func TestTransientFaultsRetryToParity(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		c := testCatalog()
		clock := fault.NewFakeClock()
		counters := metrics.NewCounterSet()
		e := New(c.Epoch, Options{Workers: workers, Clock: clock, Counters: counters},
			NewChaos(NewMemory(c), ChaosOptions{Seed: 42, MaxTransient: 3, Latency: time.Millisecond, Clock: clock}),
			NewChaos(NewSQL(c), ChaosOptions{Seed: 43, MaxTransient: 3, Latency: time.Millisecond, Clock: clock}),
		)
		for name, p := range resilienceTestPlans() {
			got, run, err := execPlan(e, p, c)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, name, err)
			}
			want, err := refeval.Eval(semop.Compile(p), c)
			if err != nil {
				t.Fatal(err)
			}
			if render(got) != render(want) {
				t.Errorf("workers=%d %s: chaos result diverges:\n%s\nvs\n%s",
					workers, name, render(got), render(want))
			}
			if run.RowsOut != want.Len() {
				t.Errorf("workers=%d %s: RowsOut = %d, want %d", workers, name, run.RowsOut, want.Len())
			}
		}
		if counters.Get("scan.retry") == 0 {
			t.Errorf("workers=%d: no retries recorded under seeded transient faults", workers)
		}
		if clock.Total() == 0 {
			t.Errorf("workers=%d: no backoff or latency recorded on the fake clock", workers)
		}
	}
}

// TestDownBackendFailsOver downs the memory backend entirely: every
// fragment planned onto it must fail over to the SQL backend with
// bit-identical results, and once the breaker opens the planner must
// route around the dead backend up front.
func TestDownBackendFailsOver(t *testing.T) {
	c := testCatalog()
	counters := metrics.NewCounterSet()
	e := New(c.Epoch, Options{Workers: 1, Counters: counters},
		NewChaos(NewMemory(c), ChaosOptions{Down: true}),
		NewSQL(c),
	)
	p := resilienceTestPlans()["filtered aggregate"]
	want, err := refeval.Eval(semop.Compile(p), c)
	if err != nil {
		t.Fatal(err)
	}

	sawFailover, sawRerouted := false, false
	for q := 0; q < 6; q++ {
		got, run, err := execPlan(e, p, c)
		if err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
		if render(got) != render(want) {
			t.Fatalf("query %d: failover result diverges:\n%s\nvs\n%s", q, render(got), render(want))
		}
		fr := run.Fragments[0]
		switch {
		case fr.Backend == "memory" && fr.FailedOver == "sql":
			sawFailover = true
			if !strings.Contains(Explain(run), "resilience: scan[0] failover memory->sql") {
				t.Errorf("query %d: explain missing failover line:\n%s", q, Explain(run))
			}
		case fr.Backend == "sql" && fr.FailedOver == "":
			sawRerouted = true
		default:
			t.Errorf("query %d: unexpected routing backend=%s failedOver=%q", q, fr.Backend, fr.FailedOver)
		}
	}
	if !sawFailover {
		t.Error("no query served through scan-time failover")
	}
	if !sawRerouted {
		t.Error("breaker never re-routed planning away from the dead backend")
	}
	if counters.Get("scan.failover") == 0 || counters.Get("breaker.open") == 0 {
		t.Errorf("counters missing failover/breaker events: %s", counters)
	}
}

// TestFailoverCompensation forces failover of a fragment whose pushed
// predicate and aggregate the fallback backend cannot absorb: the
// federation layer must re-apply them (filter, then aggregate) so the
// result is still bit-identical.
func TestFailoverCompensation(t *testing.T) {
	c := testCatalog()
	e := New(c.Epoch, Options{Workers: 1},
		NewChaos(NewMemory(c), ChaosOptions{Down: true}),
		NewSQL(c),
	)
	// 1e6 renders as "1e+06", which the SQL dialect cannot lex: the
	// predicate pushes to memory but not to SQL.
	p := &semop.Plan{
		Table: "sales", MetricCol: "units",
		Filters: []table.Pred{{Col: "units", Op: table.OpLt, Val: table.F(1e6)}},
		Aggs:    []table.Agg{{Func: table.AggSum, Col: "units", As: "result"}},
	}
	got, run, err := execPlan(e, p, c)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refeval.Eval(semop.Compile(p), c)
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(want) {
		t.Errorf("compensated failover diverges:\n%s\nvs\n%s", render(got), render(want))
	}
	fr := run.Fragments[0]
	if fr.FailedOver != "sql" {
		t.Fatalf("fragment not failed over to sql: %+v", fr)
	}
	if len(fr.Aggs) == 0 {
		t.Error("planned fragment should carry the pushed aggregate")
	}
}

// flakyBackend fails permanently while failing is set, to exercise
// breaker open/half-open/close transitions.
type flakyBackend struct {
	Backend
	name    string
	cost    float64
	failing atomic.Bool
}

func (f *flakyBackend) Name() string { return f.name }
func (f *flakyBackend) Estimate(tbl string, preds []table.Pred) (Estimate, bool) {
	est, ok := f.Backend.Estimate(tbl, preds)
	est.Cost = f.cost
	return est, ok
}
func (f *flakyBackend) Scan(ctx context.Context, fr Fragment) (Result, error) {
	if f.failing.Load() {
		return Result{}, fault.Permanent(errors.New("flaky: store offline"))
	}
	return f.Backend.Scan(ctx, fr)
}

// TestBreakerOpensAndRecovers walks the full breaker state machine:
// consecutive failures open it, routing shifts to the healthy backend,
// the cooldown (counted in queries) half-opens it, and a successful
// probe closes it and restores the cheap routing.
func TestBreakerOpensAndRecovers(t *testing.T) {
	c := testCatalog()
	counters := metrics.NewCounterSet()
	flaky := &flakyBackend{Backend: NewMemory(c), name: "aflaky", cost: 1}
	flaky.failing.Store(true)
	e := New(c.Epoch, Options{
		Workers:  1,
		Breaker:  BreakerConfig{FailThreshold: 2, Cooldown: 3},
		Counters: counters,
	},
		flaky,
		costBackend{Backend: NewSQL(c), name: "healthy", cost: 1000},
	)
	p := resilienceTestPlans()["list"]
	exec := func(q int) FragmentRun {
		t.Helper()
		_, run, err := execPlan(e, p, c)
		if err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
		return run.Fragments[0]
	}

	// Queries 1-2: routed to the cheap flaky backend, served by
	// failover; the second failure crosses FailThreshold.
	for q := 1; q <= 2; q++ {
		fr := exec(q)
		if fr.Backend != "aflaky" || fr.FailedOver != "healthy" {
			t.Fatalf("query %d: backend=%s failedOver=%q, want aflaky->healthy", q, fr.Backend, fr.FailedOver)
		}
	}
	if counters.Get("breaker.open") != 1 {
		t.Fatalf("breaker.open = %d after threshold failures, want 1", counters.Get("breaker.open"))
	}

	// Queries 3-4: breaker open — planning routes straight to healthy.
	flaky.failing.Store(false) // backend recovers, breaker still open
	for q := 3; q <= 4; q++ {
		if fr := exec(q); fr.Backend != "healthy" || fr.FailedOver != "" {
			t.Fatalf("query %d: backend=%s failedOver=%q, want direct healthy routing", q, fr.Backend, fr.FailedOver)
		}
	}

	// Query 5: cooldown (3 queries since opening) expired — half-open;
	// the probe succeeds and closes the breaker, restoring the cheap
	// route.
	if fr := exec(5); fr.Backend != "aflaky" || fr.FailedOver != "" {
		t.Fatalf("query 5: backend=%s failedOver=%q, want recovered aflaky", fr.Backend, fr.FailedOver)
	}
	if counters.Get("breaker.close") != 1 {
		t.Errorf("breaker.close = %d, want 1", counters.Get("breaker.close"))
	}
}

// TestBreakerHalfOpenProbeFailureReopens pins the half-open → open
// edge: a failed probe re-opens the breaker for a fresh cooldown.
func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	h := newHealthTracker()
	cfg := BreakerConfig{FailThreshold: 1, Cooldown: 2}
	failed := []FragmentRun{{failed: []string{"b"}}}
	if opened, _ := h.apply(failed, cfg.FailThreshold); opened != 1 {
		t.Fatal("first failure at threshold 1 must open")
	}
	if open := h.snapshot(0, cfg); !open.has("b") {
		t.Fatal("breaker not open")
	}
	if open := h.snapshot(0, cfg); open.has("b") { // cooldown expires: half-open
		t.Fatal("breaker still open after cooldown, want half-open")
	}
	if opened, _ := h.apply(failed, cfg.FailThreshold); opened != 1 {
		t.Error("failed half-open probe must re-open")
	}
	if open := h.snapshot(0, cfg); !open.has("b") {
		t.Error("breaker not re-opened after failed probe")
	}
	if _, closed := h.apply([]FragmentRun{{served: "b"}}, cfg.FailThreshold); closed != 1 {
		t.Error("success on a non-closed breaker must close it")
	}
	if open := h.snapshot(0, cfg); open != nil {
		t.Errorf("open set %v after success, want nil", open)
	}
}

// openBreaker opens name's breaker on e directly, without a failing
// query, and returns the open set the next query would run against. The
// first snapshot aligns the tracker with the live registry generation,
// or the second would forgive the manual state.
func openBreaker(e *Executor, name string) openSet {
	e.health.snapshot(e.generation(), e.opts.Breaker)
	e.health.apply([]FragmentRun{{failed: []string{name}}}, 1)
	return e.health.snapshot(e.generation(), e.opts.Breaker)
}

// TestOpenBreakerBypassesPlanCache pins what a plan's validity rests on
// now that no breaker version is stored: the cache holds only plans
// routed under an empty open set. A plan made while a breaker was open
// is not served once it has closed, and the plan made before it opened
// is served again after.
func TestOpenBreakerBypassesPlanCache(t *testing.T) {
	c := testCatalog()
	e := New(c.Epoch, Options{Workers: 1}, NewMemory(c), NewSQL(c))
	p := resilienceTestPlans()["filtered aggregate"]
	exec := func() *Run {
		t.Helper()
		_, run, err := execPlan(e, p, c)
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	stats := func() [3]int64 {
		hits, misses, size := e.PlanCacheStats()
		return [3]int64{hits, misses, int64(size)}
	}

	healthy := exec()
	if healthy.Plan.Frags[0].Backend != "memory" || stats() != [3]int64{0, 1, 1} {
		t.Fatalf("healthy plan on %s, cache %v; want memory, 0 hits 1 miss 1 entry", healthy.Plan.Frags[0].Backend, stats())
	}

	openBreaker(e, "memory")
	around := exec()
	if around.Plan == healthy.Plan || around.Plan.Frags[0].Backend != "sql" {
		t.Fatalf("with memory's breaker open the query ran the cached healthy plan (backend %s)", around.Plan.Frags[0].Backend)
	}
	if again := exec(); again.Plan == around.Plan {
		t.Error("a plan routed around an open breaker was cached")
	}
	if stats() != [3]int64{0, 3, 1} {
		t.Errorf("cache %v after two bypassed queries, want 0 hits 3 misses 1 entry", stats())
	}

	if _, closed := e.health.apply([]FragmentRun{{served: "memory"}}, e.opts.Breaker.FailThreshold); closed != 1 {
		t.Fatal("breaker did not close")
	}
	if after := exec(); after.Plan != healthy.Plan {
		t.Errorf("after the breaker closed the query planned afresh onto %s instead of reusing the healthy plan", after.Plan.Frags[0].Backend)
	}
	if stats() != [3]int64{1, 3, 1} {
		t.Errorf("cache %v after recovery, want 1 hit 3 misses 1 entry", stats())
	}
}

// TestBreakerSkipWithFailover pins scan-time breaker avoidance: a
// fragment planned onto a backend whose breaker the query reads as open
// skips it and fails over without ever touching the sick backend.
func TestBreakerSkipWithFailover(t *testing.T) {
	c := testCatalog()
	counters := metrics.NewCounterSet()
	e := New(c.Epoch, Options{Workers: 1, Counters: counters}, NewMemory(c), NewSQL(c))
	open := openBreaker(e, "memory")
	var fr FragmentRun
	fr.Fragment = Fragment{Backend: "memory", Table: "sales"}
	res, err := e.scanFragment(context.Background(), context.Background(), fr.Fragment, open, &fr)
	if err != nil {
		t.Fatal(err)
	}
	if !fr.BreakerSkip || fr.FailedOver != "sql" {
		t.Errorf("breakerSkip=%v failedOver=%q, want skip to sql", fr.BreakerSkip, fr.FailedOver)
	}
	if res.Leaf.Len() != 48 {
		t.Errorf("failover scan returned %d rows, want 48", res.Leaf.Len())
	}
	if counters.Get("scan.breaker_skip") != 1 {
		t.Errorf("scan.breaker_skip = %d, want 1", counters.Get("scan.breaker_skip"))
	}
}

// TestOpenBreakerSoleProviderForcesProbe: when the open-breaker
// backend is the only one serving the table, the scan proceeds as a
// forced probe instead of failing the query.
func TestOpenBreakerSoleProviderForcesProbe(t *testing.T) {
	c := testCatalog()
	counters := metrics.NewCounterSet()
	e := New(c.Epoch, Options{Workers: 1, Counters: counters}, NewMemory(c))
	openBreaker(e, "memory")
	got, run, err := execPlan(e, resilienceTestPlans()["list"], c)
	if err != nil {
		t.Fatalf("sole-provider query failed with open breaker: %v", err)
	}
	if got.Len() == 0 {
		t.Error("probe returned no rows")
	}
	if run.Fragments[0].BreakerSkip {
		t.Error("sole provider must not be skipped")
	}
	if counters.Get("breaker.close") != 1 {
		t.Errorf("successful forced probe should close the breaker: %s", counters)
	}
}

// TestQueryDeadlineCancelsHangingScan: a hung backend scan is bounded
// by the executor timeout and surfaces DeadlineExceeded.
func TestQueryDeadlineCancelsHangingScan(t *testing.T) {
	c := testCatalog()
	e := New(c.Epoch, Options{Workers: 1, Timeout: 30 * time.Millisecond},
		NewChaos(NewMemory(c), ChaosOptions{Hang: true}),
	)
	start := time.Now()
	_, _, err := execPlan(e, resilienceTestPlans()["list"], c)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline took %v to fire", elapsed)
	}
}

// TestSiblingCancellationOnPermanentError: in a join, a fragment whose
// table is down on every backend fails permanently and must cancel the
// sibling fragment hung on another backend — the query returns a real
// error, deterministically, instead of deadlocking. Which one: the
// lowest-index fragment's that met a real fault, and being interrupted
// is not one. Hung on its planned backend, the sales fragment fails
// over, is served, and metric_changes' fault is the query's; hung on its
// failover candidate after a fault on the planned one, it reports that
// fault, and — index 0 — it is the query's.
func TestSiblingCancellationOnPermanentError(t *testing.T) {
	c := testCatalog()
	downFor := func(b Backend, tables ...string) Backend {
		return NewChaos(b, ChaosOptions{Down: true, Tables: tables})
	}
	hungOnSales := func(b Backend) Backend {
		return NewChaos(b, ChaosOptions{Hang: true, Tables: []string{"sales"}})
	}
	for name, tc := range map[string]struct {
		memory, sql Backend
		want        string
	}{
		"hung on the planned backend": {
			memory: downFor(hungOnSales(NewMemory(c)), "metric_changes"),
			sql:    downFor(NewSQL(c), "metric_changes"),
			want:   "metric_changes",
		},
		"hung on the failover candidate": {
			memory: downFor(NewMemory(c)),
			sql:    downFor(hungOnSales(NewSQL(c)), "metric_changes"),
			want:   "memory is down (scan sales)",
		},
	} {
		e := New(c.Epoch, Options{Workers: 2}, tc.memory, tc.sql)
		done := make(chan error, 1)
		go func() {
			_, _, err := execPlan(e, resilienceTestPlans()["join"], c)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("%s: query succeeded with a table down on every backend", name)
			}
			if errors.Is(err, context.Canceled) {
				t.Fatalf("%s: surfaced the schedule-dependent cancellation, want the real error: %v", name, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: err = %v, want the %s failure", name, err, tc.want)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: sibling cancellation never fired: hung scan leaked", name)
		}
	}
}

// TestDeterministicErrorSelection: when several fragments fail, the
// lowest-index real error wins at any worker count, and every fragment
// has made the attempts — and left the health verdicts — it makes when
// it runs alone: a sibling that failed first skips none of them.
func TestDeterministicErrorSelection(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		c := testCatalog()
		e := New(c.Epoch, Options{Workers: workers},
			NewChaos(NewMemory(c), ChaosOptions{Down: true}),
			NewChaos(NewSQL(c), ChaosOptions{Down: true}),
		)
		_, _, err := execPlan(e, resilienceTestPlans()["join"], c)
		if err == nil {
			t.Fatalf("workers=%d: query succeeded with every backend down", workers)
		}
		if !strings.Contains(err.Error(), "(scan sales)") {
			t.Errorf("workers=%d: err = %v, want the driving fragment's (index 0) sales error", workers, err)
		}
		e.health.mu.Lock()
		for name, s := range e.health.m {
			// One failed scan per fragment on each backend, planned or
			// failover.
			if s.failures != 2 {
				t.Errorf("workers=%d: %d failed scans recorded against %s, want 2", workers, s.failures, name)
			}
		}
		if len(e.health.m) != 2 {
			t.Errorf("workers=%d: verdicts on %d backends, want 2", workers, len(e.health.m))
		}
		e.health.mu.Unlock()
	}
}

// TestOutageIsScheduleIndependent: a query sees one breaker state. Four
// join queries against two backends that are both down cross
// FailThreshold in the middle of the second one; what each query
// reports, what the counters read and what every breaker holds
// afterwards are the same at any worker count, run after run.
func TestOutageIsScheduleIndependent(t *testing.T) {
	type outcome struct {
		errs     [4]string
		counters string
		health   string
	}
	outage := func(workers int) outcome {
		c := testCatalog()
		counters := metrics.NewCounterSet()
		e := New(c.Epoch, Options{Workers: workers, Counters: counters},
			NewChaos(NewMemory(c), ChaosOptions{Down: true}),
			NewChaos(NewSQL(c), ChaosOptions{Down: true}),
		)
		var o outcome
		for q := range o.errs {
			_, _, err := execPlan(e, resilienceTestPlans()["join"], c)
			if err == nil {
				t.Fatalf("workers=%d query %d: succeeded with every backend down", workers, q)
			}
			o.errs[q] = err.Error()
		}
		o.counters = counters.String()
		e.health.mu.Lock()
		defer e.health.mu.Unlock()
		for _, name := range e.health.names {
			s := e.health.m[name]
			o.health += fmt.Sprintf("%s: state %d, %d failures, opened at query %d; ", name, s.state, s.failures, s.openedAt)
		}
		return o
	}
	want := outage(1)
	if !strings.Contains(want.errs[1], "is down") || !strings.Contains(want.errs[2], "breaker open") {
		t.Fatalf("the outage no longer crosses the threshold inside query 2: %q", want.errs)
	}
	for rep := 0; rep < 200; rep++ {
		for _, workers := range []int{1, 2, 8} {
			if got := outage(workers); got != want {
				t.Fatalf("repetition %d, workers=%d:\n got %+v\nwant %+v", rep, workers, got, want)
			}
		}
	}
}

// TestRegisterBesideQueries: the registry only ever gains or replaces a
// backend, so a plan routed before a Register still names a registered
// backend after it and no query needs planning twice. One goroutine
// replaces the memory backend in a loop while eight run the list, join
// and aggregate plans: every execution succeeds with the table it gives
// on a quiet executor, and plans are cached again once the registry
// rests.
func TestRegisterBesideQueries(t *testing.T) {
	c := testCatalog()
	e := newTestExecutor(c, 2)
	plans := resilienceTestPlans()
	names := []string{"list", "join", "filtered aggregate"}
	want := map[string]string{}
	for _, name := range names {
		got, _, err := execPlan(e, plans[name], c)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = render(got)
	}

	stop := make(chan struct{})
	registrar := make(chan struct{})
	go func() {
		defer close(registrar)
		for {
			select {
			case <-stop:
				return
			default:
				e.Register(NewMemory(c))
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				name := names[(g+i)%len(names)]
				got, _, err := execPlan(e, plans[name], c)
				if err != nil {
					t.Errorf("%s beside Register: %v", name, err)
					return
				}
				if render(got) != want[name] {
					t.Errorf("%s beside Register:\n%s\nwant\n%s", name, render(got), want[name])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-registrar

	for _, name := range names {
		if _, _, err := execPlan(e, plans[name], c); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, size := e.PlanCacheStats(); size != len(names) {
		t.Errorf("plan cache holds %d plans after the registry came to rest, want %d", size, len(names))
	}
}

// TestRowSlicedFailoverRequiresRangeBackend: an explicit ROWS slice is
// semantic, so failover re-derives it on the fallback backend's zone
// maps rather than dropping it.
func TestRowSlicedFailoverPreservesSlice(t *testing.T) {
	c := testCatalog()
	tbl, _ := c.Get("sales")
	want := render(mustSlice(t, tbl, 4, 9))

	e := New(c.Epoch, Options{Workers: 1},
		NewChaos(NewMemory(c), ChaosOptions{Down: true}),
		NewSQL(c),
	)
	var fr FragmentRun
	f := Fragment{Backend: "memory", Table: "sales", SliceStart: 4, SliceEnd: 9,
		Ranges: []table.RowRange{{Start: 4, End: 9}}}
	fr.Fragment = f
	res, err := e.scanFragment(context.Background(), context.Background(), f, nil, &fr)
	if err != nil {
		t.Fatal(err)
	}
	if fr.FailedOver != "sql" {
		t.Fatalf("failedOver = %q, want sql", fr.FailedOver)
	}
	if got := render(rowsOf(t, res)); got != want {
		t.Errorf("sliced failover rows diverge:\n%s\nvs\n%s", got, want)
	}
}

func mustSlice(t *testing.T, tbl *table.Table, start, end int) *table.Table {
	t.Helper()
	out := table.New(tbl.Name, tbl.Schema)
	out.Rows = append(out.Rows, tbl.Rows[start:end]...)
	return out
}

// TestChaosScheduleDeterministic: the injected fault schedule is a
// pure function of (seed, identity) — two wrappers with the same seed
// inject identical faults, a different seed diverges somewhere.
func TestChaosScheduleDeterministic(t *testing.T) {
	budgets := func(seed uint64) []int {
		c := testCatalog()
		ch := NewChaos(NewMemory(c), ChaosOptions{Seed: seed, MaxTransient: 5})
		var out []int
		for _, f := range []Fragment{
			{Table: "sales"},
			{Table: "sales", Preds: []table.Pred{{Col: "product", Op: table.OpEq, Val: table.S("Alpha")}}},
			{Table: "metric_changes", Columns: []string{"product"}},
		} {
			n := 0
			for {
				_, err := ch.Scan(context.Background(), f)
				if err == nil {
					break
				}
				if !fault.IsTransient(err) {
					t.Fatalf("injected error not transient: %v", err)
				}
				n++
			}
			out = append(out, n)
		}
		return out
	}
	a, b := budgets(7), budgets(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedules: %v vs %v", a, b)
		}
	}
	c1, c2 := budgets(7), budgets(8)
	same := true
	for i := range c1 {
		if c1[i] != c2[i] {
			same = false
		}
	}
	if same {
		t.Errorf("seeds 7 and 8 injected identical schedules %v — seed not mixed in", c1)
	}
}

// TestFailoverProjectedResidue pins the failover half of the absorb
// rule: a fragment planned as push=[units < 1e+06] project=[product] on
// memory fails over to SQL, which cannot lex the literal. The predicate
// stays federation-side, so the projection must too — pushing it would
// drop the very column the residue filters on. A keyword-named column,
// projected or a group key, likewise stays federation-side on SQL.
func TestFailoverProjectedResidue(t *testing.T) {
	c := testCatalog()
	root := &logical.Node{Op: logical.OpProject, Proj: []string{"product"},
		In: []*logical.Node{filterScan("sales", table.Pred{Col: "units", Op: table.OpLt, Val: table.F(1e6)})}}
	opt := logical.Optimize(root, logical.CatalogStats(c))

	want, _, err := New(c.Epoch, Options{Workers: 1}, NewMemory(c), NewSQL(c)).ExecuteIR(opt)
	if err != nil {
		t.Fatal(err)
	}
	down := New(c.Epoch, Options{Workers: 1}, NewChaos(NewMemory(c), ChaosOptions{Down: true}), NewSQL(c))
	got, run, err := down.ExecuteIR(opt)
	if err != nil {
		t.Fatalf("failover of a projected fragment with predicate residue: %v", err)
	}
	if fr := run.Fragments[0]; fr.FailedOver != "sql" || strings.Join(fr.Columns, ",") != "product" {
		t.Fatalf("fragment %+v: want planned project=[product] failed over to sql", fr.Fragment)
	}
	if render(got) != render(want) || got.Len() != 48 {
		t.Errorf("failover rows diverge from the healthy run's 48:\n%s\nvs\n%s", render(got), render(want))
	}

	// A keyword-named column has no dialect form, so sql must leave it to
	// the residual, projected or grouped on, whether sql serves the scan
	// alone or takes it over from a memory backend that is down.
	kw := table.NewCatalog()
	events := table.New("events", table.Schema{{Name: "region", Type: table.TypeString}, {Name: "min", Type: table.TypeInt}})
	for i := 0; i < 40; i++ {
		events.MustAppend([]table.Value{table.S([]string{"east", "west"}[i%2]), table.I(int64(i % 3))})
	}
	kw.Put(events)
	scan := func() *logical.Node { return &logical.Node{Op: logical.OpScan, Table: "events"} }
	for shape, root := range map[string]*logical.Node{
		"project(min)": {Op: logical.OpProject, Proj: []string{"min"}, In: []*logical.Node{scan()}},
		"group by min": {Op: logical.OpAggregate, GroupBy: []string{"min"},
			Aggs: []table.Agg{{Func: table.AggCount, As: "n"}}, In: []*logical.Node{scan()}},
	} {
		opt := logical.Optimize(root, logical.CatalogStats(kw))
		want, _, err := New(kw.Epoch, Options{Workers: 1}, NewMemory(kw)).ExecuteIR(opt)
		if err != nil {
			t.Fatal(err)
		}
		for setup, backends := range map[string][]Backend{
			"sql alone":   {NewSQL(kw)},
			"memory down": {NewChaos(NewMemory(kw), ChaosOptions{Down: true}), NewSQL(kw)},
		} {
			got, _, err := New(kw.Epoch, Options{Workers: 1}, backends...).ExecuteIR(opt)
			if err != nil {
				t.Errorf("%s, %s: %v", shape, setup, err)
				continue
			}
			if render(got) != render(want) || got.Len() == 0 {
				t.Errorf("%s, %s: rows diverge from memory's:\n%s\nvs\n%s", shape, setup, render(got), render(want))
			}
		}
	}
}

// capBackend is a substitute store with chosen answers to the pushdown
// questions over a full-capability inner backend, priced out of planned
// routing so it only ever serves failover.
type capBackend struct {
	*Memory
	agg, project, pushable, sort bool
}

func (cb capBackend) Name() string                    { return "substitute" }
func (cb capBackend) CanPush(string, table.Pred) bool { return cb.pushable }
func (cb capBackend) CanPushAgg(table.Agg) bool       { return cb.agg }
func (cb capBackend) CanPushSort(table.SortKey) bool  { return cb.sort }
func (cb capBackend) CanProject([]string) bool        { return cb.project }
func (cb capBackend) Estimate(tbl string, preds []table.Pred) (Estimate, bool) {
	est, ok := cb.Memory.Estimate(tbl, preds)
	est.Cost = 1e9
	return est, ok
}

// topKOver is Limit(k, Sort(keys, in)).
func topKOver(in *logical.Node, k int, keys ...table.SortKey) *logical.Node {
	return &logical.Node{Op: logical.OpLimit, N: k, In: []*logical.Node{{Op: logical.OpSort, Keys: keys, In: []*logical.Node{in}}}}
}

// TestFailoverEqualsHealthyAcrossCapabilities is the fragment
// contract's end-to-end check: whatever subset of a planned fragment a
// failover backend absorbs, absorb leaves the rest to the evaluator and
// the rows equal the healthy run's bit for bit. The table spans several
// zone-mapped fragments, so ranged and vectorized evaluation both run.
func TestFailoverEqualsHealthyAcrossCapabilities(t *testing.T) {
	c := prunableCatalog(3*table.FragmentRows + 50)
	pred := table.Pred{Col: "seq", Op: table.OpGe, Val: table.I(int64(table.FragmentRows + 7))}
	shapes := map[string]func() *logical.Node{
		"plain": func() *logical.Node { return filterScan("events", pred) },
		"projected": func() *logical.Node {
			return &logical.Node{Op: logical.OpProject, Proj: []string{"region"}, In: []*logical.Node{filterScan("events", pred)}}
		},
		// No filter: a substitute that takes the projection leaves it
		// pending over its base table, and failover must carry it on.
		"projected_only": func() *logical.Node {
			return &logical.Node{Op: logical.OpProject, Proj: []string{"amount", "region"},
				In: []*logical.Node{{Op: logical.OpScan, Table: "events"}}}
		},
		"aggregated": func() *logical.Node {
			return &logical.Node{Op: logical.OpAggregate, GroupBy: []string{"region"},
				Aggs: []table.Agg{{Func: table.AggSum, Col: "amount", As: "total"}},
				In:   []*logical.Node{filterScan("events", pred)}}
		},
		// No group keys: a substitute that absorbs aggregates but no
		// projection still takes this one.
		"aggregated_global": func() *logical.Node {
			return &logical.Node{Op: logical.OpAggregate,
				Aggs: []table.Agg{{Func: table.AggSum, Col: "amount", As: "total"}},
				In:   []*logical.Node{filterScan("events", pred)}}
		},
		"sliced": func() *logical.Node {
			n := filterScan("events", pred)
			n.In[0].RowStart, n.In[0].RowEnd = 100, 2*table.FragmentRows+9
			return n
		},
		// A top-k the planned memory scan took: a substitute that cannot
		// sort, or that leaves the filter, leaves it to the evaluator.
		"topk": func() *logical.Node {
			return topKOver(filterScan("events", pred), 7, table.SortKey{Col: "region"}, table.SortKey{Col: "amount", Desc: true})
		},
		"topk_projected": func() *logical.Node {
			return topKOver(&logical.Node{Op: logical.OpProject, Proj: []string{"region", "amount"},
				In: []*logical.Node{filterScan("events", pred)}}, 5, table.SortKey{Col: "amount"})
		},
		"topk_aggregated": func() *logical.Node {
			return topKOver(&logical.Node{Op: logical.OpAggregate, GroupBy: []string{"region"},
				Aggs: []table.Agg{{Func: table.AggSum, Col: "amount", As: "total"}},
				In:   []*logical.Node{filterScan("events", pred)}}, 2, table.SortKey{Col: "total", Desc: true})
		},
	}
	healthy := New(c.Epoch, Options{Workers: 1}, NewMemory(c))
	var subs []capBackend
	for bits := range 16 {
		subs = append(subs, capBackend{agg: bits&1 != 0, project: bits&2 != 0, pushable: bits&4 != 0, sort: bits&8 != 0})
	}
	for _, sub := range subs {
		sub.Memory = NewMemory(c)
		label := fmt.Sprintf("agg=%v project=%v pushable=%v sort=%v", sub.agg, sub.project, sub.pushable, sub.sort)
		// Breaking disabled: every query must take the failover path,
		// not get planned onto the substitute once memory's breaker opens.
		down := New(c.Epoch, Options{Workers: 1, Breaker: BreakerConfig{FailThreshold: -1}},
			NewChaos(NewMemory(c), ChaosOptions{Down: true}), sub)
		for name, shape := range shapes {
			opt := logical.Optimize(shape(), logical.CatalogStats(c))
			want, _, err := healthy.ExecuteIR(opt)
			if err != nil {
				t.Fatal(err)
			}
			got, run, err := down.ExecuteIR(opt)
			if err != nil {
				t.Errorf("%s %s: %v", name, label, err)
				continue
			}
			if fr := run.Fragments[0]; fr.Backend != "memory" || fr.FailedOver != "substitute" {
				t.Errorf("%s %s: backend=%s failedOver=%q, want memory->substitute",
					name, label, fr.Backend, fr.FailedOver)
			}
			if render(got) != render(want) {
				t.Errorf("%s %s: failover rows diverge from healthy:\n%s\nvs\n%s",
					name, label, render(got), render(want))
			}
		}
	}
}
