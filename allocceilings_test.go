package unisem

import (
	"runtime"
	"testing"

	"repro/internal/logical"
	"repro/internal/semop"
)

// TestAllocCeilings holds the engine's hot paths to allocation
// ceilings: allocs/op and B/op of each sql_analytic statement through
// System.Query, of BenchmarkAskEndToEnd's Ask, and of three federated
// executions, each measured over its benchmark's set-up. Allocation
// counts do not depend on the machine, so a change that adds one
// allocation on any of these paths fails here, where a timing gate on a
// small box cannot resolve it.
//
// Each ceiling is the maximum of ten runs of this test on Go 1.24.0
// (amd64). Allocation counts did not vary across the ten; bytes varied
// by at most 2 B, under 0.1 % everywhere, so bytes get 0.1 % of slack.
// A change that lowers a count re-records its ceiling, so a saving is
// not spent silently; one that raises a count re-records it and says
// why.
//
// The race detector and coverage instrumentation allocate on their own,
// so the test is skipped under either.
func TestAllocCeilings(t *testing.T) {
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("allocation counts are exact only without -race and coverage")
	}
	type ceiling struct {
		allocs float64
		bytes  float64
	}
	ceilings := map[string]ceiling{
		"eq_sum":                 {82, 24529},
		"range_sum":              {91, 38242},
		"eq_count":               {91, 37665},
		"join_filter":            {200, 23729},
		"count_units":            {332, 44802},
		"group_sku":              {122, 390235},
		"distinct_region":        {59, 12137},
		"join_group":             {220, 26353},
		"filtered_group_region":  {363, 285138},
		"topk":                   {96, 41193},
		"filtered_topk":          {379, 126562},
		"rows_slice":             {129, 32481},
		"AskEndToEnd":            {109, 7681},
		"FederatedTopK":          {31, 28145},
		"FederatedFilteredTopK":  {297, 99904},
		"FederatedJoinAggregate": {98, 63504},
	}
	check := func(name string, runs int, f func()) {
		t.Helper()
		allocs, bytes := allocsPerRun(runs, f)
		t.Logf("%-24s %6.0f allocs/op %9.0f B/op", name, allocs, bytes)
		c, ok := ceilings[name]
		if !ok {
			t.Errorf("%s: no ceiling recorded", name)
			return
		}
		if allocs > c.allocs || bytes > c.bytes*1.001 {
			t.Errorf("%s: %.0f allocs/op, %.0f B/op; ceilings %.0f and %.0f (+0.1 %%)", name, allocs, bytes, c.allocs, c.bytes)
		}
	}

	analytic := analyticSystem(t)
	for _, st := range analyticMix {
		query := func() {
			if _, err := analytic.Query(st.sql); err != nil {
				t.Fatal(err)
			}
		}
		query() // fills the plan cache, as the benchmark's first run does
		check(st.name, 100, query)
	}

	ask := askEndToEndSystem(t)
	check("AskEndToEnd", 300, func() {
		if _, err := ask.Ask(askEndToEndQuestion); err != nil {
			t.Fatal(err)
		}
	})

	fed, c := analyticFixture(t)
	for _, sh := range []struct {
		name  string
		shape analyticShape
	}{{"FederatedTopK", topKShape}, {"FederatedFilteredTopK", filteredTopKShape}} {
		opt := sh.shape.optimize(c)
		check(sh.name, 100, func() { scannedBy(t, fed, opt) })
	}
	h, plan := joinAggPlan(t)
	opt := logical.Optimize(semop.Compile(plan), logical.CatalogStats(h.Catalog()))
	check("FederatedJoinAggregate", 300, func() { scannedBy(t, h.Federation(), opt) })
}

// allocsPerRun returns f's mean allocations and allocated bytes per run
// over runs runs, after one warm-up run: testing.AllocsPerRun's count,
// and the runtime's allocated-bytes counter read around the same runs.
func allocsPerRun(runs int, f func()) (allocs, bytes float64) {
	var before, after runtime.MemStats
	warm := true
	allocs = testing.AllocsPerRun(runs, func() {
		f()
		if warm {
			// The end of AllocsPerRun's warm-up run: what follows is the
			// measured runs.
			warm = false
			runtime.ReadMemStats(&before)
		}
	})
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
