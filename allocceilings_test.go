package unisem

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/logical"
	"repro/internal/semop"
	"repro/internal/table"
)

// TestAllocCeilings holds the engine's hot paths to allocation
// ceilings: allocs/op and B/op of each sql_analytic statement through
// System.Query, of BenchmarkAskEndToEnd's Ask, of three federated
// executions, of a one-worker AnswerAll batch, of both catalog.json
// codecs, of graph.json's reader and of a one-worker index build over
// the facts table, each measured over its benchmark's set-up.
// Allocation counts do not depend on the machine, so a change that adds
// one allocation on any of these paths fails here, where a timing gate
// on a small box cannot resolve it.
//
// Each ceiling is the maximum of ten runs of this test on Go 1.24.0
// (amd64). Allocation counts did not vary across the ten but for
// AnswerAll and IndexBuildFacts, by at most 1 and 10 (the tagger's
// sync.Pool scratch is dropped when a collection falls inside a run);
// bytes varied by under 0.1 % everywhere, so bytes get 0.1 % of slack.
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
		"eq_sum":                 {81, 24496},
		"range_sum":              {90, 38210},
		"eq_count":               {90, 37634},
		"join_filter":            {202, 27978},
		"count_units":            {331, 44770},
		"group_sku":              {121, 390204},
		"distinct_region":        {58, 12105},
		"join_group":             {219, 26442},
		"filtered_group_region":  {362, 285107},
		"topk":                   {94, 46272},
		"filtered_topk":          {378, 145163},
		"rows_slice":             {128, 32449},
		"AskEndToEnd":            {109, 7761},
		"FederatedTopK":          {29, 33224},
		"FederatedFilteredTopK":  {296, 118505},
		"FederatedJoinAggregate": {97, 63592},
		"AnswerAll":              {2011, 149336},
		"CatalogWriteJSON":       {4, 111408},
		"CatalogReadJSON":        {7890, 21945670},
		"GraphReadJSON":          {9147, 15847021},
		"IndexBuildFacts":        {344304, 51128472},
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

	batch, questions := answerAllHybrid(t)
	check("AnswerAll", 5, func() {
		if ans := batch.AnswerAll(questions, 1); len(ans) != len(questions) {
			t.Fatal("short batch")
		}
	})

	cat := snapshotBenchCatalog(t)
	check("CatalogWriteJSON", 5, func() {
		if err := cat.WriteJSON(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	var catJSON bytes.Buffer
	if err := cat.WriteJSON(&catJSON); err != nil {
		t.Fatal(err)
	}
	check("CatalogReadJSON", 5, func() {
		if _, err := table.ReadCatalogJSON(bytes.NewReader(catJSON.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	cat, catJSON = nil, bytes.Buffer{}

	var graphJSON bytes.Buffer
	if err := snapshotBenchGraph(t).WriteJSON(&graphJSON); err != nil {
		t.Fatal(err)
	}
	check("GraphReadJSON", 5, func() {
		if _, err := graph.ReadJSON(bytes.NewReader(graphJSON.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	graphJSON = bytes.Buffer{}

	opts := index.DefaultOptions()
	opts.Workers = 1 // the builder's workers allocate as they are scheduled
	builder, sources := indexBuildFacts(t, opts)
	check("IndexBuildFacts", 3, func() {
		if _, _, err := builder.Build(sources); err != nil {
			t.Fatal(err)
		}
	})
}

// TestHeapCeiling holds what BenchmarkBuildFacts' system keeps resident
// to a ceiling: HeapAlloc after a collection, over what its inputs
// already hold, which is the repository benchmark's heap_mb for
// sql_analytic's set-up. Like the allocation ceilings it does not
// depend on the machine; a change that lowers it re-records it.
//
// The ceiling is the maximum of ten runs of this test on Go 1.24.0
// (amd64), with 0.5 % of slack over their spread.
func TestHeapCeiling(t *testing.T) {
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("the heap is exact only without -race and coverage")
	}
	const ceiling = 11598344 // bytes
	build := buildFacts(t)
	before := heapAlloc()
	sys := build()
	held := heapAlloc() - before
	runtime.KeepAlive(sys)
	t.Logf("BuildFacts system holds %d B", held)
	if float64(held) > ceiling*1.005 {
		t.Errorf("BuildFacts system holds %d B; ceiling %d (+0.5 %%)", held, ceiling)
	}
}

// heapAlloc is HeapAlloc after two collections: the second empties
// what sync.Pool kept from the first.
func heapAlloc() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
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
