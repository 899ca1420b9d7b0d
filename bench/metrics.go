package main

// metricDef names one metric. The end-to-end list and the per-layer
// list here are the ones BENCHMARK.json records; a test holds the two
// together.
type metricDef struct {
	name, unit, better string
	bound              float64  // share of the median it may worsen by; 0 = informational
	on                 []string // workloads that report it; nil = all
	moves              string   // what it is expected to move, written before measuring
}

var (
	asks    = []string{"ask_mixed", "ingest_live"}
	sqlOnly = []string{"sql_analytic"}
	live    = []string{"ingest_live"}
	restart = []string{"restart"}
	notSQL  = []string{"ask_mixed", "ingest_live", "restart"}
	queries = []string{"sql_analytic", "restart"}
)

// endToEnd are what a caller of the library sees, on every workload.
// The driver gates them; bounds are shares of the parent's median, set
// from the spread of ten runs on the shared reference box (README).
// Every time is at reference speed (host.go) and computed from the
// per-operation latencies of the pass (run.go).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, nil, "empty System to ready: every Add* call, Build, AddRollup; mean of the fastest quarter of the run's set-ups"},
	{"heap_mb", "MB", "lower", 0.05, nil, "HeapAlloc after set-up and runtime.GC()"},
	{"ops_per_s", "1/s", "higher", 0.25, nil, "the pass's operations over the sum of their latencies; restart counts one cycle as one"},
	{"read_tail_ms", "ms", "lower", 0.25, nil, "mean latency of the slowest tenth of the workload's reads: Ask (ask_mixed, ingest_live), Query (sql_analytic), cold-pass Ask and Query (restart)"},
}

// perLayer are the traced run's metrics: first the end-to-end metrics
// the driver does not gate — percentiles of the reads, which sit between
// two unlike operations on some workload and failed the A/A check there,
// and the metrics that exist on some workloads only (the driver wants
// every gated metric on every workload); -aa holds them to the bound
// given. Then one layer each.
var perLayer = []metricDef{
	{"fail_ratio", "ratio", "lower", 0, nil, "(errors + outputs that differ from gold) / attempted"},
	{"host.speed", "ratio", "higher", 0, nil, "this host's speed now over the reference box's in its fast phase, by the harness's own kernel; none, reported so times can be read as measured"},
	{"read_p50_ms", "ms", "lower", 0, nil, "median latency of the workload's reads; demoted: on sql_analytic it is the mean of two memory-bound scans"},
	{"read_p90_ms", "ms", "lower", 0, nil, "as read_p50_ms; demoted: on restart it sits in the sparse tail of the asks"},
	{"ask_p50_ms", "ms", "lower", 0.10, asks, "System.Ask wall time"},
	{"ask_p90_ms", "ms", "lower", 0.15, asks, "System.Ask wall time"},
	{"query_p50_ms", "ms", "lower", 0.10, sqlOnly, "System.Query wall time over the mix"},
	{"query_p90_ms", "ms", "lower", 0.15, sqlOnly, "System.Query wall time over the mix"},
	{"ingest_p50_ms", "ms", "lower", 0.10, live, "System.Ingest wall time"},
	{"ingest_p90_ms", "ms", "lower", 0.15, live, "System.Ingest wall time"},
	{"save_s", "s", "lower", 0.10, restart, "System.Save, median over the cycles"},
	{"load_s", "s", "lower", 0.10, restart, "unisem.Load, median over the cycles"},
	{"snapshot_mb", "MB", "lower", 0.01, restart, "bytes of graph.json + catalog.json"},
	{"cold_pass_ms", "ms", "lower", 0.15, restart, "time in the first pass after Load, median over the cycles"},
	{"core.ask_p99_ms", "ms", "lower", 0, asks, "informational: too noisy on a shared box to bound"},

	{"slm.recognize_us", "us", "lower", 0, notSQL, "ask_p50_ms on ask_mixed (paid at least 3 times per ask: retrieval anchors, semop.Parse, DeriveCandidates)"},
	{"retrieval.retrieve_us", "us", "lower", 0, notSQL, "ask_p50_ms, ask_p90_ms on ask_mixed and ingest_live; nothing on sql_analytic"},
	{"retrieval.evidence_n", "count", "higher", 0, notSQL, "exact count of evidence items returned"},
	{"semop.parse_us", "us", "lower", 0, notSQL, "ask_p50_ms on ask_mixed (small share)"},
	{"semop.bind_us", "us", "lower", 0, notSQL, "ask_p50_ms on ask_mixed (small share)"},
	{"semop.compile_us", "us", "lower", 0, notSQL, "ask_p50_ms on ask_mixed (small share)"},
	{"sql.parse_us", "us", "lower", 0, queries, "query_p50_ms on sql_analytic"},
	{"sql.compile_us", "us", "lower", 0, queries, "query_p50_ms on sql_analytic"},
	{"logical.optimize_us", "us", "lower", 0, nil, "query_p50_ms on sql_analytic; ask_p50_ms marginally"},
	{"federate.execute_us", "us", "lower", 0, nil, "query_p50_ms, query_p90_ms on sql_analytic; about 1 % of ask_p50_ms"},
	{"federate.explain_us", "us", "lower", 0, nil, "query_p50_ms on sql_analytic"},
	{"federate.rows_scanned", "count", "lower", 0, nil, "exact; divided by rows returned it is the wasted-work ratio on sql_analytic"},
	{"federate.fragments_n", "count", "lower", 0, nil, "exact count of fragment scans"},
	{"federate.retries_n", "count", "lower", 0, nil, "exact; 0 without fault injection"},
	{"federate.plan_cache_hit_ratio", "ratio", "higher", 0, nil, "to 1 on sql_analytic, below 1 on ask_mixed, 0 for the first ask after each ingest"},
	{"federate.vec_plan_ratio", "ratio", "higher", 0, nil, "share of plans dispatched to the vectorised executor: about 0 on ask_mixed, high on sql_analytic"},
	{"logical.execvec_us", "us", "lower", 0, queries, "query_p90_ms on sql_analytic; with execrow_us the evidence for the one-executor item"},
	{"logical.execrow_us", "us", "lower", 0, queries, "as logical.execvec_us"},
	{"unisem.render_us", "us", "lower", 0, queries, "query_p50_ms on sql_analytic (the GROUP BY sku result)"},
	{"slm.derive_candidates_us", "us", "lower", 0, notSQL, "ask_p50_ms on ask_mixed (3 to 6 %)"},
	{"slm.sample_us", "us", "lower", 0, notSQL, "ask_p50_ms on ask_mixed"},
	{"entropy.assess_us", "us", "lower", 0, notSQL, "ask_p50_ms on ask_mixed"},
	{"core.answer_us", "us", "lower", 0, notSQL, "whole Ask of the traced operations"},
	{"core.unattributed_us", "us", "lower", 0, notSQL, "core.answer_us minus its stages: synthesis, locks, RNG fork; must stay within 10 %"},
	{"core.query_us", "us", "lower", 0, queries, "whole Query of the traced operations"},
	{"core.query_unattributed_us", "us", "lower", 0, queries, "core.query_us minus its stages"},
	{"index.index_record_us", "us", "lower", 0, live, "ingest_p50_ms on ingest_live"},
	{"extract.extract_doc_us", "us", "lower", 0, live, "ingest_p50_ms on ingest_live"},
	{"extract.merge_us", "us", "lower", 0, live, "ingest_p50_ms on ingest_live (catalog Put: stats, zones, rollup)"},
	{"retrieval.refresh_us", "us", "lower", 0, live, "ingest_p50_ms on ingest_live (one PageRank); also setup_s"},
	{"core.ingest_us", "us", "lower", 0, live, "whole Ingest"},
	{"core.ingest_unattributed_us", "us", "lower", 0, live, "core.ingest_us minus its four stages"},
	{"core.first_ask_after_ingest_us", "us", "lower", 0, live, "ask_p90_ms on ingest_live: the cost of epoch invalidation"},
	{"core.later_ask_after_ingest_us", "us", "lower", 0, live, "ask_p50_ms on ingest_live"},
	{"table.read_csv_us", "us", "lower", 0, nil, "setup_s"},
	{"table.catalog_put_us", "us", "lower", 0, nil, "setup_s (statistics, zone maps)"},
	{"index.build_us", "us", "lower", 0, nil, "setup_s: dominates once native rows become row nodes"},
	{"extract.extract_docs_us", "us", "lower", 0, nil, "setup_s"},
	{"extract.merge_build_us", "us", "lower", 0, nil, "setup_s"},
	{"store.to_table_us", "us", "lower", 0, nil, "setup_s"},
	{"retrieval.new_topology_us", "us", "lower", 0, nil, "setup_s (PageRank)"},
	{"core.new_hybrid_us", "us", "lower", 0, nil, "setup_s: whole NewHybrid"},
	{"graph.write_json_us", "us", "lower", 0, restart, "save_s"},
	{"table.write_json_us", "us", "lower", 0, restart, "save_s"},
	{"graph.read_json_us", "us", "lower", 0, restart, "load_s"},
	{"table.read_catalog_json_us", "us", "lower", 0, restart, "load_s"},
	{"core.new_from_state_us", "us", "lower", 0, restart, "load_s (PageRank, federation)"},
	{"graph.snapshot_bytes", "bytes", "lower", 0, restart, "snapshot_mb"},
	{"table.snapshot_bytes", "bytes", "lower", 0, restart, "snapshot_mb"},
	{"table.cold_first_scan_us", "us", "lower", 0, restart, "cold_pass_ms: first facts statement after Load"},
	{"trace.overhead_ratio", "ratio", "lower", 0, nil, "time in the traced replay / time in the public-API calls it follows; none"},
}

var defs = func() map[string]*metricDef {
	m := map[string]*metricDef{}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for i := range list {
			m[list[i].name] = &list[i]
		}
	}
	return m
}()

func unitOf(name string) string {
	if d := defs[name]; d != nil {
		return d.unit
	}
	return "us" // span metrics outside the list
}

func (d *metricDef) appliesTo(workload string) bool {
	if d.on == nil {
		return true
	}
	for _, w := range d.on {
		if w == workload {
			return true
		}
	}
	return false
}
