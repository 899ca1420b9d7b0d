package federate

import (
	"testing"

	"repro/internal/extract"
	"repro/internal/semop"
	"repro/internal/slm"
	"repro/internal/store"
	"repro/internal/table"
	"repro/internal/workload"
)

// heuristicMaxQError is the frozen maximum per-fragment q-error the
// fixed selectivity heuristic produced on the 28-question workload
// corpus, measured at the commit that introduced per-column statistics
// (the last commit where logical.Selectivity alone drove every
// estimate). The statistics-driven estimates must beat it strictly:
// if TestEstimateAccuracyWorkload starts failing against this
// constant, the cost model has regressed to heuristic-grade guessing.
const heuristicMaxQError = 8.0

// statsMaxQErrorBound pins how accurate the statistics-driven
// estimates are on the workload corpus. Exact low-NDV value counts
// make most equality fragments exact (q = 1); histogram interpolation
// on range predicates is the loosest estimator.
const statsMaxQErrorBound = 1.75

// workloadCatalog mirrors the hybrid system's catalog assembly —
// native relational tables, materialized JSON/XML sources, and
// SLM-extracted tables from every text document — without the graph
// layers, so the federate package can bind the full workload question
// set against the same schema surface core.NewHybrid produces.
func workloadCatalog(tb testing.TB, c *workload.Corpus, ner *slm.NER) *table.Catalog {
	tb.Helper()
	cat := table.NewCatalog()
	var docs []extract.Doc
	for _, s := range c.Sources.Sources() {
		switch src := s.(type) {
		case *store.RelationalStore:
			for _, name := range src.Catalog().Names() {
				if t, err := src.Catalog().Get(name); err == nil {
					cat.Put(t)
				}
			}
		default:
			switch s.Kind() {
			case store.KindJSON, store.KindXML:
				t, err := store.ToTable(s.Name(), s.Records())
				if err != nil {
					tb.Fatal(err)
				}
				if t.Len() > 0 {
					cat.Put(t)
				}
			case store.KindText:
				for _, rec := range s.Records() {
					docs = append(docs, extract.Doc{ID: rec.ID, Text: rec.Text})
				}
			}
		}
	}
	eng := extract.NewEngine(ner, extract.Rules()...)
	if err := extract.Merge(cat, eng.ExtractDocs(docs, 1)); err != nil {
		tb.Fatal(err)
	}
	return cat
}

// WorkloadMaxQError executes every bindable workload question across
// both domains and returns the maximum per-fragment q-error (estimated
// vs actual rows, both scanned and output) plus the number of
// fragments measured. BenchmarkEstimateAccuracy (repo root) measures
// the same questions through the full hybrid pipeline for the
// benchguard-gated q_error_max metric; this harness binds against a
// federate-only catalog so the package can pin the bound without
// importing internal/core.
func WorkloadMaxQError(tb testing.TB) (maxQ float64, fragments int) {
	corpora := []*workload.Corpus{
		workload.ECommerce(workload.DefaultECommerceOptions()),
		workload.Healthcare(workload.DefaultHealthcareOptions()),
	}
	for _, c := range corpora {
		ner := slm.NewNER()
		c.Register(ner)
		cat := workloadCatalog(tb, c, ner)
		e := New(cat.Epoch, Options{}, NewMemory(cat), NewSQL(cat))
		bound := 0
		for _, q := range c.Queries {
			plan, err := semop.Bind(semop.Parse(q.Text, ner), cat)
			if err != nil {
				continue
			}
			bound++
			_, run, err := execPlan(e, plan, cat)
			if err != nil {
				tb.Fatalf("%s: %q: %v", c.Name, q.Text, err)
			}
			for _, fr := range run.Fragments {
				fragments++
				if qe := QError(fr.Est.Scanned, fr.ActScanned); qe > maxQ {
					maxQ = qe
				}
				if qe := QError(fr.Est.Out, fr.ActOut); qe > maxQ {
					maxQ = qe
				}
			}
		}
		if bound == 0 {
			tb.Fatalf("%s: no workload question bound — accuracy harness vacuous", c.Name)
		}
	}
	return maxQ, fragments
}

// TestEstimateAccuracyWorkload is the estimate-accuracy harness: it
// runs the 28-question workload corpus through the federated planner,
// records estimated vs actual rows for every fragment, and holds the
// maximum q-error to a pinned bound — and strictly below the frozen
// pre-statistics heuristic baseline, so the statistics must keep
// paying for themselves.
func TestEstimateAccuracyWorkload(t *testing.T) {
	maxQ, fragments := WorkloadMaxQError(t)
	t.Logf("max q-error %.3f over %d fragments", maxQ, fragments)
	if fragments == 0 {
		t.Fatal("no fragments measured")
	}
	if maxQ > statsMaxQErrorBound {
		t.Errorf("max q-error %.3f exceeds pinned bound %.2f", maxQ, statsMaxQErrorBound)
	}
	if maxQ >= heuristicMaxQError {
		t.Errorf("max q-error %.3f is no better than the frozen heuristic baseline %.2f",
			maxQ, heuristicMaxQError)
	}
}
