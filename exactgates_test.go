package unisem

import (
	"fmt"
	"testing"

	"repro/internal/logical"
	"repro/internal/semop"
)

// TestExactGates pins the planner numbers that depend on no machine: the
// corpora are seeded and the planner is deterministic, so a pushdown,
// pruning, rollup-routing or cost-model regression moves one of them on
// any box. Each gate runs the set-up its benchmark in bench_test.go
// times, once, and reads the rows the fragments scanned (or the q-error);
// "a/b" is the optimized plan's count beside the unpushed one.
func TestExactGates(t *testing.T) {
	analytic := func(shape analyticShape) func(t *testing.T) string {
		return func(t *testing.T) string {
			fed, c := analyticFixture(t)
			res, scanned := scannedBy(t, fed, shape.optimize(c))
			if res.Len() != shape.wantRows {
				t.Errorf("result rows = %d, want %d", res.Len(), shape.wantRows)
			}
			return fmt.Sprint(scanned)
		}
	}
	for _, gate := range []struct {
		name, want string
		got        func(t *testing.T) string
	}{
		{"filtered aggregate, bucket of table", "3/169", func(t *testing.T) string {
			h, plan := filteredAggPlan(t)
			_, scanned := scannedBy(t, h.Federation(), logical.Optimize(semop.Compile(plan), logical.CatalogStats(h.Catalog())))
			base, err := h.Catalog().Get(plan.Table)
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("%d/%d", scanned, base.Len())
		}},
		{"seeded join, optimized of unoptimized", "579/745", func(t *testing.T) string {
			h, plan := joinAggPlan(t)
			_, seeded := scannedBy(t, h.Federation(), logical.Optimize(semop.Compile(plan), logical.CatalogStats(h.Catalog())))
			_, unseeded := scannedBy(t, h.Federation(), &logical.Optimized{Root: semop.Compile(plan)})
			return fmt.Sprintf("%d/%d", seeded, unseeded)
		}},
		{"zone-refuted range", "0", func(t *testing.T) string {
			h, opt := prunedAggPlan(t)
			_, scanned := scannedBy(t, h.Federation(), opt)
			return fmt.Sprint(scanned)
		}},
		{"group-by, rollup-routed of unrouted", "5/8192", func(t *testing.T) string {
			fed, opt, _ := rollupBenchSetup(t, true)
			_, routed := scannedBy(t, fed, opt)
			fed, opt, _ = rollupBenchSetup(t, false)
			_, unrouted := scannedBy(t, fed, opt)
			return fmt.Sprintf("%d/%d", routed, unrouted)
		}},
		{"top-k", "65536", analytic(topKShape)},
		{"distinct", "65536", analytic(distinctShape)},
		{"filtered group-by", "65536", analytic(filteredGroupByShape)},
		{"group-by sku", "65536", analytic(groupBySkuShape)},
		{"q_error_max", "1.667", func(t *testing.T) string {
			return fmt.Sprintf("%.3f", maxQError(t, estimateItems(t)))
		}},
	} {
		t.Run(gate.name, func(t *testing.T) {
			if got := gate.got(t); got != gate.want {
				t.Errorf("%s = %s, want %s", gate.name, got, gate.want)
			}
		})
	}
}
