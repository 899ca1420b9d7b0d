package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/logical"
	"repro/internal/logical/refeval"
	"repro/internal/semop"
	"repro/internal/slm"
	"repro/internal/table"
	"repro/internal/workload"
)

// domainRollups returns rollup definitions at the grains the workload
// corpora aggregate over, so the routing pass has candidates for the
// real question set.
func domainRollups(domain string) []table.RollupDef {
	switch domain {
	case "ecommerce":
		return []table.RollupDef{
			{Name: "ratings_by_product", Base: "ratings", GroupBy: []string{"product"},
				Aggs: []table.Agg{
					{Func: table.AggAvg, Col: "stars"},
					{Func: table.AggSum, Col: "stars"},
					{Func: table.AggCount, Col: "", As: "n"},
					{Func: table.AggMin, Col: "stars"},
					{Func: table.AggMax, Col: "stars"},
				}},
			{Name: "sales_by_pq", Base: "sales", GroupBy: []string{"product", "quarter"},
				Aggs: []table.Agg{
					{Func: table.AggSum, Col: "revenue"},
					{Func: table.AggAvg, Col: "revenue"},
					{Func: table.AggCount, Col: "", As: "n"},
				}},
		}
	case "healthcare":
		return []table.RollupDef{
			{Name: "trials_by_drug", Base: "trial_results", GroupBy: []string{"drug"},
				Aggs: []table.Agg{
					{Func: table.AggAvg, Col: "efficacy_pct"},
					{Func: table.AggSum, Col: "enrolled"},
					{Func: table.AggCount, Col: "", As: "n"},
				}},
			{Name: "treatments_by_drug", Base: "treatments", GroupBy: []string{"drug"},
				Aggs: []table.Agg{{Func: table.AggCount, Col: "", As: "n"}}},
		}
	}
	return nil
}

// hiddenRollupStats wraps catalog stats while listing no rollups,
// producing the unrouted plan for the same catalog.
type hiddenRollupStats struct{ s logical.Stats }

func (h hiddenRollupStats) Schema(tbl string) (table.Schema, bool)  { return h.s.Schema(tbl) }
func (h hiddenRollupStats) Card(tbl string) (int, bool)             { return h.s.Card(tbl) }
func (h hiddenRollupStats) TableStats(tbl string) *table.TableStats { return h.s.TableStats(tbl) }
func (hiddenRollupStats) RollupsFor(string) []table.RollupDef       { return nil }

// TestRollupRoutingParityAcrossCorpus holds routed aggregate plans and
// their unrouted versions to the reference evaluator over every bound
// workload question in both domains: same catalog, one optimization with
// the rollup registry visible and one with it hidden, results compared
// cell-for-cell with the reference's through the row executor and, for
// the routed plan, the vectorized executor at 1, 2 and 8 workers.
// Routing must be invisible in results at any parallelism.
func TestRollupRoutingParityAcrossCorpus(t *testing.T) {
	corpora := map[string]*workload.Corpus{
		"ecommerce":  workload.ECommerce(workload.DefaultECommerceOptions()),
		"healthcare": workload.Healthcare(workload.DefaultHealthcareOptions()),
	}
	for domain, c := range corpora {
		t.Run(domain, func(t *testing.T) {
			ner := slm.NewNER()
			c.Register(ner)
			h, err := NewHybrid(c.Sources, ner, DefaultHybridOptions())
			if err != nil {
				t.Fatal(err)
			}
			for _, def := range domainRollups(domain) {
				if err := h.AddRollup(def); err != nil {
					t.Fatalf("register %s: %v", def.Name, err)
				}
			}
			cat := h.Catalog()
			bound, routed := 0, 0
			for _, q := range c.Queries {
				plan, err := semop.Bind(semop.Parse(q.Text, ner), cat)
				if err != nil {
					continue
				}
				bound++
				node := semop.Compile(plan)
				plain := logical.Optimize(node.Clone(), hiddenRollupStats{logical.CatalogStats(cat)})
				opt := logical.Optimize(node.Clone(), logical.CatalogStats(cat))
				if len(opt.Rollups) > 0 {
					routed++
				}
				want, wantErr := reference(plan, cat)
				check := func(label string, got *table.Table, err error) {
					switch {
					case (err == nil) != (wantErr == nil):
						t.Errorf("%q (%s): error %v, the reference's %v", q.Text, label, err, wantErr)
					case err == nil && refeval.Render(got) != refeval.Render(want):
						t.Errorf("%q (%s, rollups %v): result diverges from the reference:\n%s\nvs\n%s",
							q.Text, label, opt.Rollups, refeval.Render(got), refeval.Render(want))
					}
				}
				got, err := logical.Exec(plain.Root, cat)
				check("unrouted", got, err)
				got, err = logical.Exec(opt.Root, cat)
				check("routed", got, err)
				for _, workers := range []int{1, 2, 8} {
					got, err := logical.ExecVec(opt.Root, cat, workers)
					check(fmt.Sprintf("routed, vectorized, workers=%d", workers), got, err)
				}
			}
			if bound == 0 {
				t.Fatal("no workload question bound — parity vacuous")
			}
			if routed == 0 {
				t.Fatal("no question routed onto a rollup — parity vacuous")
			}
			t.Logf("%s: %d/%d bound questions routed onto rollups", domain, routed, bound)
		})
	}
}

// TestExplainRollupGolden pins the EXPLAIN rendering of routed plans:
// the `rollup:` line records base -> rollup and the routing mode, for
// both the NL entry (a pinned global aggregate) and the SQL entry (an
// exact grain match), stable across worker counts and replans.
func TestExplainRollupGolden(t *testing.T) {
	shapes := []struct {
		name, nl, sql string
	}{
		{name: "rollup_pinned", nl: "What is the average rating of Product Alpha?"},
		{name: "rollup_exact", sql: "SELECT product, AVG(stars) AS result FROM ratings GROUP BY product"},
	}
	seq := explainHybrid(t, 1)
	par := explainHybrid(t, 0)
	for _, h := range []*Hybrid{seq, par} {
		if err := h.AddRollup(table.RollupDef{
			Name:    "ratings_by_product",
			Base:    "ratings",
			GroupBy: []string{"product"},
			Aggs: []table.Agg{
				{Func: table.AggAvg, Col: "stars"},
				{Func: table.AggCount, Col: "", As: "n"},
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			explain := func(h *Hybrid) string {
				if shape.sql != "" {
					res, err := h.Query(shape.sql)
					if err != nil {
						t.Fatalf("query: %v", err)
					}
					return res.Explain()
				}
				ans := h.Answer(shape.nl)
				if ans.Err != nil {
					t.Fatalf("answer: %v", ans.Err)
				}
				return ans.Explain()
			}
			got := explain(seq)
			if !strings.Contains(got, "rollup:   ratings -> ratings_by_product") {
				t.Fatalf("EXPLAIN missing rollup line:\n%s", got)
			}
			if parGot := explain(par); parGot != got {
				t.Errorf("EXPLAIN differs between Workers=1 and Workers=0:\n%s\nvs\n%s", got, parGot)
			}
			if again := explain(seq); again != got {
				t.Errorf("EXPLAIN not stable across replans:\n%s\nvs\n%s", got, again)
			}
			checkGolden(t, shape.name, got)
		})
	}
}

// TestRollupIngestInvalidatesRoutedPlan pins the staleness guarantee:
// after a routed aggregate executes (and its physical plan is cached),
// an ingest that appends base rows must maintain the rollup
// synchronously and bump the data epoch, so the next execution of the
// same query reflects the new rows — never a stale materialization.
func TestRollupIngestInvalidatesRoutedPlan(t *testing.T) {
	h := explainHybrid(t, 1)
	if err := h.AddRollup(table.RollupDef{
		Name:    "ratings_by_product",
		Base:    "ratings",
		GroupBy: []string{"product"},
		Aggs: []table.Agg{
			{Func: table.AggSum, Col: "stars"},
			{Func: table.AggCount, Col: "", As: "n"},
		},
	}); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT product, SUM(stars) AS total, COUNT(*) AS n FROM ratings WHERE product = 'Product Alpha' GROUP BY product"
	before, err := h.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(before.Explain(), "rollup:   ratings -> ratings_by_product (exact)") {
		t.Fatalf("query not routed:\n%s", before.Explain())
	}
	if before.Table.Len() != 1 {
		t.Fatalf("rows = %d, want 1\n%v", before.Table.Len(), before.Table)
	}
	n0 := before.Table.Rows[0][2].Int()

	if err := h.Ingest("reviews", "stale-check", "Product Alpha was rated 1 stars."); err != nil {
		t.Fatal(err)
	}
	after, err := h.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(after.Explain(), "rollup:") {
		t.Fatalf("re-executed query lost routing:\n%s", after.Explain())
	}
	if got := after.Table.Rows[0][2].Int(); got != n0+1 {
		t.Fatalf("routed result is stale after ingest: count = %d, want %d", got, n0+1)
	}
	// The routed answer must equal the unrouted aggregation of the
	// post-ingest base rows, bit for bit.
	fresh, err := refeval.Eval(&logical.Node{Op: logical.OpAggregate, GroupBy: []string{"product"},
		Aggs: []table.Agg{{Func: table.AggSum, Col: "stars", As: "total"}, {Func: table.AggCount, Col: "", As: "n"}},
		In: []*logical.Node{{Op: logical.OpFilter,
			Preds: []table.Pred{{Col: "product", Op: table.OpEq, Val: table.S("Product Alpha")}},
			In:    []*logical.Node{{Op: logical.OpScan, Table: "ratings"}}}}}, h.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	if refeval.Render(after.Table) != refeval.Render(fresh) {
		t.Fatalf("routed result diverges from fresh aggregation:\n%s\nvs\n%s",
			refeval.Render(after.Table), refeval.Render(fresh))
	}
}
