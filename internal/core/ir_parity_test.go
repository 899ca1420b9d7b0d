package core

import (
	"testing"

	"repro/internal/logical"
	"repro/internal/logical/refeval"
	"repro/internal/semop"
	"repro/internal/slm"
	"repro/internal/sql"
	"repro/internal/table"
	"repro/internal/workload"
)

// lowerPlan is a frozen hand-lowering of a bound plan into a plan tree,
// written from what the plan means rather than from semop.Compile: the
// driving table semi-joined with the distinct join keys of the filtered
// joined table, then either the comparison or filter, aggregate, sort,
// limit and projection. The reference evaluator runs it, so the check
// of Compile stays independent of Compile.
func lowerPlan(p *semop.Plan) *logical.Node {
	above := func(n, in *logical.Node) *logical.Node {
		n.In = []*logical.Node{in}
		return n
	}
	n := &logical.Node{Op: logical.OpScan, Table: p.Table}
	if p.JoinTable != "" {
		keys := &logical.Node{Op: logical.OpScan, Table: p.JoinTable}
		if len(p.JoinFilters) > 0 {
			keys = above(&logical.Node{Op: logical.OpFilter, Preds: p.JoinFilters}, keys)
		}
		keys = above(&logical.Node{Op: logical.OpDistinct},
			above(&logical.Node{Op: logical.OpProject, Proj: []string{p.JoinRightCol}}, keys))
		n = &logical.Node{Op: logical.OpJoin, LeftCol: p.JoinLeftCol, RightCol: p.JoinRightCol,
			In: []*logical.Node{n, keys}}
	}
	if len(p.Comparison) > 0 && p.CompareCol != "" {
		return above(&logical.Node{Op: logical.OpCompare, CompareCol: p.CompareCol,
			Items: p.Comparison, Preds: p.Filters, Aggs: p.Aggs}, n)
	}
	if len(p.Filters) > 0 {
		n = above(&logical.Node{Op: logical.OpFilter, Preds: p.Filters}, n)
	}
	if len(p.Aggs) > 0 {
		n = above(&logical.Node{Op: logical.OpAggregate, GroupBy: p.GroupBy, Aggs: p.Aggs}, n)
	}
	if len(p.OrderBy) > 0 {
		n = above(&logical.Node{Op: logical.OpSort, Keys: p.OrderBy}, n)
	}
	if p.LimitRows > 0 {
		n = above(&logical.Node{Op: logical.OpLimit, N: p.LimitRows}, n)
	}
	if len(p.Columns) > 0 {
		n = above(&logical.Node{Op: logical.OpProject, Proj: p.Columns}, n)
	}
	return n
}

// reference is the reference evaluator's answer to a bound plan.
func reference(p *semop.Plan, c *table.Catalog) (*table.Table, error) {
	return refeval.Eval(lowerPlan(p), c)
}

// TestIRMatchesLegacyExecutor binds every workload question across two
// domains and asserts the unified paths — single-store IR execution
// (semop.Exec) and the federated planner over the optimized plan — both
// produce tables bit-identical to the reference evaluator's answer to
// the plan's frozen hand-lowering (lowerPlan).
func TestIRMatchesLegacyExecutor(t *testing.T) {
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
			cat := h.Catalog()
			bound := 0
			for _, q := range c.Queries {
				plan, err := semop.Bind(semop.Parse(q.Text, ner), cat)
				if err != nil {
					continue
				}
				bound++
				want, err := reference(plan, cat)
				if err != nil {
					// The reference cannot answer this plan; the IR path
					// must fail too, not fabricate rows.
					if _, irErr := semop.Exec(plan, cat); irErr == nil {
						t.Errorf("%q: the reference errored (%v) but IR succeeded", q.Text, err)
					}
					continue
				}
				got, err := semop.Exec(plan, cat)
				if err != nil {
					t.Errorf("%q: IR exec: %v", q.Text, err)
					continue
				}
				if refeval.Render(got) != refeval.Render(want) {
					t.Errorf("%q: IR result diverges from the reference:\n%s\nvs\n%s",
						q.Text, refeval.Render(got), refeval.Render(want))
				}
				fed, _, err := h.Federation().ExecuteIR(logical.Optimize(semop.Compile(plan), logical.CatalogStats(cat)))
				if err != nil {
					t.Errorf("%q: federated exec: %v", q.Text, err)
					continue
				}
				if refeval.Render(fed) != refeval.Render(want) {
					t.Errorf("%q: federated result diverges from the reference:\n%s\nvs\n%s",
						q.Text, refeval.Render(fed), refeval.Render(want))
				}
			}
			if bound == 0 {
				t.Fatal("no workload question bound — parity test vacuous")
			}
			t.Logf("%s: %d questions verified against the reference evaluator", domain, bound)
		})
	}
}

// TestNLAndSQLShareOnePhysicalPlan proves the plan-cache unification:
// the NL form of a question and its ToSQL rendering compile to the
// same canonical IR fingerprint, land on one cached physical plan, and
// return bit-identical tables.
func TestNLAndSQLShareOnePhysicalPlan(t *testing.T) {
	h := explainHybrid(t, 1)
	ner := slm.NewNER()
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	c.Register(ner)

	questions := []string{
		"What was the total units of Product Alpha in Q4?",      // filter + aggregate
		"What is the average rating by product?",                // group-by
		"Which products had a sales increase of more than 15%?", // list
	}
	for _, q := range questions {
		t.Run(q, func(t *testing.T) {
			plan, err := semop.Bind(semop.Parse(q, ner), h.Catalog())
			if err != nil {
				t.Fatal(err)
			}
			stmts, err := plan.ToSQL()
			if err != nil {
				t.Fatal(err)
			}
			if len(stmts) != 1 {
				t.Fatalf("expected one statement, got %v", stmts)
			}
			stmt, err := sql.Parse(stmts[0])
			if err != nil {
				t.Fatalf("parse %q: %v", stmts[0], err)
			}
			sqlNode, err := sql.Compile(stmt, h.Catalog())
			if err != nil {
				t.Fatal(err)
			}
			st := logical.CatalogStats(h.Catalog())
			nlFP := logical.Fingerprint(logical.Optimize(semop.Compile(plan), st).Root)
			sqlFP := logical.Fingerprint(logical.Optimize(sqlNode, st).Root)
			if nlFP != sqlFP {
				t.Fatalf("NL and SQL canonical fingerprints differ:\n%q\nvs\n%q", nlFP, sqlFP)
			}

			// One cache entry serves both entries.
			nlRes, _, err := h.Federation().ExecuteIR(logical.Optimize(semop.Compile(plan), st))
			if err != nil {
				t.Fatal(err)
			}
			hits0, _, size0 := h.Federation().PlanCacheStats()
			sqlRes, err := h.Query(stmts[0])
			if err != nil {
				t.Fatal(err)
			}
			hits1, _, size1 := h.Federation().PlanCacheStats()
			if hits1 != hits0+1 || size1 != size0 {
				t.Errorf("SQL entry did not reuse the NL physical plan: hits %d -> %d, size %d -> %d",
					hits0, hits1, size0, size1)
			}
			if refeval.Render(sqlRes.Table) != refeval.Render(nlRes) {
				t.Errorf("NL and SQL results differ:\n%s\nvs\n%s",
					refeval.Render(sqlRes.Table), refeval.Render(nlRes))
			}
		})
	}
}
