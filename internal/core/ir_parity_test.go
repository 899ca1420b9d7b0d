package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/logical"
	"repro/internal/semop"
	"repro/internal/slm"
	"repro/internal/sql"
	"repro/internal/table"
	"repro/internal/workload"
)

// legacyExec is a frozen copy of the pre-IR semop executor (the
// hand-coded interpreter the logical-plan refactor deleted). It is the
// reference the parity tests hold the unified paths to: every plan the
// binder produces must execute bit-identically through the IR
// pipeline, the federated planner, and this snapshot.
func legacyExec(p *semop.Plan, c *table.Catalog) (*table.Table, error) {
	tbl, err := c.Get(p.Table)
	if err != nil {
		return nil, err
	}
	cur := tbl

	if p.JoinTable != "" {
		other, err := c.Get(p.JoinTable)
		if err != nil {
			return nil, err
		}
		filtered := other
		if len(p.JoinFilters) > 0 {
			filtered, err = table.Filter(other, p.JoinFilters...)
			if err != nil {
				return nil, err
			}
		}
		keys, err := table.Project(filtered, p.JoinRightCol)
		if err != nil {
			return nil, err
		}
		keys = table.Distinct(keys)
		cur, err = table.HashJoin(cur, keys, p.JoinLeftCol, p.JoinRightCol)
		if err != nil {
			return nil, err
		}
	}

	if len(p.Comparison) > 0 && p.CompareCol != "" {
		return legacyCompare(p, cur, p.Filters)
	}

	if len(p.Filters) > 0 {
		cur, err = table.Filter(cur, p.Filters...)
		if err != nil {
			return nil, err
		}
	}
	if len(p.Aggs) > 0 {
		cur, err = table.Aggregate(cur, p.GroupBy, p.Aggs)
		if err != nil {
			return nil, err
		}
	}
	if len(p.OrderBy) > 0 {
		cur, err = table.Sort(cur, p.OrderBy...)
		if err != nil {
			return nil, err
		}
	}
	if p.LimitRows > 0 {
		cur = table.Limit(cur, p.LimitRows)
	}
	if len(p.Columns) > 0 {
		cur, err = table.Project(cur, p.Columns...)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

func legacyCompare(p *semop.Plan, tbl *table.Table, preds []table.Pred) (*table.Table, error) {
	var out *table.Table
	items := append([]string(nil), p.Comparison...)
	sort.Strings(items)
	for _, item := range items {
		preds := append(append([]table.Pred(nil), preds...),
			table.Pred{Col: p.CompareCol, Op: table.OpContains, Val: table.S(item)})
		filtered, err := table.Filter(tbl, preds...)
		if err != nil {
			return nil, err
		}
		agged, err := table.Aggregate(filtered, []string{p.CompareCol}, p.Aggs)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = table.New("comparison", agged.Schema)
		}
		out.Rows = append(out.Rows, agged.Rows...)
	}
	if out == nil {
		return nil, fmt.Errorf("comparison with no items")
	}
	return out, nil
}

// renderTable flattens a result to an exact comparable string: schema
// names and every cell's kind, nullness and text, so "bit-identical"
// means identical schema, row order and cells (−0 and +0, or int 2 and
// float 2, render apart; Value.Key would merge them).
func renderTable(t *table.Table) string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Schema.Names(), ","))
	for _, row := range t.Rows {
		b.WriteByte('\n')
		for _, v := range row {
			fmt.Fprintf(&b, "%v:%v:%s|", v.Kind(), v.IsNull(), v)
		}
	}
	return b.String()
}

// TestIRMatchesLegacyExecutor binds every workload question across two
// domains and asserts the three unified paths — single-store IR
// execution (semop.Exec), optimized IR execution, and the federated
// planner — all produce tables bit-identical to the frozen pre-IR
// interpreter.
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
				want, err := legacyExec(plan, cat)
				if err != nil {
					// The legacy path could not execute this plan either
					// way; the IR path must fail too, not fabricate rows.
					if _, irErr := semop.Exec(plan, cat); irErr == nil {
						t.Errorf("%q: legacy errored (%v) but IR succeeded", q.Text, err)
					}
					continue
				}
				got, err := semop.Exec(plan, cat)
				if err != nil {
					t.Errorf("%q: IR exec: %v", q.Text, err)
					continue
				}
				if renderTable(got) != renderTable(want) {
					t.Errorf("%q: IR result diverges from legacy:\n%s\nvs\n%s",
						q.Text, renderTable(got), renderTable(want))
				}
				fed, _, err := h.Federation().ExecuteIR(logical.Optimize(semop.Compile(plan), logical.CatalogStats(cat)))
				if err != nil {
					t.Errorf("%q: federated exec: %v", q.Text, err)
					continue
				}
				if renderTable(fed) != renderTable(want) {
					t.Errorf("%q: federated result diverges from legacy:\n%s\nvs\n%s",
						q.Text, renderTable(fed), renderTable(want))
				}
			}
			if bound == 0 {
				t.Fatal("no workload question bound — parity test vacuous")
			}
			t.Logf("%s: %d questions verified against the legacy interpreter", domain, bound)
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
			if renderTable(sqlRes.Table) != renderTable(nlRes) {
				t.Errorf("NL and SQL results differ:\n%s\nvs\n%s",
					renderTable(sqlRes.Table), renderTable(nlRes))
			}
		})
	}
}
