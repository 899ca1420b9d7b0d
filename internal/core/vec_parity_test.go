package core

import (
	"fmt"
	"testing"

	"repro/internal/logical"
	"repro/internal/logical/refeval"
	"repro/internal/semop"
	"repro/internal/slm"
	"repro/internal/table"
	"repro/internal/workload"
)

// TestVectorizedMatchesRowExecutor holds both executors to the
// reference evaluator on every bound workload question across both
// domains: for each optimized plan, logical.Exec and ExecVec — at one
// worker and at several, since output order must not depend on
// parallelism — must return a table identical in schema, row order and
// cell values to the reference's answer, or fail where it fails. Every
// bound plan is checked: there is no dispatch gate a plan could be
// skipped behind.
func TestVectorizedMatchesRowExecutor(t *testing.T) {
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
				opt := logical.Optimize(semop.Compile(plan), logical.CatalogStats(cat))
				want, wantErr := reference(plan, cat)
				check := func(label string, got *table.Table, err error) {
					switch {
					case (err == nil) != (wantErr == nil):
						t.Errorf("%q (%s): error %v, the reference's %v", q.Text, label, err, wantErr)
					case err == nil && refeval.Render(got) != refeval.Render(want):
						t.Errorf("%q (%s): result diverges from the reference:\n%s\nvs\n%s",
							q.Text, label, refeval.Render(got), refeval.Render(want))
					}
				}
				got, err := logical.Exec(opt.Root, cat)
				check("row interpreter", got, err)
				for _, workers := range []int{1, 2, 8} {
					got, err := logical.ExecVec(opt.Root, cat, workers)
					check(fmt.Sprintf("vectorized, workers=%d", workers), got, err)
				}
			}
			if bound == 0 {
				t.Fatal("no workload question bound — parity test vacuous")
			}
			t.Logf("%s: %d bound questions verified through the vectorized executor", domain, bound)
		})
	}
}
