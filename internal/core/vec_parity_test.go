package core

import (
	"testing"

	"repro/internal/logical"
	"repro/internal/semop"
	"repro/internal/slm"
	"repro/internal/workload"
)

// TestVectorizedMatchesRowExecutor holds the vectorized executor to
// bit-identity with the row interpreter on every bound workload
// question across both domains: for each optimized plan, ExecVec must
// return a table identical in schema, row order and cell values to
// logical.Exec — at one worker and at several, since output order
// must not depend on parallelism. Every bound plan is checked: there
// is no dispatch gate a plan could be skipped behind.
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
				want, wantErr := logical.Exec(opt.Root, cat)
				for _, workers := range []int{1, 2, 8} {
					got, err := logical.ExecVec(opt.Root, cat, workers)
					if wantErr != nil {
						if err == nil {
							t.Errorf("%q (workers=%d): row executor errored (%v) but vectorized succeeded",
								q.Text, workers, wantErr)
						}
						continue
					}
					if err != nil {
						t.Errorf("%q (workers=%d): vectorized exec: %v", q.Text, workers, err)
						continue
					}
					if renderTable(got) != renderTable(want) {
						t.Errorf("%q (workers=%d): vectorized result diverges from row executor:\n%s\nvs\n%s",
							q.Text, workers, renderTable(got), renderTable(want))
					}
				}
			}
			if bound == 0 {
				t.Fatal("no workload question bound — parity test vacuous")
			}
			t.Logf("%s: %d bound questions verified through the vectorized executor", domain, bound)
		})
	}
}
