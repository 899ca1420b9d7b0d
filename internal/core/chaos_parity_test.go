package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/federate"
	"repro/internal/logical"
	"repro/internal/logical/refeval"
	"repro/internal/semop"
	"repro/internal/slm"
	"repro/internal/workload"
)

// chaosScenarios are the fault schedules the parity suite injects.
// Each returns the chaos-wrapped backends to register on a built
// hybrid; the wrappers keep the built-in backend names, so they
// replace the healthy memory/SQL drivers in place. All schedules are
// seeded and pure, so a scenario behaves identically on every run and
// at every worker count.
var chaosScenarios = []struct {
	name string
	wrap func(h *Hybrid) []federate.Backend
}{
	// Transient faults on both catalog backends, within the retry
	// budget: every scan eventually succeeds where it was routed.
	{"transient", func(h *Hybrid) []federate.Backend {
		clock := fault.NewFakeClock()
		return []federate.Backend{
			federate.NewChaos(federate.NewMemory(h.Catalog()), federate.ChaosOptions{Seed: 11, MaxTransient: 2, Clock: clock}),
			federate.NewChaos(federate.NewSQL(h.Catalog()), federate.ChaosOptions{Seed: 12, MaxTransient: 2, Clock: clock}),
		}
	}},
	// Injected scan latency (recorded by a fake clock, not slept) on
	// top of transient faults.
	{"latency", func(h *Hybrid) []federate.Backend {
		clock := fault.NewFakeClock()
		return []federate.Backend{
			federate.NewChaos(federate.NewMemory(h.Catalog()), federate.ChaosOptions{Seed: 21, MaxTransient: 1, Latency: 5 * time.Millisecond, Clock: clock}),
		}
	}},
	// The memory backend fully down: every fragment routed to it fails
	// over to the SQL driver over the same catalog, and after enough
	// consecutive failures the breaker opens and routing re-plans
	// around the dead backend entirely.
	{"memory_down", func(h *Hybrid) []federate.Backend {
		return []federate.Backend{
			federate.NewChaos(federate.NewMemory(h.Catalog()), federate.ChaosOptions{Down: true}),
		}
	}},
}

// TestChaosParityAcrossCorpora holds the federated executor to
// bit-identical results under fault injection on every bound workload
// question across both demo domains: for each chaos scenario and
// worker count, executing through the faulted federation must return
// exactly what the fault-free single-catalog executor returns —
// retries, failovers and breaker trips are invisible in results.
func TestChaosParityAcrossCorpora(t *testing.T) {
	corpora := map[string]*workload.Corpus{
		"ecommerce":  workload.ECommerce(workload.DefaultECommerceOptions()),
		"healthcare": workload.Healthcare(workload.DefaultHealthcareOptions()),
	}
	for domain, c := range corpora {
		t.Run(domain, func(t *testing.T) {
			ner := slm.NewNER()
			c.Register(ner)
			for _, sc := range chaosScenarios {
				t.Run(sc.name, func(t *testing.T) {
					for _, workers := range []int{1, 2, 8} {
						opts := DefaultHybridOptions()
						opts.Workers = workers
						h, err := NewHybrid(c.Sources, ner, opts)
						if err != nil {
							t.Fatal(err)
						}
						for _, b := range sc.wrap(h) {
							h.RegisterBackend(b)
						}
						cat := h.Catalog()
						bound := 0
						for _, q := range c.Queries {
							plan, err := semop.Bind(semop.Parse(q.Text, ner), cat)
							if err != nil {
								continue
							}
							bound++
							want, wantErr := reference(plan, cat)
							got, _, err := h.Federation().ExecuteIR(logical.Optimize(semop.Compile(plan), logical.CatalogStats(cat)))
							if wantErr != nil {
								if err == nil {
									t.Errorf("%q (workers=%d): the reference errored (%v) but the chaos run succeeded",
										q.Text, workers, wantErr)
								}
								continue
							}
							if err != nil {
								t.Errorf("%q (workers=%d): chaos run: %v", q.Text, workers, err)
								continue
							}
							if refeval.Render(got) != refeval.Render(want) {
								t.Errorf("%q (workers=%d): result diverged under %s faults:\n%s\nvs\n%s",
									q.Text, workers, sc.name, refeval.Render(got), refeval.Render(want))
							}
						}
						if bound == 0 {
							t.Fatal("no workload question bound — chaos parity vacuous")
						}
					}
				})
			}
		})
	}
}

// TestChaosIngestQueryRace interleaves live ingest with answering
// under transient fault injection — the supported concurrent surface
// (Answer vs Ingest) must stay race-free while scans are retrying.
// Run with -race; correctness of individual answers during the churn
// is covered by the parity suite above, here only safety and absence
// of deadlock are asserted.
func TestChaosIngestQueryRace(t *testing.T) {
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	ner := slm.NewNER()
	c.Register(ner)
	opts := DefaultHybridOptions()
	opts.Workers = 8
	h, err := NewHybrid(c.Sources, ner, opts)
	if err != nil {
		t.Fatal(err)
	}
	clock := fault.NewFakeClock()
	h.RegisterBackend(federate.NewChaos(federate.NewMemory(h.Catalog()),
		federate.ChaosOptions{Seed: 3, MaxTransient: 2, Clock: clock}))

	questions := make([]string, 0, 4)
	for _, q := range c.Queries {
		if len(questions) == 4 {
			break
		}
		questions = append(questions, q.Text)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 16; i++ {
			if err := h.Ingest("docs", fmt.Sprintf("chaos-race-%d", i),
				"Customer C-9 rated Product Alpha 4 stars."); err != nil {
				t.Errorf("ingest %d: %v", i, err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				for _, q := range questions {
					h.Answer(q)
				}
			}
		}()
	}
	wg.Wait()
	<-done
}
