package federate

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/logical/refeval"
	"repro/internal/semop"
)

// FuzzFaultSchedule fuzzes the chaos fault schedule — seed, transient
// budget, which backends are fully down, worker count — against the
// resilience invariants: whenever at least one backend survives, every
// plan shape must return results bit-identical to the reference
// evaluator's; and whatever happens (including total outage), two
// identical systems under the same schedule must behave identically.
func FuzzFaultSchedule(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(0), uint8(1))
	f.Add(uint64(42), uint8(3), uint8(1), uint8(2))
	f.Add(uint64(7), uint8(0), uint8(2), uint8(8))
	f.Add(uint64(99), uint8(1), uint8(3), uint8(4))
	f.Fuzz(func(t *testing.T, seed uint64, maxTransient, downMask, workers uint8) {
		// Keep the transient budget within the executor's retry budget,
		// so injected transients alone can never exhaust a scan.
		mt := int(maxTransient) % (fault.DefaultPolicy().MaxRetries + 1)
		w := int(workers)%8 + 1
		memDown := downMask&1 != 0
		sqlDown := downMask&2 != 0

		c := testCatalog() // read-only: shared by both executors and the reference
		build := func() *Executor {
			clock := fault.NewFakeClock()
			return New(c.Epoch, Options{Workers: w, Clock: clock},
				NewChaos(NewMemory(c), ChaosOptions{Seed: seed, MaxTransient: mt, Down: memDown, Clock: clock}),
				NewChaos(NewSQL(c), ChaosOptions{Seed: seed + 1, MaxTransient: mt, Down: sqlDown, Clock: clock}),
			)
		}

		names := make([]string, 0, 5)
		plans := resilienceTestPlans()
		for name := range plans {
			names = append(names, name)
		}
		sort.Strings(names)

		run := func(e *Executor) []string {
			out := make([]string, 0, len(names))
			for _, name := range names {
				got, _, err := execPlan(e, plans[name], c)
				if err != nil {
					out = append(out, name+" ERR "+err.Error())
					continue
				}
				out = append(out, name+" OK "+render(got))
			}
			return out
		}

		e1, e2 := build(), build()
		r1, r2 := run(e1), run(e2)
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("same schedule, diverging behavior:\n%s\nvs\n%s", r1[i], r2[i])
			}
		}

		if memDown && sqlDown {
			for _, r := range r1 {
				if !strings.Contains(r, " ERR ") {
					t.Fatalf("total outage but query succeeded: %s", r)
				}
			}
			return
		}
		// At least one backend survives per table: parity must hold.
		for i, name := range names {
			want, err := refeval.Eval(semop.Compile(plans[name]), c)
			if err != nil {
				t.Fatal(err)
			}
			if got := name + " OK " + render(want); r1[i] != got {
				t.Fatalf("parity broken under schedule seed=%d mt=%d down=%d workers=%d:\n%s\nvs\n%s",
					seed, mt, downMask, w, r1[i], got)
			}
		}
	})
}
