package core

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/federate"
)

// resilienceQuery is the SQL join shape: it lowers to two routed
// fragments (ratings, metric_changes), so fault injection exercises
// retries and failover on multiple concurrent scans in one query.
const resilienceQuery = "SELECT AVG(stars) AS result FROM ratings JOIN metric_changes ON ratings.product = metric_changes.product WHERE change_pct > 15"

// resilienceScenarios pair a golden name with the chaos wrapper that
// produces it. Each wrapper keeps the inner backend's "memory" name,
// so registering it replaces the healthy built-in and the plan still
// routes to "memory" — the faults hit at scan time.
var resilienceScenarios = []struct {
	name  string
	chaos func(h *Hybrid) federate.Backend
}{
	// Seeded transient faults within the retry budget: every scan
	// eventually succeeds on the planned backend, EXPLAIN shows the
	// retry counts, and results are bit-identical to fault-free.
	{"resilience_retry", func(h *Hybrid) federate.Backend {
		return federate.NewChaos(federate.NewMemory(h.Catalog()), federate.ChaosOptions{
			Seed: 7, MaxTransient: 2, Clock: fault.NewFakeClock(),
		})
	}},
	// Backend fully down: every scan routed to memory fails
	// permanently and fails over to the next-cheapest backend serving
	// the table (sql, over the same catalog) — same results, EXPLAIN
	// shows the failover edges.
	{"resilience_failover", func(h *Hybrid) federate.Backend {
		return federate.NewChaos(federate.NewMemory(h.Catalog()), federate.ChaosOptions{Down: true})
	}},
}

// TestExplainGoldenResilience pins the EXPLAIN resilience line under
// seeded fault injection: the same chaos schedule renders the same
// retry and failover counts at any worker count, and the faulted
// query's result table stays bit-identical to the fault-free run.
// Regenerate with: go test ./internal/core -run TestExplainGoldenResilience -update
func TestExplainGoldenResilience(t *testing.T) {
	baseline := explainHybrid(t, 1)
	want, err := baseline.Query(resilienceQuery)
	if err != nil {
		t.Fatalf("fault-free baseline: %v", err)
	}

	for _, sc := range resilienceScenarios {
		t.Run(sc.name, func(t *testing.T) {
			var explain string
			for _, workers := range []int{1, 2, 8} {
				h := explainHybrid(t, workers)
				h.RegisterBackend(sc.chaos(h))
				res, err := h.Query(resilienceQuery)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if got := res.Table.String(); got != want.Table.String() {
					t.Fatalf("workers=%d: result drifted under faults:\n%s\nvs fault-free:\n%s",
						workers, got, want.Table.String())
				}
				if explain == "" {
					explain = res.Explain()
				} else if res.Explain() != explain {
					t.Fatalf("EXPLAIN differs across worker counts:\n%s\nvs\n%s", explain, res.Explain())
				}
				if ms := h.Metrics(); len(ms) == 0 {
					t.Fatalf("workers=%d: no resilience counters recorded", workers)
				}
			}
			if !strings.Contains(explain, "resilience:") {
				t.Fatalf("EXPLAIN missing resilience line:\n%s", explain)
			}
			checkGolden(t, sc.name, explain)
		})
	}
}
