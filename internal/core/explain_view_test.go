package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/slm"
	"repro/internal/table"
	"repro/internal/workload"
)

// viewHybrid is explainHybrid's system with an answer cache, and with
// the ratings rollup of TestExplainRollupGolden when rollup is set.
func viewHybrid(t *testing.T, rollup bool) (*Hybrid, *workload.Corpus) {
	t.Helper()
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	ner := slm.NewNER()
	c.Register(ner)
	opts := DefaultHybridOptions()
	opts.CacheSize = 64
	h, err := NewHybrid(c.Sources, ner, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rollup {
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
	return h, c
}

// viewShape is one NL or SQL shape of the EXPLAIN goldens, as run on
// the system its golden was recorded against.
type viewShape struct {
	name, nl, sql string
	h             *Hybrid
}

// run asks or queries the shape once and returns what it executed.
func (s viewShape) run(t *testing.T) Executed {
	t.Helper()
	if s.sql != "" {
		res, err := s.h.Query(s.sql)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		return res.Executed
	}
	ans := s.h.Answer(s.nl)
	if ans.Err != nil {
		t.Fatalf("%s: %v", s.name, ans.Err)
	}
	return ans.Executed
}

// TestExplainIsAView pins that an answer's Plan and EXPLAIN are views
// of the run it executed, not of the system: for every NL and SQL shape
// of the EXPLAIN goldens, the bytes rendered right after the answer are
// the bytes rendered from an answer-cache hit, from four goroutines
// while other answers and ingests run, and after an Ingest has bumped
// the epoch and the shape's cached physical plan has been replaced.
func TestExplainIsAView(t *testing.T) {
	plain, c := viewHybrid(t, false)
	routed, _ := viewHybrid(t, true)
	var shapes []viewShape
	for _, s := range explainShapes {
		shapes = append(shapes, viewShape{name: s.name, nl: s.question, h: plain})
	}
	for _, s := range sqlShapes {
		shapes = append(shapes, viewShape{name: s.name, sql: s.query, h: plain})
	}
	shapes = append(shapes,
		viewShape{name: "rollup_pinned", nl: "What is the average rating of Product Alpha?", h: routed},
		viewShape{name: "rollup_exact", sql: "SELECT product, AVG(stars) AS result FROM ratings GROUP BY product", h: routed})

	// Rendered at once.
	runs := make([]Executed, len(shapes))
	plans := make([]string, len(shapes))
	explains := make([]string, len(shapes))
	for i, s := range shapes {
		runs[i] = s.run(t)
		plans[i], explains[i] = runs[i].Plan(), runs[i].Explain()
		if plans[i] == "" {
			t.Fatalf("%s: no plan", s.name)
		}
		checkGolden(t, s.name, explains[i])
	}
	same := func(when string, i int, e Executed) {
		t.Helper()
		if p, x := e.Plan(), e.Explain(); p != plans[i] || x != explains[i] {
			t.Errorf("%s: rendered %s:\n%s\n%s\nwant\n%s\n%s", shapes[i].name, when, p, x, plans[i], explains[i])
		}
	}

	// From an answer-cache hit; a SQL query has no answer cache and
	// hits the plan cache instead.
	for i, s := range shapes {
		hits, _, _ := s.h.CacheStats()
		e := s.run(t)
		if now, _, _ := s.h.CacheStats(); s.nl != "" && now != hits+1 {
			t.Fatalf("%s: second answer was not a cache hit", s.name)
		}
		same("from a cache hit", i, e)
	}

	// From four goroutines while other answers and ingests run.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var busy sync.WaitGroup
	for _, h := range []*Hybrid{plain, routed} {
		busy.Add(2)
		go func() {
			defer busy.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
					h.Answer(c.Queries[j%len(c.Queries)].Text)
				}
			}
		}()
		go func() {
			defer busy.Done()
			for j := 0; j < 3; j++ {
				if err := h.Ingest("reports", fmt.Sprintf("view-busy-%d", j), "Product Alpha sales increased 20% in Q1."); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				for i := range shapes {
					same("concurrently", i, runs[i])
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	busy.Wait()

	// After an Ingest has bumped the epoch and the shape, run again, has
	// replaced its cached physical plan.
	for _, h := range []*Hybrid{plain, routed} {
		if err := h.Ingest("reports", "view-last", "Product Beta sales decreased 5% in Q2."); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range shapes {
		e := s.run(t)
		if e.run == nil || e.run.Plan == runs[i].run.Plan || e.run.Plan.Epoch <= runs[i].run.Plan.Epoch {
			t.Fatalf("%s: the cached physical plan was not replaced after Ingest", s.name)
		}
		same("after an Ingest", i, runs[i])
	}
}
