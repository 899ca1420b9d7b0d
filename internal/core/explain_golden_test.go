package core

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/slm"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite EXPLAIN golden files")

// explainShapes covers one question per plan shape the planner lowers:
// filter, group-by, join, compare, list, plus the optimizer-sensitive
// shapes — a comparison with a shared pushable predicate and a join
// whose driving side carries an equality on the join key (the reorder
// rule's seeding case). Each golden file snapshots the full logical →
// rules → physical EXPLAIN, so any change to routing, pushdown, rule
// firing or cost estimates shows up as a diff.
var explainShapes = []struct {
	name     string
	question string
}{
	{"filter", "What was the total units of Product Alpha in Q4?"},
	{"groupby", "What is the average rating by product?"},
	{"join", "What is the average rating of products with a sales increase of more than 15%?"},
	{"compare", "Compare sales of Product Alpha vs Product Beta"},
	{"list", "Which products had a sales increase of more than 15%?"},
	{"compare_filtered", "Compare sales of Product Alpha vs Product Beta in Q4"},
	{"join_seeded", "What is the average rating of Product Alpha among products with a sales increase of more than 15%?"},
}

// sqlShapes drive the same golden harness through the SQL entry path
// (Hybrid.Query): parse → compile to the shared IR → rule passes →
// federated execution. The first two are the SQL forms of the filter
// and group-by NL shapes and must lower to the same canonical IR.
var sqlShapes = []struct {
	name  string
	query string
}{
	{"sql_filter", "SELECT SUM(change_pct) AS result FROM metric_changes WHERE product = 'Product Alpha' AND quarter = 'Q4'"},
	{"sql_groupby", "SELECT product, AVG(stars) AS result FROM ratings GROUP BY product"},
	{"sql_join", "SELECT AVG(stars) AS result FROM ratings JOIN metric_changes ON ratings.product = metric_changes.product WHERE change_pct > 15"},
	{"sql_orderby", "SELECT product, revenue FROM sales WHERE quarter = 'Q4' ORDER BY revenue DESC LIMIT 3"},
	// An unfiltered ORDER BY: the full 32-row scan clears the
	// vectorization threshold, so the residual Sort dispatches to the
	// columnar sort kernel (exec: vectorized), unlike sql_orderby whose
	// filtered scan estimates below it.
	{"sql_orderby_vec", "SELECT product, revenue FROM sales ORDER BY revenue DESC, product"},
	// A filtered top-k over two keys, one DESC: the memory backend
	// runs it inside the fragment scan after the filter, so the scan
	// line carries the top-k and estimates at most k rows out, and the
	// residual orders only those.
	{"sql_filtered_topk", "SELECT product, quarter, revenue FROM sales WHERE revenue > 1000 ORDER BY quarter, revenue DESC LIMIT 6"},
	// The statistics-driven reorder gate's no-fire case: ratings is
	// raw-larger than metric_changes (the pre-stats rule's only gate),
	// but per-column stats estimate the driving side filtering down to
	// ~1 row — below the ~3-row seeded joined side — so the key
	// equality is NOT seeded and the trace records the skip.
	{"sql_join_skip_seed", "SELECT AVG(stars) AS result FROM ratings JOIN metric_changes ON ratings.product = metric_changes.product WHERE product = 'Product Alpha' AND stars < 4"},
}

func explainHybrid(t *testing.T, workers int) *Hybrid {
	t.Helper()
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	ner := slm.NewNER()
	c.Register(ner)
	opts := DefaultHybridOptions()
	opts.Workers = workers
	h, err := NewHybrid(c.Sources, ner, opts)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", "explain", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got+"\n" != string(want) {
		t.Errorf("EXPLAIN drifted from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestExplainGolden proves plan rendering — including the optimizer
// rule trace — is deterministic at any Workers count and pins the
// exact EXPLAIN text per question shape.
// Regenerate with: go test ./internal/core -run TestExplainGolden -update
func TestExplainGolden(t *testing.T) {
	seq := explainHybrid(t, 1)
	par := explainHybrid(t, 0)

	for _, shape := range explainShapes {
		t.Run(shape.name, func(t *testing.T) {
			ansSeq := seq.Answer(shape.question)
			if ansSeq.Explain() == "" {
				t.Fatalf("no EXPLAIN produced (plan %q, err %v)", ansSeq.Plan(), ansSeq.Err)
			}
			if ansPar := par.Answer(shape.question); ansPar.Explain() != ansSeq.Explain() {
				t.Errorf("EXPLAIN differs between Workers=1 and Workers=0:\n%s\nvs\n%s",
					ansSeq.Explain(), ansPar.Explain())
			}
			// Replanning the same question must render identically (plan
			// cache hit path included).
			if again := seq.Answer(shape.question); again.Explain() != ansSeq.Explain() {
				t.Errorf("EXPLAIN not stable across repeated answers:\n%s\nvs\n%s",
					ansSeq.Explain(), again.Explain())
			}
			checkGolden(t, shape.name, ansSeq.Explain())
		})
	}
}

// TestExplainGoldenSQL pins the SQL entry path's EXPLAIN — same
// harness, same rule trace section — proving SQL statements lower
// through the identical logical IR and physical planner.
func TestExplainGoldenSQL(t *testing.T) {
	seq := explainHybrid(t, 1)
	par := explainHybrid(t, 0)

	for _, shape := range sqlShapes {
		t.Run(shape.name, func(t *testing.T) {
			resSeq, err := seq.Query(shape.query)
			if err != nil {
				t.Fatalf("query: %v", err)
			}
			if resSeq.Explain() == "" {
				t.Fatal("no EXPLAIN produced")
			}
			resPar, err := par.Query(shape.query)
			if err != nil {
				t.Fatalf("parallel query: %v", err)
			}
			if resPar.Explain() != resSeq.Explain() {
				t.Errorf("EXPLAIN differs between Workers=1 and Workers=0:\n%s\nvs\n%s",
					resSeq.Explain(), resPar.Explain())
			}
			if again, err := seq.Query(shape.query); err != nil || again.Explain() != resSeq.Explain() {
				t.Errorf("EXPLAIN not stable across repeated queries (err %v):\n%s\nvs\n%s",
					err, again.Explain(), resSeq.Explain())
			}
			checkGolden(t, shape.name, resSeq.Explain())
		})
	}
}

// TestExplainBatchMatchesSequential pins batch answering to the same
// EXPLAIN output as sequential answering at any parallelism.
func TestExplainBatchMatchesSequential(t *testing.T) {
	h := explainHybrid(t, 0)
	questions := make([]string, 0, len(explainShapes))
	for _, s := range explainShapes {
		questions = append(questions, s.question)
	}
	batch := h.AnswerAll(questions, 8)
	for i, q := range questions {
		seq := h.Answer(q)
		if batch[i].Explain() != seq.Explain() {
			t.Errorf("%s: batch EXPLAIN differs from sequential:\n%s\nvs\n%s",
				q, batch[i].Explain(), seq.Explain())
		}
	}
}
