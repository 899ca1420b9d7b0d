package unisem

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/table"
)

// Ask must be safe from multiple goroutines after Build (run with
// -race to verify).
func TestConcurrentAsk(t *testing.T) {
	sys := buildDemo(t)
	questions := []string{
		"What was the revenue of Product Alpha in Q3?",
		"What is the average rating of Product Alpha?",
		"Which side effects were reported for Drug A?",
		"Compare total revenue for Product Alpha and Product Beta in Q2",
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				q := questions[(w+i)%len(questions)]
				if _, err := sys.Ask(q); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent Ask: %v", err)
	}
}

// Concurrent asks must not change structured answers (they are
// deterministic regardless of RNG interleaving).
func TestConcurrentAskDeterministicAnswers(t *testing.T) {
	sys := buildDemo(t)
	const q = "What was the revenue of Product Alpha in Q3?"
	var wg sync.WaitGroup
	answers := make([]string, 16)
	for i := range answers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ans, err := sys.Ask(q)
			if err == nil {
				answers[i] = ans.Text
			}
		}(i)
	}
	wg.Wait()
	for i, a := range answers {
		if a != "1500" {
			t.Errorf("answer[%d] = %q", i, a)
		}
	}
}

// Ingest and Ask must interleave safely from concurrent goroutines (run
// with -race): writers extend the live index while readers answer.
func TestConcurrentIngestAndAsk(t *testing.T) {
	sys := buildDemo(t)
	questions := []string{
		"What was the revenue of Product Alpha in Q3?",
		"What is the average rating of Product Alpha?",
		"Which side effects were reported for Drug A?",
	}
	var wg sync.WaitGroup
	errs := make(chan error, 128)

	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				id := fmt.Sprintf("live-%d-%d", w, i)
				doc := fmt.Sprintf("Customer C-%d%d rated Product Beta %d stars.", w, i, i%5+1)
				if err := sys.Ingest("live", id, doc); err != nil {
					errs <- fmt.Errorf("ingest %s: %w", id, err)
				}
			}
		}(w)
	}
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				q := questions[(w+i)%len(questions)]
				if _, err := sys.Ask(q); err != nil && !errors.Is(err, ErrNoAnswer) {
					errs <- fmt.Errorf("ask %q: %w", q, err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The writers' documents must all have landed.
	if st := sys.Stats(); st.Nodes == 0 {
		t.Errorf("stats after concurrent ingest: %+v", st)
	}
	if ans, err := sys.Ask("What was the revenue of Product Alpha in Q3?"); err != nil || ans.Text != "1500" {
		t.Errorf("post-ingest ask = (%q, %v)", ans.Text, err)
	}
}

// Introspection reads the catalog, graph and retriever that Ingest
// writes; beside 40 Ingests it must neither race (run with -race) nor
// kill the process with a concurrent map read and map write.
func TestIntrospectionRacingIngest(t *testing.T) {
	sys := buildDemo(t)
	if err := sys.AddRollup(table.RollupDef{Name: "ratings_by_product", Base: "ratings",
		GroupBy: []string{"product"}, Aggs: []table.Agg{{Func: table.AggAvg, Col: "stars"}}}); err != nil {
		t.Fatal(err)
	}
	ans, err := sys.Ask("What is the average rating of Product Alpha?")
	if err != nil || len(ans.Evidence) == 0 {
		t.Fatalf("ask = (%+v, %v)", ans, err)
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 40; i++ {
			doc := fmt.Sprintf("Customer C-7%d rated Product Beta %d stars. Customer C-7%d praised Product Alpha.", i, i%5+1, i)
			if err := sys.Ingest("live", fmt.Sprintf("live-%d", i), doc); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for writing := true; writing; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			writing = false
		default:
		}
		for _, name := range sys.Tables() {
			if _, err := sys.Table(name); err != nil {
				t.Error(err)
			}
			if _, err := sys.DescribeTable(name); err != nil {
				t.Error(err)
			}
		}
		if _, err := sys.DescribeRollup("no_such_rollup"); err == nil {
			t.Error("unknown rollup described")
		}
		if len(sys.GraphComponents()) == 0 {
			t.Error("no graph components")
		}
		sys.ExplainEvidence("What is the average rating of Product Alpha?", ans.Evidence[0].ID)
	}
}

// Vocabulary on a built system writes the gazetteer every Ask reads
// (anchor selection, question parsing, candidate derivation). Without
// the engine's lock around the write, this test does not fail: the
// process dies with "fatal error: concurrent map read and map write",
// race detector or not. With it, answers during the writes are the
// answers before them, and a phrase registered late tags the documents
// ingested after it.
func TestVocabularyRacingAsk(t *testing.T) {
	sys := buildDemo(t)
	const q = "What is the average rating of Product Alpha?"
	want, err := sys.Ask(q)
	if err != nil {
		t.Fatal(err)
	}
	var asked atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if ans, err := sys.Ask(q); err != nil || ans.Text != want.Text {
					t.Errorf("Ask beside Vocabulary = (%q, %v), want %q", ans.Text, err, want.Text)
					return
				}
				asked.Add(1)
			}
		}()
	}
	for i := 0; asked.Load() < 200 && !t.Failed(); i++ {
		sys.Vocabulary(VocabProduct, fmt.Sprintf("Product Late%d", i%16), fmt.Sprintf("late%d gadget pro", i%16))
	}
	close(stop)
	wg.Wait()

	if err := sys.Ingest("live", "late-1", "Customer C-9 rated late3 gadget pro 4 stars."); err != nil {
		t.Fatal(err)
	}
	if ans, err := sys.Ask("What is the average rating of late3 gadget pro?"); err != nil || ans.Text != "4" {
		t.Errorf("rating of a product registered after Build = (%q, %v), want 4", ans.Text, err)
	}
}

// AskAll(parallel 8) racing Ingest shares the retriever's pooled
// scratch state across calls that see views of different sizes. Once
// the writer is done, a parallel batch on the raced system must equal a
// sequential batch on a system that ingested the same documents and
// never ran two retrievals at once: no score leaks between calls (run
// with -race).
func TestAskAllRacingIngestMatchesSequential(t *testing.T) {
	questions := []string{
		"What was the revenue of Product Alpha in Q3?",
		"What is the average rating of Product Alpha?",
		"What is the average rating of Product Beta?",
		"Which side effects were reported for Drug A?",
		"Compare total revenue for Product Alpha and Product Beta in Q2",
		"what happened with the battery",
	}
	ingestAll := func(sys *System) error {
		for i := 0; i < 12; i++ {
			doc := fmt.Sprintf("Customer C-9%d rated Product Beta %d stars. Battery life was fine.", i, i%5+1)
			if err := sys.Ingest("live", fmt.Sprintf("live-%d", i), doc); err != nil {
				return err
			}
		}
		return nil
	}
	raced, sequential := buildDemo(t), buildDemo(t)
	done := make(chan error, 1)
	go func() { done <- ingestAll(raced) }()
	for writing := true; writing; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			writing = false
		default:
		}
		if _, err := raced.AskAll(questions, 8); err != nil {
			t.Fatal(err)
		}
	}
	if err := ingestAll(sequential); err != nil {
		t.Fatal(err)
	}
	got, err := raced.AskAll(questions, 8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sequential.AskAll(questions, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range questions {
		if got[i].Text != want[i].Text || len(got[i].Evidence) != len(want[i].Evidence) {
			t.Errorf("%q: raced (%q, %d evidence) vs sequential (%q, %d evidence)",
				q, got[i].Text, len(got[i].Evidence), want[i].Text, len(want[i].Evidence))
			continue
		}
		for j, e := range got[i].Evidence {
			if w := want[i].Evidence[j]; e.ID != w.ID || math.Float64bits(e.Score) != math.Float64bits(w.Score) {
				t.Errorf("%q evidence[%d]: raced %s %v vs sequential %s %v", q, j, e.ID, e.Score, w.ID, w.Score)
			}
		}
	}
}

// AskAll must return per-question answers in order, identical across
// worker counts.
func TestAskAllDeterministic(t *testing.T) {
	sysA := buildDemo(t)
	sysB := buildDemo(t)
	questions := []string{
		"What was the revenue of Product Alpha in Q3?",
		"What is the average rating of Product Alpha?",
		"What was the revenue of Product Beta in Q2?",
	}
	seq, err := sysA.AskAll(questions, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := sysB.AskAll(questions, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range questions {
		if seq[i].Text != par[i].Text || seq[i].Entropy != par[i].Entropy {
			t.Errorf("[%d] %q: seq (%q, %v) vs par (%q, %v)",
				i, questions[i], seq[i].Text, seq[i].Entropy, par[i].Text, par[i].Entropy)
		}
	}
	if seq[0].Text != "1500" {
		t.Errorf("batch answer[0] = %q", seq[0].Text)
	}
}

// Workers must not change what Build produces: public stats and answers
// are identical between a sequential and a parallel build.
func TestParallelBuildSameAsSequentialPublic(t *testing.T) {
	build := func(workers int) *System {
		opts := DefaultOptions()
		opts.Workers = workers
		sys := NewWithOptions(opts)
		sys.Vocabulary(VocabProduct, "Product Alpha", "Product Beta")
		for i := 0; i < 16; i++ {
			doc := fmt.Sprintf("Customer C-%d rated Product Alpha %d stars. Customer C-%d returned Product Beta.", i, i%5+1, i+100)
			if err := sys.AddDocument("reviews", fmt.Sprintf("r%d", i), doc); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.AddCSV("sales", strings.NewReader(
			"product,quarter,revenue\nProduct Alpha,Q2,1200\nProduct Beta,Q2,800\n")); err != nil {
			t.Fatal(err)
		}
		if err := sys.Build(); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	seq, par := build(1), build(8)
	ss, sp := seq.Stats(), par.Stats()
	ss.BuildTime, sp.BuildTime = 0, 0
	if ss != sp {
		t.Errorf("stats diverge:\n  seq %+v\n  par %+v", ss, sp)
	}
	for _, q := range []string{
		"What was the revenue of Product Alpha in Q2?",
		"What is the average rating of Product Alpha?",
	} {
		a, errA := seq.Ask(q)
		b, errB := par.Ask(q)
		if (errA == nil) != (errB == nil) || a.Text != b.Text {
			t.Errorf("%q: seq (%q, %v) vs par (%q, %v)", q, a.Text, errA, b.Text, errB)
		}
	}
}
