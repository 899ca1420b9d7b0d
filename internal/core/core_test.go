package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/retrieval"
	"repro/internal/semop"
	"repro/internal/slm"
	"repro/internal/table"
	"repro/internal/workload"
)

// queriesOf returns the corpus queries of one class.
func queriesOf(c *workload.Corpus, class workload.Class) []workload.Query {
	var out []workload.Query
	for _, q := range c.Queries {
		if q.Class == class {
			out = append(out, q)
		}
	}
	return out
}

func hybridFor(t *testing.T, c *workload.Corpus) *Hybrid {
	t.Helper()
	ner := slm.NewNER()
	c.Register(ner)
	h, err := NewHybrid(c.Sources, ner, DefaultHybridOptions())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHybridIngest(t *testing.T) {
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	h := hybridFor(t, c)
	stats, extracted := h.Stats()
	if stats.Nodes == 0 || stats.Chunks == 0 {
		t.Errorf("index stats: %+v", stats)
	}
	if extracted == 0 {
		t.Error("no extractions")
	}
	// Extraction must have created ratings and metric_changes tables.
	for _, name := range []string{"ratings", "metric_changes", "sales", "products"} {
		if _, err := h.Catalog().Get(name); err != nil {
			t.Errorf("catalog missing %s: %v", name, err)
		}
	}
}

func TestHybridAnswersAllClasses(t *testing.T) {
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	h := hybridFor(t, c)
	for _, q := range c.Queries {
		ans := h.Answer(q.Text)
		if !ans.Answered() {
			t.Errorf("[%s] %q unanswered: %v", q.Class, q.Text, ans.Err)
			continue
		}
		if ans.Text != q.Gold {
			t.Errorf("[%s] %q:\n  got  %q\n  want %q\n  plan %s", q.Class, q.Text, ans.Text, q.Gold, ans.Plan())
		}
		if len(ans.Evidence) == 0 {
			t.Errorf("[%s] %q has no evidence", q.Class, q.Text)
		}
	}
}

func TestHybridHealthcareAnswers(t *testing.T) {
	c := workload.Healthcare(workload.DefaultHealthcareOptions())
	h := hybridFor(t, c)
	correct := 0
	for _, q := range c.Queries {
		ans := h.Answer(q.Text)
		if ans.Answered() && ans.Text == q.Gold {
			correct++
		} else {
			t.Logf("[%s] %q: got %q want %q (plan %s)", q.Class, q.Text, ans.Text, q.Gold, ans.Plan())
		}
	}
	if frac := float64(correct) / float64(len(c.Queries)); frac < 0.9 {
		t.Errorf("healthcare accuracy = %v (%d/%d)", frac, correct, len(c.Queries))
	}
}

func TestHybridUncertaintyPopulated(t *testing.T) {
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	h := hybridFor(t, c)
	ans := h.Answer(c.Queries[0].Text)
	if ans.Uncertainty.Samples == 0 {
		t.Error("no uncertainty samples")
	}
	if ans.Latency <= 0 {
		t.Error("latency not recorded")
	}
}

func TestHybridUnanswerable(t *testing.T) {
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	h := hybridFor(t, c)
	ans := h.Answer("what is the airspeed velocity of an unladen swallow")
	if ans.Answered() {
		// A lexical-fallback answer is acceptable, but it must carry
		// high uncertainty or weak evidence rather than fabricating
		// silently with confidence. We only require it not to panic
		// and to produce a well-formed Answer.
		t.Logf("fallback answer: %q (entropy %.2f)", ans.Text, ans.Uncertainty.SemanticH)
	} else if !errors.Is(ans.Err, ErrNoAnswer) && !errors.Is(ans.Err, semop.ErrNoBinding) {
		t.Errorf("unexpected error type: %v", ans.Err)
	}
}

func TestRAGAnswersLookupButFailsAggregates(t *testing.T) {
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	ner := slm.NewNER()
	c.Register(ner)
	r, err := NewRAG(c.Sources, ner)
	if err != nil {
		t.Fatal(err)
	}
	aggEM := 0
	aggN := 0
	for _, q := range queriesOf(c, workload.ClassAggregate) {
		aggN++
		if ans := r.Answer(q.Text); ans.Answered() && ans.Text == q.Gold {
			aggEM++
		}
	}
	if aggN > 0 && aggEM == aggN {
		t.Error("RAG should not ace aggregates — baseline too strong to be real")
	}
	// Cross-modal single-fact lookups should at least return evidence.
	q := queriesOf(c, workload.ClassCrossModal)[0]
	ans := r.Answer(q.Text)
	if len(ans.Evidence) == 0 {
		t.Errorf("RAG returned no evidence for %q", q.Text)
	}
}

func TestTextToSQLStructuredOnly(t *testing.T) {
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	ner := slm.NewNER()
	c.Register(ner)
	ts := NewTextToSQL(c.NativeCatalog(), ner)

	// Structured lookups succeed exactly.
	okCount := 0
	lookups := queriesOf(c, workload.ClassSingleLookup)
	for _, q := range lookups {
		if ans := ts.Answer(q.Text); ans.Answered() && ans.Text == q.Gold {
			okCount++
		}
	}
	if okCount != len(lookups) {
		t.Errorf("text-to-sql lookups: %d/%d", okCount, len(lookups))
	}

	// Cross-modal rating queries must fail: ratings only exist in text.
	for _, q := range queriesOf(c, workload.ClassCrossModal) {
		ans := ts.Answer(q.Text)
		if ans.Answered() && ans.Text == q.Gold {
			t.Errorf("text-to-sql answered cross-modal %q — should be impossible", q.Text)
		}
	}
}

func TestEvaluateQAOrdering(t *testing.T) {
	// The E3 claim: hybrid > both baselines on cross-modal queries.
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	ner := slm.NewNER()
	c.Register(ner)
	h := hybridFor(t, c)
	r, err := NewRAG(c.Sources, ner)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTextToSQL(c.NativeCatalog(), ner)

	cross := queriesOf(c, workload.ClassCrossModal)
	hStats := EvaluateQA(h, cross)[workload.ClassCrossModal]
	rStats := EvaluateQA(r, cross)[workload.ClassCrossModal]
	tStats := EvaluateQA(ts, cross)[workload.ClassCrossModal]

	if hStats.EM <= rStats.EM && hStats.EM <= tStats.EM {
		t.Errorf("hybrid EM %v not above baselines (rag %v, ttsql %v)", hStats.EM, rStats.EM, tStats.EM)
	}
	if hStats.EM < 0.9 {
		t.Errorf("hybrid cross-modal EM = %v, want >= 0.9", hStats.EM)
	}
	if tStats.EM != 0 {
		t.Errorf("text-to-sql cross-modal EM = %v, want 0", tStats.EM)
	}
}

func TestEvaluateQAOverall(t *testing.T) {
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	h := hybridFor(t, c)
	stats := EvaluateQA(h, c.Queries)
	overall := stats[workload.Class("overall")]
	if overall.N != len(c.Queries) {
		t.Errorf("overall N = %d", overall.N)
	}
	if overall.EM < 0.9 {
		t.Errorf("hybrid overall EM = %v", overall.EM)
	}
	if overall.MeanMillis <= 0 {
		t.Error("latency not aggregated")
	}
}

func TestEvaluateRetrieval(t *testing.T) {
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	h := hybridFor(t, c)
	stats := EvaluateRetrieval(h.Retriever(), c.Queries, []int{1, 5, 10})
	if stats.N == 0 {
		t.Fatal("no queries evaluated")
	}
	if stats.RecallAt[10] < stats.RecallAt[1] {
		t.Errorf("recall not monotone: %v", stats.RecallAt)
	}
	if stats.RecallAt[10] == 0 {
		t.Error("zero recall@10")
	}
	if stats.MRR < 0 || stats.MRR > 1 {
		t.Errorf("MRR = %v", stats.MRR)
	}
}

func TestEvaluateExtraction(t *testing.T) {
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	h := hybridFor(t, c)
	stats := EvaluateExtraction(h.Catalog(), c.GoldFacts)
	if stats.GoldFacts == 0 || stats.Extracted == 0 {
		t.Fatalf("degenerate stats: %+v", stats)
	}
	if stats.Recall < 0.9 {
		t.Errorf("extraction recall = %v (%d/%d)", stats.Recall, stats.Matched, stats.GoldFacts)
	}
	if stats.Precision < 0.8 {
		t.Errorf("extraction precision = %v", stats.Precision)
	}
	if stats.F1 <= 0 || stats.F1 > 1 {
		t.Errorf("f1 = %v", stats.F1)
	}
}

func TestSynthesizeEmptyResult(t *testing.T) {
	_, err := synthesize(&semop.Plan{}, semop.Query{Raw: "q"}, nil)
	if !errors.Is(err, ErrNoAnswer) {
		t.Errorf("err = %v", err)
	}
}

func TestPipelineNames(t *testing.T) {
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	ner := slm.NewNER()
	c.Register(ner)
	h := hybridFor(t, c)
	r, _ := NewRAG(c.Sources, ner)
	ts := NewTextToSQL(c.NativeCatalog(), ner)
	names := map[string]bool{}
	for _, p := range []Pipeline{h, r, ts} {
		if p.Name() == "" || names[p.Name()] {
			t.Errorf("bad pipeline name %q", p.Name())
		}
		names[p.Name()] = true
	}
}

func TestHybridAblationNoCues(t *testing.T) {
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	ner := slm.NewNER()
	c.Register(ner)
	opts := DefaultHybridOptions()
	opts.Index.DisableCues = true
	h, err := NewHybrid(c.Sources, ner, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats, _ := h.Stats(); stats.Cues != 0 {
		t.Error("cues built despite ablation")
	}
	// Still answers (structured path unaffected).
	q := queriesOf(c, workload.ClassSingleLookup)[0]
	if ans := h.Answer(q.Text); !ans.Answered() {
		t.Errorf("ablated hybrid failed: %v", ans.Err)
	}
}

func TestAnswerPlanVisible(t *testing.T) {
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	h := hybridFor(t, c)
	ans := h.Answer(queriesOf(c, workload.ClassAggregate)[0].Text)
	if !strings.Contains(ans.Plan(), "Scan(") {
		t.Errorf("plan = %q", ans.Plan())
	}
}

// TestHybridAggregateOverNoRowsFallsBack asks about an entity the bound
// table lacks. Bind matches the table by schema, not by value, so the
// plan is a global aggregate over no rows, whose summary row is NULL
// (or a COUNT(*) of 0). That row is no answer: the evidence fallback
// must answer from the retrieved text, never with the text "NULL".
func TestHybridAggregateOverNoRowsFallsBack(t *testing.T) {
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	h := hybridFor(t, c)
	ratings, err := h.Catalog().Get("ratings")
	if err != nil {
		t.Fatal(err)
	}
	const product = "Product Alpha"
	kept := table.New(ratings.Name, ratings.Schema)
	pc := ratings.Schema.ColIndex("product")
	for _, row := range ratings.Rows {
		if row[pc].Str() != product {
			kept.Rows = append(kept.Rows, row)
		}
	}
	if kept.Len() == ratings.Len() {
		t.Fatalf("ratings holds no %s row to drop", product)
	}
	h.Catalog().Put(kept)

	for _, q := range []string{
		"What is the average rating of " + product + "?",
		"How many ratings does " + product + " have?",
	} {
		ans := h.Answer(q)
		if !ans.Answered() || ans.Text == "NULL" || ans.Text == "0" {
			t.Errorf("%q = %q (err %v), want an evidence answer", q, ans.Text, ans.Err)
			continue
		}
		fromEvidence := false
		for _, cand := range slm.DeriveCandidates(q, retrieval.Texts(ans.Evidence), h.ner) {
			fromEvidence = fromEvidence || cand.Text == ans.Text
		}
		if !fromEvidence {
			t.Errorf("%q = %q, not a candidate derived from its evidence", q, ans.Text)
		}
	}
}
