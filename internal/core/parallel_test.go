package core

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/retrieval"
	"repro/internal/slm"
	"repro/internal/workload"
)

// hybridWithWorkers builds the e-commerce corpus with a fixed worker
// count.
func hybridWithWorkers(t *testing.T, workers int) (*Hybrid, *workload.Corpus) {
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
	return h, c
}

// graphJSON serializes the hybrid's index.
func graphJSON(t *testing.T, h *Hybrid) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := h.Graph().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Parallel ingest must produce exactly the same system as sequential
// ingest: same stats, same graph, same catalog, same answers.
func TestParallelBuildDeterminism(t *testing.T) {
	seq, c := hybridWithWorkers(t, 1)
	par, _ := hybridWithWorkers(t, 8)

	ss, seqExtracted := seq.Stats()
	sp, parExtracted := par.Stats()
	ss.BuildTime, sp.BuildTime = 0, 0 // wall-clock may differ; nothing else may
	if ss != sp {
		t.Errorf("index statistics diverge:\n  seq %+v\n  par %+v", ss, sp)
	}
	if seqExtracted != parExtracted {
		t.Errorf("ExtractCount: seq %d, par %d", seqExtracted, parExtracted)
	}
	// The graph byte for byte — node payloads and adjacency order, which
	// counts cannot see — at a pool of two as well.
	two, _ := hybridWithWorkers(t, 2)
	want := graphJSON(t, seq)
	for _, h := range []*Hybrid{two, par} {
		if got := graphJSON(t, h); !bytes.Equal(got, want) {
			t.Errorf("graph.json at %d workers (%d bytes) differs from the sequential build's (%d bytes)", h.opts.Workers, len(got), len(want))
		}
	}
	if !reflect.DeepEqual(seq.Catalog().Names(), par.Catalog().Names()) {
		t.Fatalf("catalog names diverge: seq %v, par %v", seq.Catalog().Names(), par.Catalog().Names())
	}
	for _, name := range seq.Catalog().Names() {
		st, _ := seq.Catalog().Get(name)
		pt, _ := par.Catalog().Get(name)
		if st.String() != pt.String() {
			t.Errorf("table %s diverges:\nseq:\n%s\npar:\n%s", name, st.String(), pt.String())
		}
	}
	for _, q := range c.Queries {
		sa, pa := seq.Answer(q.Text), par.Answer(q.Text)
		if sa.Text != pa.Text || sa.Plan() != pa.Plan() {
			t.Errorf("%q: seq (%q, %s) vs par (%q, %s)", q.Text, sa.Text, sa.Plan(), pa.Text, pa.Plan())
		}
		if sa.Uncertainty.SemanticH != pa.Uncertainty.SemanticH {
			t.Errorf("%q: entropy seq %v vs par %v", q.Text, sa.Uncertainty.SemanticH, pa.Uncertainty.SemanticH)
		}
	}
}

// AnswerAll must return, at every worker count, exactly the answers a
// sequential loop of Answer calls would have produced, in order.
func TestAnswerAllMatchesSequential(t *testing.T) {
	seq, c := hybridWithWorkers(t, 0)
	par, _ := hybridWithWorkers(t, 0)
	questions := make([]string, 0, len(c.Queries))
	for _, q := range c.Queries {
		questions = append(questions, q.Text)
	}

	want := make([]Answer, len(questions))
	for i, q := range questions {
		want[i] = seq.Answer(q)
	}
	for _, workers := range []int{1, 4} {
		got := par.AnswerAll(questions, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d answers, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i].Text != want[i].Text || got[i].Plan() != want[i].Plan() {
				t.Errorf("workers=%d [%d] %q: got (%q, %s), want (%q, %s)",
					workers, i, questions[i], got[i].Text, got[i].Plan(), want[i].Text, want[i].Plan())
			}
			if got[i].Uncertainty.SemanticH != want[i].Uncertainty.SemanticH {
				t.Errorf("workers=%d [%d]: entropy %v, want %v",
					workers, i, got[i].Uncertainty.SemanticH, want[i].Uncertainty.SemanticH)
			}
		}
		// Reset the comparison stream: build a fresh hybrid so the next
		// worker count sees the same RNG forks.
		par, _ = hybridWithWorkers(t, 0)
	}
}

// With the cache enabled, duplicate questions inside one batch must be
// answered identically at any worker count — parallel workers must not
// race to fill the same key with different samples.
func TestAnswerAllCachedDuplicatesDeterministic(t *testing.T) {
	build := func() *Hybrid {
		c := workload.ECommerce(workload.DefaultECommerceOptions())
		ner := slm.NewNER()
		c.Register(ner)
		opts := DefaultHybridOptions()
		opts.CacheSize = 16
		h, err := NewHybrid(c.Sources, ner, opts)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	q0, q1 := c.Queries[0].Text, c.Queries[1].Text
	batch := []string{q0, q1, "  " + q0 + " ", q0, q1}
	want := build().AnswerAll(batch, 1)
	got := build().AnswerAll(batch, 8)
	for i := range batch {
		if got[i].Text != want[i].Text || got[i].Uncertainty.SemanticH != want[i].Uncertainty.SemanticH {
			t.Errorf("[%d] %q: par (%q, H=%v) vs seq (%q, H=%v)",
				i, batch[i], got[i].Text, got[i].Uncertainty.SemanticH, want[i].Text, want[i].Uncertainty.SemanticH)
		}
	}
	if want[0].Uncertainty.SemanticH != want[3].Uncertainty.SemanticH {
		t.Error("duplicate question did not reuse the first computation")
	}
}

// The answer cache must serve repeats, evict LRU past capacity, and be
// purged by Ingest.
func TestAnswerCache(t *testing.T) {
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	ner := slm.NewNER()
	c.Register(ner)
	opts := DefaultHybridOptions()
	opts.CacheSize = 2
	h, err := NewHybrid(c.Sources, ner, opts)
	if err != nil {
		t.Fatal(err)
	}
	q := c.Queries[0].Text

	first := h.Answer(q)
	cached := h.Answer("  " + q + "  ") // normalization must hit the same key
	if hits, misses, size := h.CacheStats(); hits != 1 || misses != 1 || size != 1 {
		t.Errorf("after repeat: hits=%d misses=%d size=%d", hits, misses, size)
	}
	if cached.Text != first.Text || cached.Plan() != first.Plan() ||
		cached.Uncertainty.SemanticH != first.Uncertainty.SemanticH {
		t.Errorf("cached answer diverges: %+v vs %+v", cached.Text, first.Text)
	}

	// Fill past capacity: the least recently used entry is evicted.
	h.Answer(c.Queries[1].Text)
	h.Answer(c.Queries[2].Text)
	if _, _, size := h.CacheStats(); size != 2 {
		t.Errorf("size after eviction = %d, want 2", size)
	}

	// Ingest invalidates everything.
	if err := h.Ingest("live", "cache-purge-doc", "Product Alpha launched."); err != nil {
		t.Fatal(err)
	}
	if _, _, size := h.CacheStats(); size != 0 {
		t.Errorf("size after ingest = %d, want 0", size)
	}

	// So does new vocabulary: cached answers were tagged without it.
	h.Answer(q)
	h.AddVocabulary(slm.EntProduct, "Product Omega")
	if _, _, size := h.CacheStats(); size != 0 {
		t.Errorf("size after AddVocabulary = %d, want 0", size)
	}
}

// A phrase registered after an Answer re-tags the evidence that answer
// derived its candidates from: the recognizer's salient-span memo, filled
// under the old gazetteer, is dropped, so candidates over the same
// evidence are a fresh recognizer's with the new phrase.
func TestAddVocabularyAfterAnswerRederivesSpans(t *testing.T) {
	h, c := hybridWithWorkers(t, 1)
	derive := func(q string, texts []string, ner *slm.NER) []slm.Candidate {
		h.mu.RLock()
		defer h.mu.RUnlock()
		return slm.DeriveCandidates(q, texts, ner)
	}
	// Each evidence text's first three words, as a phrase, claim the
	// text's opening tokens; wherever no value-like entity follows, the
	// text's span becomes the phrase.
	var phrases []string
	var qs []string
	var texts [][]string
	for _, q := range c.Queries {
		ev := retrieval.Texts(h.Answer(q.Text).Evidence)
		qs, texts = append(qs, q.Text), append(texts, ev)
		for _, text := range ev {
			if toks := slm.Tokenize(text); len(toks) >= 3 && toks[0].Kind == slm.TokenWord &&
				toks[1].Kind == slm.TokenWord && toks[2].Kind == slm.TokenWord {
				phrases = append(phrases, text[:toks[2].End])
			}
		}
	}
	if len(phrases) == 0 {
		t.Fatal("no evidence text opens with three words")
	}
	before := make([][]slm.Candidate, len(qs))
	for i := range qs {
		before[i] = derive(qs[i], texts[i], h.ner)
	}

	h.AddVocabulary(slm.EntMisc, phrases...)
	fresh := slm.NewNER()
	c.Register(fresh)
	fresh.AddGazetteer(slm.EntMisc, phrases...)
	changed := 0
	for i, q := range qs {
		got, want := derive(q, texts[i], h.ner), slm.DeriveCandidates(q, texts[i], fresh)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q after AddVocabulary: candidates %v, a fresh recognizer's %v", q, got, want)
		}
		if !reflect.DeepEqual(got, before[i]) {
			changed++
		}
		h.Answer(q)
	}
	if changed == 0 {
		t.Fatal("no question's candidates changed: the test exercises nothing")
	}
}

// The cache must be transparent to the RNG stream: with caching on,
// answers to questions after a cache hit are identical to a run with
// caching off.
func TestAnswerCacheStreamTransparent(t *testing.T) {
	build := func(cacheSize int) (*Hybrid, *workload.Corpus) {
		c := workload.ECommerce(workload.DefaultECommerceOptions())
		ner := slm.NewNER()
		c.Register(ner)
		opts := DefaultHybridOptions()
		opts.CacheSize = cacheSize
		h, err := NewHybrid(c.Sources, ner, opts)
		if err != nil {
			t.Fatal(err)
		}
		return h, c
	}
	withCache, c := build(8)
	noCache, _ := build(0)
	q0, q1 := c.Queries[0].Text, c.Queries[1].Text
	seq := []string{q0, q0, q1} // second q0 hits the cache
	for i, q := range seq {
		a, b := withCache.Answer(q), noCache.Answer(q)
		if a.Text != b.Text {
			t.Errorf("[%d] %q: cached %q vs uncached %q", i, q, a.Text, b.Text)
		}
		// The hit itself (i==1) replays the first computation's entropy
		// sample rather than re-sampling; every fresh question must see
		// the same RNG fork it would have seen without the cache.
		if i != 1 && a.Uncertainty.SemanticH != b.Uncertainty.SemanticH {
			t.Errorf("[%d] %q: entropy cached H=%v vs uncached H=%v",
				i, q, a.Uncertainty.SemanticH, b.Uncertainty.SemanticH)
		}
	}
}

// A cache hit answers exactly what the question would get computed
// afresh: for every generator question of both corpora, and its
// lower-cased, "?"-less and space-padded forms, the answer text and the
// evidence ids with the cache on equal those with it off.
func TestAnswerCacheIsTransparent(t *testing.T) {
	for _, c := range []*workload.Corpus{
		workload.ECommerce(workload.DefaultECommerceOptions()),
		workload.Healthcare(workload.DefaultHealthcareOptions()),
	} {
		build := func(cacheSize int) *Hybrid {
			ner := slm.NewNER()
			c.Register(ner)
			opts := DefaultHybridOptions()
			opts.CacheSize = cacheSize
			h, err := NewHybrid(c.Sources, ner, opts)
			if err != nil {
				t.Fatal(err)
			}
			return h
		}
		withCache, noCache := build(4*len(c.Queries)), build(0)
		for _, q := range c.Queries {
			for _, v := range []string{q.Text, strings.ToLower(q.Text), strings.TrimRight(q.Text, "?"), "  " + q.Text + " "} {
				a, b := withCache.Answer(v), noCache.Answer(v)
				if a.Text != b.Text {
					t.Errorf("%q: cached %q, uncached %q", v, a.Text, b.Text)
				}
				if got, want := evidenceIDs(a.Evidence), evidenceIDs(b.Evidence); !slices.Equal(got, want) {
					t.Errorf("%q: cached evidence %v, uncached %v", v, got, want)
				}
			}
		}
	}
}

func evidenceIDs(ev []retrieval.Evidence) []string {
	ids := make([]string, len(ev))
	for i, e := range ev {
		ids[i] = e.NodeID
	}
	return ids
}

// Concurrent Ingest and Answer must interleave safely (run with -race)
// and every answer must come from a consistent snapshot.
func TestConcurrentIngestAndAnswer(t *testing.T) {
	h, c := hybridWithWorkers(t, 0)
	questions := make([]string, 0, len(c.Queries))
	for _, q := range c.Queries {
		questions = append(questions, q.Text)
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 24; i++ {
			doc := fmt.Sprintf("Customer C-%d rated Product Alpha %d stars.", 9000+i, i%5+1)
			if err := h.Ingest("live", fmt.Sprintf("live-%d", i), doc); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 4*len(questions); i++ {
		h.Answer(questions[i%len(questions)])
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	stats, _ := h.Stats()
	if stats.Docs == 0 {
		t.Error("stats snapshot empty after concurrent ingest")
	}
}
