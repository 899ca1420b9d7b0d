package retrieval

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/slm"
	"repro/internal/store"
)

// sameEvidence fails unless got and want hold the same nodes in the
// same order with the same score bits, text and kind.
func sameEvidence(t *testing.T, what string, got, want []Evidence) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d evidence, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].NodeID != want[i].NodeID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) ||
			got[i].Text != want[i].Text || got[i].Kind != want[i].Kind {
			t.Fatalf("%s: evidence[%d] = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// A memoised expansion is the expansion: on the benchmark's corpora, a
// Topology warmed by every query in shuffled order answers each query,
// at every k, exactly as a new Topology's first call does.
func TestRetrieveMemoMatchesFresh(t *testing.T) {
	for _, seed := range []uint64{42, 1234} {
		for _, name := range []string{"ecommerce", "healthcare"} {
			c, g, ner := benchCorpus(t, name, seed)
			queries := []string{"completely unrelated nonsense zzz"}
			for _, q := range c.Queries {
				queries = append(queries, q.Text)
			}
			warm := NewTopology(g, ner, TopologyOptions{})
			rng := rand.New(rand.NewSource(int64(seed)))
			for _, i := range rng.Perm(len(queries)) {
				warm.Retrieve(queries[i], 8)
			}
			if len(warm.memo) == 0 {
				t.Fatalf("%s seed %d: no expansion memoised", name, seed)
			}
			for _, q := range queries {
				for _, k := range []int{0, 1, 8, -1} {
					got := warm.Retrieve(q, k)
					sameEvidence(t, name+" "+q, got, NewTopology(g, ner, TopologyOptions{}).Retrieve(q, k))
					if k == 0 && got != nil {
						t.Fatalf("%s %q: k = 0 returned %v, want no evidence", name, q, got)
					}
				}
			}
		}
	}
}

// A Refresh builds its view from the previous one, and a retriever
// refreshed after each ingest answers exactly as a new Topology over the
// same graph does: same nodes, order, score bits, text and kind at every
// k, with the prior and without. Each round indexes a document whose
// chunk and entity ids sort among the existing ones.
func TestRefreshMatchesNewTopology(t *testing.T) {
	for _, opts := range []TopologyOptions{{}, {DisableCentral: true}} {
		c, g, ner := benchCorpus(t, "ecommerce", 42)
		var queries []string
		for _, q := range c.Queries {
			queries = append(queries, q.Text)
		}
		b := index.NewBuilder(ner, index.DefaultOptions())
		live := NewTopology(g, ner, opts)
		for round := 0; round < 6; round++ {
			q := queries[(7*round)%len(queries)]
			doc := store.Record{ID: fmt.Sprintf("live-%d", round), Source: "live", Kind: store.KindText,
				Text: fmt.Sprintf("%s Refresh round %d brought %d new units.", q, round, 10+round)}
			before := g.NodeCount()
			if _, err := b.IndexRecord(g, doc); err != nil {
				t.Fatal(err)
			}
			live.Refresh()
			fresh := NewTopology(g, ner, opts)
			if live.view.Len() != g.NodeCount() || g.NodeCount() == before {
				t.Fatalf("round %d: view has %d nodes, graph %d, %d before the ingest", round, live.view.Len(), g.NodeCount(), before)
			}
			for _, q := range queries {
				for _, k := range []int{0, 1, 8, -1} {
					what := fmt.Sprintf("central=%v round %d k=%d %q", !opts.DisableCentral, round, k, q)
					sameEvidence(t, what, live.Retrieve(q, k), fresh.Retrieve(q, k))
				}
			}
		}
	}
}

// The expansion memo lives and dies with the view: after the graph
// grows and Refresh runs, an anchor expanded before answers with the new
// evidence, exactly as a Topology built after the mutation does. The
// text memo is the recognizer's and outlives the view: texts analysed
// before keep their entries, and the new node's text is analysed when
// first reached.
func TestRetrieveMemoDiesWithView(t *testing.T) {
	c, g, ner := benchCorpus(t, "ecommerce", 42)
	r := NewTopology(g, ner, TopologyOptions{})
	q := c.Queries[0].Text
	anchors := r.anchors(nil, ner.Recognize(q))
	if len(anchors) == 0 {
		t.Fatalf("%q has no anchor", q)
	}
	before := r.Retrieve(q, -1)
	entries := carried(r)

	// The probe sorts after every entity, so the anchor keeps its view
	// index and a memo that outlived the view would still answer for it.
	// Its text holds the query's words and one no analysed text has.
	const probe = "row:~memo-probe"
	if err := g.EnsureNode(graph.Node{ID: probe, Type: graph.NodeRow, Text: "memo probe zyzzyva " + q}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(graph.Edge{From: r.view.ID(anchors[0]), To: probe, Type: graph.EdgeMentions, Weight: 10}); err != nil {
		t.Fatal(err)
	}
	if ids := ner.WordIDs(nil, []string{"zyzzyva"}); len(ids) != 0 {
		t.Fatal("the probe's word is known before its text is reached")
	}
	sameEvidence(t, "before Refresh", r.Retrieve(q, -1), before)

	r.Refresh()
	got := r.Retrieve(q, -1)
	if !slices.ContainsFunc(got, func(e Evidence) bool { return e.NodeID == probe }) {
		t.Fatalf("after Refresh: %s not retrieved", probe)
	}
	sameEvidence(t, "after Refresh", got, NewTopology(g, ner, TopologyOptions{}).Retrieve(q, -1))

	for n, e := range entries {
		if ner.Analyse(nil, n.Text)[0] != e {
			t.Fatalf("%s: text memo entry replaced across Refresh", n.ID)
		}
	}
	e, ok := carried(r)[*g.Node(probe)]
	if !ok {
		t.Fatalf("%s reached but carries no text entry", probe)
	}
	if ids := ner.WordIDs(nil, []string{"zyzzyva"}); len(ids) != 1 || e.Count(ids) != 1 {
		t.Fatal("the probe's new word is not in its text's entry")
	}
}

// carried returns the text entry each memoised expansion carries, by
// node.
func carried(r *Topology) map[graph.Node]*slm.TextWords {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[graph.Node]*slm.TextWords)
	for _, e := range r.memo {
		for j, i := range e.nodes {
			out[*r.g.Node(r.view.ID(int(i)))] = e.words[j]
		}
	}
	return out
}

// distinctWords is what a text's entry must hold: the distinct words of
// slm.Words(slm.Tokenize(text)), in the order they first occur.
func distinctWords(text string) []string {
	var out []string
	for _, w := range slm.Words(slm.Tokenize(text)) {
		if !slices.Contains(out, w) {
			out = append(out, w)
		}
	}
	return out
}

// memoOverlap is the fraction Retrieve blends for a text entry: the
// query's terms counted among its word ids.
func memoOverlap(ner *slm.NER, query string, e *slm.TextWords) float64 {
	terms := appendTerms(nil, query)
	if len(terms) == 0 {
		return 0
	}
	return float64(e.Count(ner.WordIDs(nil, terms))) / float64(len(terms))
}

// checkMemoWords fails unless every node a memoised expansion settled
// carries its text's entry in the recognizer's memo, and that entry
// counts every distinct word of the text. (That it holds no other word
// is slm's FuzzWordsOf.)
func checkMemoWords(t *testing.T, r *Topology) {
	t.Helper()
	entries := carried(r)
	if len(entries) == 0 {
		t.Fatal("no node analysed")
	}
	for n, e := range entries {
		if r.ner.Analyse(nil, n.Text)[0] != e {
			t.Fatalf("%s: expansion carries an entry the text memo does not hold", n.ID)
		}
		words := distinctWords(n.Text)
		if got := e.Count(r.ner.WordIDs(nil, words)); got != len(words) {
			t.Fatalf("%s: entry holds %d of its text's %d words", n.ID, got, len(words))
		}
	}
}

// The text memo is the scan: on the benchmark's corpora, for every
// generator query and every node it reaches, the query's terms counted
// among the node's word ids are termSet.overlap's fraction, bit for bit,
// and each reached node carries its text's entry. Refresh is
// TestRetrieveMemoDiesWithView's, the cold concurrent case
// TestTopologyConcurrentRetrieveMatchesSequential's.
func TestRetrieveWordMemoMatchesScan(t *testing.T) {
	for _, seed := range []uint64{42, 1234} {
		for _, name := range []string{"ecommerce", "healthcare"} {
			c, g, ner := benchCorpus(t, name, seed)
			r := NewTopology(g, ner, TopologyOptions{})
			for _, q := range c.Queries {
				ts := newTermSet(q.Text)
				ev := r.Retrieve(q.Text, -1)
				entries := carried(r)
				for _, e := range ev {
					n := g.Node(e.NodeID)
					w, ok := entries[*n]
					if !ok {
						t.Fatalf("%s seed %d %q: %s carries no text entry", name, seed, q.Text, e.NodeID)
					}
					if got, want := memoOverlap(ner, q.Text, w), ts.overlap(n.Text); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s seed %d %q: %s memo overlap %v, scan %v", name, seed, q.Text, e.NodeID, got, want)
					}
				}
			}
			checkMemoWords(t, r)
		}
	}
}

// A memoised expansion carries each of its nodes' text entries, the
// very entries the recognizer's text memo holds for those texts.
func TestExpansionCarriesWordIDs(t *testing.T) {
	c, g, ner := benchCorpus(t, "healthcare", 42)
	r := NewTopology(g, ner, TopologyOptions{})
	for _, q := range c.Queries {
		r.Retrieve(q.Text, 8)
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.memo) == 0 {
		t.Fatal("no expansion memoised")
	}
	for a, e := range r.memo {
		if len(e.words) != len(e.nodes) {
			t.Fatalf("anchor %d: %d text entries for %d nodes", a, len(e.words), len(e.nodes))
		}
		for j, i := range e.nodes {
			if ner.Analyse(nil, r.view.Text(int(i)))[0] != e.words[j] {
				t.Fatalf("anchor %d node %d: expansion carries an entry the text memo does not hold", a, i)
			}
		}
	}
}

// A text is analysed once: the entry Retrieve's expansion made for an
// evidence text is the one DeriveCandidates then reads, and an ingest
// (the graph grows, Refresh drops every expansion) re-expands onto the
// same entries.
func TestRetrieveAndDeriveShareTextEntries(t *testing.T) {
	c, g, ner := benchCorpus(t, "ecommerce", 42)
	r := NewTopology(g, ner, TopologyOptions{})
	q := c.Queries[0].Text
	ev := r.Retrieve(q, 8)
	if len(ev) == 0 {
		t.Fatalf("%q retrieves nothing", q)
	}
	entries := carried(r)
	texts := Texts(ev)
	if len(slm.DeriveCandidates(q, texts, ner)) == 0 {
		t.Fatalf("%q derives no candidate: the test exercises nothing", q)
	}
	for _, e := range ev {
		if w := entries[*g.Node(e.NodeID)]; w == nil || ner.Analyse(nil, e.Text)[0] != w {
			t.Fatalf("%s: derivation reads another entry than retrieval made", e.NodeID)
		}
	}

	doc := store.Record{ID: "memo-ingest", Source: "live", Kind: store.KindText, Text: q + " The memo survives ingestion."}
	if _, err := index.NewBuilder(ner, index.DefaultOptions()).IndexRecord(g, doc); err != nil {
		t.Fatal(err)
	}
	r.Refresh()
	sameEvidence(t, "after ingest", r.Retrieve(q, 8), NewTopology(g, ner, TopologyOptions{}).Retrieve(q, 8))
	after := carried(r)
	for n, w := range entries {
		if now, ok := after[n]; ok && now != w {
			t.Fatalf("%s: re-expansion after ingest carries a new entry", n.ID)
		}
	}
	for _, e := range ev {
		if after[*g.Node(e.NodeID)] == nil {
			t.Fatalf("%s: not reached after ingest", e.NodeID)
		}
	}
}

// Concurrent Retrieve calls on a cold Topology share anchors, so they
// race to fill the same memo entries; each must return exactly what a
// separate Topology returns alone, and every node analysed must hold its
// text's words (run with -race).
func TestTopologyConcurrentRetrieveMatchesSequential(t *testing.T) {
	c, g, ner := benchCorpus(t, "ecommerce", 42)
	seq := NewTopology(g, ner, TopologyOptions{})
	want := make([][]Evidence, len(c.Queries))
	for i, q := range c.Queries {
		want[i] = seq.Retrieve(q.Text, -1)
	}
	r := NewTopology(g, ner, TopologyOptions{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 3*len(c.Queries); n++ {
				i := (w*5 + n) % len(c.Queries)
				if got := r.Retrieve(c.Queries[i].Text, -1); !slices.Equal(got, want[i]) {
					t.Errorf("worker %d: %q differs from its sequential result", w, c.Queries[i].Text)
				}
			}
		}(w)
	}
	wg.Wait()
	checkMemoWords(t, r)
}
