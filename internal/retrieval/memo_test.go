package retrieval

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/slm"
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

// The expansion memo lives and dies with the view: after the graph
// grows and Refresh runs, an anchor expanded before answers with the new
// evidence, exactly as a Topology built after the mutation does. The
// word memo is keyed by node and outlives the view: entries made before
// keep their slices, and the new node is analysed when first reached.
func TestRetrieveMemoDiesWithView(t *testing.T) {
	c, g, ner := benchCorpus(t, "ecommerce", 42)
	r := NewTopology(g, ner, TopologyOptions{})
	q := c.Queries[0].Text
	anchors := r.anchors(q)
	if len(anchors) == 0 {
		t.Fatalf("%q has no anchor", q)
	}
	before := r.Retrieve(q, -1)
	r.mu.RLock()
	words := make(map[*graph.Node][]int32, len(r.words))
	for n, ids := range r.words {
		words[n] = ids
	}
	r.mu.RUnlock()

	// The probe sorts after every entity, so the anchor keeps its view
	// index and a memo that outlived the view would still answer for it.
	// Its text holds the query's words and one no analysed text has.
	const probe = "row:~memo-probe"
	p := g.EnsureNode(graph.Node{ID: probe, Type: graph.NodeRow, Text: "memo probe zyzzyva " + q})
	if err := g.AddEdge(graph.Edge{From: r.view.Node(anchors[0]).ID, To: probe, Type: graph.EdgeMentions, Weight: 10}); err != nil {
		t.Fatal(err)
	}
	sameEvidence(t, "before Refresh", r.Retrieve(q, -1), before)

	r.Refresh()
	got := r.Retrieve(q, -1)
	if !slices.ContainsFunc(got, func(e Evidence) bool { return e.NodeID == probe }) {
		t.Fatalf("after Refresh: %s not retrieved", probe)
	}
	sameEvidence(t, "after Refresh", got, NewTopology(g, ner, TopologyOptions{}).Retrieve(q, -1))

	r.mu.RLock()
	defer r.mu.RUnlock()
	for n, ids := range words {
		if now := r.words[n]; len(now) != len(ids) || (len(ids) > 0 && &now[0] != &ids[0]) {
			t.Fatalf("%s: word memo entry replaced across Refresh", n.ID)
		}
	}
	if _, ok := r.words[p]; !ok {
		t.Fatalf("%s reached but not analysed", probe)
	}
	if _, ok := r.vocab["zyzzyva"]; !ok {
		t.Fatal("the probe's new word is not in the vocabulary")
	}
}

// distinctWords is what the word memo must hold for a text: the
// distinct words of slm.Words(slm.Tokenize(text)), in the order they
// first occur.
func distinctWords(text string) []string {
	var out []string
	for _, w := range slm.Words(slm.Tokenize(text)) {
		if !slices.Contains(out, w) {
			out = append(out, w)
		}
	}
	return out
}

// memoWords returns the words the memo holds for each analysed node.
func memoWords(r *Topology) map[*graph.Node][]string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	byID := make([]string, len(r.vocab))
	for w, id := range r.vocab {
		byID[id] = w
	}
	out := make(map[*graph.Node][]string, len(r.words))
	for n, ids := range r.words {
		ws := make([]string, len(ids))
		for j, id := range ids {
			ws[j] = byID[id]
		}
		out[n] = ws
	}
	return out
}

// memoOverlap is the fraction Retrieve blends for an analysed node: the
// query's terms counted among the node's word ids.
func memoOverlap(r *Topology, query string, n *graph.Node) float64 {
	terms := newTermSet(query).terms
	if len(terms) == 0 {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	hits := 0
	for _, w := range terms {
		if id, ok := r.vocab[w]; ok && slices.Contains(r.words[n], id) {
			hits++
		}
	}
	return float64(hits) / float64(len(terms))
}

// checkMemoWords fails unless every node the memo analysed holds
// exactly its text's distinct words.
func checkMemoWords(t *testing.T, r *Topology) {
	t.Helper()
	words := memoWords(r)
	if len(words) == 0 {
		t.Fatal("no node analysed")
	}
	for n, ws := range words {
		if want := distinctWords(n.Text); !slices.Equal(ws, want) {
			t.Fatalf("%s: memo words %q, tokenizer %q", n.ID, ws, want)
		}
	}
}

// The word memo is the scan: on the benchmark's corpora, for every
// generator query and every node it reaches, the query's terms counted
// among the node's word ids are termSet.overlap's fraction, bit for bit,
// and each analysed node holds its text's distinct words. Refresh is
// TestRetrieveMemoDiesWithView's, the cold concurrent case
// TestTopologyConcurrentRetrieveMatchesSequential's.
func TestRetrieveWordMemoMatchesScan(t *testing.T) {
	for _, seed := range []uint64{42, 1234} {
		for _, name := range []string{"ecommerce", "healthcare"} {
			c, g, ner := benchCorpus(t, name, seed)
			r := NewTopology(g, ner, TopologyOptions{})
			for _, q := range c.Queries {
				ts := newTermSet(q.Text)
				for _, e := range r.Retrieve(q.Text, -1) {
					n := g.Node(e.NodeID)
					if got, want := memoOverlap(r, q.Text, n), ts.overlap(n.Text); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s seed %d %q: %s memo overlap %v, scan %v", name, seed, q.Text, e.NodeID, got, want)
					}
				}
			}
			checkMemoWords(t, r)
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
