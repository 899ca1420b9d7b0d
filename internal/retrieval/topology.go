// Package retrieval implements the paper's topology-enhanced retrieval
// (Section III.B) and the two baselines it is evaluated against: dense
// vector retrieval (conventional RAG) and BM25 sparse retrieval.
//
// All retrievers share one interface: given a natural-language query
// they return scored Evidence items (text chunks or structured rows)
// that downstream QA consumes.
package retrieval

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/slm"
)

// Evidence is one retrieved context item.
type Evidence struct {
	NodeID string  // graph node id ("chunk:..." or "row:...")
	Text   string  // renderable content
	Score  float64 // retriever-specific relevance, higher = better
	Kind   string  // "chunk" or "row"
}

// Retriever is the shared retrieval interface.
type Retriever interface {
	// Retrieve returns the top-k evidence for the query, best first.
	Retrieve(query string, k int) []Evidence
	// Name identifies the retriever in experiment output.
	Name() string
}

// TopologyOptions configures the graph retriever.
type TopologyOptions struct {
	DisableCentral bool // ablation: no centrality prior
	Workers        int  // PageRank workers; 0 = GOMAXPROCS, 1 = sequential
}

// The traversal every Retrieve runs per anchor: hop limit, settled-node
// budget and per-hop decay.
const (
	maxDepth = 3
	budget   = 256
	decay    = 0.7
)

// edgeTypes is the traversal multiplier per edge type. Cue edges widen
// reach to related entities; they carry lower multipliers than direct
// mentions so they add paths without drowning them.
var edgeTypes = map[graph.EdgeType]float64{
	graph.EdgeMentions: 1.0,
	graph.EdgeNextTo:   0.4,
	graph.EdgePartOf:   0.2,
	graph.EdgeRelates:  0.5,
	graph.EdgeCueArg:   0.4,
	graph.EdgeCueIn:    0.6,
}

// Topology is the paper's retriever: anchor the query's entities in the
// graph, expand best-first along typed edges weighted by PageRank
// centrality, and collect the chunks and rows reached.
//
// It reads the graph through an index-space view taken by NewTopology
// and Refresh and immutable in between: a node added to the graph after
// the last Refresh is invisible to Retrieve until the next one. Retrieve
// is safe for concurrent use; Refresh must not run beside it.
//
// An anchor's expansion depends only on the view, the anchor, the
// prior and the fixed traversal constants, so it is computed once per
// view and memoised: the memo holds at most budget entries of 20 bytes
// (node, score, text entry) per distinct anchor a query has met, and
// Refresh drops it with the view it was computed on.
//
// Topology keeps no words of its own. The lexical blend counts a query's
// terms among each reached node's distinct word ids, which the
// recognizer's text memo (slm.NER.Analyse) holds per text: the expansion
// that settles a node carries its entry, so Retrieve reads it with no
// lookup, and candidate derivation later reads the same entry.
type Topology struct {
	g     *graph.Graph
	ner   *slm.NER
	opts  TopologyOptions
	view  *graph.View
	prior []float64 // 0.5 + rank/max rank per view index; nil = no prior

	mu   sync.RWMutex      // orders the memo's readers and writers; the text memo has its own lock
	memo map[int]expansion // by anchor view index, for the current view
}

// expansion is what one anchor's expansion contributes to a Retrieve:
// the evidence nodes (chunks and rows) it settled, in settle order,
// their path scores and their texts' entries in the text memo. The
// other settled nodes carry no text and are dropped.
type expansion struct {
	nodes  []int32
	scores []float64
	words  []*slm.TextWords
}

// retrieveScratch is the per-call state of Retrieve, pooled so that
// concurrent calls stay independent and a call allocates no per-node
// state. It is tied to no view: total is all zero whenever the scratch
// sits in the pool, and both parts grow to the view they meet.
type retrieveScratch struct {
	expander graph.Expander
	anchors  []int     // the query's anchors
	total    []float64 // summed per-anchor score by view index
	reached  []reach   // the indices with total != 0
	terms    []string  // the query's terms
	ids      []int32   // their word ids
	top      []ranked  // the selection, see keep
}

// reach is a reached evidence node: its view index and its text's
// entry in the text memo.
type reach struct {
	i     int32
	words *slm.TextWords
}

// ranked is a candidate evidence node: its view index and final score.
type ranked struct {
	i     int32
	score float64
}

var scratchPool = sync.Pool{New: func() any { return new(retrieveScratch) }}

// NewTopology builds the retriever over a finished graph. The view and
// PageRank are computed eagerly so query-time cost is traversal only.
func NewTopology(g *graph.Graph, ner *slm.NER, opts TopologyOptions) *Topology {
	t := &Topology{g: g, ner: ner, opts: opts}
	t.Refresh()
	return t
}

// Name implements Retriever.
func (t *Topology) Name() string { return "topology" }

// Refresh retakes the view and recomputes the centrality prior after
// the graph has been mutated (incremental ingestion). The new view is
// built from the previous one: only the nodes added since are sorted
// into its id order. What remains is linear in the graph: the view's
// adjacency arrays, then one PageRank pass from a uniform start, which
// is most of a Refresh (up to 40 sweeps over every edge).
func (t *Topology) Refresh() {
	t.view = t.g.View(t.view)
	t.memo = make(map[int]expansion)
	t.prior = nil
	if t.opts.DisableCentral {
		return
	}
	rank := t.view.PageRank(t.opts.Workers)
	var norm float64
	for _, r := range rank {
		if r > norm {
			norm = r
		}
	}
	if norm > 0 {
		// Map rank into [0.5, 1.5] so the prior biases rather than
		// dominates path scores.
		for i, r := range rank {
			rank[i] = 0.5 + r/norm
		}
		t.prior = rank
	}
}

// Retrieve implements Retriever. k = 0 yields no evidence; k < 0
// yields every reached chunk and row.
//
// Scoring is anchor-additive: the expansion runs once per anchor
// entity and a node's score is the SUM of its per-anchor path scores,
// so evidence connected to several of the query's entities ("Product
// Alpha" AND "Q2") dominates evidence connected to only one — the
// "dynamically assesses and connects nodes representing the sales
// data ... as well as any associated temporal nodes" behaviour of
// Section III.B. Anchors are summed in id order, which fixes the bits
// of every total. A query with no anchor falls back to a lexical scan.
func (t *Topology) Retrieve(query string, k int) []Evidence {
	return t.RetrieveTagged(query, t.ner.Recognize(query), k)
}

// RetrieveTagged is Retrieve for a query whose entities the caller has
// already tagged with t's recognizer, so a caller that reads them too
// tags the query once.
func (t *Topology) RetrieveTagged(query string, ents []slm.Entity, k int) []Evidence {
	sc := scratchPool.Get().(*retrieveScratch)
	sc.anchors = t.anchors(sc.anchors[:0], ents)
	if len(sc.anchors) == 0 {
		scratchPool.Put(sc)
		return t.lexicalScan(query, k)
	}
	if len(sc.total) < t.view.Len() {
		sc.total = make([]float64, t.view.Len())
	}
	for _, a := range sc.anchors {
		e := t.expand(&sc.expander, a)
		for j, i := range e.nodes {
			// Path scores are positive, so zero means not yet reached.
			if sc.total[i] == 0 {
				sc.reached = append(sc.reached, reach{i, e.words[j]})
			}
			sc.total[i] += e.scores[j]
		}
	}
	// Every reached node's text was analysed by the expansion that
	// reached it, so the ids leave out only terms no reached node holds.
	sc.terms = appendTerms(sc.terms[:0], query)
	sc.ids = t.ner.WordIDs(sc.ids[:0], sc.terms)
	sc.top = sc.top[:0]
	for _, r := range sc.reached {
		s := sc.total[r.i]
		sc.total[r.i] = 0
		// Blend topology score with lexical affinity so that among
		// equally-reachable items the on-topic one wins. The fraction is
		// termSet.overlap's, so the score has its bits.
		var overlap float64
		if len(sc.terms) > 0 {
			overlap = float64(r.words.Count(sc.ids)) / float64(len(sc.terms))
		}
		sc.top = keep(sc.top, k, ranked{r.i, s * (1 + 2*overlap)})
	}

	out := t.evidence(sc.top, k)
	sc.reached = sc.reached[:0]
	scratchPool.Put(sc)
	return out
}

// expand returns the anchor's expansion, from the memo or computed into
// it with x as scratch, its evidence nodes' texts analysed.
func (t *Topology) expand(x *graph.Expander, anchor int) expansion {
	t.mu.RLock()
	e, ok := t.memo[anchor]
	t.mu.RUnlock()
	if ok {
		return e
	}
	visits := t.view.Expand(x, anchor, graph.ExpandOptions{MaxDepth: maxDepth, Budget: budget, Decay: decay, Prior: t.prior, EdgeTypes: edgeTypes})
	n := 0
	for _, v := range visits {
		if evidenceKind(t.view.Type(int(v.Node))) != "" {
			n++
		}
	}
	e = expansion{nodes: make([]int32, 0, n), scores: make([]float64, 0, n)}
	texts := make([]string, 0, n)
	for _, v := range visits {
		if i := int(v.Node); evidenceKind(t.view.Type(i)) != "" {
			e.nodes = append(e.nodes, v.Node)
			e.scores = append(e.scores, v.Score)
			texts = append(texts, t.view.Text(i))
		}
	}
	e.words = t.ner.Analyse(make([]*slm.TextWords, 0, n), texts...)
	t.mu.Lock()
	t.memo[anchor] = e // a racing caller computed the same slices
	t.mu.Unlock()
	return e
}

// evidenceKind names the evidence a node of the given type yields, or
// "" for the types that carry no text.
func evidenceKind(t graph.NodeType) string {
	switch t {
	case graph.NodeChunk:
		return "chunk"
	case graph.NodeRow:
		return "row"
	}
	return ""
}

// compareRanked orders candidates best first: score descending, then
// view index ascending, which is node id order because the view is
// sorted by id.
func compareRanked(a, b ranked) int {
	if c := cmp.Compare(b.score, a.score); c != 0 {
		return c
	}
	return cmp.Compare(a.i, b.i)
}

func before(a, b ranked) bool { return compareRanked(a, b) < 0 }

// keep offers c to top, the best candidates so far. With k >= 0 top
// stays sorted and at most k long; with k < 0 it keeps every
// candidate unsorted, for evidence to sort once.
func keep(top []ranked, k int, c ranked) []ranked {
	switch {
	case k < 0 || len(top) < k:
		top = append(top, c)
	case k > 0 && before(c, top[k-1]):
		top[k-1] = c
	default:
		return top
	}
	if k >= 0 {
		for j := len(top) - 1; j > 0 && before(top[j], top[j-1]); j-- {
			top[j], top[j-1] = top[j-1], top[j]
		}
	}
	return top
}

// evidence renders the selection keep built for k, best first. No
// evidence is nil.
func (t *Topology) evidence(top []ranked, k int) []Evidence {
	if len(top) == 0 {
		return nil
	}
	if k < 0 {
		slices.SortFunc(top, compareRanked)
	}
	out := make([]Evidence, len(top))
	for j, c := range top {
		i := int(c.i)
		out[j] = Evidence{NodeID: t.view.ID(i), Text: t.view.Text(i), Score: c.score, Kind: evidenceKind(t.view.Type(i))}
	}
	return out
}

// anchors appends to out the view's entity nodes a query's entities
// name, in id order.
func (t *Topology) anchors(out []int, ents []slm.Entity) []int {
	for _, e := range ents {
		if i, ok := t.view.Index(index.EntityNodeID(e.Canonical)); ok && !slices.Contains(out, i) {
			out = append(out, i)
		}
	}
	slices.Sort(out)
	return out
}

// lexicalScan is the anchor-free fallback: score every chunk/row by
// query-term overlap. It keeps recall non-zero for queries whose
// entities never appear in the corpus.
func (t *Topology) lexicalScan(query string, k int) []Evidence {
	terms := newTermSet(query)
	var top []ranked
	for i := 0; i < t.view.Len(); i++ {
		if evidenceKind(t.view.Type(i)) == "" {
			continue
		}
		if s := terms.overlap(t.view.Text(i)); s > 0 {
			top = keep(top, k, ranked{int32(i), s})
		}
	}
	return t.evidence(top, k)
}

// ExplainPath returns a hop-by-hop path from any query anchor to the
// given evidence node, for answer provenance. It searches the view, as
// Retrieve does.
func (t *Topology) ExplainPath(query, evidenceID string) []string {
	dst, ok := t.view.Index(evidenceID)
	if !ok {
		return nil
	}
	for _, a := range t.anchors(nil, t.ner.Recognize(query)) {
		if p := t.view.ShortestPath(a, dst); p != nil {
			ids := make([]string, len(p))
			for i, n := range p {
				ids[i] = t.view.ID(n)
			}
			return ids
		}
	}
	return nil
}

// termSet is a query's distinct non-stopword terms, lower-cased, with
// the per-term mark overlap uses to count each at most once per text.
type termSet struct {
	terms []string
	lens  uint64 // bit min(len(term), 63) set for every term
	seen  []int  // serial of the last text found to contain terms[i]
	texts int    // serial of the text being scanned
}

func newTermSet(query string) *termSet {
	ts := &termSet{terms: appendTerms(nil, query)}
	for _, w := range ts.terms {
		ts.lens |= 1 << min(len(w), 63)
	}
	ts.seen = make([]int, len(ts.terms))
	return ts
}

// appendTerms appends the query's distinct non-stopword words to dst in
// the order they first occur.
func appendTerms(dst []string, query string) []string {
	for w := range slm.WordsOf(query) {
		if !slm.IsStopword(w) && !slices.Contains(dst, w) {
			dst = append(dst, w)
		}
	}
	return dst
}

// overlap returns the fraction of the query's terms that occur among
// the words of text — what a set intersection over
// slm.Words(slm.Tokenize(text)) yields — without materializing them.
func (ts *termSet) overlap(text string) float64 {
	if len(ts.terms) == 0 {
		return 0
	}
	ts.texts++
	hits := 0
	for start, end := slm.NextWord(text, 0); start >= 0; start, end = slm.NextWord(text, end) {
		if i := ts.find(text[start:end]); i >= 0 && ts.seen[i] != ts.texts {
			ts.seen[i] = ts.texts
			hits++
		}
	}
	return float64(hits) / float64(len(ts.terms))
}

// find returns the index of the term equal to the lower-cased word, or
// -1. ASCII words, the common case, are compared in place, and one of
// a length no term has is rejected without a compare; a word with other
// bytes goes through strings.ToLower like the tokenizer's Words, which
// may change its length.
func (ts *termSet) find(word string) int {
	for i := 0; i < len(word); i++ {
		if word[i] >= utf8.RuneSelf {
			return slices.Index(ts.terms, strings.ToLower(word))
		}
	}
	if ts.lens&(1<<min(len(word), 63)) == 0 {
		return -1
	}
next:
	for i, term := range ts.terms {
		if len(term) != len(word) {
			continue
		}
		for j := 0; j < len(word); j++ {
			c := word[j]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != term[j] {
				continue next
			}
		}
		return i
	}
	return -1
}

// Texts extracts the evidence texts in order.
func Texts(ev []Evidence) []string {
	out := make([]string, len(ev))
	for i, e := range ev {
		out[i] = e.Text
	}
	return out
}

// IDs extracts the evidence node ids in order, with their prefixes
// ("chunk:", "row:") stripped for comparison against gold labels.
func IDs(ev []Evidence) []string {
	out := make([]string, len(ev))
	for i, e := range ev {
		id := e.NodeID
		if idx := strings.IndexByte(id, ':'); idx >= 0 {
			id = id[idx+1:]
		}
		out[i] = id
	}
	return out
}
