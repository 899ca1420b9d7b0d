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
type Topology struct {
	g     *graph.Graph
	ner   *slm.NER
	opts  TopologyOptions
	view  *graph.View
	prior []float64 // 0.5 + rank/max rank per view index; nil = no prior
}

// retrieveScratch is the per-call state of Retrieve, pooled so that
// concurrent calls stay independent and a call allocates no per-node
// state. It is tied to no view: total is all zero whenever the scratch
// sits in the pool, and both parts grow to the view they meet.
type retrieveScratch struct {
	expander graph.Expander
	total    []float64 // summed per-anchor score by view index
	reached  []int32   // indices with total != 0
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
// the graph has been mutated (incremental ingestion). Cheap relative to
// a rebuild: one PageRank pass.
func (t *Topology) Refresh() {
	t.view = t.g.View()
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

// Retrieve implements Retriever.
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
	anchors := t.anchors(query)
	if len(anchors) == 0 {
		return t.lexicalScan(query, k)
	}
	opts := graph.ExpandOptions{MaxDepth: maxDepth, Budget: budget, Decay: decay, Prior: t.prior, EdgeTypes: edgeTypes}
	sc := scratchPool.Get().(*retrieveScratch)
	if len(sc.total) < t.view.Len() {
		sc.total = make([]float64, t.view.Len())
	}
	for _, a := range anchors {
		for _, v := range t.view.Expand(&sc.expander, a, opts) {
			// Path scores are positive, so zero means not yet reached.
			if sc.total[v.Node] == 0 {
				sc.reached = append(sc.reached, v.Node)
			}
			sc.total[v.Node] += v.Score
		}
	}
	terms := newTermSet(query)
	out := make([]Evidence, 0, len(sc.reached))
	for _, i := range sc.reached {
		s := sc.total[i]
		sc.total[i] = 0
		n := t.view.Node(int(i))
		kind := evidenceKind(n.Type)
		if kind == "" {
			continue
		}
		text := n.Text
		// Blend topology score with lexical affinity so that among
		// equally-reachable items the on-topic one wins.
		score := s * (1 + 2*terms.overlap(text))
		out = append(out, Evidence{NodeID: n.ID, Text: text, Score: score, Kind: kind})
	}
	sc.reached = sc.reached[:0]
	scratchPool.Put(sc)
	return topEvidence(out, k)
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

// topEvidence sorts evidence best first (ties by node id) and keeps the
// top k; k < 0 keeps all. No evidence is nil.
func topEvidence(out []Evidence, k int) []Evidence {
	if len(out) == 0 {
		return nil
	}
	slices.SortFunc(out, func(a, b Evidence) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		return strings.Compare(a.NodeID, b.NodeID)
	})
	if k >= 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// anchors maps query entities to the view's entity nodes, in id order.
func (t *Topology) anchors(query string) []int {
	var out []int
	for _, e := range t.ner.Recognize(query) {
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
	var out []Evidence
	for i := 0; i < t.view.Len(); i++ {
		n := t.view.Node(i)
		kind := evidenceKind(n.Type)
		if kind == "" {
			continue
		}
		text := n.Text
		if s := terms.overlap(text); s > 0 {
			out = append(out, Evidence{NodeID: n.ID, Text: text, Score: s, Kind: kind})
		}
	}
	return topEvidence(out, k)
}

// ExplainPath returns a hop-by-hop path from any query anchor to the
// given evidence node, for answer provenance.
func (t *Topology) ExplainPath(query, evidenceID string) []string {
	for _, a := range t.anchors(query) {
		if p := t.g.ShortestPath(t.view.Node(a).ID, evidenceID); p != nil {
			return p
		}
	}
	return nil
}

// termSet is a query's distinct non-stopword terms, lower-cased, with
// the per-term mark overlap uses to count each at most once per text.
type termSet struct {
	terms []string
	seen  []int // serial of the last text found to contain terms[i]
	texts int   // serial of the text being scanned
}

func newTermSet(query string) *termSet {
	ts := &termSet{}
	for _, w := range slm.Words(slm.Tokenize(query)) {
		if !slm.IsStopword(w) && !slices.Contains(ts.terms, w) {
			ts.terms = append(ts.terms, w)
		}
	}
	ts.seen = make([]int, len(ts.terms))
	return ts
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
// -1. ASCII words, the common case, are compared in place; a word with
// other bytes goes through strings.ToLower like the tokenizer's Words.
func (ts *termSet) find(word string) int {
	for i := 0; i < len(word); i++ {
		if word[i] >= utf8.RuneSelf {
			return slices.Index(ts.terms, strings.ToLower(word))
		}
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
