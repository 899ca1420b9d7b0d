// Package retrieval implements the paper's topology-enhanced retrieval
// (Section III.B) and the two baselines it is evaluated against: dense
// vector retrieval (conventional RAG) and BM25 sparse retrieval.
//
// All retrievers share one interface: given a natural-language query
// they return scored Evidence items (text chunks or structured rows)
// that downstream QA consumes.
package retrieval

import (
	"sort"
	"strings"

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
	MaxDepth        int     // traversal hop limit (default 3)
	Budget          int     // max settled nodes (default 256)
	Decay           float64 // per-hop decay (default 0.7)
	DisableCentral  bool    // ablation: no centrality prior
	DisableCueEdges bool    // ablation: skip relates/cue edges
	LexicalFallback bool    // fall back to lexical scan when no anchors (default true)
	Workers         int     // PageRank workers; 0 = GOMAXPROCS, 1 = sequential
}

// DefaultTopologyOptions returns the standard configuration.
func DefaultTopologyOptions() TopologyOptions {
	return TopologyOptions{MaxDepth: 3, Budget: 256, Decay: 0.7, LexicalFallback: true}
}

// Topology is the paper's retriever: anchor the query's entities in the
// graph, expand best-first along typed edges weighted by PageRank
// centrality, and collect the chunks and rows reached.
type Topology struct {
	g    *graph.Graph
	ner  *slm.NER
	opts TopologyOptions
	rank map[string]float64 // PageRank prior, computed once
	norm float64            // max rank, for normalization
}

// NewTopology builds the retriever over a finished graph. PageRank is
// computed eagerly so query-time cost is traversal only.
func NewTopology(g *graph.Graph, ner *slm.NER, opts TopologyOptions) *Topology {
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = 3
	}
	if opts.Budget <= 0 {
		opts.Budget = 256
	}
	t := &Topology{g: g, ner: ner, opts: opts}
	if !opts.DisableCentral {
		t.rank = g.PageRank(t.pageRankOptions())
		for _, v := range t.rank {
			if v > t.norm {
				t.norm = v
			}
		}
	}
	return t
}

// pageRankOptions forwards the retriever's worker bound to PageRank.
func (t *Topology) pageRankOptions() graph.PageRankOptions {
	opts := graph.DefaultPageRankOptions()
	opts.Workers = t.opts.Workers
	return opts
}

// Name implements Retriever.
func (t *Topology) Name() string { return "topology" }

// Refresh recomputes the centrality prior after the graph has been
// mutated (incremental ingestion). Cheap relative to a rebuild: one
// PageRank pass.
func (t *Topology) Refresh() {
	if t.opts.DisableCentral {
		return
	}
	t.rank = t.g.PageRank(t.pageRankOptions())
	t.norm = 0
	for _, v := range t.rank {
		if v > t.norm {
			t.norm = v
		}
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
// Section III.B.
func (t *Topology) Retrieve(query string, k int) []Evidence {
	anchors := t.anchors(query)
	if len(anchors) == 0 {
		if !t.opts.LexicalFallback {
			return nil
		}
		return t.lexicalScan(query, k)
	}
	edgeWeights := map[graph.EdgeType]float64{
		graph.EdgeMentions: 1.0,
		graph.EdgeNextTo:   0.4,
		graph.EdgePartOf:   0.2,
	}
	if !t.opts.DisableCueEdges {
		// Cue edges widen reach to related entities; they carry lower
		// multipliers than direct mentions so they add paths without
		// drowning them.
		edgeWeights[graph.EdgeRelates] = 0.5
		edgeWeights[graph.EdgeCueArg] = 0.4
		edgeWeights[graph.EdgeCueIn] = 0.6
	}
	nodePrior := func(n *graph.Node) float64 { return 1 }
	if t.rank != nil && t.norm > 0 {
		nodePrior = func(n *graph.Node) float64 {
			// Map rank into [0.5, 1.5] so the prior biases rather than
			// dominates path scores.
			return 0.5 + t.rank[n.ID]/t.norm
		}
	}
	opts := graph.ExpandOptions{
		MaxDepth:   t.opts.MaxDepth,
		Budget:     t.opts.Budget,
		Decay:      t.opts.Decay,
		NodeWeight: nodePrior,
		EdgeTypes:  edgeWeights,
	}
	total := make(map[string]float64)
	for _, a := range anchors {
		for _, v := range t.g.WeightedExpand([]string{a}, opts) {
			total[v.ID] += v.Score
		}
	}
	qTerms := queryTerms(query)
	var out []Evidence
	for id, s := range total {
		n := t.g.Node(id)
		if n == nil {
			continue
		}
		var kind string
		switch n.Type {
		case graph.NodeChunk:
			kind = "chunk"
		case graph.NodeRow:
			kind = "row"
		default:
			continue
		}
		text := n.Attrs["text"]
		// Blend topology score with lexical affinity so that among
		// equally-reachable items the on-topic one wins.
		score := s * (1 + 2*lexicalOverlap(qTerms, text))
		out = append(out, Evidence{NodeID: id, Text: text, Score: score, Kind: kind})
	}
	sortEvidence(out)
	if k >= 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// anchors maps query entities to existing graph entity nodes.
func (t *Topology) anchors(query string) []string {
	var out []string
	seen := map[string]bool{}
	for _, e := range t.ner.Recognize(query) {
		id := index.EntityNodeID(e.Canonical)
		if !seen[id] && t.g.HasNode(id) {
			seen[id] = true
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// lexicalScan is the anchor-free fallback: score every chunk/row by
// query-term overlap. It keeps recall non-zero for queries whose
// entities never appear in the corpus.
func (t *Topology) lexicalScan(query string, k int) []Evidence {
	qTerms := queryTerms(query)
	var out []Evidence
	for _, typ := range []graph.NodeType{graph.NodeChunk, graph.NodeRow} {
		kind := "chunk"
		if typ == graph.NodeRow {
			kind = "row"
		}
		for _, n := range t.g.NodesOfType(typ) {
			text := n.Attrs["text"]
			s := lexicalOverlap(qTerms, text)
			if s > 0 {
				out = append(out, Evidence{NodeID: n.ID, Text: text, Score: s, Kind: kind})
			}
		}
	}
	sortEvidence(out)
	if k >= 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// ExplainPath returns a hop-by-hop path from any query anchor to the
// given evidence node, for answer provenance.
func (t *Topology) ExplainPath(query, evidenceID string) []string {
	for _, a := range t.anchors(query) {
		if p := t.g.ShortestPath(a, evidenceID); p != nil {
			return p
		}
	}
	return nil
}

func queryTerms(q string) map[string]bool {
	terms := make(map[string]bool)
	for _, w := range slm.Words(slm.Tokenize(q)) {
		if !slm.IsStopword(w) {
			terms[w] = true
		}
	}
	return terms
}

func lexicalOverlap(qTerms map[string]bool, text string) float64 {
	if len(qTerms) == 0 {
		return 0
	}
	hits := 0
	seen := map[string]bool{}
	for _, w := range slm.Words(slm.Tokenize(text)) {
		if qTerms[w] && !seen[w] {
			seen[w] = true
			hits++
		}
	}
	return float64(hits) / float64(len(qTerms))
}

func sortEvidence(out []Evidence) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].NodeID < out[j].NodeID
	})
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
