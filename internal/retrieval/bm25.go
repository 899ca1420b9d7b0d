package retrieval

import (
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/slm"
)

// BM25 is the classical sparse-retrieval baseline (Okapi BM25 with
// k1=1.2, b=0.75) over the same chunk/row corpus.
type BM25 struct {
	k1, b    float64
	docs     []bm25Doc
	df       map[string]int // document frequency per term
	avgLen   float64
	idsIndex map[string]int
}

type bm25Doc struct {
	id    string
	kind  string
	text  string
	tf    map[string]int
	count int
}

// NewBM25 indexes the graph's chunks and rows.
func NewBM25(g *graph.Graph) *BM25 {
	r := &BM25{k1: 1.2, b: 0.75, df: make(map[string]int), idsIndex: make(map[string]int)}
	var totalLen int
	for _, typ := range []graph.NodeType{graph.NodeChunk, graph.NodeRow} {
		kind := "chunk"
		if typ == graph.NodeRow {
			kind = "row"
		}
		for _, n := range g.NodesOfType(typ) {
			text := n.Text
			if text == "" {
				continue
			}
			tf := make(map[string]int)
			count := 0
			for _, w := range slm.Words(slm.Tokenize(text)) {
				if slm.IsStopword(w) {
					continue
				}
				tf[w]++
				count++
			}
			for term := range tf {
				r.df[term]++
			}
			r.idsIndex[n.ID] = len(r.docs)
			r.docs = append(r.docs, bm25Doc{id: n.ID, kind: kind, text: text, tf: tf, count: count})
			totalLen += count
		}
	}
	if len(r.docs) > 0 {
		r.avgLen = float64(totalLen) / float64(len(r.docs))
	}
	return r
}

// Name implements Retriever.
func (r *BM25) Name() string { return "bm25" }

// Retrieve implements Retriever.
func (r *BM25) Retrieve(query string, k int) []Evidence {
	if len(r.docs) == 0 {
		return nil
	}
	var qTerms []string
	seen := map[string]bool{}
	for _, w := range slm.Words(slm.Tokenize(query)) {
		if !slm.IsStopword(w) && !seen[w] {
			seen[w] = true
			qTerms = append(qTerms, w)
		}
	}
	n := float64(len(r.docs))
	var out []Evidence
	for _, d := range r.docs {
		var score float64
		for _, term := range qTerms {
			tf := float64(d.tf[term])
			if tf == 0 {
				continue
			}
			df := float64(r.df[term])
			idf := math.Log(1 + (n-df+0.5)/(df+0.5))
			denom := tf + r.k1*(1-r.b+r.b*float64(d.count)/r.avgLen)
			score += idf * tf * (r.k1 + 1) / denom
		}
		if score > 0 {
			out = append(out, Evidence{NodeID: d.id, Text: d.text, Score: score, Kind: d.kind})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].NodeID < out[j].NodeID
	})
	if k >= 0 && k < len(out) {
		out = out[:k]
	}
	return out
}
