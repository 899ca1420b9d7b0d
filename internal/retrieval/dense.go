package retrieval

import (
	"repro/internal/graph"
	"repro/internal/slm"
	"repro/internal/vector"
)

// Dense is the conventional-RAG baseline retriever: every chunk and
// row is embedded into a vector index and queries are nearest-neighbor
// searches (paper Section I, gap 1 — the "dense vector retrieval"
// pipelines whose indexing and inference cost the graph index avoids).
type Dense struct {
	ix       vector.Index
	embedder *slm.Embedder
	texts    map[string]string
	kinds    map[string]string
}

// NewDense builds the baseline over the same graph contents the
// topology retriever uses, so comparisons are apples-to-apples. Pass
// either a Flat or IVF index (untrained IVF self-trains on first use).
func NewDense(g *graph.Graph, embedder *slm.Embedder, ix vector.Index) (*Dense, error) {
	d := &Dense{
		ix:       ix,
		embedder: embedder,
		texts:    make(map[string]string),
		kinds:    make(map[string]string),
	}
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
			if err := ix.Add(n.ID, embedder.Embed(text)); err != nil {
				return nil, err
			}
			d.texts[n.ID] = text
			d.kinds[n.ID] = kind
		}
	}
	return d, nil
}

// Name implements Retriever.
func (d *Dense) Name() string { return "dense" }

// Retrieve implements Retriever.
func (d *Dense) Retrieve(query string, k int) []Evidence {
	hits := d.ix.Search(d.embedder.Embed(query), k)
	out := make([]Evidence, 0, len(hits))
	for _, h := range hits {
		out = append(out, Evidence{
			NodeID: h.ID,
			Text:   d.texts[h.ID],
			Score:  h.Score,
			Kind:   d.kinds[h.ID],
		})
	}
	return out
}

// IndexSizeBytes reports the vector index's resident size, for the
// index-cost experiment.
func (d *Dense) IndexSizeBytes() int64 { return d.ix.SizeBytes() }
