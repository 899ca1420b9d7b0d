package retrieval

import "sort"

// Fusion combines several retrievers with reciprocal rank fusion
// (RRF): score(d) = Σ_r 1/(K + rank_r(d)). It is the standard
// low-cost ensemble in retrieval systems and serves here as the upper
// baseline in the retrieval experiments — if topology alone approaches
// the fusion of all three retrievers, the graph index is doing the
// heavy lifting.
type Fusion struct {
	retrievers []Retriever
	k          float64
}

// RRFConstant is the conventional dampening constant.
const RRFConstant = 60

// NewFusion builds an RRF ensemble over the given retrievers.
func NewFusion(retrievers ...Retriever) *Fusion {
	return &Fusion{retrievers: retrievers, k: RRFConstant}
}

// Name implements Retriever.
func (f *Fusion) Name() string { return "rrf_fusion" }

// Retrieve implements Retriever.
func (f *Fusion) Retrieve(query string, k int) []Evidence {
	type acc struct {
		ev    Evidence
		score float64
	}
	scores := map[string]*acc{}
	// Each member is asked for a deeper list than the fused one; k < 0
	// means all, for the members as for the fusion.
	fetch := k
	if k >= 0 {
		fetch = max(2*k, 20)
	}
	for _, r := range f.retrievers {
		for rank, ev := range r.Retrieve(query, fetch) {
			a, ok := scores[ev.NodeID]
			if !ok {
				a = &acc{ev: ev}
				scores[ev.NodeID] = a
			}
			a.score += 1 / (f.k + float64(rank+1))
		}
	}
	out := make([]Evidence, 0, len(scores))
	for _, a := range scores {
		e := a.ev
		e.Score = a.score
		out = append(out, e)
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
