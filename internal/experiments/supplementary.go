package experiments

import (
	"fmt"
	"time"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/retrieval"
	"repro/internal/slm"
	"repro/internal/vector"
	"repro/internal/workload"
)

// TableS1ChunkSize sweeps the chunk token budget — the main free
// parameter of the index layer (DESIGN.md design-choice ablation).
// Small chunks give precise anchors but fragment context; large chunks
// blur entity locality.
func TableS1ChunkSize(budgets []int) *metrics.ResultTable {
	t := metrics.NewResultTable("Table S1 — Chunk size ablation (long-document corpus)",
		"max_tokens", "chunks", "index_KB", "recall@5", "MRR", "overall_EM")
	opts := workload.DefaultECommerceOptions()
	opts.LongDocs = true // short documents never hit the budget
	c := workload.ECommerce(opts)
	for _, budget := range budgets {
		ner := newNER(c)
		opts := core.DefaultHybridOptions()
		opts.Index.Chunk = chunk.Options{MaxTokens: budget, OverlapSentence: 1}
		h, err := core.NewHybrid(c.Sources, ner, opts)
		if err != nil {
			panic(fmt.Sprintf("experiments: s1: %v", err))
		}
		ret := core.EvaluateRetrieval(h.Retriever(), c.Queries, []int{5})
		qa := core.EvaluateQA(h, c.Queries)
		stats, _ := h.Stats()
		t.AddRow(budget, stats.Chunks, stats.SizeBytes/1024,
			ret.RecallAt[5], ret.MRR, qa[workload.Class("overall")].EM)
	}
	return t
}

// TableS2VectorIndex compares the dense baseline's exact flat scan
// against IVF at several probe widths: the recall/latency tradeoff
// that conventional RAG pipelines tune and the graph index sidesteps.
func TableS2VectorIndex(nprobes []int) *metrics.ResultTable {
	t := metrics.NewResultTable("Table S2 — Vector index tradeoff (dense baseline)",
		"index", "recall@5_vs_flat", "avg_search_us")
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	ner := newNER(c)
	g, _, err := index.NewBuilder(ner, index.DefaultOptions()).Build(c.Sources)
	if err != nil {
		panic(fmt.Sprintf("experiments: s2: %v", err))
	}
	embedder := slm.NewEmbedder(slm.DefaultEmbeddingDim)

	flat, err := retrieval.NewDense(g, embedder, vector.NewFlat(embedder.Dim()))
	if err != nil {
		panic(fmt.Sprintf("experiments: s2 flat: %v", err))
	}
	// Flat's own top-5 sets are the recall reference.
	reference := map[string]map[string]bool{}
	for _, q := range c.Queries {
		set := map[string]bool{}
		for _, ev := range flat.Retrieve(q.Text, 5) {
			set[ev.NodeID] = true
		}
		reference[q.ID] = set
	}
	measure := func(name string, d *retrieval.Dense) {
		var recall float64
		start := time.Now()
		for _, q := range c.Queries {
			hits := d.Retrieve(q.Text, 5)
			match := 0
			for _, h := range hits {
				if reference[q.ID][h.NodeID] {
					match++
				}
			}
			if len(reference[q.ID]) > 0 {
				recall += float64(match) / float64(len(reference[q.ID]))
			}
		}
		elapsed := time.Since(start)
		n := float64(len(c.Queries))
		t.AddRow(name, recall/n, float64(elapsed.Microseconds())/n)
	}
	measure("flat", flat)
	for _, np := range nprobes {
		ivf, err := retrieval.NewDense(g, embedder, vector.NewIVF(embedder.Dim(), 16, np))
		if err != nil {
			panic(fmt.Sprintf("experiments: s2 ivf: %v", err))
		}
		measure(fmt.Sprintf("ivf_nprobe=%d", np), ivf)
	}
	return t
}
