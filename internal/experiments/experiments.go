// Package experiments implements the full evaluation suite of
// DESIGN.md §4 — one function per experiment, each returning the
// Markdown table that EXPERIMENTS.md records and cmd/benchrunner
// prints. The same functions back the testing.B benchmarks in the
// repository root, so `go test -bench` regenerates every table and
// figure series.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/entropy"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/retrieval"
	"repro/internal/slm"
	"repro/internal/vector"
	"repro/internal/workload"
)

// newNER returns a recognizer carrying both domain gazetteers.
func newNER(corpora ...*workload.Corpus) *slm.NER {
	ner := slm.NewNER()
	for _, c := range corpora {
		c.Register(ner)
	}
	return ner
}

// ecommerceAt scales the e-commerce corpus to roughly n documents.
func ecommerceAt(n int) *workload.Corpus {
	opts := workload.DefaultECommerceOptions()
	// Each product yields ~3 report docs + ReviewsPerProduct reviews.
	products := n / (3 + opts.ReviewsPerProduct)
	if products < 2 {
		products = 2
	}
	opts.Products = products
	return workload.ECommerce(opts)
}

// Table1IndexConstruction measures graph-index vs dense-index build
// cost and size over a corpus sweep (claim: the graph index avoids
// "large-scale vector indexing" and "repeated LLM inference passes").
func Table1IndexConstruction(sizes []int) *metrics.ResultTable {
	t := metrics.NewResultTable("Table 1 — Index construction cost (graph vs dense)",
		"docs", "graph_build_ms", "graph_KB", "graph_slm_calls", "dense_build_ms", "dense_KB", "dense_embed_calls")
	for _, n := range sizes {
		c := ecommerceAt(n)

		gCost := slm.NewCostModel(slm.SLMProfile())
		gNER := newNER(c).WithCost(gCost)
		gStart := time.Now()
		builder := index.NewBuilder(gNER, index.DefaultOptions()).WithCost(gCost)
		g, stats, err := builder.Build(c.Sources)
		if err != nil {
			panic(fmt.Sprintf("experiments: table1 graph build: %v", err))
		}
		gDur := time.Since(gStart)
		_ = g

		dCost := slm.NewCostModel(slm.SLMProfile())
		embedder := slm.NewEmbedder(slm.DefaultEmbeddingDim).WithCost(dCost)
		dStart := time.Now()
		dense, err := retrieval.NewDenseFromRecords(c.Sources.Records(),
			chunk.New(chunk.DefaultOptions()), embedder, vector.NewFlat(embedder.Dim()))
		if err != nil {
			panic(fmt.Sprintf("experiments: table1 dense build: %v", err))
		}
		dDur := time.Since(dStart)

		t.AddRow(c.Sources.Len(),
			float64(gDur.Microseconds())/1000, stats.SizeBytes/1024, gCost.TotalCalls(),
			float64(dDur.Microseconds())/1000, dense.IndexSizeBytes()/1024, dCost.Calls(slm.OpEmbed))
	}
	return t
}

// Table2RetrievalQuality compares topology vs dense vs BM25 retrieval
// on gold evidence (claim: topology-guided traversal "enhances query
// precision").
func Table2RetrievalQuality() *metrics.ResultTable {
	t := metrics.NewResultTable("Table 2 — Retrieval quality",
		"retriever", "corpus", "recall@1", "recall@5", "recall@10", "MRR")
	for _, c := range []*workload.Corpus{
		workload.ECommerce(workload.DefaultECommerceOptions()),
		workload.Healthcare(workload.DefaultHealthcareOptions()),
	} {
		ner := newNER(c)
		g, _, err := index.NewBuilder(ner, index.DefaultOptions()).Build(c.Sources)
		if err != nil {
			panic(fmt.Sprintf("experiments: table2 build: %v", err))
		}
		embedder := slm.NewEmbedder(slm.DefaultEmbeddingDim)
		dense, err := retrieval.NewDense(g, embedder, vector.NewFlat(embedder.Dim()))
		if err != nil {
			panic(fmt.Sprintf("experiments: table2 dense: %v", err))
		}
		topo := retrieval.NewTopology(g, ner, retrieval.TopologyOptions{})
		bm := retrieval.NewBM25(g)
		retrievers := []retrieval.Retriever{
			topo,
			dense,
			bm,
			retrieval.NewFusion(topo, dense, bm), // ensemble upper baseline
		}
		for _, r := range retrievers {
			stats := core.EvaluateRetrieval(r, c.Queries, []int{1, 5, 10})
			t.AddRow(r.Name(), c.Name,
				stats.RecallAt[1], stats.RecallAt[5], stats.RecallAt[10], stats.MRR)
		}
	}
	return t
}

// Table3MultiEntityQA compares end-to-end answer accuracy by query
// class for the three pipelines (claims: Text-to-SQL fails on
// unstructured components; RAG produces ungrounded comparisons; the
// hybrid handles both).
func Table3MultiEntityQA() *metrics.ResultTable {
	t := metrics.NewResultTable("Table 3 — Multi-Entity QA accuracy (EM / F1)",
		"pipeline", "corpus", "class", "N", "EM", "F1", "answered")
	for _, c := range []*workload.Corpus{
		workload.ECommerce(workload.DefaultECommerceOptions()),
		workload.Healthcare(workload.DefaultHealthcareOptions()),
	} {
		for _, p := range buildPipelines(c) {
			stats := core.EvaluateQA(p, c.Queries)
			for _, class := range []workload.Class{
				workload.ClassSingleLookup, workload.ClassAggregate,
				workload.ClassComparative, workload.ClassCrossModal,
				workload.ClassCrossModalJoin, workload.Class("overall"),
			} {
				s, ok := stats[class]
				if !ok || s.N == 0 {
					continue
				}
				t.AddRow(p.Name(), c.Name, string(class), s.N, s.EM, s.F1, s.Answered)
			}
		}
	}
	return t
}

// buildPipelines constructs the three systems over one corpus.
func buildPipelines(c *workload.Corpus) []core.Pipeline {
	ner := newNER(c)
	h, err := core.NewHybrid(c.Sources, ner, core.DefaultHybridOptions())
	if err != nil {
		panic(fmt.Sprintf("experiments: hybrid: %v", err))
	}
	r, err := core.NewRAG(c.Sources, ner)
	if err != nil {
		panic(fmt.Sprintf("experiments: rag: %v", err))
	}
	ts := core.NewTextToSQL(c.NativeCatalog(), ner)
	return []core.Pipeline{h, r, ts}
}

// Figure2LatencyScaling measures p50/p95 answer latency as the corpus
// grows (claim: suitability for "low-latency responses" in
// resource-constrained environments).
func Figure2LatencyScaling(sizes []int) *metrics.ResultTable {
	t := metrics.NewResultTable("Figure 2 — Query latency vs corpus size (series)",
		"docs", "pipeline", "p50_ms", "p95_ms", "mean_ms")
	for _, n := range sizes {
		c := ecommerceAt(n)
		for _, p := range buildPipelines(c) {
			var lat metrics.Latencies
			for _, q := range c.Queries {
				ans := p.Answer(q.Text)
				lat.Record(ans.Latency)
			}
			t.AddRow(c.Sources.Len(), p.Name(),
				float64(lat.Percentile(50).Microseconds())/1000,
				float64(lat.Percentile(95).Microseconds())/1000,
				float64(lat.Mean().Microseconds())/1000)
		}
	}
	return t
}

// Table4Extraction measures Relational Table Generation quality under
// a noise sweep (Section III.C task 1).
func Table4Extraction(noises []float64) *metrics.ResultTable {
	t := metrics.NewResultTable("Table 4 — Relational Table Generation quality",
		"noise", "gold_facts", "extracted_rows", "precision", "recall", "F1")
	for _, noise := range noises {
		opts := workload.DefaultECommerceOptions()
		opts.Noise = noise
		c := workload.ECommerce(opts)
		ner := newNER(c)
		h, err := core.NewHybrid(c.Sources, ner, core.DefaultHybridOptions())
		if err != nil {
			panic(fmt.Sprintf("experiments: table4: %v", err))
		}
		stats := core.EvaluateExtraction(h.Catalog(), c.GoldFacts)
		t.AddRow(noise, stats.GoldFacts, stats.Extracted, stats.Precision, stats.Recall, stats.F1)
	}
	return t
}

// Figure3EntropyCalibration measures how well each uncertainty score
// predicts incorrect answers (AUROC), by sample count M (claim:
// semantic entropy is "more predictive of model accuracy compared to
// traditional baselines").
func Figure3EntropyCalibration(ms []int) *metrics.ResultTable {
	t := metrics.NewResultTable("Figure 3 — Uncertainty calibration AUROC (series)",
		"M", "semantic", "discrete", "lexical", "meanNLL")
	items := workload.Calibration(workload.DefaultCalibrationOptions())
	clusterer := entropy.NewClusterer(slm.NewEmbedder(slm.DefaultEmbeddingDim))
	for _, m := range ms {
		gen := &slm.Generator{Temperature: 0.8, Paraphrase: true, ErrorRate: 0.05}
		rng := slm.NewRNG(7)
		var sem, disc, lex, nll []float64
		var wrong []bool
		for _, item := range items {
			gens := gen.Sample(item.Candidates, m, rng)
			rep := entropy.Assess(gens, clusterer)
			sem = append(sem, rep.SemanticH)
			disc = append(disc, rep.DiscreteH)
			lex = append(lex, rep.LexicalH)
			nll = append(nll, rep.MeanNLL)
			wrong = append(wrong, !metrics.ExactMatch(rep.MajorityAnswer, item.Gold))
		}
		t.AddRow(m,
			entropy.AUROC(sem, wrong), entropy.AUROC(disc, wrong),
			entropy.AUROC(lex, wrong), entropy.AUROC(nll, wrong))
	}
	return t
}

// Table5Ablations removes one design component at a time and measures
// cross-modal QA accuracy and retrieval recall (DESIGN.md's index,
// cue, and centrality claims).
func Table5Ablations() *metrics.ResultTable {
	t := metrics.NewResultTable("Table 5 — Ablations",
		"variant", "crossmodal_EM", "overall_EM", "recall@5", "MRR")
	c := workload.ECommerce(workload.DefaultECommerceOptions())

	type variant struct {
		name string
		opts core.HybridOptions
	}
	variants := []variant{
		{"full", core.DefaultHybridOptions()},
		{"no_cues", func() core.HybridOptions {
			o := core.DefaultHybridOptions()
			o.Index.DisableCues = true
			return o
		}()},
		{"no_centrality", func() core.HybridOptions {
			o := core.DefaultHybridOptions()
			o.Topology.DisableCentral = true
			return o
		}()},
		{"no_entity_nodes", func() core.HybridOptions {
			o := core.DefaultHybridOptions()
			o.Index.DisableEntityNodes = true
			return o
		}()},
		{"no_extraction", func() core.HybridOptions {
			o := core.DefaultHybridOptions()
			o.DisableExtraction = true
			return o
		}()},
	}
	for _, v := range variants {
		ner := newNER(c)
		h, err := core.NewHybrid(c.Sources, ner, v.opts)
		if err != nil {
			panic(fmt.Sprintf("experiments: table5 %s: %v", v.name, err))
		}
		qa := core.EvaluateQA(h, c.Queries)
		ret := core.EvaluateRetrieval(h.Retriever(), c.Queries, []int{5})
		cross := qa[workload.ClassCrossModal]
		overall := qa[workload.Class("overall")]
		t.AddRow(v.name, cross.EM, overall.EM, ret.RecallAt[5], ret.MRR)
	}
	return t
}

// Table6CostProfile compares simulated SLM vs LLM inference cost on
// the E3 workload (claim: LLM pipelines are "impractical for ...
// low-latency responses or deployment on devices with limited
// memory").
func Table6CostProfile() *metrics.ResultTable {
	t := metrics.NewResultTable("Table 6 — SLM vs LLM resource profile",
		"profile", "model_calls", "tokens", "sim_latency_ms", "resident_MiB")
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	for _, profile := range []slm.Profile{slm.SLMProfile(), slm.LLMProfile()} {
		cost := slm.NewCostModel(profile)
		ner := newNER(c).WithCost(cost)
		h, err := core.NewHybrid(c.Sources, ner, core.DefaultHybridOptions())
		if err != nil {
			panic(fmt.Sprintf("experiments: table6: %v", err))
		}
		h.WithCost(cost)
		for _, q := range c.Queries {
			h.Answer(q.Text)
		}
		t.AddRow(profile.Name, cost.TotalCalls(), cost.TotalTokens(),
			float64(cost.SimulatedLatency().Microseconds())/1000, cost.MemoryBytes()>>20)
	}
	return t
}
