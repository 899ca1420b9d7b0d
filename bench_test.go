package unisem

// One benchmark per experiment table/figure (DESIGN.md §4). Each bench
// regenerates its table through internal/experiments — the same code
// cmd/benchrunner uses — and additionally reports the headline scalar
// so `go test -bench` output carries the key numbers. Run
//
//	go test -bench=. -benchmem
//
// to regenerate everything; EXPERIMENTS.md records the resulting
// tables.

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/entropy"
	"repro/internal/experiments"
	"repro/internal/federate"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/logical"
	"repro/internal/logical/refeval"
	"repro/internal/retrieval"
	"repro/internal/semop"
	"repro/internal/slm"
	"repro/internal/sql"
	"repro/internal/store"
	"repro/internal/table"
	"repro/internal/vector"
	"repro/internal/workload"
)

// BenchmarkTable1IndexConstruction regenerates Table 1 (index build
// cost sweep) once per -benchtime iteration and reports graph-vs-dense
// build time on a mid-size corpus in the loop.
func BenchmarkTable1IndexConstruction(b *testing.B) {
	b.Log(experiments.Table1IndexConstruction([]int{100, 400, 1600}).String())
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	ner := slm.NewNER()
	c.Register(ner)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := index.NewBuilder(ner, index.DefaultOptions()).Build(c.Sources); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1DenseBaseline is the comparison build for Table 1.
func BenchmarkTable1DenseBaseline(b *testing.B) {
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	embedder := slm.NewEmbedder(slm.DefaultEmbeddingDim)
	records := c.Sources.Records()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := retrieval.NewDenseFromRecords(records, chunk.New(chunk.DefaultOptions()),
			embedder, vector.NewFlat(embedder.Dim())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2RetrievalQuality regenerates Table 2 and times a
// topology retrieval in the loop.
func BenchmarkTable2RetrievalQuality(b *testing.B) {
	b.Log(experiments.Table2RetrievalQuality().String())
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	ner := slm.NewNER()
	c.Register(ner)
	g, _, err := index.NewBuilder(ner, index.DefaultOptions()).Build(c.Sources)
	if err != nil {
		b.Fatal(err)
	}
	topo := retrieval.NewTopology(g, ner, retrieval.TopologyOptions{})
	query := c.Queries[0].Text
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ev := topo.Retrieve(query, 8); len(ev) == 0 {
			b.Fatal("no evidence")
		}
	}
}

// BenchmarkTable3MultiEntityQA regenerates Table 3 and reports hybrid
// cross-modal EM as the headline metric.
func BenchmarkTable3MultiEntityQA(b *testing.B) {
	b.Log(experiments.Table3MultiEntityQA().String())
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	ner := slm.NewNER()
	c.Register(ner)
	h, err := core.NewHybrid(c.Sources, ner, core.DefaultHybridOptions())
	if err != nil {
		b.Fatal(err)
	}
	var em float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats := core.EvaluateQA(h, c.Queries)
		em = stats[workload.Class("overall")].EM
	}
	b.ReportMetric(em, "EM")
}

// BenchmarkFigure2LatencyScaling regenerates the Figure 2 latency
// series and times a single hybrid answer in the loop.
func BenchmarkFigure2LatencyScaling(b *testing.B) {
	b.Log(experiments.Figure2LatencyScaling([]int{100, 400, 1600}).String())
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	ner := slm.NewNER()
	c.Register(ner)
	h, err := core.NewHybrid(c.Sources, ner, core.DefaultHybridOptions())
	if err != nil {
		b.Fatal(err)
	}
	q := c.Queries[0].Text
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ans := h.Answer(q); !ans.Answered() {
			b.Fatal(ans.Err)
		}
	}
}

// BenchmarkTable4Extraction regenerates the extraction-quality noise
// sweep and reports F1 at the default noise level.
func BenchmarkTable4Extraction(b *testing.B) {
	b.Log(experiments.Table4Extraction([]float64{0, 0.3, 0.6, 0.9}).String())
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	ner := slm.NewNER()
	c.Register(ner)
	var f1 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := core.NewHybrid(c.Sources, ner, core.DefaultHybridOptions())
		if err != nil {
			b.Fatal(err)
		}
		f1 = core.EvaluateExtraction(h.Catalog(), c.GoldFacts).F1
	}
	b.ReportMetric(f1, "F1")
}

// BenchmarkFigure3EntropyCalibration regenerates the calibration
// series and reports semantic-entropy AUROC at M=5.
func BenchmarkFigure3EntropyCalibration(b *testing.B) {
	tbl := experiments.Figure3EntropyCalibration([]int{3, 5, 10})
	b.Log(tbl.String())
	if !strings.Contains(tbl.String(), "semantic") {
		b.Fatal("calibration table malformed")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure3EntropyCalibration([]int{5})
	}
}

// BenchmarkTable5Ablations regenerates the ablation table.
func BenchmarkTable5Ablations(b *testing.B) {
	b.Log(experiments.Table5Ablations().String())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table5Ablations()
	}
}

// BenchmarkTable6CostProfile regenerates the SLM-vs-LLM cost table.
func BenchmarkTable6CostProfile(b *testing.B) {
	b.Log(experiments.Table6CostProfile().String())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table6CostProfile()
	}
}

// BenchmarkTableS1ChunkSize regenerates the chunk-size ablation.
func BenchmarkTableS1ChunkSize(b *testing.B) {
	b.Log(experiments.TableS1ChunkSize([]int{32, 64, 128, 256}).String())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.TableS1ChunkSize([]int{64})
	}
}

// BenchmarkTableS2VectorIndex regenerates the flat-vs-IVF tradeoff.
func BenchmarkTableS2VectorIndex(b *testing.B) {
	b.Log(experiments.TableS2VectorIndex([]int{1, 2, 4, 8}).String())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.TableS2VectorIndex([]int{2})
	}
}

// ingestCorpus is the corpus used by the ingest-throughput benchmarks:
// large enough that the per-record SLM analysis dominates setup noise.
func ingestCorpus() *workload.Corpus {
	opts := workload.DefaultECommerceOptions()
	opts.Products = 48
	opts.ReviewsPerProduct = 12
	opts.Noise = 0.6
	return workload.ECommerce(opts)
}

// benchIngest builds the full hybrid system (graph index + relational
// table generation) at the given worker count and reports docs/sec.
func benchIngest(b *testing.B, workers int) {
	c := ingestCorpus()
	ner := slm.NewNER()
	c.Register(ner)
	opts := core.DefaultHybridOptions()
	opts.Workers = workers
	docs := c.Sources.Len()
	var stats index.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := core.NewHybrid(c.Sources, ner, opts)
		if err != nil {
			b.Fatal(err)
		}
		stats, _ = h.Stats()
	}
	b.StopTimer()
	b.ReportMetric(float64(docs)*float64(b.N)/b.Elapsed().Seconds(), "docs/s")
	if stats.Nodes == 0 {
		b.Fatal("empty index")
	}
}

// BenchmarkSequentialIngest is the single-threaded baseline.
func BenchmarkSequentialIngest(b *testing.B) { benchIngest(b, 1) }

// BenchmarkParallelIngest fans the per-record SLM analysis and the
// per-document table generation across all cores; the graph/catalog
// merge stays sequential so index statistics and answers are identical
// to BenchmarkSequentialIngest (asserted by TestParallelBuildDeterminism
// and verified again here on the first iteration).
func BenchmarkParallelIngest(b *testing.B) {
	c := ingestCorpus()
	ner := slm.NewNER()
	c.Register(ner)
	seqOpts := core.DefaultHybridOptions()
	seqOpts.Workers = 1
	seq, err := core.NewHybrid(c.Sources, ner, seqOpts)
	if err != nil {
		b.Fatal(err)
	}
	parOpts := core.DefaultHybridOptions()
	par, err := core.NewHybrid(c.Sources, ner, parOpts)
	if err != nil {
		b.Fatal(err)
	}
	ss, _ := seq.Stats()
	pp, _ := par.Stats()
	ss.BuildTime, pp.BuildTime = 0, 0
	if ss != pp {
		b.Fatalf("parallel index statistics diverge from sequential:\n  seq %+v\n  par %+v", ss, pp)
	}
	benchIngest(b, 0)
}

// BenchmarkRefreshAfterIngest times what Topology.Refresh does after a
// one-document ingest into ingestCorpus's graph: the view built from
// the one taken before the ingest, then PageRank at the retriever's
// default worker count. Every iteration repeats both on the same inputs.
func BenchmarkRefreshAfterIngest(b *testing.B) {
	c := ingestCorpus()
	ner := slm.NewNER()
	c.Register(ner)
	builder := index.NewBuilder(ner, index.DefaultOptions())
	g, _, err := builder.Build(c.Sources)
	if err != nil {
		b.Fatal(err)
	}
	prev := g.View(nil)
	rec := store.Record{ID: "live-refresh", Source: "live", Kind: store.KindText,
		Text: "Product Alpha sales increased 20% in Q2. Reviewers compared Product Alpha with Product Beta."}
	if _, err := builder.IndexRecord(g, rec); err != nil {
		b.Fatal(err)
	}
	if g.NodeCount() == prev.Len() {
		b.Fatal("the ingest added no node")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rank := g.View(prev).PageRank(0); len(rank) != g.NodeCount() {
			b.Fatalf("%d ranks for %d nodes", len(rank), g.NodeCount())
		}
	}
}

// answerAllHybrid is the batch benchmarks' system: the default
// e-commerce corpus built by core.NewHybrid, and the corpus's questions.
func answerAllHybrid(tb testing.TB) (*core.Hybrid, []string) {
	tb.Helper()
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	ner := slm.NewNER()
	c.Register(ner)
	h, err := core.NewHybrid(c.Sources, ner, core.DefaultHybridOptions())
	if err != nil {
		tb.Fatal(err)
	}
	questions := make([]string, 0, len(c.Queries))
	for _, q := range c.Queries {
		questions = append(questions, q.Text)
	}
	return h, questions
}

// BenchmarkAnswerAll measures batch query throughput with bounded
// parallelism over the full e-commerce query workload.
func BenchmarkAnswerAll(b *testing.B) {
	h, questions := answerAllHybrid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans := h.AnswerAll(questions, 0)
		if len(ans) != len(questions) {
			b.Fatal("short batch")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(questions))*float64(b.N)/b.Elapsed().Seconds(), "q/s")
}

// BenchmarkOptimize times the optimizer's rule passes alone: one op is
// one logical.Optimize per compiled tree of the e-commerce questions
// BenchmarkAnswerAll asks that bind. Parsing, binding and compiling
// happen once, outside the timer.
func BenchmarkOptimize(b *testing.B) {
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	ner := slm.NewNER()
	c.Register(ner)
	h, err := core.NewHybrid(c.Sources, ner, core.DefaultHybridOptions())
	if err != nil {
		b.Fatal(err)
	}
	var trees []*logical.Node
	for _, q := range c.Queries {
		if plan, err := semop.Bind(semop.Parse(q.Text, ner), h.Catalog()); err == nil {
			trees = append(trees, semop.Compile(plan))
		}
	}
	if len(trees) == 0 {
		b.Fatal("no question binds")
	}
	st := logical.CatalogStats(h.Catalog())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range trees {
			logical.Optimize(n, st)
		}
	}
}

// retrieveBenchCorpus indexes the repository benchmark's e-commerce
// corpus (48 products × 12 reviews), which the retrieval benchmarks
// share.
func retrieveBenchCorpus(b *testing.B) (*workload.Corpus, *graph.Graph, *slm.NER) {
	b.Helper()
	opts := workload.DefaultECommerceOptions()
	opts.Products, opts.ReviewsPerProduct = 48, 12
	c := workload.ECommerce(opts)
	ner := slm.NewNER()
	c.Register(ner)
	g, _, err := index.NewBuilder(ner, index.DefaultOptions()).Build(c.Sources)
	if err != nil {
		b.Fatal(err)
	}
	return c, g, ner
}

// BenchmarkTopologyRetrieve measures one topology retrieval (anchor,
// expand, score) on retrieveBenchCorpus, the generator's queries in
// rotation — the stage that dominates an Ask. The retriever memoises
// each anchor's expansion, so past the first rotation this times memo
// hits; BenchmarkViewExpand times the expansions themselves.
func BenchmarkTopologyRetrieve(b *testing.B) {
	c, g, ner := retrieveBenchCorpus(b)
	r := retrieval.NewTopology(g, ner, retrieval.TopologyOptions{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ev := r.Retrieve(c.Queries[i%len(c.Queries)].Text, 8); len(ev) == 0 {
			b.Fatal("no evidence")
		}
	}
}

// BenchmarkDeriveCandidates derives answer candidates from each
// generator query's top-8 topology evidence on retrieveBenchCorpus, the
// queries in rotation — the stage after retrieval in an Ask. The
// evidence is retrieved and every query derived once before the timer
// starts, and the recognizer memoises each text's salient span, so this
// times memo hits.
func BenchmarkDeriveCandidates(b *testing.B) {
	c, g, ner := retrieveBenchCorpus(b)
	r := retrieval.NewTopology(g, ner, retrieval.TopologyOptions{})
	evidence := make([][]string, len(c.Queries))
	for i, q := range c.Queries {
		evidence[i] = retrieval.Texts(r.Retrieve(q.Text, 8))
		slm.DeriveCandidates(q.Text, evidence[i], ner)
	}
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		j := i % len(c.Queries)
		n += len(slm.DeriveCandidates(c.Queries[j].Text, evidence[j], ner))
	}
	if n == 0 {
		b.Fatal("no candidates")
	}
}

// BenchmarkEntropyAssess scores the uncertainty of each generator query's
// answer on retrieveBenchCorpus, the queries in rotation — the stage
// after candidate derivation in an Ask. Five paraphrased samples are
// drawn from each query's top three candidates (over its top-8 topology
// evidence) before the timer starts; the timed part clusters them, with
// the clusterer an Ask uses, and computes the entropies.
func BenchmarkEntropyAssess(b *testing.B) {
	c, g, ner := retrieveBenchCorpus(b)
	r := retrieval.NewTopology(g, ner, retrieval.TopologyOptions{})
	gen, rng := slm.NewGenerator(), slm.NewRNG(42)
	var samples [][]slm.Generation
	for _, q := range c.Queries {
		cands := slm.DeriveCandidates(q.Text, retrieval.Texts(r.Retrieve(q.Text, 8)), ner)
		if len(cands) > 0 {
			samples = append(samples, gen.Sample(cands[:min(len(cands), 3)], 5, rng))
		}
	}
	if len(samples) == 0 {
		b.Fatal("no candidates")
	}
	clusterer := entropy.NewClusterer(slm.NewEmbedder(slm.DefaultEmbeddingDim))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := entropy.Assess(samples[i%len(samples)], clusterer); len(rep.Clusters) == 0 {
			b.Fatal("no clusters")
		}
	}
}

// BenchmarkViewExpand expands every entity of retrieveBenchCorpus once
// per op with the topology retriever's traversal — depth 3, budget 256,
// decay 0.7, its edge multipliers and its PageRank prior — which is
// what a Retrieve pays for an anchor the retriever has not expanded
// since its last Refresh.
func BenchmarkViewExpand(b *testing.B) {
	_, g, _ := retrieveBenchCorpus(b)
	v := g.View(nil)
	prior := v.PageRank(0)
	norm := slices.Max(prior)
	for i, r := range prior {
		prior[i] = 0.5 + r/norm
	}
	opts := graph.ExpandOptions{MaxDepth: 3, Budget: 256, Decay: 0.7, Prior: prior, EdgeTypes: map[graph.EdgeType]float64{
		graph.EdgeMentions: 1.0,
		graph.EdgeNextTo:   0.4,
		graph.EdgePartOf:   0.2,
		graph.EdgeRelates:  0.5,
		graph.EdgeCueArg:   0.4,
		graph.EdgeCueIn:    0.6,
	}}
	var anchors []int
	for i := 0; i < v.Len(); i++ {
		if v.Type(i) == graph.NodeEntity {
			anchors = append(anchors, i)
		}
	}
	var x graph.Expander
	expandAll := func() {
		for _, a := range anchors {
			if len(v.Expand(&x, a, opts)) == 0 {
				b.Fatal("empty expansion")
			}
		}
	}
	expandAll() // grow x to the view, so that an op allocates nothing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expandAll()
	}
	b.ReportMetric(float64(len(anchors)), "anchors/op")
}

// snapshotBenchGraph builds the graph the serialiser benchmarks share:
// the repository benchmark's e-commerce corpus (48 products × 12
// reviews) plus a 16 384-row relational table, so row nodes with field
// attrs outnumber everything else the way they do in a saved system.
func snapshotBenchGraph(tb testing.TB) *graph.Graph {
	tb.Helper()
	opts := workload.DefaultECommerceOptions()
	opts.Products, opts.ReviewsPerProduct = 48, 12
	c := workload.ECommerce(opts)
	ner := slm.NewNER()
	c.Register(ner)
	facts := table.New("facts", table.Schema{
		{Name: "region", Type: table.TypeString},
		{Name: "sku", Type: table.TypeString},
		{Name: "units", Type: table.TypeInt},
		{Name: "revenue", Type: table.TypeFloat},
	})
	regions := []string{"north", "south", "east", "west", "central", "coastal", "alpine", "island"}
	for i := 0; i < 16384; i++ {
		rev := table.F(float64(i%1009) * 0.75)
		if i%67 == 66 {
			rev = table.Null(table.TypeFloat)
		}
		facts.MustAppend([]table.Value{table.S(regions[i%len(regions)]), table.S(fmt.Sprintf("SKU-%04d", i/64)),
			table.I(int64(1 + i%100)), rev})
	}
	cat := table.NewCatalog()
	cat.Put(facts)
	c.Sources.Add(store.NewRelationalStore("warehouse", cat))
	g, _, err := index.NewBuilder(ner, index.DefaultOptions()).Build(c.Sources)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// BenchmarkGraphWriteJSON measures Graph.WriteJSON, the stage that
// dominates System.Save.
func BenchmarkGraphWriteJSON(b *testing.B) {
	g := snapshotBenchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphReadJSON measures graph.ReadJSON over the bytes
// BenchmarkGraphWriteJSON writes, the stage that dominates unisem.Load.
func BenchmarkGraphReadJSON(b *testing.B) {
	var buf bytes.Buffer
	if err := snapshotBenchGraph(b).WriteJSON(&buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.ReadJSON(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// snapshotBenchCatalog builds the catalog the catalog.json benchmarks
// share: the e-commerce corpus's tables plus a 65 536-row table of the
// repository benchmark's facts shape, which dominates the file the way
// it does in a saved system.
func snapshotBenchCatalog(tb testing.TB) *table.Catalog {
	tb.Helper()
	cat := workload.ECommerce(workload.DefaultECommerceOptions()).NativeCatalog().Catalog
	facts := table.New("facts", table.Schema{
		{Name: "region", Type: table.TypeString},
		{Name: "sku", Type: table.TypeString},
		{Name: "units", Type: table.TypeInt},
		{Name: "revenue", Type: table.TypeFloat},
	})
	regions := []string{"north", "south", "east", "west", "central", "coastal", "alpine", "island"}
	for i := 0; i < 65536; i++ {
		units := int64(1 + (i*7919)%100)
		rev := table.F(float64(units * int64(5+i/64%95)))
		if i%67 == 66 {
			rev = table.Null(table.TypeFloat)
		}
		facts.MustAppend([]table.Value{table.S(regions[(i*31)%len(regions)]), table.S(fmt.Sprintf("SKU-%04d", i/64)),
			table.I(units), rev})
	}
	cat.Put(facts)
	return cat
}

// BenchmarkCatalogWriteJSON measures Catalog.WriteJSON, System.Save's
// second file.
func BenchmarkCatalogWriteJSON(b *testing.B) {
	cat := snapshotBenchCatalog(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cat.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCatalogReadJSON measures table.ReadCatalogJSON over the bytes
// BenchmarkCatalogWriteJSON writes: the decode and each table's derive,
// which run beside graph.ReadJSON in unisem.Load.
func BenchmarkCatalogReadJSON(b *testing.B) {
	var buf bytes.Buffer
	if err := snapshotBenchCatalog(b).WriteJSON(&buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := table.ReadCatalogJSON(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnswerAllSequential is the single-worker baseline for
// BenchmarkAnswerAll.
func BenchmarkAnswerAllSequential(b *testing.B) {
	h, questions := answerAllHybrid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.AnswerAll(questions, 1)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(questions))*float64(b.N)/b.Elapsed().Seconds(), "q/s")
}

// filteredAggPlan binds the benchmark's filtered-aggregate question —
// equality filters plus a SUM — against the benchmark-size e-commerce
// corpus (same corpus as the ingest benchmarks), where scan cost
// dominates planner overhead.
func filteredAggPlan(tb testing.TB) (*core.Hybrid, *semop.Plan) {
	tb.Helper()
	h, ner := ingestHybrid(tb)
	q := semop.Parse("How many units of Product Alpha were sold in Q4?", ner)
	plan, err := semop.Bind(q, h.Catalog())
	if err != nil {
		tb.Fatal(err)
	}
	if len(plan.Filters) == 0 || len(plan.Aggs) == 0 {
		tb.Fatalf("not a filtered aggregate: %s", plan)
	}
	return h, plan
}

// ingestHybrid builds the system over ingestCorpus that the planner
// benchmarks and TestExactGates run their questions against.
func ingestHybrid(tb testing.TB) (*core.Hybrid, *slm.NER) {
	tb.Helper()
	c := ingestCorpus()
	ner := slm.NewNER()
	c.Register(ner)
	h, err := core.NewHybrid(c.Sources, ner, core.DefaultHybridOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return h, ner
}

// scannedBy executes opt once on fed and returns the result with the
// base-table rows its fragments read — the number pushdown, pruning and
// rollup routing exist to shrink. It runs inside timed loops of a
// microsecond, so it does not call tb.Helper (≈ 0.3 µs a call).
func scannedBy(tb testing.TB, fed *federate.Executor, opt *logical.Optimized) (*table.Table, int) {
	res, run, err := fed.ExecuteIR(opt)
	if err != nil {
		tb.Fatal(err)
	}
	scanned := 0
	for _, fr := range run.Fragments {
		scanned += fr.ActScanned
	}
	return res, scanned
}

// benchScanned times opt on fed — every execution must return wantRows
// rows — and reports the rows one execution scanned as rows_scanned/op,
// for a human reading the output; TestExactGates asserts the counts.
func benchScanned(b *testing.B, fed *federate.Executor, opt *logical.Optimized, wantRows int) {
	var scanned int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, n := scannedBy(b, fed, opt)
		if res.Len() != wantRows {
			b.Fatalf("result rows = %d, want %d", res.Len(), wantRows)
		}
		scanned = n
	}
	b.ReportMetric(float64(scanned), "rows_scanned/op")
}

// BenchmarkFederatedFilteredAggregate executes a filtered aggregate
// through the cost-based planner: the equality predicates push into
// the memory backend, which counts only the rows its driving equality
// matches — rows_scanned/op is 3 of the table's 169, asserted by
// TestExactGates.
func BenchmarkFederatedFilteredAggregate(b *testing.B) {
	h, plan := filteredAggPlan(b)
	opt := logical.Optimize(semop.Compile(plan), logical.CatalogStats(h.Catalog()))
	want, err := refeval.Eval(semop.Compile(plan), h.Catalog())
	if err != nil {
		b.Fatal(err)
	}
	benchScanned(b, h.Federation(), opt, want.Len())
}

// joinAggPlan binds the seeded-join benchmark question: an aggregate
// over the driving table with an equality on the join key, plus a
// threshold condition that lives in a joined table. The optimizer's
// reorder rule propagates the key equality into the joined side, where
// it drives the memory backend's scan, so only its matches count.
func joinAggPlan(tb testing.TB) (*core.Hybrid, *semop.Plan) {
	tb.Helper()
	h, ner := ingestHybrid(tb)
	q := semop.Parse("What is the average rating of Product Alpha among products with a sales increase of more than 15%?", ner)
	plan, err := semop.Bind(q, h.Catalog())
	if err != nil {
		tb.Fatal(err)
	}
	if plan.JoinTable == "" || len(plan.Filters) == 0 {
		tb.Fatalf("not a filtered join: %s", plan)
	}
	return h, plan
}

// BenchmarkFederatedJoinAggregate executes the seeded join through the
// full rule pipeline: reorder propagates the driving side's key
// equality into the join fragment, so the joined table's scan counts
// only that equality's matches, not the whole table — rows_scanned/op is 579
// of the 745 the same plan reads without the rule passes, asserted by
// TestExactGates.
func BenchmarkFederatedJoinAggregate(b *testing.B) {
	h, plan := joinAggPlan(b)
	opt := logical.Optimize(semop.Compile(plan), logical.CatalogStats(h.Catalog()))
	want, err := refeval.Eval(semop.Compile(plan), h.Catalog())
	if err != nil {
		b.Fatal(err)
	}
	benchScanned(b, h.Federation(), opt, want.Len())
}

// prunedQuery is a filtered aggregate whose range predicate provably
// matches nothing. An equality predicate would already count no
// matching row, so the shape uses a range predicate only zone maps can
// refute.
const prunedQuery = "SELECT SUM(change_pct) AS total FROM metric_changes WHERE change_pct > 1000000"

// prunedAggPlan compiles and optimizes prunedQuery against the
// ingest-corpus system.
func prunedAggPlan(tb testing.TB) (*core.Hybrid, *logical.Optimized) {
	tb.Helper()
	h, _ := ingestHybrid(tb)
	stmt, err := sql.Parse(prunedQuery)
	if err != nil {
		tb.Fatal(err)
	}
	node, err := sql.Compile(stmt, h.Catalog())
	if err != nil {
		tb.Fatal(err)
	}
	return h, logical.Optimize(node, logical.CatalogStats(h.Catalog()))
}

// BenchmarkPrunedFilteredAggregate executes prunedQuery: every
// fragment's zone map refutes the predicate at plan time, so the
// backend scan is skipped entirely and rows_scanned/op is exactly 0
// (asserted by TestExactGates).
func BenchmarkPrunedFilteredAggregate(b *testing.B) {
	h, opt := prunedAggPlan(b)
	stmt, err := sql.Parse(prunedQuery)
	if err != nil {
		b.Fatal(err)
	}
	node, err := sql.Compile(stmt, h.Catalog())
	if err != nil {
		b.Fatal(err)
	}
	want, err := refeval.Eval(node, h.Catalog()) // unpruned reference
	if err != nil {
		b.Fatal(err)
	}
	benchScanned(b, h.Federation(), opt, want.Len())
}

// statsPutRows builds the shared row set for the statistics-maintenance
// benchmarks: a low-NDV string column, a unique int column (the
// expensive sort) and a float column with nulls.
func statsPutRows(n int) [][]table.Value {
	products := []string{"Alpha", "Beta", "Gamma", "Delta"}
	rows := make([][]table.Value, n)
	for i := range rows {
		amount := table.F(float64(i % 997))
		if i%53 == 0 {
			amount = table.Null(table.TypeFloat)
		}
		rows[i] = []table.Value{table.S(products[i%len(products)]), table.I(int64(i)), amount}
	}
	return rows
}

// benchStatsPuts measures the append-heavy ingest shape: one base Put
// of 1024 rows, then 32 batches of 8 rows each, which reach the catalog
// through grow.
func benchStatsPuts(b *testing.B, grow func(c *table.Catalog, t *table.Table, batch [][]table.Value)) {
	const base, batches, perBatch = 1024, 32, 8
	rows := statsPutRows(base + batches*perBatch)
	schema := table.Schema{
		{Name: "product", Type: table.TypeString},
		{Name: "id", Type: table.TypeInt},
		{Name: "amount", Type: table.TypeFloat},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := table.New("puts", schema)
		t.Rows = append([][]table.Value(nil), rows[:base]...)
		c := table.NewCatalog()
		c.Put(t)
		for batch := 0; batch < batches; batch++ {
			grow(c, t, rows[base+batch*perBatch:base+(batch+1)*perBatch])
		}
		if c.StatsOf("puts").Rows != len(rows) {
			b.Fatal("stats out of date")
		}
	}
}

// BenchmarkIncrementalPut is the ingest path, Catalog.Append:
// statistics merge only each batch and zone maps extend only the open
// tail fragment. Compare ns/op against BenchmarkFullRebuildPut: the
// incremental path stays a multiple cheaper.
func BenchmarkIncrementalPut(b *testing.B) {
	benchStatsPuts(b, func(c *table.Catalog, _ *table.Table, batch [][]table.Value) {
		if err := c.Append("puts", batch); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkFullRebuildPut grows the same table by replacing it: every
// batch is a Put of a table holding all rows so far, so each pays the
// full statistics build.
func BenchmarkFullRebuildPut(b *testing.B) {
	benchStatsPuts(b, func(c *table.Catalog, t *table.Table, batch [][]table.Value) {
		t.Rows = append(t.Rows, batch...)
		c.Put(t)
	})
}

// estimateItem is one bindable workload question with the system that
// answers it.
type estimateItem struct {
	h    *core.Hybrid
	plan *semop.Plan
}

// estimateItems binds every workload question of both demo domains that
// binds at all.
func estimateItems(tb testing.TB) []estimateItem {
	tb.Helper()
	var items []estimateItem
	for _, c := range []*workload.Corpus{
		workload.ECommerce(workload.DefaultECommerceOptions()),
		workload.Healthcare(workload.DefaultHealthcareOptions()),
	} {
		ner := slm.NewNER()
		c.Register(ner)
		h, err := core.NewHybrid(c.Sources, ner, core.DefaultHybridOptions())
		if err != nil {
			tb.Fatal(err)
		}
		for _, q := range c.Queries {
			plan, err := semop.Bind(semop.Parse(q.Text, ner), h.Catalog())
			if err != nil {
				continue
			}
			items = append(items, estimateItem{h: h, plan: plan})
		}
	}
	if len(items) == 0 {
		tb.Fatal("no workload question bound")
	}
	return items
}

// maxQError optimizes and executes every item and returns the largest
// per-fragment q-error (estimated vs actual rows, scanned and output,
// both sides floored at one row).
func maxQError(tb testing.TB, items []estimateItem) float64 {
	tb.Helper()
	maxQ := 0.0
	for _, it := range items {
		opt := logical.Optimize(semop.Compile(it.plan), logical.CatalogStats(it.h.Catalog()))
		_, run, err := it.h.Federation().ExecuteIR(opt)
		if err != nil {
			tb.Fatal(err)
		}
		for _, fr := range run.Fragments {
			maxQ = max(maxQ, federate.QError(fr.Est.Scanned, fr.ActScanned), federate.QError(fr.Est.Out, fr.ActOut))
		}
	}
	return maxQ
}

// BenchmarkEstimateAccuracy runs every bindable workload question of
// both domains through the federated planner and reports the maximum
// per-fragment q-error as the machine-independent q_error_max metric.
// The planner and corpus are deterministic, so any increase is a cost
// model regression, not noise; TestExactGates asserts the value.
func BenchmarkEstimateAccuracy(b *testing.B) {
	items := estimateItems(b)
	var maxQ float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		maxQ = maxQError(b, items)
	}
	b.ReportMetric(maxQ, "q_error_max")
	b.ReportMetric(float64(len(items))*float64(b.N)/b.Elapsed().Seconds(), "q/s")
}

// askEndToEndSystem is BenchmarkAskEndToEnd's system: one document and
// one CSV row, built.
func askEndToEndSystem(tb testing.TB) *System {
	tb.Helper()
	sys := New()
	sys.Vocabulary(VocabProduct, "Product Alpha", "Product Beta")
	sys.AddDocument("reviews", "r1", "Customer C-1 rated Product Alpha 5 stars.")
	sys.AddCSV("sales", strings.NewReader("product,quarter,revenue\nProduct Alpha,Q2,1200\n"))
	if err := sys.Build(); err != nil {
		tb.Fatal(err)
	}
	return sys
}

// askEndToEndQuestion is the question BenchmarkAskEndToEnd asks.
const askEndToEndQuestion = "What was the revenue of Product Alpha in Q2?"

// BenchmarkAskEndToEnd times the public API answer path.
func BenchmarkAskEndToEnd(b *testing.B) {
	sys := askEndToEndSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Ask(askEndToEndQuestion); err != nil {
			b.Fatal(err)
		}
	}
}

// vecBenchCatalog builds the synthetic 8192-row fact table (32
// fragments) the executor benchmarks share. The catalog caches the
// columnar fragments, so vectorized runs measure kernel cost, not
// column extraction.
func vecBenchCatalog(b *testing.B) *table.Catalog {
	b.Helper()
	c := table.NewCatalog()
	t := table.New("vec_facts", table.Schema{
		{Name: "region", Type: table.TypeString},
		{Name: "units", Type: table.TypeInt},
		{Name: "revenue", Type: table.TypeFloat},
	})
	regions := []string{"north", "south", "east", "west", "central"}
	for i := 0; i < 8192; i++ {
		rev := table.F(float64(i%1009) * 0.75)
		if i%67 == 0 {
			rev = table.Null(table.TypeFloat)
		}
		t.MustAppend([]table.Value{table.S(regions[i%len(regions)]), table.I(int64(i % 101)), rev})
	}
	c.Put(t)
	return c
}

// vecBenchSetup returns the catalog plus the filtered-group-by tree:
// Aggregate(group=[region] SUM(revenue)) over Filter(units > 40).
func vecBenchSetup(b *testing.B) (*table.Catalog, *logical.Node) {
	b.Helper()
	root := &logical.Node{Op: logical.OpAggregate, GroupBy: []string{"region"},
		Aggs: []table.Agg{{Func: table.AggSum, Col: "revenue"}},
		In: []*logical.Node{{Op: logical.OpFilter,
			Preds: []table.Pred{{Col: "units", Op: table.OpGt, Val: table.I(40)}},
			In:    []*logical.Node{{Op: logical.OpScan, Table: "vec_facts"}}}}}
	return vecBenchCatalog(b), root
}

// vecSortBenchSetup returns the catalog plus the top-k tree:
// Limit(100) over Sort(revenue DESC, region) over the whole 8192-row
// table — the ranked-answer shape ORDER BY + LIMIT queries compile to.
func vecSortBenchSetup(b *testing.B) (*table.Catalog, *logical.Node) {
	b.Helper()
	root := &logical.Node{Op: logical.OpLimit, N: 100,
		In: []*logical.Node{{Op: logical.OpSort,
			Keys: []table.SortKey{{Col: "revenue", Desc: true}, {Col: "region"}},
			In:   []*logical.Node{{Op: logical.OpScan, Table: "vec_facts"}}}}}
	return vecBenchCatalog(b), root
}

// BenchmarkVecScanFilterAggregate runs the filtered group-by through
// the vectorized columnar executor at one worker. Compare ns/op and
// allocs/op against BenchmarkRowScanFilterAggregate: the typed kernels
// accumulate over column arrays with selection vectors, so per-row
// boxing and group-key allocations amortize toward zero.
func BenchmarkVecScanFilterAggregate(b *testing.B) {
	c, root := vecBenchSetup(b)
	if _, err := logical.ExecVec(root, c, 1); err != nil { // warm fragment cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := logical.ExecVec(root, c, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRowScanFilterAggregate is the row-interpreter baseline for
// the same tree: per-row predicate evaluation and per-group key
// strings, the cost the columnar kernels exist to amortize.
func BenchmarkRowScanFilterAggregate(b *testing.B) {
	c, root := vecBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := logical.Exec(root, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVecSortLimit runs the 8192-row ORDER BY + LIMIT shape
// through the sort kernel: key columns extracted once to typed arrays,
// then a bounded selection — a 100-entry heap ordered by (keys, row
// index) keeps the first 100 rows of the stable order without sorting
// the other 8092, and no Value is boxed per comparison. Compare ns/op
// and allocs/op against BenchmarkRowSortLimit.
func BenchmarkVecSortLimit(b *testing.B) {
	c, root := vecSortBenchSetup(b)
	if _, err := logical.ExecVec(root, c, 1); err != nil { // warm fragment cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := logical.ExecVec(root, c, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRowSortLimit is the row-interpreter baseline for the same
// tree: table.Sort clones the rows and boxes two Values through
// table.Compare on every comparison of the sort.
func BenchmarkRowSortLimit(b *testing.B) {
	c, root := vecSortBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := logical.Exec(root, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVecFilterKinds times the vectorized filter kernel on each of
// its typed paths — int and float ranges, a coded-string equality, a
// string range, a date and CONTAINS (each decided once per dictionary
// entry), a bool and a boxed column (mixed kinds, read through
// Pred.Match) — one sub-benchmark each, as COUNT(*) over one predicate
// on an 8192-row table holding a column of every kind, at one worker.
func BenchmarkVecFilterKinds(b *testing.B) {
	t := table.New("kinds", table.Schema{
		{Name: "i", Type: table.TypeInt},
		{Name: "f", Type: table.TypeFloat},
		{Name: "s", Type: table.TypeString},
		{Name: "d", Type: table.TypeDate},
		{Name: "ok", Type: table.TypeBool},
		{Name: "x", Type: table.TypeFloat},
	})
	regions := []string{"north", "south", "east", "west", "central"}
	for i := 0; i < 8192; i++ {
		t.MustAppend([]table.Value{
			table.I(int64(i % 101)),
			table.F(float64(i%1009) * 0.75),
			table.S(regions[i%len(regions)]),
			table.D(fmt.Sprintf("2024-%02d-%02d", i%12+1, i%28+1)),
			table.B(i%3 == 0),
			table.F(float64(i % 97)),
		})
	}
	for i, row := range t.Rows {
		if i%2 == 0 {
			row[5] = table.I(int64(i % 97)) // an int among floats boxes the column
		}
	}
	c := table.NewCatalog()
	c.Put(t)
	if b0 := c.FragsOf("kinds").Batches[0]; b0.Cols[2].Codes == nil || b0.Cols[5].Boxed == nil {
		b.Fatal("the string column is not coded or the mixed column is not boxed")
	}
	for _, k := range []struct {
		name string
		pred table.Pred
	}{
		{"int_range", table.Pred{Col: "i", Op: table.OpGt, Val: table.I(40)}},
		{"float_range", table.Pred{Col: "f", Op: table.OpLe, Val: table.F(300)}},
		{"coded_eq", table.Pred{Col: "s", Op: table.OpEq, Val: table.S("east")}},
		{"string_range", table.Pred{Col: "s", Op: table.OpLt, Val: table.S("north")}},
		{"date", table.Pred{Col: "d", Op: table.OpGe, Val: table.D("2024-07-01")}},
		{"bool", table.Pred{Col: "ok", Op: table.OpEq, Val: table.B(true)}},
		{"contains", table.Pred{Col: "s", Op: table.OpContains, Val: table.S("ST")}},
		{"boxed", table.Pred{Col: "x", Op: table.OpGt, Val: table.F(50)}},
	} {
		root := &logical.Node{Op: logical.OpAggregate, Aggs: []table.Agg{{Func: table.AggCount}},
			In: []*logical.Node{{Op: logical.OpFilter, Preds: []table.Pred{k.pred},
				In: []*logical.Node{{Op: logical.OpScan, Table: "kinds"}}}}}
		b.Run(k.name, func(b *testing.B) {
			if _, err := logical.ExecVec(root, c, 1); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := logical.ExecVec(root, c, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// analyticFixture builds the 65 536-row fact table (256 fragments, NULL
// revenue every 67th row) the analytic statement shapes run over, behind
// a federated executor on the memory backend.
func analyticFixture(tb testing.TB) (*federate.Executor, *table.Catalog) {
	tb.Helper()
	c := table.NewCatalog()
	t := table.New("facts", table.Schema{
		{Name: "region", Type: table.TypeString},
		{Name: "sku", Type: table.TypeString},
		{Name: "units", Type: table.TypeInt},
		{Name: "revenue", Type: table.TypeFloat},
	})
	regions := []string{"north", "south", "east", "west", "central", "coastal", "alpine", "island"}
	for i := 0; i < 65536; i++ {
		rev := table.F(float64((i*7919)%10007) * 0.5)
		if i%67 == 66 {
			rev = table.Null(table.TypeFloat)
		}
		t.MustAppend([]table.Value{
			table.S(regions[(i*31)%len(regions)]),
			table.S(fmt.Sprintf("SKU-%04d", i/64)),
			table.I(int64(1 + (i*13)%100)),
			rev,
		})
	}
	c.Put(t)
	return federate.New(c.Epoch, federate.Options{}, federate.NewMemory(c)), c
}

// analyticShape is one analytic statement over the facts table: the tree
// above its scan and the rows it returns.
type analyticShape struct {
	wantRows int
	root     func(scan *logical.Node) *logical.Node
}

// optimize plants the shape on a scan of facts and optimizes it against
// c's statistics.
func (s analyticShape) optimize(c *table.Catalog) *logical.Optimized {
	return logical.Optimize(s.root(&logical.Node{Op: logical.OpScan, Table: "facts"}), logical.CatalogStats(c))
}

// topKShape is SELECT sku, revenue ... ORDER BY revenue DESC LIMIT 100:
// the top-k and the projection ride the fragment scan, where the top-k
// kernel reads the revenue column of the cached fragments in place, so
// 100 rows materialize, not 65 536, and no key cell is copied; the
// residual Sort→Limit orders those 100.
var topKShape = analyticShape{100, func(scan *logical.Node) *logical.Node {
	return &logical.Node{Op: logical.OpLimit, N: 100, In: []*logical.Node{{Op: logical.OpSort,
		Keys: []table.SortKey{{Col: "revenue", Desc: true}},
		In:   []*logical.Node{{Op: logical.OpProject, Proj: []string{"sku", "revenue"}, In: []*logical.Node{scan}}}}}}
}}

// filteredTopKShape is SELECT region, sku, units ... WHERE units > 95
// ORDER BY region, units DESC LIMIT 200, the workload's filtered top-k:
// the filter, the top-k and the projection all ride the fragment scan,
// so the top-k reads the filter's selection vectors in place and 200
// rows materialize, not every survivor.
var filteredTopKShape = analyticShape{200, func(scan *logical.Node) *logical.Node {
	return &logical.Node{Op: logical.OpLimit, N: 200, In: []*logical.Node{{Op: logical.OpSort,
		Keys: []table.SortKey{{Col: "region"}, {Col: "units", Desc: true}},
		In: []*logical.Node{{Op: logical.OpProject, Proj: []string{"region", "sku", "units"},
			In: []*logical.Node{{Op: logical.OpFilter,
				Preds: []table.Pred{{Col: "units", Op: table.OpGt, Val: table.I(95)}},
				In:    []*logical.Node{scan}}}}}}}}
}}

// distinctShape is SELECT DISTINCT region: the pending projection plus
// the selection-vector distinct kernel over the cached fragments — 8 rows
// materialize.
var distinctShape = analyticShape{8, func(scan *logical.Node) *logical.Node {
	return &logical.Node{Op: logical.OpDistinct,
		In: []*logical.Node{{Op: logical.OpProject, Proj: []string{"region"}, In: []*logical.Node{scan}}}}
}}

// filteredGroupByShape is SELECT region, SUM(revenue) ... WHERE units >
// 10 GROUP BY region, wholly pushed into the fragment: the filter's
// selection vectors feed the aggregate in place over the cached
// fragments, with no row table between them.
var filteredGroupByShape = analyticShape{8, func(scan *logical.Node) *logical.Node {
	return &logical.Node{Op: logical.OpAggregate, GroupBy: []string{"region"},
		Aggs: []table.Agg{{Func: table.AggSum, Col: "revenue", As: "result"}},
		In: []*logical.Node{{Op: logical.OpFilter,
			Preds: []table.Pred{{Col: "units", Op: table.OpGt, Val: table.I(10)}},
			In:    []*logical.Node{scan}}}}
}}

// groupBySkuShape is SELECT sku, SUM(units) ... GROUP BY sku, the
// workload's high-cardinality group-by: 1 024 groups, each a run of 64
// rows, so a 256-row fragment holds 4 of them — pushed whole into the
// fragment, the aggregate reads the cached fragments' dictionary codes.
var groupBySkuShape = analyticShape{1024, func(scan *logical.Node) *logical.Node {
	return &logical.Node{Op: logical.OpAggregate, GroupBy: []string{"sku"},
		Aggs: []table.Agg{{Func: table.AggSum, Col: "units", As: "result"}},
		In:   []*logical.Node{scan}}
}}

// benchFederatedAnalytic times one analytic shape the way production
// runs it: optimized, then through Executor.ExecuteIR on the memory
// backend — planning, the fragment scan, the boundary and the vectorized
// residual together, which the logical.ExecVec benches above never
// cross. Each execution scans the whole table exactly once (asserted by
// TestExactGates).
func benchFederatedAnalytic(b *testing.B, shape analyticShape) {
	b.Helper()
	fed, c := analyticFixture(b)
	opt := shape.optimize(c)
	b.ReportAllocs()
	benchScanned(b, fed, opt, shape.wantRows)
}

func BenchmarkFederatedTopK(b *testing.B)            { benchFederatedAnalytic(b, topKShape) }
func BenchmarkFederatedFilteredTopK(b *testing.B)    { benchFederatedAnalytic(b, filteredTopKShape) }
func BenchmarkFederatedDistinct(b *testing.B)        { benchFederatedAnalytic(b, distinctShape) }
func BenchmarkFederatedFilteredGroupBy(b *testing.B) { benchFederatedAnalytic(b, filteredGroupByShape) }
func BenchmarkFederatedGroupBySku(b *testing.B)      { benchFederatedAnalytic(b, groupBySkuShape) }

// rollupBenchSetup builds the dashboard-aggregate fixture: an 8192-row
// fact table over 5 regions, a federated executor over its catalog, and
// the optimized plan for the unfiltered group-by aggregate, and the
// reference evaluator's answer to that aggregate. With withRollup, a
// region-grain rollup is registered first, so the rollup pass routes
// the aggregate onto the 5-row materialization; without, the same plan
// aggregates the base table.
func rollupBenchSetup(tb testing.TB, withRollup bool) (*federate.Executor, *logical.Optimized, *table.Table) {
	tb.Helper()
	c := table.NewCatalog()
	t := table.New("rollup_facts", table.Schema{
		{Name: "region", Type: table.TypeString},
		{Name: "units", Type: table.TypeInt},
		{Name: "revenue", Type: table.TypeFloat},
	})
	regions := []string{"north", "south", "east", "west", "central"}
	for i := 0; i < 8192; i++ {
		rev := table.F(float64(i%1009) * 0.75)
		if i%67 == 0 {
			rev = table.Null(table.TypeFloat)
		}
		t.MustAppend([]table.Value{table.S(regions[i%len(regions)]), table.I(int64(i % 101)), rev})
	}
	c.Put(t)
	if withRollup {
		if err := c.AddRollup(table.RollupDef{
			Name:    "facts_by_region",
			Base:    "rollup_facts",
			GroupBy: []string{"region"},
			Aggs: []table.Agg{
				{Func: table.AggSum, Col: "revenue"},
				{Func: table.AggCount, Col: "", As: "n"},
			},
		}); err != nil {
			tb.Fatal(err)
		}
	}
	root := &logical.Node{Op: logical.OpAggregate, GroupBy: []string{"region"},
		Aggs: []table.Agg{
			{Func: table.AggSum, Col: "revenue"},
			{Func: table.AggCount, Col: "", As: "n"},
		},
		In: []*logical.Node{{Op: logical.OpScan, Table: "rollup_facts"}}}
	opt := logical.Optimize(root, logical.CatalogStats(c))
	fed := federate.New(c.Epoch, federate.Options{}, federate.NewMemory(c))
	want, err := refeval.Eval(root, c)
	if err != nil {
		tb.Fatal(err)
	}
	return fed, opt, want
}

// BenchmarkRollupRoutedAggregate executes the group-by aggregate after
// rollup routing: the optimizer rewrote it onto the materialized 5-row
// rollup, so each execution scans exactly the group count instead of
// the 8192-row base table. Compare ns/op against
// BenchmarkUnroutedAggregate; TestExactGates asserts the 5 and the 8192.
func BenchmarkRollupRoutedAggregate(b *testing.B) {
	fed, opt, want := rollupBenchSetup(b, true)
	if len(opt.Rollups) != 1 {
		b.Fatalf("aggregate not routed: %v", opt.Trace)
	}
	benchScanned(b, fed, opt, want.Len())
}

// BenchmarkUnroutedAggregate is the same plan over the same catalog
// without a registered rollup: every execution re-aggregates all 8192
// base rows.
func BenchmarkUnroutedAggregate(b *testing.B) {
	fed, opt, _ := rollupBenchSetup(b, false)
	if len(opt.Rollups) != 0 {
		b.Fatalf("unexpected routing: %v", opt.Rollups)
	}
	benchScanned(b, fed, opt, 5)
}

// factsCSV renders n rows of the repository benchmark's facts shape:
// two low-cardinality string columns, an int, and a float that is NULL
// on every 67th row.
func factsCSV(n int) string {
	regions := []string{"north", "south", "east", "west", "central", "coastal", "alpine", "island"}
	var buf strings.Builder
	buf.WriteString("region,sku,units,revenue\n")
	for i := 0; i < n; i++ {
		rev := ""
		if i%67 != 66 {
			rev = fmt.Sprintf("%d.00", (1+i%100)*(5+i/64%95))
		}
		fmt.Fprintf(&buf, "%s,SKU-%04d,%d,%s\n", regions[i*7%len(regions)], i/64, 1+i%100, rev)
	}
	return buf.String()
}

// BenchmarkBuildFacts is sql_analytic's set-up through the public API:
// the default e-commerce corpus plus a 65 536 × 4 table, Add* then
// Build. Nearly all of it is the table's rows becoming row vertices —
// rendered by internal/store, tagged by internal/slm, replayed by
// internal/index — which is where the allocations it reports are made.
func BenchmarkBuildFacts(b *testing.B) {
	build := buildFacts(b)
	var rows int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = build().Stats().Rows
	}
	b.StopTimer()
	if rows < 65536 {
		b.Fatalf("index holds %d row vertices, want the facts table's 65536 and more", rows)
	}
}

// buildFacts renders BenchmarkBuildFacts' inputs once and returns the
// set-up it times: a new System, the corpus vocabulary, its documents
// and the CSV tables added, then Build.
func buildFacts(tb testing.TB) func() *System {
	tb.Helper()
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	csvs := analyticCSVs(tb, c)
	var docs []store.Record
	for _, s := range c.Sources.Sources() {
		if s.Kind() == store.KindText {
			docs = append(docs, s.Records()...)
		}
	}
	vocab := c.Vocab()
	return func() *System {
		sys := New()
		for kind, phrases := range vocab {
			sys.Vocabulary(VocabKind(kind), phrases...)
		}
		for _, d := range docs {
			if err := sys.AddDocument(d.Source, d.ID, d.Text); err != nil {
				tb.Fatal(err)
			}
		}
		for _, t := range csvs {
			if err := sys.AddCSV(t.name, strings.NewReader(t.data)); err != nil {
				tb.Fatal(err)
			}
		}
		if err := sys.Build(); err != nil {
			tb.Fatal(err)
		}
		return sys
	}
}

// namedCSV is one table for AddCSV.
type namedCSV struct{ name, data string }

// analyticCSVs is sql_analytic's tables as CSV: the 65 536-row facts
// table, then the native tables of the e-commerce corpus c.
func analyticCSVs(tb testing.TB, c *workload.Corpus) []namedCSV {
	tb.Helper()
	csvs := []namedCSV{{"facts", factsCSV(65536)}}
	native := c.NativeCatalog()
	for _, name := range native.Names() {
		t, err := native.Get(name)
		if err != nil {
			tb.Fatal(err)
		}
		var buf bytes.Buffer
		if err := t.WriteCSV(&buf); err != nil {
			tb.Fatal(err)
		}
		csvs = append(csvs, namedCSV{name, buf.String()})
	}
	return csvs
}

// analyticMixJoin is the join the analytic mix's join statements share.
const analyticMixJoin = "FROM sales JOIN products ON sales.product = products.product"

// analyticMix is the repository benchmark's sql_analytic statement mix,
// one named statement per shape.
var analyticMix = []struct{ name, sql string }{
	{"eq_sum", "SELECT SUM(revenue) AS result FROM facts WHERE sku = 'SKU-0421'"},
	{"range_sum", "SELECT SUM(units) AS result FROM facts WHERE sku >= 'SKU-0300' AND sku <= 'SKU-0310'"},
	{"eq_count", "SELECT COUNT(*) AS n FROM facts WHERE sku = 'SKU-0777' AND units > 50"},
	{"join_filter", "SELECT products.manufacturer, sales.revenue " + analyticMixJoin + " WHERE quarter = 'Q4'"},
	{"count_units", "SELECT COUNT(*) AS n FROM facts WHERE units > 90"},
	{"group_sku", "SELECT sku, SUM(units) AS result FROM facts GROUP BY sku"},
	{"distinct_region", "SELECT DISTINCT region FROM facts"},
	{"join_group", "SELECT manufacturer, SUM(revenue) AS result " + analyticMixJoin + " GROUP BY manufacturer"},
	{"filtered_group_region", "SELECT region, SUM(revenue) AS result FROM facts WHERE units > 10 GROUP BY region"},
	{"topk", "SELECT sku, revenue FROM facts ORDER BY revenue DESC LIMIT 100"},
	{"filtered_topk", "SELECT region, sku, units FROM facts WHERE units > 95 ORDER BY region, units DESC LIMIT 200"},
	{"rows_slice", "SELECT SUM(units) AS result FROM facts ROWS 20000 TO 28000 WHERE region = 'east'"},
}

// analyticSystem builds the system the analytic mix runs on: the 65 536-row
// facts table loaded by AddCSV beside the e-commerce corpus's native
// tables.
func analyticSystem(tb testing.TB) *System {
	tb.Helper()
	sys := New()
	for _, t := range analyticCSVs(tb, workload.ECommerce(workload.DefaultECommerceOptions())) {
		if err := sys.AddCSV(t.name, strings.NewReader(t.data)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := sys.Build(); err != nil {
		tb.Fatal(err)
	}
	return sys
}

// BenchmarkQueryAnalyticMix times each statement shape of the
// repository benchmark's sql_analytic mix (analyticMix) through
// System.Query, one sub-benchmark per statement, over analyticSystem.
// The system is built once; the first run of each statement fills the
// plan cache, as a pass of the workload does. A statement's share of a
// pass is its ns/op over the sum of all twelve.
func BenchmarkQueryAnalyticMix(b *testing.B) {
	sys := analyticSystem(b)
	for _, st := range analyticMix {
		b.Run(st.name, func(b *testing.B) {
			if res, err := sys.Query(st.sql); err != nil || len(res.Rows) == 0 {
				b.Fatalf("%s: %d rows, error %v", st.sql, len(res.Rows), err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Query(st.sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIndexBuildFacts is the index builder alone over
// BenchmarkBuildFacts' facts table: index.Builder.Build of a 65 536-row
// relational store under the e-commerce vocabulary. All but a few of the
// vertices it inserts are rows, so its B/op and allocs/op are the
// graph's cost per row vertex.
func BenchmarkIndexBuildFacts(b *testing.B) {
	builder, sources := indexBuildFacts(b, index.DefaultOptions())
	var g *graph.Graph
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g, _, err = builder.Build(sources); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if rows := g.CountByType()[graph.NodeRow]; rows != 65536 {
		b.Fatalf("index holds %d row vertices, want 65536", rows)
	}
}

// indexBuildFacts is BenchmarkIndexBuildFacts' builder, under opts, and
// its sources: the facts table registered in a catalog behind a
// relational store.
func indexBuildFacts(tb testing.TB, opts index.Options) (*index.Builder, *store.Multi) {
	tb.Helper()
	ner := slm.NewNER()
	workload.ECommerce(workload.DefaultECommerceOptions()).Register(ner)
	facts, err := table.ReadCSV("facts", strings.NewReader(factsCSV(65536)), nil)
	if err != nil {
		tb.Fatal(err)
	}
	cat := table.NewCatalog()
	cat.Put(facts)
	return index.NewBuilder(ner, opts), store.NewMulti().Add(store.NewRelationalStore("warehouse", cat))
}

// BenchmarkRecognizeRowText tags one rendered facts row under the
// e-commerce vocabulary — the call Build makes once per table row.
func BenchmarkRecognizeRowText(b *testing.B) {
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	ner := slm.NewNER()
	c.Register(ner)
	facts, err := table.ReadCSV("facts", strings.NewReader(factsCSV(1)), nil)
	if err != nil {
		b.Fatal(err)
	}
	cat := table.NewCatalog()
	cat.Put(facts)
	text := store.NewRelationalStore("db", cat).Records()[0].Text
	var ents []slm.Entity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ents = ner.Recognize(text)
	}
	b.StopTimer()
	if len(ents) != 1 || ents[0].Type != slm.EntID {
		b.Fatalf("%q tagged %+v, want the sku as its one ID", text, ents)
	}
}
