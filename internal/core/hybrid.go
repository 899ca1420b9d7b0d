package core

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/entropy"
	"repro/internal/extract"
	"repro/internal/fault"
	"repro/internal/federate"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/logical"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/retrieval"
	"repro/internal/semop"
	"repro/internal/slm"
	"repro/internal/sql"
	"repro/internal/store"
	"repro/internal/table"
)

// HybridOptions configures the paper's system.
type HybridOptions struct {
	Index             index.Options
	Topology          retrieval.TopologyOptions
	EvidenceK         int    // evidence items per query (default 8)
	EntropyM          int    // samples for uncertainty scoring (default 5)
	Seed              uint64 // generator sampling seed
	DisableExtraction bool   // ablation: no Relational Table Generation

	// Workers bounds ingest parallelism: the graph build's analysis pool
	// and the Relational Table Generation pass both fan out per record /
	// per document and merge deterministically, so results are identical
	// to a sequential run. 0 means GOMAXPROCS; 1 forces sequential.
	Workers int

	// CacheSize enables an LRU answer cache of that many entries, keyed
	// by normalized question and purged on Ingest. 0 disables caching.
	CacheSize int

	// QueryTimeout bounds each federated query execution: fragment
	// scans past the deadline are cancelled and the query fails with
	// context.DeadlineExceeded. 0 means no deadline.
	QueryTimeout time.Duration

	// ScanRetries caps transient-failure retries per fragment scan
	// (capped exponential backoff between attempts). 0 uses the default
	// budget; -1 disables retries entirely.
	ScanRetries int
}

// What a zero EvidenceK and EntropyM mean, and what the RAG baseline
// runs with.
const (
	defaultEvidenceK = 8
	defaultEntropyM  = 5
)

// DefaultHybridOptions returns the standard configuration.
func DefaultHybridOptions() HybridOptions {
	return HybridOptions{
		Index: index.DefaultOptions(),
		Seed:  1,
	}
}

// Hybrid is the paper's end-to-end system: at ingest it builds the
// heterogeneous graph index and runs Relational Table Generation over
// every unstructured document; at query time it synthesizes semantic
// operators over the combined catalog, retrieves topology-guided
// evidence, and scores semantic entropy.
//
// After construction a Hybrid is safe for concurrent use: Answer and
// AnswerAll may run from any number of goroutines, interleaved with
// Ingest calls. Ingest takes the write half of an RWMutex guarding the
// graph, catalog, retriever and recognizer vocabulary; answering takes
// the read half.
// WithCost is setup-time only and must happen before concurrent use.
type Hybrid struct {
	ner       *slm.NER
	graph     *graph.Graph
	builder   *index.Builder
	extractor *extract.Engine
	retriever *retrieval.Topology
	catalog   *table.Catalog // native + extracted tables
	fed       *federate.Executor
	gen       *slm.Generator
	greedy    *slm.Generator // temperature-0 fallback decoder, cost-instrumented
	clusterer *entropy.Clusterer
	opts      HybridOptions
	rngMu     sync.Mutex
	rng       *slm.RNG
	cost      *slm.CostModel
	cache     *answerCache        // nil when disabled
	counters  *metrics.CounterSet // federated resilience counters

	// mu guards graph/catalog/retriever/ExtractCount, and the
	// recognizer's gazetteer (AddVocabulary), against writer-vs-Answer
	// races. Reading ExtractCount directly is safe only when no Ingest
	// can run concurrently; use Stats otherwise.
	mu sync.RWMutex

	buildTime    time.Duration // NewHybrid's index build; 0 on a loaded system
	ExtractCount int           // guarded by mu; extracted rows merged into the catalog
}

// init is the part of construction NewHybrid and NewHybridFromState
// share: option defaulting, the Workers fan-out, and every field that
// does not depend on where the graph and catalog come from. It fills a
// Hybrid its caller has just allocated and returns the defaulted
// options.
func (h *Hybrid) init(ner *slm.NER, opts HybridOptions) HybridOptions {
	if opts.EvidenceK <= 0 {
		opts.EvidenceK = defaultEvidenceK
	}
	if opts.EntropyM <= 0 {
		opts.EntropyM = defaultEntropyM
	}
	if opts.Workers != 0 {
		if opts.Index.Workers == 0 {
			opts.Index.Workers = opts.Workers
		}
		if opts.Topology.Workers == 0 {
			opts.Topology.Workers = opts.Workers
		}
	}
	*h = Hybrid{
		ner:       ner,
		builder:   index.NewBuilder(ner, opts.Index),
		gen:       slm.NewGenerator(),
		greedy:    &slm.Generator{Temperature: 0},
		clusterer: entropy.NewClusterer(slm.NewEmbedder(slm.DefaultEmbeddingDim)),
		opts:      opts,
		rng:       slm.NewRNG(opts.Seed),
	}
	if opts.CacheSize > 0 {
		h.cache = newAnswerCache(opts.CacheSize)
	}
	if !opts.DisableExtraction {
		h.extractor = extract.NewEngine(ner, extract.Rules()...)
	}
	return opts
}

// NewHybrid ingests the sources and returns a ready system. The
// recognizer should already carry the domain gazetteer.
func NewHybrid(sources *store.Multi, ner *slm.NER, opts HybridOptions) (*Hybrid, error) {
	h := new(Hybrid)
	opts = h.init(ner, opts)

	// Relational Table Generation reads only the source text, so it can
	// run concurrently with the graph build and the centrality prior;
	// the merge below joins on it. Workers == 1 keeps everything on the
	// calling goroutine. Either way the merged catalog is identical.
	var extractions []extract.Extraction
	extracted := func() {}
	if !opts.DisableExtraction {
		var docs []extract.Doc
		for _, s := range sources.Sources() {
			if s.Kind() != store.KindText {
				continue
			}
			for _, rec := range s.Records() {
				docs = append(docs, extract.Doc{ID: rec.ID, Text: rec.Text})
			}
		}
		if opts.Workers == 1 {
			extractions = h.extractor.ExtractDocs(docs, 1)
		} else {
			// A panic in the extraction reaches the caller at extracted,
			// where Build's recover sees it. The deferred call joins the
			// extraction on every other way out: an error or a panic of
			// the build below.
			extracted = sync.OnceFunc(par.Go(func() { extractions = h.extractor.ExtractDocs(docs, opts.Workers) }))
			defer extracted()
		}
	}

	// 1. Graph index over every source.
	g, stats, err := h.builder.Build(sources)
	if err != nil {
		return nil, fmt.Errorf("core: hybrid index: %w", err)
	}
	h.graph = g
	h.buildTime = stats.BuildTime
	h.retriever = retrieval.NewTopology(g, ner, opts.Topology)

	// 2. Catalog: native tables, materialized semi-structured sources
	// (JSON/XML become typed relations), plus SLM-generated tables
	// from every unstructured document (Relational Table Generation).
	h.catalog = table.NewCatalog()
	for _, s := range sources.Sources() {
		switch src := s.(type) {
		case *store.RelationalStore:
			for _, t := range src.Tables() {
				h.catalog.Put(t)
			}
		default:
			if s.Kind() == store.KindJSON || s.Kind() == store.KindXML {
				t, err := store.ToTable(s.Name(), s.Records())
				if err != nil {
					return nil, fmt.Errorf("core: materialize %s: %w", s.Name(), err)
				}
				if t.Len() > 0 {
					h.catalog.Put(t)
				}
			}
		}
	}
	if !opts.DisableExtraction {
		extracted()
		if err := extract.Merge(h.catalog, extractions); err != nil {
			return nil, fmt.Errorf("core: hybrid extraction: %w", err)
		}
		h.ExtractCount = len(extractions)
	}
	h.initFederation()
	return h, nil
}

// fedEpoch versions everything the federated backends read. All three
// terms are monotone nondecreasing and every Ingest advances at least
// one, so cached physical plans and materialized graph views
// invalidate on any mutation. Callers hold h.mu.
func (h *Hybrid) fedEpoch() uint64 {
	return h.catalog.Epoch() + uint64(h.graph.NodeCount()) + uint64(h.graph.EdgeCount())
}

// graphEpoch versions only what the graph-evidence views derive from.
// The views used to key on the combined federation epoch, which also
// moves on catalog-only mutations (extraction merges, CSV re-Puts) —
// rematerializing an unchanged graph for no reason. Keying on the
// graph terms alone skips those rebuilds; plan-cache invalidation
// still uses the combined fedEpoch.
func (h *Hybrid) graphEpoch() uint64 {
	return uint64(h.graph.NodeCount()) + uint64(h.graph.EdgeCount())
}

// initFederation assembles the default backend set: the in-memory
// catalog (coded columnar scans), the SQL dialect driver over the same
// catalog, and the graph-evidence views. The executor carries the
// system's resilience knobs — query deadline, retry budget — and
// reports retry/failover/breaker events into the shared counter set.
func (h *Hybrid) initFederation() {
	if h.counters == nil {
		h.counters = metrics.NewCounterSet()
	}
	retry := fault.DefaultPolicy()
	if h.opts.ScanRetries != 0 {
		retry.MaxRetries = h.opts.ScanRetries
	}
	h.fed = federate.New(h.fedEpoch, federate.Options{
		Workers:  h.opts.Workers,
		Timeout:  h.opts.QueryTimeout,
		Retry:    retry,
		Counters: h.counters,
	},
		federate.NewMemory(h.catalog),
		federate.NewSQL(h.catalog),
		federate.NewGraphEvidence(h.graph, h.graphEpoch))
}

// Metrics returns the federated resilience counters as "name=value"
// lines in sorted name order: scan retries taken, failovers routed,
// breaker transitions. Empty until a resilience event occurs.
func (h *Hybrid) Metrics() []string { return h.counters.Snapshot() }

// Federation exposes the federated executor (EXPLAIN, plan-cache
// stats, direct execution in benchmarks).
func (h *Hybrid) Federation() *federate.Executor { return h.fed }

// RegisterBackend adds a federated execution backend to the live
// system, replacing any backend with the same name. Cached plans and
// answers are invalidated; safe to call concurrently with Answer.
func (h *Hybrid) RegisterBackend(b federate.Backend) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.fed.Register(b)
	if h.cache != nil {
		h.cache.purge()
	}
}

// AddVocabulary registers gazetteer phrases on the live system. The
// recognizer's maps are read by every answer (question parsing, anchor
// selection, candidate derivation) and by Ingest, all under mu, so the
// write takes mu's write half; cached answers were tagged without the
// phrases and are dropped. Rows and chunks already indexed keep their
// tags. Safe to call concurrently with Answer, Query and Ingest.
func (h *Hybrid) AddVocabulary(t slm.EntityType, phrases ...string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ner.AddGazetteer(t, phrases...)
	if h.cache != nil {
		h.cache.purge()
	}
}

// AddRollup registers a materialized rollup on the live system's
// catalog: the materialization is built immediately, the optimizer's
// rollup pass starts routing matching aggregates onto it, and every
// subsequent catalog mutation re-materializes it synchronously. The
// catalog epoch advances, so cached physical plans and answers are
// invalidated. Safe to call concurrently with Answer/Query.
func (h *Hybrid) AddRollup(def table.RollupDef) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.catalog.AddRollup(def); err != nil {
		return err
	}
	if h.cache != nil {
		h.cache.purge()
	}
	return nil
}

// Rollups lists the registered rollup definitions, sorted by name.
// Safe to call concurrently with Ingest.
func (h *Hybrid) Rollups() []table.RollupDef {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.catalog.Rollups()
}

// DescribeRollup renders one registered rollup (definition, row count,
// epoch); an unknown name lists the known rollups. Safe to call
// concurrently with Ingest.
func (h *Hybrid) DescribeRollup(name string) (string, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out, err := h.catalog.DescribeRollup(name)
	if err != nil {
		return "", fmt.Errorf("%w (known rollups: %s)", err, strings.Join(h.catalog.RollupNames(), ", "))
	}
	return out, nil
}

// Tables lists the catalog's table names, sorted. Safe to call
// concurrently with Ingest.
func (h *Hybrid) Tables() []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.catalog.Names()
}

// RenderTable returns a rendered preview of a catalog table. Safe to
// call concurrently with Ingest.
func (h *Hybrid) RenderTable(name string) (string, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	t, err := h.catalog.Get(name)
	if err != nil {
		return "", err
	}
	return t.String(), nil
}

// DescribeTable renders a catalog table's per-column statistics and
// per-fragment zone maps; an unknown name lists the known tables. Safe
// to call concurrently with Ingest.
func (h *Hybrid) DescribeTable(name string) (string, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if _, err := h.catalog.Get(name); err != nil {
		return "", fmt.Errorf("%w (known tables: %s)", err, strings.Join(h.catalog.Names(), ", "))
	}
	return h.catalog.StatsOf(name).Describe() + "\n" + h.catalog.ZonesOf(name).Describe(), nil
}

// ExplainEvidence returns the graph path connecting the question's
// entities to an evidence item. Safe to call concurrently with Ingest.
func (h *Hybrid) ExplainEvidence(question, evidenceID string) []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.retriever.ExplainPath(question, evidenceID)
}

// GraphComponents returns the index's weakly connected components.
// Safe to call concurrently with Ingest.
func (h *Hybrid) GraphComponents() [][]string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.graph.ConnectedComponents()
}

// NewHybridFromState reconstructs a hybrid system from a previously
// built graph index and catalog (see Graph/Catalog accessors and their
// serializers) without re-ingesting sources. The recognizer must carry
// the same gazetteer used at build time, or query anchoring degrades.
func NewHybridFromState(g *graph.Graph, catalog *table.Catalog, ner *slm.NER, opts HybridOptions) *Hybrid {
	h := new(Hybrid)
	opts = h.init(ner, opts)
	h.graph, h.catalog = g, catalog
	h.retriever = retrieval.NewTopology(g, ner, opts.Topology)
	h.initFederation()
	return h
}

// WithCost attaches a cost model to the answer path — both the sampling
// generator and the greedy fallback decoder, so fallback generations
// are visible to cost accounting. It returns h.
func (h *Hybrid) WithCost(c *slm.CostModel) *Hybrid {
	h.cost = c
	h.gen.WithCost(c)
	h.greedy.WithCost(c)
	return h
}

// Name implements Pipeline.
func (h *Hybrid) Name() string { return "hybrid" }

// Catalog exposes the combined catalog (native + extracted), used by
// the extraction-quality experiment. Like Graph and Retriever it hands
// out what mu guards: safe only when no Ingest can run concurrently.
func (h *Hybrid) Catalog() *table.Catalog { return h.catalog }

// Graph exposes the built index for inspection.
func (h *Hybrid) Graph() *graph.Graph { return h.graph }

// Retriever exposes the topology retriever for the retrieval
// experiments.
func (h *Hybrid) Retriever() *retrieval.Topology { return h.retriever }

// Ingest indexes one new unstructured document into the live system:
// the graph gains its chunks/entities/cues, extraction adds its rows
// to the catalog, and the retriever's centrality prior refreshes. This
// is the paper's "real-time data analytics" path — no rebuild.
//
// Ingest may be called concurrently with Answer/AnswerAll: it holds the
// write lock for the duration of the mutation and purges the answer
// cache so no stale answer survives the new evidence.
func (h *Hybrid) Ingest(source, id, text string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.cache != nil {
		// Purge even on a failed ingest: a partial mutation (graph
		// indexed, merge failed) must not leave stale answers behind.
		defer h.cache.purge()
	}
	rec := store.Record{ID: id, Source: source, Kind: store.KindText, Text: text}
	if _, err := h.builder.IndexRecord(h.graph, rec); err != nil {
		return fmt.Errorf("core: ingest %s: %w", id, err)
	}
	if h.extractor != nil {
		extractions := h.extractor.ExtractDoc(id, text)
		if err := extract.Merge(h.catalog, extractions); err != nil {
			return fmt.Errorf("core: ingest %s: %w", id, err)
		}
		h.ExtractCount += len(extractions)
	}
	h.retriever.Refresh()
	return nil
}

// WriteState serializes the index to gw and the catalog to cw under one
// read lock, so the pair is of one epoch: no Ingest lands between the
// two or inside either. The two serializers run at once; each writer's
// error is its own, and a panic in either is the caller's.
func (h *Hybrid) WriteState(gw, cw io.Writer) (graphErr, catalogErr error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	par.ForEach(2, 2, func(i int) {
		if i == 0 {
			graphErr = h.graph.WriteJSON(gw)
		} else {
			catalogErr = h.catalog.WriteJSON(cw)
		}
	})
	return graphErr, catalogErr
}

// QueryResult is the outcome of a SQL-entry query: the result table
// plus what produced it, whose Plan is the optimized logical plan and
// whose Explain is the same logical → rules → physical EXPLAIN the NL
// path emits.
type QueryResult struct {
	Table *table.Table
	Executed
}

// Query executes one SQL SELECT through the unified pipeline: parse →
// compile to the shared logical IR → rule-based optimization →
// federated execution. Because the physical-plan cache keys on the
// canonical IR fingerprint, a SQL query and the natural-language
// question it corresponds to share one cached physical plan. Safe to
// call concurrently with Ingest.
func (h *Hybrid) Query(query string) (QueryResult, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return QueryResult{}, err
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	cat := h.catalog
	node, err := sql.Compile(stmt, cat)
	if errors.Is(err, table.ErrNoTable) {
		// Tables served only by federated backends (graph views,
		// registered external stores) resolve against the federated
		// schema surface.
		cat = h.fed.BindingCatalog()
		node, err = sql.Compile(stmt, cat)
	}
	if err != nil {
		return QueryResult{}, err
	}
	opt := logical.Optimize(node, logical.CatalogStats(cat))
	res, run, err := h.fed.ExecuteIR(opt)
	if err != nil {
		return QueryResult{}, err
	}
	// Plan renders from the executed physical plan, not the fresh
	// compilation: on a cache hit the executor may serve a
	// fingerprint-equivalent plan warmed by the other entry form, and
	// Plan must agree with Explain's "logical:" line.
	return QueryResult{Table: res, Executed: Executed{plan: run.Plan.Root, run: run}}, nil
}

// Triples exports the graph's cue layer as knowledge facts — the
// "knowledge database construction" output. Safe to call concurrently
// with Ingest.
func (h *Hybrid) Triples() []index.Triple {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return index.Triples(h.graph)
}

// Stats returns the index statistics and the extracted-row count as of
// one moment. The statistics are read from the graph, which counts its
// own nodes by type, edges and bytes — a built, a loaded and a grown
// system cannot report differently about the same graph. Safe to call
// concurrently with Ingest.
func (h *Hybrid) Stats() (index.Stats, int) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	byType := h.graph.CountByType()
	return index.Stats{
		Docs:      byType[graph.NodeDoc],
		Chunks:    byType[graph.NodeChunk],
		Entities:  byType[graph.NodeEntity],
		Cues:      byType[graph.NodeCue],
		Rows:      byType[graph.NodeRow],
		Nodes:     h.graph.NodeCount(),
		Edges:     h.graph.EdgeCount(),
		BuildTime: h.buildTime,
		SizeBytes: h.graph.SizeBytes(),
	}, h.ExtractCount
}

// Answer implements Pipeline: parse → bind → execute → synthesize,
// with graph-retrieved evidence and a generative fallback when no
// table can answer. Safe to call from any goroutine, including
// concurrently with Ingest.
func (h *Hybrid) Answer(question string) Answer {
	// Fork a per-call generator stream so concurrent Answers do not
	// race on shared RNG state; the fork point is serialized, keeping
	// single-threaded runs deterministic.
	h.rngMu.Lock()
	rng := h.rng.Fork()
	h.rngMu.Unlock()
	return h.answerWith(question, rng)
}

// answerWith is Answer with an explicit generator stream; AnswerAll
// pre-forks one stream per question in input order so batch results are
// deterministic regardless of goroutine scheduling.
func (h *Hybrid) answerWith(question string, rng *slm.RNG) Answer {
	start := time.Now()
	ans := Answer{}

	var key string
	if h.cache != nil {
		key = normalizeQuestion(question)
		if cached, ok := h.cache.get(key); ok {
			cached.Latency = time.Since(start)
			return cached
		}
	}

	// The read lock covers every structure a writer mutates: retriever
	// (centrality prior), graph (traversal), catalog (bind/exec), and the
	// recognizer's gazetteer, which tagging the question and
	// DeriveCandidates read. The memos readers fill — the retriever's
	// expansions, the recognizer's per-text words and salient spans — have
	// locks of their own; only the span memo depends on the gazetteer, so
	// AddVocabulary, holding the write half, drops it.
	var (
		epoch            uint64
		err              error
		conflicts, cands []slm.Candidate
	)
	func() {
		h.mu.RLock()
		// Released by defer: a caller may recover a panic from below (a
		// backend's Scan, a kernel), and a read lock left held would stop
		// the next Ingest for good.
		defer h.mu.RUnlock()
		if h.cache != nil {
			// Under the read lock no purge can run, so this epoch is the
			// one the evidence below is computed against.
			epoch = h.cache.snapshotEpoch()
		}
		// Retrieval anchors on the question's entities and parsing reads
		// them, so the question is tagged once for both.
		ents := h.ner.RecognizeShared(question)
		ans.Evidence = h.retriever.RetrieveTagged(question, ents, h.opts.EvidenceK)

		q := semop.ParseTagged(question, ents)
		statsCat := h.catalog
		var plan *semop.Plan
		plan, err = semop.Bind(q, h.catalog)
		if errors.Is(err, semop.ErrNoBinding) {
			// Fall back to the federated schema surface: backends beyond the
			// catalog (graph-evidence views, registered external stores) may
			// still bind the query structurally.
			if fedPlan, fedErr := semop.Bind(q, h.fed.BindingCatalog()); fedErr == nil {
				plan, err = fedPlan, nil
				statsCat = h.fed.BindingCatalog()
			}
		}
		if err == nil {
			ans.plan = plan
			// NL entry onto the shared IR: compile the bound plan, run the
			// rule passes against the catalog that bound it, execute
			// federated. The plan cache keys on the canonical IR, so the SQL
			// form of the same question (Query) reuses this physical plan.
			opt := logical.Optimize(semop.Compile(plan), logical.CatalogStats(statsCat))
			res, run, execErr := h.fed.ExecuteIR(opt)
			if execErr == nil {
				ans.run = run
				text, synthErr := synthesize(plan, q, res)
				if synthErr == nil {
					ans.Text = text
					conflicts = resultConflicts(plan, q, res)
				} else {
					err = synthErr
				}
			} else {
				err = execErr
			}
		}

		// Evidence-derived candidates feed both the generative fallback and
		// the uncertainty sample, so they are derived once — and not at all
		// when the result's own conflicts (which imply an answer) replace them.
		if len(conflicts) < 2 {
			cands = slm.DeriveCandidates(question, retrieval.Texts(ans.Evidence), h.ner)
		}
	}()

	if ans.Text == "" {
		// Generative fallback over retrieved evidence, decoded through
		// the cost-instrumented greedy generator so fallback answers
		// show up in cost accounting like every other generation.
		if len(cands) > 0 {
			ans.Text = h.greedy.Generate(cands, rng).Canonical
		} else if err != nil {
			ans.Err = err
		} else {
			ans.Err = fmt.Errorf("%w: %q", ErrNoAnswer, question)
		}
	}

	ans.Uncertainty = assessUncertainty(ans.Text, conflicts, cands, h.gen, h.clusterer, h.opts.EntropyM, rng)
	ans.Latency = time.Since(start)
	if h.cache != nil {
		h.cache.put(key, ans, epoch)
	}
	return ans
}
