// Package unisem is the public API of the SLM-driven unified semantic
// query system (reproduction of "Simplifying Data Integration:
// SLM-Driven Systems for Unified Semantic Queries Across Heterogeneous
// Databases", Lin, ICDE 2025).
//
// A System ingests heterogeneous sources — unstructured text, JSON
// logs, XML configs, and relational CSV tables — builds the
// semantic-aware heterogeneous graph index, runs SLM-driven relational
// table generation over the text, and then answers natural-language
// questions through semantic operator synthesis with topology-guided
// evidence and semantic-entropy confidence scoring.
//
// Quickstart:
//
//	sys := unisem.New()
//	sys.Vocabulary(unisem.VocabProduct, "Product Alpha")
//	sys.AddDocument("notes", "r1", "Customer C-1 rated Product Alpha 5 stars.")
//	if err := sys.Build(); err != nil { ... }
//	ans, err := sys.Ask("What is the average rating of Product Alpha?")
package unisem

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/federate"
	"repro/internal/index"
	"repro/internal/slm"
	"repro/internal/store"
	"repro/internal/table"
)

// VocabKind classifies domain vocabulary registered with Vocabulary.
type VocabKind string

// Vocabulary kinds, mapping to the recognizer's entity types.
const (
	VocabProduct      VocabKind = "product"
	VocabDrug         VocabKind = "drug"
	VocabSideEffect   VocabKind = "side_effect"
	VocabManufacturer VocabKind = "manufacturer"
	VocabPerson       VocabKind = "person"
	VocabOrg          VocabKind = "org"
)

var vocabToEntity = map[VocabKind]slm.EntityType{
	VocabProduct:      slm.EntProduct,
	VocabDrug:         slm.EntDrug,
	VocabSideEffect:   slm.EntSideEffect,
	VocabManufacturer: slm.EntManufacturer,
	VocabPerson:       slm.EntPerson,
	VocabOrg:          slm.EntOrg,
}

// Evidence is one supporting item behind an answer.
type Evidence struct {
	ID    string  // record id
	Text  string  // content
	Score float64 // relevance
	Kind  string  // "chunk" or "row"
}

// Answer is the response to one question.
type Answer struct {
	Text     string        // the answer ("" when unanswerable)
	Evidence []Evidence    // supporting context
	Entropy  float64       // semantic entropy of sampled answers
	Flagged  bool          // true when entropy exceeds the flag threshold
	Latency  time.Duration // answer wall-clock time
	Err      error         // per-question failure; Ask also returns it

	executed core.Executed
}

// Plan renders the synthesized operator pipeline; "" when the question
// bound to no table.
func (a Answer) Plan() string { return a.executed.Plan() }

// Explain renders the federated EXPLAIN of the query the answer ran:
// logical → rules → physical, estimated against actual rows; "" when no
// query ran. The answer keeps what it ran, not the text, so the text is
// built only when asked for, and is the same bytes each time.
func (a Answer) Explain() string { return a.executed.Explain() }

// Sentinel errors.
var (
	ErrNotBuilt     = errors.New("unisem: call Build before Ask")
	ErrAlreadyBuilt = errors.New("unisem: system already built")
	ErrNoAnswer     = core.ErrNoAnswer
	// ErrSnapshotMismatch is Load's refusal of a saved file whose length
	// or CRC-32C is not the one its directory's MANIFEST records.
	ErrSnapshotMismatch = errors.New("unisem: snapshot file does not match its manifest")
	// ErrInternal is what Build, Ask, AskAll, Query, Ingest, Save and
	// Load return, as an *InternalError, when the system panics inside
	// them.
	ErrInternal = errors.New("unisem: internal error")
)

// InternalError is a panic recovered at the API boundary: the method it
// ended, what it panicked with, and the canonical fingerprint of the
// plan that was executing, when one was. errors.Is(err, ErrInternal)
// holds for it, and errors.As reaches a panic value that is an error.
// The system stays usable: no lock is left held.
type InternalError struct {
	Op          string // "Ask", "AskAll", "Query", "Ingest" or "Save"
	Value       any
	Fingerprint string
}

// Error names the method and the panic value, and the plan by a hash of
// its fingerprint.
func (e *InternalError) Error() string {
	msg := fmt.Sprintf("unisem: %s: internal error: %v", e.Op, e.Value)
	if e.Fingerprint != "" {
		h := fnv.New64a()
		h.Write([]byte(e.Fingerprint))
		msg += fmt.Sprintf(" (plan %016x)", h.Sum64())
	}
	return msg
}

// Is makes every InternalError match ErrInternal.
func (e *InternalError) Is(target error) bool { return target == ErrInternal }

// Unwrap returns the panic value if it is an error.
func (e *InternalError) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}

// recoverAs is deferred by the methods that return ErrInternal: it turns
// a panic in op into an *InternalError in *err.
func recoverAs(op string, err *error) {
	v := recover()
	if v == nil {
		return
	}
	ie := &InternalError{Op: op, Value: v}
	if p, ok := v.(*federate.PlanPanic); ok {
		ie.Value, ie.Fingerprint = p.Value, p.Fingerprint
	}
	*err = ie
}

// Options configures a System.
type Options struct {
	// EvidenceK is the number of evidence items returned per answer
	// (0 means 8).
	EvidenceK int
	// EntropySamples is the number of answer samples used for
	// uncertainty scoring, the paper's M (0 means 5).
	EntropySamples int
	// FlagThreshold is the semantic-entropy level above which answers
	// are flagged for review.
	FlagThreshold float64
	// Seed drives all stochastic components.
	Seed uint64
	// Workers bounds build/ingest parallelism. Build fans out the
	// per-record SLM analysis and per-document table generation and
	// merges deterministically, so results are identical at any worker
	// count. 0 means all cores; 1 forces the sequential path.
	Workers int
	// AnswerCache enables an LRU answer cache of that many entries,
	// keyed by normalized question and invalidated on Ingest. 0
	// disables caching.
	AnswerCache int
	// QueryTimeout bounds each federated query execution: fragment
	// scans past the deadline are cancelled and the query fails. 0
	// means no deadline.
	QueryTimeout time.Duration
	// ScanRetries caps transient-failure retries per fragment scan,
	// with capped exponential backoff between attempts. 0 uses the
	// default budget; -1 disables retries.
	ScanRetries int
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	return Options{EvidenceK: 8, EntropySamples: 5, FlagThreshold: 0.7, Seed: 1}
}

// System is the unified query engine over heterogeneous sources.
// Configure (Vocabulary, Add*), then Build once, then Ask from any
// goroutine.
type System struct {
	opts     Options
	ner      *slm.NER
	texts    []*store.TextStore // first-Add order, like jsons and xmls: Build indexes in it
	jsons    []*store.JSONStore
	xmls     []*store.XMLStore
	tables   []*table.Table // AddCSV's, bare: the engine Build makes registers them, once
	built    bool
	hybrid   *core.Hybrid
	backends []federate.Backend // registered before Build, attached at Build
}

// New returns an empty system with default options.
func New() *System { return NewWithOptions(DefaultOptions()) }

// NewWithOptions returns an empty system with the given options.
func NewWithOptions(opts Options) *System {
	if opts.FlagThreshold <= 0 {
		opts.FlagThreshold = 0.7
	}
	return &System{opts: opts, ner: slm.NewNER()}
}

// Vocabulary registers domain phrases so the tagger recognizes them
// (e.g. product names, drug names). Unknown kinds register as generic
// entities.
//
// It is normally called before Build. On a built system it is safe
// beside Ask, Query and Ingest — it waits for answers in flight as
// Ingest does, and empties the answer cache — and the new phrases apply
// to questions and ingested documents from then on: rows and chunks
// already indexed keep the tags they were given.
func (s *System) Vocabulary(kind VocabKind, phrases ...string) {
	et, ok := vocabToEntity[kind]
	if !ok {
		et = slm.EntMisc
	}
	if s.built {
		s.hybrid.AddVocabulary(et, phrases...)
		return
	}
	s.ner.AddGazetteer(et, phrases...)
}

// named returns the source called name, or the zero S. Sources live in
// slices, not maps, because their order is the build order; a handful
// of entries makes the linear scan free.
func named[S interface{ Name() string }](sources []S, name string) (found S) {
	for _, x := range sources {
		if x.Name() == name {
			return x
		}
	}
	return found
}

// AddDocument adds one unstructured document to the named text source.
func (s *System) AddDocument(source, id, text string) error {
	if s.built {
		return ErrAlreadyBuilt
	}
	ts := named(s.texts, source)
	if ts == nil {
		ts = store.NewTextStore(source)
		s.texts = append(s.texts, ts)
	}
	ts.Add(id, text)
	return nil
}

// AddCSV loads a relational table from CSV (header row required; types
// inferred). Table names compare case-insensitively, and a table added
// under a name already taken replaces the earlier one.
func (s *System) AddCSV(tableName string, r io.Reader) error {
	if s.built {
		return ErrAlreadyBuilt
	}
	t, err := table.ReadCSV(tableName, r, nil)
	if err != nil {
		return fmt.Errorf("unisem: %w", err)
	}
	s.tables = append(s.tables, t)
	return nil
}

// AddJSONLines loads semi-structured records from JSON-lines input.
func (s *System) AddJSONLines(source string, r io.Reader) error {
	if s.built {
		return ErrAlreadyBuilt
	}
	js := named(s.jsons, source)
	if js == nil {
		js = store.NewJSONStore(source)
		s.jsons = append(s.jsons, js)
	}
	if err := js.LoadLines(r); err != nil {
		return fmt.Errorf("unisem: %w", err)
	}
	return nil
}

// AddXML loads semi-structured records from an XML document.
func (s *System) AddXML(source string, r io.Reader) error {
	if s.built {
		return ErrAlreadyBuilt
	}
	xs := named(s.xmls, source)
	if xs == nil {
		xs = store.NewXMLStore(source)
		s.xmls = append(s.xmls, xs)
	}
	if err := xs.Load(r); err != nil {
		return fmt.Errorf("unisem: %w", err)
	}
	return nil
}

// Build indexes everything added so far: graph construction, entity
// tagging, cue inference, and relational table generation. It must be
// called exactly once, after all sources are added. Sources are indexed
// relational → text → JSON → XML, each kind in first-Add order, so the
// same Add sequence always builds the same graph, tables and answers. A
// panic inside it, on the work it runs beside the graph build too, is
// an *InternalError, and the system stays unbuilt.
func (s *System) Build() (err error) {
	defer recoverAs("Build", &err)
	if s.built {
		return ErrAlreadyBuilt
	}
	multi := store.NewMulti()
	if len(s.tables) > 0 {
		multi.Add(store.NewRelationalTables("db", s.tables...))
	}
	for _, ts := range s.texts {
		multi.Add(ts)
	}
	for _, js := range s.jsons {
		multi.Add(js)
	}
	for _, xs := range s.xmls {
		multi.Add(xs)
	}
	h, err := core.NewHybrid(multi, s.ner, s.hybridOptions())
	if err != nil {
		return fmt.Errorf("unisem: build: %w", err)
	}
	for _, b := range s.backends {
		h.RegisterBackend(b)
	}
	s.hybrid = h
	s.built = true
	s.tables = nil // the engine's catalog holds them now
	return nil
}

// hybridOptions translates the public options for the core engine —
// the one translation Build and LoadWithOptions share.
func (s *System) hybridOptions() core.HybridOptions {
	opts := core.DefaultHybridOptions()
	opts.EvidenceK = s.opts.EvidenceK
	opts.EntropyM = s.opts.EntropySamples
	opts.Seed = s.opts.Seed
	opts.Workers = s.opts.Workers
	opts.CacheSize = s.opts.AnswerCache
	opts.QueryTimeout = s.opts.QueryTimeout
	opts.ScanRetries = s.opts.ScanRetries
	return opts
}

// RegisterBackend attaches a federated execution backend — an extra
// store the cost-based planner may route plan fragments to, alongside
// the built-in memory, SQL-dialect and graph-evidence backends. A
// backend registered before Build attaches during Build; after Build
// it joins the live system immediately (cached plans and answers are
// invalidated). Registering a backend with an existing name replaces
// it. The backend implements every method of federate.Backend: the
// planner asks it one pushdown question per operator and for its zone
// maps (nil for none), and its Scan must read only the fragment's
// Ranges when they are set — a SQL ROWS slice arrives that way.
func (s *System) RegisterBackend(b federate.Backend) {
	if !s.built {
		s.backends = append(s.backends, b)
		return
	}
	s.hybrid.RegisterBackend(b)
}

// Metrics returns the federated resilience counters as "name=value"
// lines in sorted name order — scan retries taken, failovers routed,
// circuit-breaker transitions. Empty until a resilience event occurs;
// nil before Build.
func (s *System) Metrics() []string {
	if !s.built {
		return nil
	}
	return s.hybrid.Metrics()
}

// Backends lists the federated execution backends, sorted by name;
// nil before Build.
func (s *System) Backends() []string {
	if !s.built {
		return nil
	}
	return s.hybrid.Federation().Backends()
}

// Ask answers a natural-language question. The returned error is
// non-nil only when no answer could be produced at all. Ask is safe
// from any goroutine, including concurrently with Ingest.
func (s *System) Ask(question string) (_ Answer, err error) {
	defer recoverAs("Ask", &err)
	if !s.built {
		return Answer{}, ErrNotBuilt
	}
	ans := s.fromCore(s.hybrid.Answer(question))
	return ans, ans.Err
}

// QueryResult is the outcome of a SQL-entry query.
type QueryResult struct {
	Columns  []string   // result schema, in order
	Rows     [][]string // rendered cells, row-major
	Rendered string     // aligned ASCII preview of the result table

	executed core.Executed
}

// Plan renders the optimized logical plan the query ran (the shared IR
// rendering).
func (r QueryResult) Plan() string { return r.executed.Plan() }

// Explain renders the federated EXPLAIN of the query: logical → rules →
// physical, built only when asked for.
func (r QueryResult) Explain() string { return r.executed.Explain() }

// Query executes one SQL SELECT statement through the same unified
// engine that answers natural-language questions: the statement
// compiles onto the shared logical-plan IR, runs the rule-based
// optimizer, and executes across the federated backends. A SQL query
// and the natural-language question it corresponds to share one
// cached physical plan (the cache keys on the canonical IR). Safe
// from any goroutine, including concurrently with Ingest.
func (s *System) Query(query string) (_ QueryResult, err error) {
	defer recoverAs("Query", &err)
	if !s.built {
		return QueryResult{}, ErrNotBuilt
	}
	res, err := s.hybrid.Query(query)
	if err != nil {
		return QueryResult{}, err
	}
	// Every cell is formatted once; the preview is laid out from the
	// same strings, as Table.String lays out its own.
	names, rows := res.Table.Schema.Names(), table.Cells(res.Table.Rows)
	out := QueryResult{
		Columns:  names,
		Rendered: table.Layout(names, rows[:min(len(rows), table.PreviewRows)], len(rows)),
		executed: res.Executed,
	}
	if len(rows) > 0 {
		out.Rows = rows
	}
	return out, nil
}

// AskAll answers a batch of questions with up to parallel goroutines
// (0 means all cores) and returns the answers in question order, each
// carrying its own Err. Batch results are deterministic: answer i
// matches what the i-th sequential Ask would have produced. AskAll is
// safe concurrently with Ingest.
func (s *System) AskAll(questions []string, parallel int) (_ []Answer, err error) {
	defer recoverAs("AskAll", &err)
	if !s.built {
		return nil, ErrNotBuilt
	}
	raws := s.hybrid.AnswerAll(questions, parallel)
	out := make([]Answer, len(raws))
	for i, raw := range raws {
		out[i] = s.fromCore(raw)
	}
	return out, nil
}

// fromCore converts an internal answer to the public shape.
func (s *System) fromCore(raw core.Answer) Answer {
	ans := Answer{
		Text:     raw.Text,
		Entropy:  raw.Uncertainty.SemanticH,
		Flagged:  raw.Uncertainty.Flagged(s.opts.FlagThreshold),
		Latency:  raw.Latency,
		Err:      raw.Err,
		executed: raw.Executed,
	}
	for _, e := range raw.Evidence {
		ans.Evidence = append(ans.Evidence, Evidence{ID: e.NodeID, Text: e.Text, Score: e.Score, Kind: e.Kind})
	}
	return ans
}

// Stats summarizes the built index.
type Stats struct {
	Nodes, Edges     int
	Chunks, Entities int
	Cues, Rows       int
	ExtractedRows    int
	IndexBytes       int64
	BuildTime        time.Duration
}

// Stats returns index statistics; zero before Build. The snapshot is
// consistent even while Ingest calls are in flight.
func (s *System) Stats() Stats {
	if !s.built {
		return Stats{}
	}
	is, extracted := s.hybrid.Stats()
	return Stats{
		Nodes: is.Nodes, Edges: is.Edges,
		Chunks: is.Chunks, Entities: is.Entities,
		Cues: is.Cues, Rows: is.Rows,
		ExtractedRows: extracted,
		IndexBytes:    is.SizeBytes,
		BuildTime:     is.BuildTime,
	}
}

// CacheStats reports answer-cache hits, misses and current size; all
// zeros when the cache is disabled (Options.AnswerCache == 0).
func (s *System) CacheStats() (hits, misses int64, size int) {
	if !s.built {
		return 0, 0, 0
	}
	return s.hybrid.CacheStats()
}

// Tables lists the catalog tables available to semantic operators —
// native tables plus SLM-generated ones.
func (s *System) Tables() []string {
	if !s.built {
		return nil
	}
	return s.hybrid.Tables()
}

// Table returns a rendered preview of a catalog table.
func (s *System) Table(name string) (string, error) {
	if !s.built {
		return "", ErrNotBuilt
	}
	return s.hybrid.RenderTable(name)
}

// DescribeTable renders a catalog table's planner metadata — the
// per-column statistics and per-fragment zone maps behind cost
// estimates and scan pruning (uniquery's -stats flag). Useful for
// debugging why a fragment was or was not pruned.
func (s *System) DescribeTable(name string) (string, error) {
	if !s.built {
		return "", ErrNotBuilt
	}
	return s.hybrid.DescribeTable(name)
}

// AddRollup registers a materialized rollup on a *built* system: a
// grouped aggregation over a base table the optimizer transparently
// routes matching aggregate queries onto, maintained incrementally on
// ingest (Catalog.Append) and rebuilt deterministically when its base
// table is replaced. Routed results are bit-identical to unrouted execution.
func (s *System) AddRollup(def table.RollupDef) error {
	if !s.built {
		return ErrNotBuilt
	}
	return s.hybrid.AddRollup(def)
}

// Rollups lists the registered rollup definitions, sorted by name.
func (s *System) Rollups() []table.RollupDef {
	if !s.built {
		return nil
	}
	return s.hybrid.Rollups()
}

// DescribeRollup renders one registered rollup — its definition, the
// materialization's current row count, and the catalog epoch it was
// materialized at (uniquery's -stats flag). An unknown name lists the
// known rollups, like DescribeTable's unknown-table error.
func (s *System) DescribeRollup(name string) (string, error) {
	if !s.built {
		return "", ErrNotBuilt
	}
	return s.hybrid.DescribeRollup(name)
}

// Ingest adds one unstructured document to a *built* system without a
// rebuild: the graph index, extracted tables and retrieval priors all
// update incrementally (the paper's real-time analytics direction).
// Re-ingesting an existing document id is an error.
func (s *System) Ingest(source, id, text string) (err error) {
	defer recoverAs("Ingest", &err)
	if !s.built {
		return ErrNotBuilt
	}
	return s.hybrid.Ingest(source, id, text)
}

// KnowledgeFormat selects the ExportKnowledge encoding.
type KnowledgeFormat string

// Knowledge export formats.
const (
	KnowledgeTSV  KnowledgeFormat = "tsv"
	KnowledgeJSON KnowledgeFormat = "json"
)

// ExportKnowledge writes the system's inferred knowledge facts —
// verb-mediated entity relations with source provenance — as TSV or
// JSON (the paper's "knowledge database construction" output).
func (s *System) ExportKnowledge(w io.Writer, format KnowledgeFormat) error {
	if !s.built {
		return ErrNotBuilt
	}
	triples := s.hybrid.Triples()
	switch format {
	case KnowledgeJSON:
		return index.WriteTriplesJSON(w, triples)
	case KnowledgeTSV, "":
		return index.WriteTriplesTSV(w, triples)
	default:
		return fmt.Errorf("unisem: unknown knowledge format %q", format)
	}
}

// ExplainEvidence returns the graph path connecting the question's
// entities to an evidence item, for provenance display.
func (s *System) ExplainEvidence(question, evidenceID string) []string {
	if !s.built {
		return nil
	}
	return s.hybrid.ExplainEvidence(question, evidenceID)
}

// GraphComponents returns the sizes of the index's weakly connected
// components, largest first — a quick health check of cross-modal
// linking.
func (s *System) GraphComponents() []int {
	if !s.built {
		return nil
	}
	comps := s.hybrid.GraphComponents()
	out := make([]int, len(comps))
	for i, c := range comps {
		out[i] = len(c)
	}
	return out
}
