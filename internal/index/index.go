// Package index builds the semantic-aware heterogeneous graph index of
// paper Section III.A from heterogeneous sources: it chunks documents,
// tags entities with the (simulated) SLM, infers relational cues, and
// links text chunks, named entities, cues and structured records into
// one graph.Graph.
//
// Ablation switches (DisableCues, DisableEntityNodes) exist so
// experiment E7 can measure each component's contribution.
package index

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/chunk"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/slm"
	"repro/internal/store"
)

// Options configures a Builder.
type Options struct {
	Chunk              chunk.Options
	DisableCues        bool // ablation: skip relational-cue inference
	DisableEntityNodes bool // ablation: chunk-only graph

	// Workers bounds the analysis worker pool used by Build: the
	// per-record chunking and SLM tagging run concurrently, while graph
	// mutation replays sequentially in record order so the result is
	// byte-identical to a sequential build. 0 means GOMAXPROCS; 1 forces
	// the fully sequential path.
	Workers int
}

// DefaultOptions returns the standard build configuration.
func DefaultOptions() Options {
	return Options{Chunk: chunk.DefaultOptions()}
}

// Stats reports what a build produced and what it cost.
type Stats struct {
	Docs       int
	Chunks     int
	Entities   int
	Cues       int
	Rows       int
	Nodes      int
	Edges      int
	BuildTime  time.Duration
	ModelCalls int64
	SizeBytes  int64
}

// String renders the stats one-line.
func (s Stats) String() string {
	return fmt.Sprintf("docs=%d chunks=%d entities=%d cues=%d rows=%d nodes=%d edges=%d bytes=%d time=%v calls=%d",
		s.Docs, s.Chunks, s.Entities, s.Cues, s.Rows, s.Nodes, s.Edges, s.SizeBytes, s.BuildTime, s.ModelCalls)
}

// Builder constructs graph indexes.
type Builder struct {
	ner     *slm.NER
	chunker *chunk.Chunker
	opts    Options
	cost    *slm.CostModel
}

// NewBuilder returns a builder using the given recognizer.
func NewBuilder(ner *slm.NER, opts Options) *Builder {
	return &Builder{ner: ner, chunker: chunk.New(opts.Chunk), opts: opts}
}

// WithCost attaches a cost model for build accounting. It returns b.
func (b *Builder) WithCost(c *slm.CostModel) *Builder {
	b.cost = c
	return b
}

// EntityNodeID returns the graph node id for a canonical entity.
func EntityNodeID(canonical string) string { return "ent:" + canonical }

// Build indexes all records of the source group into a fresh graph.
//
// The expensive per-record work — chunking and SLM entity tagging — runs
// on a bounded worker pool (Options.Workers); graph mutation then
// replays sequentially in record order, so the built graph is identical
// to a Workers=1 build.
func (b *Builder) Build(m *store.Multi) (*graph.Graph, Stats, error) {
	start := time.Now()
	g := graph.New()
	var stats Stats
	var callsBefore int64
	if b.cost != nil {
		callsBefore = b.cost.TotalCalls()
	}

	cueCounts := make(map[string]int) // "e1\x1fverb\x1fe2" -> count

	records := m.Records()
	analyses := b.analyzeAll(records)
	ids := entityIDs{}
	for i, rec := range records {
		switch rec.Kind {
		case store.KindText:
			if err := b.applyDocument(g, rec, analyses[i], cueCounts, &stats); err != nil {
				return nil, stats, err
			}
		default:
			if err := b.applyRecord(g, rec, analyses[i], ids, &stats); err != nil {
				return nil, stats, err
			}
		}
	}

	if !b.opts.DisableCues && !b.opts.DisableEntityNodes {
		b.materializeCues(g, cueCounts, &stats)
	}

	stats.Nodes = g.NodeCount()
	stats.Edges = g.EdgeCount()
	stats.Entities = g.CountByType()[graph.NodeEntity]
	stats.SizeBytes = g.SizeBytes()
	stats.BuildTime = time.Since(start)
	if b.cost != nil {
		stats.ModelCalls = b.cost.TotalCalls() - callsBefore
	}
	return g, stats, nil
}

// applyDocument replays an analyzed unstructured document into the
// graph: chunk nodes, entity links, and intra-sentence cue candidates.
// All SLM work already happened in analyzeRecord; this function only
// mutates the graph and must run single-threaded in record order.
func (b *Builder) applyDocument(g *graph.Graph, rec store.Record, an recordAnalysis, cueCounts map[string]int, stats *Stats) error {
	docID := "doc:" + rec.ID
	if err := g.EnsureNode(graph.Node{ID: docID, Type: graph.NodeDoc, Label: rec.ID}); err != nil {
		return fmt.Errorf("index: %w", err)
	}
	stats.Docs++

	var prevChunkID string
	for _, ca := range an.chunks {
		chunkID := "chunk:" + ca.chunk.ID
		if err := g.EnsureNode(graph.Node{
			ID: chunkID, Type: graph.NodeChunk, Label: ca.chunk.ID,
			Text: ca.chunk.Text, Doc: rec.ID,
		}); err != nil {
			return fmt.Errorf("index: %w", err)
		}
		stats.Chunks++
		if err := g.AddEdge(graph.Edge{From: chunkID, To: docID, Type: graph.EdgePartOf}); err != nil {
			return fmt.Errorf("index: %w", err)
		}
		if prevChunkID != "" {
			if err := g.AddUndirected(graph.Edge{From: prevChunkID, To: chunkID, Type: graph.EdgeNextTo, Weight: 0.5}); err != nil {
				return fmt.Errorf("index: %w", err)
			}
		}
		prevChunkID = chunkID

		if b.opts.DisableEntityNodes {
			continue
		}
		// The chunk node is always created by this call, so mentions
		// dedup needs only a local set, not an adjacency scan.
		mentioned := make(map[string]bool)
		for _, sa := range ca.sents {
			for _, e := range sa.ents {
				entID := EntityNodeID(e.Canonical)
				if err := g.EnsureNode(graph.Node{ID: entID, Type: graph.NodeEntity, Label: e.Canonical, EType: string(e.Type)}); err != nil {
					return fmt.Errorf("index: %w", err)
				}
				if !mentioned[entID] {
					mentioned[entID] = true
					if err := g.AddUndirected(graph.Edge{From: chunkID, To: entID, Type: graph.EdgeMentions}); err != nil {
						return fmt.Errorf("index: %w", err)
					}
				}
			}
			if !b.opts.DisableCues {
				collectCues(sa.verb, sa.ents, chunkID, cueCounts)
			}
		}
	}
	return nil
}

// entityIDs memoises EntityNodeID per distinct canonical over one build,
// so a replay that meets an entity again — a facts table names each SKU
// in many rows — reuses its node id instead of building it again. A nil
// memo builds every id.
type entityIDs map[string]string

func (m entityIDs) of(canonical string) string {
	if id, ok := m[canonical]; ok {
		return id
	}
	id := EntityNodeID(canonical)
	if m != nil {
		m[canonical] = id
	}
	return id
}

// applyRecord replays one analyzed structured/semi-structured record as
// a row node linked to entity nodes matching its field values; ids
// memoises the entity node ids across the records of a build.
func (b *Builder) applyRecord(g *graph.Graph, rec store.Record, an recordAnalysis, ids entityIDs, stats *Stats) error {
	rowID := "row:" + rec.ID
	if err := g.EnsureNode(graph.Node{ID: rowID, Type: graph.NodeRow, Label: rec.ID, Text: rec.Text}); err != nil {
		return fmt.Errorf("index: %w", err)
	}
	stats.Rows++

	if b.opts.DisableEntityNodes {
		return nil
	}
	// Link the row to entities recognized in its rendered text, giving
	// cross-modal connectivity, once per distinct entity in the order
	// the entities were recognized. A row holds a few entities, so an
	// earlier mention is found by looking back.
	for i, e := range an.ents {
		if slices.ContainsFunc(an.ents[:i], func(p slm.Entity) bool { return p.Canonical == e.Canonical }) {
			continue
		}
		entID := ids.of(e.Canonical)
		if err := g.EnsureNode(graph.Node{ID: entID, Type: graph.NodeEntity, Label: e.Canonical, EType: string(e.Type)}); err != nil {
			return fmt.Errorf("index: %w", err)
		}
		if err := g.AddUndirected(graph.Edge{From: rowID, To: entID, Type: graph.EdgeMentions}); err != nil {
			return fmt.Errorf("index: %w", err)
		}
	}
	return nil
}

// cueVerbs are the relation-bearing verbs that create cue nodes
// ("Customer X purchased Product Y", "Patient X received Drug Y").
var cueVerbs = map[string]bool{
	"purchased": true, "bought": true, "ordered": true, "sold": true,
	"received": true, "prescribed": true, "administered": true,
	"reported": true, "experienced": true, "developed": true,
	"rated": true, "reviewed": true, "returned": true,
	"treated": true, "diagnosed": true, "caused": true, "reduced": true,
	"increased": true, "decreased": true, "launched": true,
}

// cueVerb returns the first relation-bearing verb of the sentence, or
// "cooccurs" when none matches. It is pure analysis (tokenization only)
// and safe to run concurrently.
func cueVerb(sentence string) string {
	for w := range slm.WordsOf(sentence) {
		if cueVerbs[w] {
			return w
		}
	}
	return "cooccurs"
}

// collectCues accumulates co-occurrence counts for verb-mediated entity
// pairs inside one sentence, using the verb found at analysis time.
func collectCues(verb string, ents []slm.Entity, chunkID string, cueCounts map[string]int) {
	if len(ents) < 2 || verb == "" {
		return
	}
	for i := 0; i < len(ents); i++ {
		for j := i + 1; j < len(ents); j++ {
			a, b := ents[i].Canonical, ents[j].Canonical
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			key := a + "\x1f" + verb + "\x1f" + b + "\x1f" + chunkID
			cueCounts[key]++
		}
	}
}

// cueRef is one parsed cue-count key.
type cueRef struct {
	key                 string
	e1, verb, e2, chunk string
	count               int
}

// materializeCues converts accumulated cue counts into cue nodes and
// relates edges. Keys are visited in sorted order so adjacency-list
// order — and therefore the floating-point summation order of everything
// downstream (PageRank, traversal scores) — is identical across runs and
// worker counts.
//
// Sorting makes each (e1, verb, e2) pair a contiguous group, so pair
// totals and one-time cue-node creation fall out of a single linear
// scan with no side maps; key parsing fans out across the worker pool.
func (b *Builder) materializeCues(g *graph.Graph, cueCounts map[string]int, stats *Stats) {
	keys := make([]string, 0, len(cueCounts))
	for key := range cueCounts {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	refs := make([]cueRef, len(keys))
	parseWorkers := b.opts.Workers
	if len(keys) < 1024 {
		parseWorkers = 1 // not worth the fan-out
	}
	par.ForRange(len(keys), parseWorkers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			parts := strings.SplitN(keys[i], "\x1f", 4)
			refs[i] = cueRef{key: keys[i], e1: parts[0], verb: parts[1], e2: parts[2], chunk: parts[3],
				count: cueCounts[keys[i]]}
		}
	})

	samePair := func(a, b cueRef) bool { return a.e1 == b.e1 && a.verb == b.verb && a.e2 == b.e2 }
	for start := 0; start < len(refs); {
		end, total := start, 0
		for end < len(refs) && samePair(refs[end], refs[start]) {
			total += refs[end].count
			end++
		}
		group := refs[start:end]
		r := group[0]
		start = end
		cueID := "cue:" + r.e1 + "|" + r.verb + "|" + r.e2
		// The cue may already exist from an earlier incremental ingest;
		// only create the node and its entity edges once.
		fresh := !g.HasNode(cueID)
		if fresh {
			// A declared node type is never ErrNodeTypes: every graph's
			// type table starts with them.
			_ = g.EnsureNode(graph.Node{ID: cueID, Type: graph.NodeCue, Label: r.verb, Verb: r.verb, Arg1: r.e1, Arg2: r.e2})
			stats.Cues++
			g.Reserve(cueID, 2+len(group), 2+len(group))
			w := 1.0 + float64(total)*0.1
			id1, id2 := EntityNodeID(r.e1), EntityNodeID(r.e2)
			if g.HasNode(id1) && g.HasNode(id2) {
				g.AddUndirected(graph.Edge{From: id1, To: id2, Type: graph.EdgeRelates, Weight: w})
				g.AddUndirected(graph.Edge{From: cueID, To: id1, Type: graph.EdgeCueArg})
				g.AddUndirected(graph.Edge{From: cueID, To: id2, Type: graph.EdgeCueArg})
			}
		}
		for _, gr := range group {
			if !g.HasNode(gr.chunk) {
				continue
			}
			// Keys are unique per (pair, chunk), so a cue created by
			// this call cannot see the same chunk twice — the linear
			// duplicate scan is only needed for cues that predate the
			// call (incremental re-ingest of a related document).
			if fresh || !g.HasEdge(cueID, gr.chunk, graph.EdgeCueIn) {
				g.AddUndirected(graph.Edge{From: cueID, To: gr.chunk, Type: graph.EdgeCueIn})
			}
		}
	}
}
