package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/chunk"
	"repro/internal/entropy"
	"repro/internal/retrieval"
	"repro/internal/semop"
	"repro/internal/slm"
	"repro/internal/sql"
	"repro/internal/store"
	"repro/internal/table"
	"repro/internal/vector"
)

// ragSeed seeds the conventional-RAG baseline's sampling; its evidence
// and sample counts are Hybrid's defaults.
const ragSeed = 1

// RAG is the conventional dense-retrieval pipeline the paper positions
// against (Section I): embed everything, retrieve nearest neighbors,
// read generatively. It has no table engine, so numeric aggregation
// and joins depend entirely on some chunk containing the answer span.
type RAG struct {
	ner       *slm.NER
	dense     *retrieval.Dense
	gen       *slm.Generator
	clusterer *entropy.Clusterer
	rng       *slm.RNG
}

// NewRAG embeds the sources, chunked the default way, into an exact
// (flat) vector index and returns the baseline pipeline.
func NewRAG(sources *store.Multi, ner *slm.NER) (*RAG, error) {
	embedder := slm.NewEmbedder(slm.DefaultEmbeddingDim)
	dense, err := retrieval.NewDenseFromRecords(sources.Records(), chunk.New(chunk.DefaultOptions()), embedder, vector.NewFlat(embedder.Dim()))
	if err != nil {
		return nil, fmt.Errorf("core: rag index: %w", err)
	}
	return &RAG{
		ner:       ner,
		dense:     dense,
		gen:       slm.NewGenerator(),
		clusterer: entropy.NewClusterer(embedder),
		rng:       slm.NewRNG(ragSeed),
	}, nil
}

// Name implements Pipeline.
func (r *RAG) Name() string { return "rag" }

// Answer implements Pipeline: retrieve, then read extractively.
func (r *RAG) Answer(question string) Answer {
	start := time.Now()
	ans := Answer{}
	ans.Evidence = r.dense.Retrieve(question, defaultEvidenceK)
	cands := slm.DeriveCandidates(question, retrieval.Texts(ans.Evidence), r.ner)
	if len(cands) == 0 {
		ans.Err = fmt.Errorf("%w: %q", ErrNoAnswer, question)
	} else {
		greedy := &slm.Generator{Temperature: 0}
		ans.Text = greedy.Generate(cands, r.rng).Canonical
	}
	ans.Uncertainty = assessUncertainty(ans.Text, nil, cands, r.gen, r.clusterer, defaultEntropyM, r.rng)
	ans.Latency = time.Since(start)
	return ans
}

// TextToSQL is the classical structured-only baseline: semantic
// operator synthesis over the *native* relational catalog. Questions
// whose answers live in unstructured text fail to bind or return empty
// results — the failure mode of Section I, gap 2.
type TextToSQL struct {
	ner     *slm.NER
	catalog *table.Catalog
}

// NewTextToSQL wraps a native catalog.
func NewTextToSQL(catalog *table.Catalog, ner *slm.NER) *TextToSQL {
	return &TextToSQL{ner: ner, catalog: catalog}
}

// Name implements Pipeline.
func (t *TextToSQL) Name() string { return "text_to_sql" }

// Answer implements Pipeline: parse → bind → write SQL (Plan.ToSQL)
// → execute the SQL through the internal/sql engine. The answer's Plan
// is the generated SQL text, so this baseline is a genuine text-to-SQL
// system, not an in-memory shortcut. A plan the dialect cannot write
// answers with ToSQL's error. Plans with synthesized semi-joins exceed
// the dialect (no subqueries) and execute through the logical plan
// directly.
func (t *TextToSQL) Answer(question string) Answer {
	start := time.Now()
	ans := Answer{}
	q := semop.Parse(question, t.ner)
	plan, err := semop.Bind(q, t.catalog)
	if err != nil {
		ans.Err = err
		ans.Latency = time.Since(start)
		return ans
	}

	var res *table.Table
	if plan.JoinTable != "" {
		ans.plan = plan
		res, err = semop.Exec(plan, t.catalog)
	} else {
		var stmts []string
		if stmts, err = plan.ToSQL(); err == nil {
			ans.plan = sqlText(stmts)
			res, err = t.execSQL(stmts)
		}
	}
	if err != nil {
		ans.Err = err
		ans.Latency = time.Since(start)
		return ans
	}
	text, err := synthesize(plan, q, res)
	if err != nil {
		ans.Err = err
	} else {
		ans.Text = text
	}
	ans.Latency = time.Since(start)
	return ans
}

// sqlText is the SQL a TextToSQL plan renders to, shown as its plan:
// one statement per compared item, joined by "; ".
type sqlText []string

func (s sqlText) String() string { return strings.Join(s, "; ") }

// execSQL runs each statement and unions the results (comparison plans
// render one statement per compared item).
func (t *TextToSQL) execSQL(stmts []string) (*table.Table, error) {
	var out *table.Table
	for _, stmt := range stmts {
		res, err := sql.Exec(t.catalog, stmt)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = res
			continue
		}
		out.Rows = append(out.Rows, res.Rows...)
	}
	return out, nil
}
