// Package core assembles the paper's system (Section III.C, "Enabling
// Complex Multi-Entity QA through Hybrid Pipelines") and the two
// baselines it is evaluated against:
//
//   - Hybrid — graph index + topology retrieval + SLM table generation
//   - semantic operator synthesis + TableQA + entropy scoring. The
//     paper's contribution.
//   - RAG — dense vector retrieval + generative reading. The
//     conventional pipeline of Section I, gap 1.
//   - TextToSQL — semantic operators over native structured tables
//     only. The engine that "fail[s] to parse the unstructured
//     component" (Section I, gap 2).
//
// All three implement Pipeline, so the experiment harness treats them
// uniformly.
package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/entropy"
	"repro/internal/federate"
	"repro/internal/retrieval"
	"repro/internal/semop"
	"repro/internal/slm"
	"repro/internal/table"
)

// Answer is a pipeline's response to one question.
type Answer struct {
	Text        string               // final answer string ("" when unanswerable)
	Evidence    []retrieval.Evidence // supporting context items
	Uncertainty entropy.Report       // semantic-entropy assessment
	Latency     time.Duration        // wall-clock answer time
	Err         error                // non-nil when the pipeline could not answer
	Executed                         // the plan and federated run behind Text, if any
}

// Executed is what an answer or a query ran: the plan it shows and the
// federated run it executed. Both are kept rather than rendered, and
// Plan and Explain render them on each call. Rendering is deterministic
// and neither is mutated once run (a cached physical plan is replaced,
// never edited), so a later rendering is the string an eager one would
// have been, at any time and from any goroutine.
type Executed struct {
	plan fmt.Stringer  // nil when nothing was planned
	run  *federate.Run // nil when nothing was executed
}

// Plan renders the plan: a semantic operator pipeline, a logical plan
// or SQL text, depending on who planned it; "" when none was.
func (e Executed) Plan() string {
	if e.plan == nil {
		return ""
	}
	return e.plan.String()
}

// Explain renders the federated logical → rules → physical EXPLAIN of
// the run; "" when nothing was executed federated.
func (e Executed) Explain() string { return federate.Explain(e.run) }

// Answered reports whether the pipeline produced an answer.
func (a Answer) Answered() bool { return a.Err == nil && a.Text != "" }

// Pipeline is the common QA interface of the three systems.
type Pipeline interface {
	// Name identifies the pipeline in experiment output.
	Name() string
	// Answer resolves one natural-language question.
	Answer(question string) Answer
}

// ErrNoAnswer is returned when a pipeline cannot produce any answer.
var ErrNoAnswer = errors.New("core: no answer")

// synthesize renders an executed plan's result table as an answer
// string. The formats here are the system's answer contract; the
// workload generators produce gold strings in the same formats.
func synthesize(p *semop.Plan, q semop.Query, res *table.Table) (string, error) {
	if res == nil || res.Len() == 0 {
		return "", fmt.Errorf("%w: empty result for %q", ErrNoAnswer, q.Raw)
	}
	// Grouped aggregates and comparisons: "key: value, key: value".
	if len(p.GroupBy) > 0 && len(p.Aggs) > 0 && len(res.Schema) >= 2 {
		parts := make([]string, 0, res.Len())
		for _, row := range res.Rows {
			parts = append(parts, fmt.Sprintf("%s: %s", row[0], table.FormatValue(row[len(row)-1])))
		}
		return strings.Join(parts, ", "), nil
	}
	// Global aggregate: single value. NULL or a COUNT(*) of 0 is SQL's
	// row over no rows: Bind matched the table by schema, not by value,
	// so the table knows nothing of the entity and evidence answers.
	if len(p.Aggs) > 0 && res.Len() == 1 {
		v, ag := res.Rows[0][len(res.Rows[0])-1], p.Aggs[len(p.Aggs)-1]
		if v.IsNull() || ag.Func == table.AggCount && ag.Col == "" && v.Int() == 0 {
			return "", fmt.Errorf("%w: aggregate over no rows for %q", ErrNoAnswer, q.Raw)
		}
		return table.FormatValue(v), nil
	}
	// List intent over a known metric column: distinct sorted values.
	if q.Intent == semop.IntentList || q.Intent == semop.IntentLookup {
		col := res.Schema.ColIndex(p.MetricCol)
		if col < 0 {
			col = len(res.Schema) - 1
		}
		if q.Intent == semop.IntentLookup && res.Len() >= 1 {
			return table.FormatValue(res.Rows[0][col]), nil
		}
		seen := map[string]bool{}
		var vals []string
		for _, row := range res.Rows {
			v := table.FormatValue(row[col])
			if v != "NULL" && !seen[v] {
				seen[v] = true
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return "", fmt.Errorf("%w: all-null result for %q", ErrNoAnswer, q.Raw)
		}
		sort.Strings(vals)
		return strings.Join(vals, ", "), nil
	}
	// Fallback: first cell.
	return table.FormatValue(res.Rows[0][0]), nil
}

// assessUncertainty samples M answers around the produced answer and
// its competitors and scores their semantic entropy (Section III.D).
//
// conflicts carries distinct values the structured result itself
// disagreed on (several extracted rows answering the same lookup
// differently — the paper's "conflicting training data" case). When
// present, they compete on their observed counts and the final answer
// gets no confidence boost: the disagreement is real. Otherwise the
// produced answer dominates derived, the evidence-derived alternatives
// (slm.DeriveCandidates over the answer's evidence — the caller derives
// them once and shares them with its generative fallback).
func assessUncertainty(answerText string, conflicts, derived []slm.Candidate,
	gen *slm.Generator, clusterer *entropy.Clusterer, samples int, rng *slm.RNG) entropy.Report {

	var cands []slm.Candidate
	if len(conflicts) > 1 {
		cands = conflicts
	} else {
		cands = derived
		if len(cands) > 3 {
			cands = cands[:3]
		}
		if answerText != "" {
			boosted := []slm.Candidate{{Text: answerText, Weight: 3}}
			for _, c := range cands {
				if c.Text != answerText {
					boosted = append(boosted, slm.Candidate{Text: c.Text, Weight: c.Weight * 0.5})
				}
			}
			cands = boosted
		}
	}
	if len(cands) == 0 {
		return entropy.Report{}
	}
	gens := gen.Sample(cands, samples, rng)
	return entropy.Assess(gens, clusterer)
}

// resultConflicts extracts the distinct values a lookup/list result
// offers for the metric column, weighted by how often each occurs.
// Aggregates never conflict (one row); multi-row lookups may.
func resultConflicts(p *semop.Plan, q semop.Query, res *table.Table) []slm.Candidate {
	if res == nil || len(p.Aggs) > 0 || res.Len() < 2 {
		return nil
	}
	if q.Intent != semop.IntentLookup {
		return nil
	}
	col := res.Schema.ColIndex(p.MetricCol)
	if col < 0 {
		return nil
	}
	counts := map[string]float64{}
	var order []string
	for _, row := range res.Rows {
		v := table.FormatValue(row[col])
		if v == "NULL" {
			continue
		}
		if _, ok := counts[v]; !ok {
			order = append(order, v)
		}
		counts[v]++
	}
	if len(order) < 2 {
		return nil
	}
	cands := make([]slm.Candidate, 0, len(order))
	for _, v := range order {
		cands = append(cands, slm.Candidate{Text: v, Weight: counts[v]})
	}
	return cands
}
