package core

import (
	"sort"

	"repro/internal/metrics"
	"repro/internal/retrieval"
	"repro/internal/table"
	"repro/internal/workload"
)

// QAStats aggregates answer quality over a query set.
type QAStats struct {
	N          int
	EM         float64 // mean exact match
	F1         float64 // mean token F1
	Answered   float64 // fraction with any answer
	MeanMillis float64 // mean answer latency
}

// EvaluateQA runs the pipeline over the queries and aggregates per
// class plus an "overall" entry.
func EvaluateQA(p Pipeline, queries []workload.Query) map[workload.Class]QAStats {
	acc := map[workload.Class]*QAStats{}
	overall := &QAStats{}
	get := func(c workload.Class) *QAStats {
		if acc[c] == nil {
			acc[c] = &QAStats{}
		}
		return acc[c]
	}
	for _, q := range queries {
		ans := p.Answer(q.Text)
		em, f1, answered := 0.0, 0.0, 0.0
		if ans.Answered() {
			answered = 1
			if metrics.ExactMatch(ans.Text, q.Gold) {
				em = 1
			}
			f1 = metrics.TokenF1(ans.Text, q.Gold)
		}
		for _, s := range []*QAStats{get(q.Class), overall} {
			s.N++
			s.EM += em
			s.F1 += f1
			s.Answered += answered
			s.MeanMillis += float64(ans.Latency.Microseconds()) / 1000
		}
	}
	out := map[workload.Class]QAStats{}
	finish := func(c workload.Class, s *QAStats) {
		if s.N > 0 {
			n := float64(s.N)
			s.EM /= n
			s.F1 /= n
			s.Answered /= n
			s.MeanMillis /= n
		}
		out[c] = *s
	}
	for c, s := range acc {
		finish(c, s)
	}
	finish(workload.Class("overall"), overall)
	return out
}

// RetrievalStats aggregates retrieval quality over a query set.
type RetrievalStats struct {
	N        int
	RecallAt map[int]float64
	MRR      float64
}

// EvaluateRetrieval measures recall@k (for each k) and MRR of the
// retriever against gold evidence, at record granularity.
func EvaluateRetrieval(r retrieval.Retriever, queries []workload.Query, ks []int) RetrievalStats {
	stats := RetrievalStats{RecallAt: map[int]float64{}}
	maxK := 0
	for _, k := range ks {
		if k > maxK {
			maxK = k
		}
	}
	for _, q := range queries {
		if len(q.GoldEvidence) == 0 {
			continue
		}
		ev := r.Retrieve(q.Text, maxK*4) // over-fetch; dedup shrinks it
		ids := workload.NormalizeEvidence(retrieval.IDs(ev))
		stats.N++
		for _, k := range ks {
			stats.RecallAt[k] += metrics.RecallAtK(ids, q.GoldEvidence, k)
		}
		stats.MRR += metrics.MRR(ids, q.GoldEvidence)
	}
	if stats.N > 0 {
		for _, k := range ks {
			stats.RecallAt[k] /= float64(stats.N)
		}
		stats.MRR /= float64(stats.N)
	}
	return stats
}

// ExtractionStats reports cell-level extraction quality.
type ExtractionStats struct {
	GoldFacts int
	Extracted int
	Matched   int
	Precision float64
	Recall    float64
	F1        float64
}

// EvaluateExtraction matches gold facts against the extracted catalog:
// a gold fact is recovered when its table holds a row agreeing on
// every gold cell; an extracted row is correct when it matches some
// gold fact the same way. Each extracted row can witness one fact.
func EvaluateExtraction(catalog *table.Catalog, gold []workload.GoldFact) ExtractionStats {
	stats := ExtractionStats{GoldFacts: len(gold)}

	// Group gold by table for matching.
	byTable := map[string][]workload.GoldFact{}
	var tables []string
	for _, g := range gold {
		if _, ok := byTable[g.Table]; !ok {
			tables = append(tables, g.Table)
		}
		byTable[g.Table] = append(byTable[g.Table], g)
	}
	sort.Strings(tables)

	usedRow := map[string]map[int]bool{}
	for _, name := range tables {
		tbl, err := catalog.Get(name)
		if err != nil {
			continue
		}
		if usedRow[name] == nil {
			usedRow[name] = map[int]bool{}
		}
		rows := tbl.RowView()
		for _, g := range byTable[name] {
			for ri, row := range rows {
				if usedRow[name][ri] {
					continue
				}
				if rowMatchesFact(tbl, row, g) {
					usedRow[name][ri] = true
					stats.Matched++
					break
				}
			}
		}
	}
	// Count all extracted rows across gold tables (precision
	// denominator): rows in tables the workload defines gold for.
	for _, name := range tables {
		if tbl, err := catalog.Get(name); err == nil {
			stats.Extracted += tbl.Len()
		}
	}
	if stats.Extracted > 0 {
		stats.Precision = float64(stats.Matched) / float64(stats.Extracted)
	}
	if stats.GoldFacts > 0 {
		stats.Recall = float64(stats.Matched) / float64(stats.GoldFacts)
	}
	if stats.Precision+stats.Recall > 0 {
		stats.F1 = 2 * stats.Precision * stats.Recall / (stats.Precision + stats.Recall)
	}
	return stats
}

func rowMatchesFact(tbl *table.Table, row []table.Value, g workload.GoldFact) bool {
	for col, want := range g.Cells {
		idx := tbl.Schema.ColIndex(col)
		if idx < 0 {
			return false
		}
		v := row[idx]
		if v.IsNull() {
			return false
		}
		if v.IsNumeric() {
			parsed, err := table.Parse(v.Kind(), want)
			if err != nil || !table.Equal(v, parsed) {
				return false
			}
			continue
		}
		if v.String() != want {
			return false
		}
	}
	return true
}
