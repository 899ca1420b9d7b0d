// Package metrics implements the evaluation measures used across the
// experiment suite: answer accuracy (exact match, token F1), retrieval
// quality (recall@k, MRR), latency percentiles, and Markdown table
// rendering for benchmark output.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/slm"
)

// normalizeAnswer lower-cases, tokenizes, and strips stopwords and
// punctuation so "The answer is 20%." matches "20%".
func normalizeAnswer(s string) []string {
	var out []string
	for w := range slm.WordsOf(s) {
		if slm.IsStopword(w) || slm.IsTemplateWord(w) {
			continue
		}
		out = append(out, w)
	}
	return out
}

// ExactMatch reports whether prediction and gold normalize to the same
// token sequence.
func ExactMatch(pred, gold string) bool {
	p, g := normalizeAnswer(pred), normalizeAnswer(gold)
	if len(p) != len(g) {
		return false
	}
	for i := range p {
		if p[i] != g[i] {
			return false
		}
	}
	return true
}

// TokenF1 returns the bag-of-tokens F1 between prediction and gold,
// the standard QA metric.
func TokenF1(pred, gold string) float64 {
	p, g := normalizeAnswer(pred), normalizeAnswer(gold)
	if len(p) == 0 && len(g) == 0 {
		return 1
	}
	if len(p) == 0 || len(g) == 0 {
		return 0
	}
	counts := map[string]int{}
	for _, w := range g {
		counts[w]++
	}
	overlap := 0
	for _, w := range p {
		if counts[w] > 0 {
			counts[w]--
			overlap++
		}
	}
	if overlap == 0 {
		return 0
	}
	prec := float64(overlap) / float64(len(p))
	rec := float64(overlap) / float64(len(g))
	return 2 * prec * rec / (prec + rec)
}

// RecallAtK returns the fraction of gold ids found in the first k
// retrieved ids. Empty gold yields 1 (nothing to find).
func RecallAtK(retrieved, gold []string, k int) float64 {
	if len(gold) == 0 {
		return 1
	}
	if k > len(retrieved) {
		k = len(retrieved)
	}
	set := map[string]bool{}
	for _, id := range retrieved[:k] {
		set[id] = true
	}
	hit := 0
	for _, g := range gold {
		if set[g] {
			hit++
		}
	}
	return float64(hit) / float64(len(gold))
}

// MRR returns the reciprocal rank of the first gold id in retrieved,
// or 0 when absent.
func MRR(retrieved, gold []string) float64 {
	set := map[string]bool{}
	for _, g := range gold {
		set[g] = true
	}
	for i, id := range retrieved {
		if set[id] {
			return 1 / float64(i+1)
		}
	}
	return 0
}

// --- latency recording ---

// Latencies accumulates durations and reports percentiles.
type Latencies struct {
	samples []time.Duration
}

// Record appends one observation.
func (l *Latencies) Record(d time.Duration) { l.samples = append(l.samples, d) }

// Percentile returns the p-th percentile (0 <= p <= 100) by
// nearest-rank; zero observations yield 0.
func (l *Latencies) Percentile(p float64) time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), l.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(p / 100 * float64(len(sorted)))
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Mean returns the mean latency.
func (l *Latencies) Mean() time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	var total time.Duration
	for _, d := range l.samples {
		total += d
	}
	return total / time.Duration(len(l.samples))
}

// --- result table rendering ---

// ResultTable renders experiment rows as a Markdown table, the format
// EXPERIMENTS.md and cmd/benchrunner print.
type ResultTable struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewResultTable returns a table with the given title and headers.
func NewResultTable(title string, headers ...string) *ResultTable {
	return &ResultTable{Title: title, Headers: headers}
}

// AddRow appends one row; cells are formatted with %v.
func (t *ResultTable) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Write renders the table as Markdown.
func (t *ResultTable) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "\n### %s\n\n", t.Title); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(t.Headers, " | ")); err != nil {
		return err
	}
	seps := make([]string, len(t.Headers))
	for i := range seps {
		seps[i] = "---"
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | ")); err != nil {
		return err
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | ")); err != nil {
			return err
		}
	}
	return nil
}

// String renders the table to a string.
func (t *ResultTable) String() string {
	var b strings.Builder
	_ = t.Write(&b)
	return b.String()
}
