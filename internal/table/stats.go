package table

import (
	"fmt"
	"slices"
	"strings"
)

// Statistics shape parameters. Exact mode keeps full per-value counts
// for low-cardinality columns (the workload's entity/quarter/category
// columns), making equality and CONTAINS estimates exact; everything
// else falls back to NDV division and equi-depth histogram
// interpolation.
const (
	// StatsMaxExact is the NDV ceiling below which a column keeps
	// exact per-value counts.
	StatsMaxExact = 64
	// StatsBuckets is the number of equi-depth histogram buckets.
	StatsBuckets = 8
)

// ValueCount is one distinct column value and its occurrence count.
type ValueCount struct {
	Val   Value
	Count int
}

// Bucket is one equi-depth histogram bucket over a column's sorted
// non-null values: it covers every value v with Lower ≤ v ≤ Upper.
// Buckets partition the value domain (a distinct value never straddles
// two buckets), so bucket counts sum to the column's non-null rows.
type Bucket struct {
	Lower Value // smallest value in the bucket
	Upper Value // largest value in the bucket
	Count int   // rows in the bucket
	NDV   int   // distinct values in the bucket
}

// ColStats summarizes one column for cardinality estimation: null and
// distinct counts, value bounds, an equi-depth histogram, and — for
// low-NDV columns — exact per-value counts.
type ColStats struct {
	Col   string
	Rows  int // table rows at build time (including nulls)
	Nulls int
	NDV   int   // distinct non-null values
	Min   Value // NULL when the column has no non-null values
	Max   Value
	Hist  []Bucket
	Exact []ValueCount // full distinct-value counts when NDV ≤ StatsMaxExact, ascending
}

// TableStats is the per-column statistics of one table, stamped with
// the catalog epoch it was built at. Built by Catalog.Put; consumed by
// the logical optimizer's selectivity model and every federated
// backend's Estimate.
type TableStats struct {
	Table string
	Rows  int
	Epoch uint64
	Cols  []ColStats // schema order
}

// Col returns the statistics of the named column (case-insensitive),
// or nil.
func (ts *TableStats) Col(name string) *ColStats {
	if ts == nil {
		return nil
	}
	for i := range ts.Cols {
		if strings.EqualFold(ts.Cols[i].Col, name) {
			return &ts.Cols[i]
		}
	}
	return nil
}

// statsFrom derives the statistics of a table shaped as t whose rows
// from row k on are rows, plus the per-column distinct runs (ascending
// (value, count) pairs covering every non-null cell) they derive from,
// given that the first k rows are unchanged since prev and prevRuns were
// derived: only rows is collected and sorted, then merged into the
// retained runs — O(d log d + NDV) per column for d appended rows. The
// full build is the k = 0 case, with no prev to merge into; it counts
// identical cells before it sorts, so its sort is over the column's
// distinct values and not its rows. Both produce bit-equal statistics
// for the same final rows.
func statsFrom(prev *TableStats, prevRuns [][]ValueCount, t *Table, k int, rows [][]Value) (*TableStats, [][]ValueCount) {
	n := k + len(rows)
	ts := &TableStats{Table: t.Name, Rows: n, Cols: make([]ColStats, len(t.Schema))}
	runs := make([][]ValueCount, len(t.Schema))
	for ci, col := range t.Schema {
		var nulls int
		runs[ci], nulls = colRuns(rows, ci, k == 0)
		if k > 0 {
			runs[ci] = mergeRuns(prevRuns[ci], runs[ci])
			nulls += prev.Cols[ci].Nulls
		}
		ts.Cols[ci] = finishColStats(col.Name, n, nulls, runs[ci])
	}
	return ts, runs
}

// colRuns collapses a column's non-null cells into ascending distinct
// runs, and counts its nulls. The cells are listed in row order — with
// count set, bit-identical cells (== on Value) share the entry of the
// first — then stable-sorted by the engine's total Compare order, and
// Compare-equal neighbours (1 and 1.0 in a mixed-kind column, −0 and +0,
// NaNs of different bits, ints one float64 stands for) merge under the
// first. The representative of a run is therefore the earliest-row value
// among equals, which is what makes incremental merging (older runs
// first) bit-equivalent to a full rebuild; counting first changes how
// many values are sorted, never the runs.
func colRuns(rows [][]Value, ci int, count bool) (runs []ValueCount, nulls int) {
	var seen map[Value]int
	if count {
		seen = make(map[Value]int)
	}
	for _, r := range rows {
		v := r[ci]
		if v.IsNull() {
			nulls++
			continue
		}
		if count {
			if i, ok := seen[v]; ok {
				runs[i].Count++
				continue
			}
			seen[v] = len(runs)
		}
		runs = append(runs, ValueCount{Val: v, Count: 1})
	}
	slices.SortStableFunc(runs, func(a, b ValueCount) int { return Compare(a.Val, b.Val) })
	merged := runs[:0]
	for _, r := range runs {
		if n := len(merged); n > 0 && Equal(r.Val, merged[n-1].Val) {
			merged[n-1].Count += r.Count
		} else {
			merged = append(merged, r)
		}
	}
	return merged, nulls
}

// mergeRuns merges two ascending distinct-run lists into a fresh one.
// Where a value appears in both, the older list's representative wins
// (its rows came first), reproducing exactly the runs a full stable
// sort of the combined rows would produce.
func mergeRuns(old, delta []ValueCount) []ValueCount {
	if len(delta) == 0 {
		return old
	}
	out := make([]ValueCount, 0, len(old)+len(delta))
	i, j := 0, 0
	for i < len(old) && j < len(delta) {
		switch c := Compare(old[i].Val, delta[j].Val); {
		case c < 0:
			out = append(out, old[i])
			i++
		case c > 0:
			out = append(out, delta[j])
			j++
		default:
			out = append(out, ValueCount{Val: old[i].Val, Count: old[i].Count + delta[j].Count})
			i++
			j++
		}
	}
	out = append(out, old[i:]...)
	out = append(out, delta[j:]...)
	return out
}

// finishColStats derives one column's statistics from its distinct
// runs — the one derivation shared by the full build and the
// incremental merge, so the two paths are bit-equivalent by
// construction (pinned by FuzzIncrementalStats).
func finishColStats(name string, totalRows, nulls int, runs []ValueCount) ColStats {
	cs := ColStats{Col: name, Rows: totalRows, Nulls: nulls}
	if len(runs) == 0 {
		return cs
	}
	nonNull := 0
	for _, r := range runs {
		nonNull += r.Count
	}
	cs.Min, cs.Max = runs[0].Val, runs[len(runs)-1].Val
	cs.NDV = len(runs)
	if cs.NDV <= StatsMaxExact {
		cs.Exact = make([]ValueCount, cs.NDV)
		copy(cs.Exact, runs)
	}

	// Equi-depth buckets: fill to the target depth, closing only on a
	// distinct-value boundary so no value straddles buckets.
	depth := (nonNull + StatsBuckets - 1) / StatsBuckets
	var b *Bucket
	for _, r := range runs {
		if b == nil {
			cs.Hist = append(cs.Hist, Bucket{Lower: r.Val})
			b = &cs.Hist[len(cs.Hist)-1]
		}
		b.Upper = r.Val
		b.Count += r.Count
		b.NDV++
		if b.Count >= depth {
			b = nil
		}
	}
	return cs
}

// EqCount returns the exact number of rows equal to v when the column
// keeps exact per-value counts; ok is false otherwise.
func (cs *ColStats) EqCount(v Value) (count int, ok bool) {
	if cs == nil || cs.Exact == nil {
		return 0, false
	}
	for _, vc := range cs.Exact {
		if Equal(vc.Val, v) {
			return vc.Count, true
		}
	}
	return 0, true // exact counts cover every distinct value: absent means zero
}

// Selectivity estimates the fraction of the column's rows (nulls
// included in the denominator, never in the numerator — NULL satisfies
// no comparison) matching the predicate. ok is false when the
// statistics cannot judge the operator, in which case the caller
// should fall back to the fixed heuristic.
func (cs *ColStats) Selectivity(p Pred) (frac float64, ok bool) {
	if cs == nil {
		return 0, false
	}
	if cs.Rows == 0 {
		return 0, true
	}
	if p.Val.IsNull() {
		return 0, true // NULL literal matches nothing
	}
	rows := float64(cs.Rows)
	nonNull := float64(cs.Rows - cs.Nulls)
	if nonNull == 0 {
		return 0, true
	}
	if cs.Refutes(p) {
		// Table-level zone bounds prove the predicate empty: the exact
		// zero the fragment pruner acts on, surfaced through the same
		// selectivity model the optimizer and planner consult.
		return 0, true
	}
	switch p.Op {
	case OpEq:
		return cs.eqFraction(p.Val), true
	case OpNe:
		f := nonNull/rows - cs.eqFraction(p.Val)
		if f < 0 {
			f = 0
		}
		return f, true
	case OpLt, OpLe, OpGt, OpGe:
		matched, ok := cs.rangeCount(p)
		if !ok {
			return 0, false
		}
		return clampFrac(matched / rows), true
	case OpContains:
		if cs.Exact == nil {
			return 0, false // substring frequency needs the value set
		}
		needle := strings.ToLower(p.Val.String())
		matched := 0
		for _, vc := range cs.Exact {
			if strings.Contains(strings.ToLower(vc.Val.String()), needle) {
				matched += vc.Count
			}
		}
		return float64(matched) / rows, true
	default:
		return 0, false
	}
}

// Refutes reports whether the column statistics prove that no row can
// satisfy p — the table-level analogue of ZoneCol.Refutes and the same
// rule (refutes), over the column's min/max bounds and (when kept)
// exact value counts. Only sound proofs qualify: histogram
// interpolation never refutes.
func (cs *ColStats) Refutes(p Pred) bool {
	if cs == nil {
		return false
	}
	if p.Val.IsNull() {
		return true
	}
	if cs.Rows == 0 || cs.Rows == cs.Nulls {
		return true // no non-null cell to satisfy anything
	}
	var vals func(int) Value
	if cs.Exact != nil {
		vals = func(i int) Value { return cs.Exact[i].Val }
	}
	return refutes(p, cs.Min, cs.Max, len(cs.Exact), vals)
}

// Refutes reports whether the statistics prove the predicate
// conjunction returns no rows: an empty table, or a refuted conjunct
// with none before it on a missing column (a row reaching one fails).
func (ts *TableStats) Refutes(preds []Pred) bool {
	if ts == nil {
		return false
	}
	if ts.Rows == 0 {
		return true
	}
	for _, p := range preds {
		if cs := ts.Col(p.Col); cs == nil || cs.Refutes(p) {
			return cs != nil
		}
	}
	return false
}

// eqFraction is the equality fraction: exact when per-value counts are
// kept, out-of-bounds zero, else the uniform 1/NDV share of non-null
// rows.
func (cs *ColStats) eqFraction(v Value) float64 {
	rows := float64(cs.Rows)
	if n, ok := cs.EqCount(v); ok {
		return float64(n) / rows
	}
	if Compare(v, cs.Min) < 0 || Compare(v, cs.Max) > 0 {
		return 0
	}
	nonNull := float64(cs.Rows - cs.Nulls)
	return nonNull / float64(cs.NDV) / rows
}

// rangeCount estimates how many rows satisfy a range predicate: exact
// counts when available, else full buckets plus linear interpolation
// inside the boundary bucket (numeric columns) or a half-bucket
// assumption (ordered non-numeric columns).
func (cs *ColStats) rangeCount(p Pred) (float64, bool) {
	if cs.Exact != nil {
		matched := 0
		for _, vc := range cs.Exact {
			c := Compare(vc.Val, p.Val)
			keep := false
			switch p.Op {
			case OpLt:
				keep = c < 0
			case OpLe:
				keep = c <= 0
			case OpGt:
				keep = c > 0
			case OpGe:
				keep = c >= 0
			}
			if keep {
				matched += vc.Count
			}
		}
		return float64(matched), true
	}
	if len(cs.Hist) == 0 {
		return 0, false
	}
	// below estimates rows with value < p.Val (OpLt/OpGe boundary) or
	// ≤ p.Val (OpLe/OpGt boundary); without exact counts the equality
	// mass at the boundary is folded into the interpolation.
	var below float64
	for _, b := range cs.Hist {
		switch {
		case Compare(p.Val, b.Lower) < 0:
			// bucket entirely above the boundary
		case Compare(p.Val, b.Upper) >= 0:
			below += float64(b.Count)
		default:
			below += float64(b.Count) * interpolate(b.Lower, b.Upper, p.Val)
		}
	}
	nonNull := float64(cs.Rows - cs.Nulls)
	switch p.Op {
	case OpLt, OpLe:
		return below, true
	default: // OpGt, OpGe
		return nonNull - below, true
	}
}

// interpolate returns the fraction of a bucket's rows assumed below v,
// linearly for numeric bounds and half the bucket otherwise.
func interpolate(lower, upper, v Value) float64 {
	if lower.IsNumeric() && upper.IsNumeric() && v.IsNumeric() {
		lo, hi := lower.Float(), upper.Float()
		if hi > lo {
			return clampFrac((v.Float() - lo) / (hi - lo))
		}
	}
	return 0.5
}

func clampFrac(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// DefaultSelectivity is the fixed per-predicate row-fraction heuristic
// used wherever per-column statistics are unavailable (unknown
// columns, statistics-free backends). It is the pre-statistics cost
// model, kept as the shared fallback so every estimator degrades to
// the same deterministic guess.
func DefaultSelectivity(p Pred) float64 {
	switch p.Op {
	case OpEq:
		return 0.1
	case OpNe:
		return 0.9
	case OpContains:
		return 0.5
	default: // range comparisons
		return 1.0 / 3
	}
}

// SelectivityOf estimates p's row fraction from the column's
// statistics when they can judge it, falling back to
// DefaultSelectivity. A nil receiver is the statistics-free case.
func (ts *TableStats) SelectivityOf(p Pred) float64 {
	if ts != nil {
		if f, ok := ts.Col(p.Col).Selectivity(p); ok {
			return f
		}
	}
	return DefaultSelectivity(p)
}

// Describe renders the table statistics for diagnostics (uniquery
// -stats): one line per column with row/null/NDV counts, bounds, and
// histogram/exact-set sizes.
func (ts *TableStats) Describe() string {
	if ts == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "stats: table %s rows=%d epoch=%d\n", ts.Table, ts.Rows, ts.Epoch)
	for _, cs := range ts.Cols {
		fmt.Fprintf(&b, "  %-16s ndv=%d nulls=%d min=%s max=%s buckets=%d",
			cs.Col, cs.NDV, cs.Nulls, cs.Min, cs.Max, len(cs.Hist))
		if cs.Exact != nil {
			fmt.Fprintf(&b, " exact=%d", len(cs.Exact))
		}
		b.WriteByte('\n')
	}
	return strings.TrimRight(b.String(), "\n")
}

// EstimateRows applies the selectivities of a predicate conjunction
// (independence assumed) to n rows, keeping at least one expected row
// for any non-empty input.
func (ts *TableStats) EstimateRows(n int, preds []Pred) int {
	if n == 0 {
		return 0
	}
	f := float64(n)
	for _, p := range preds {
		f *= ts.SelectivityOf(p)
	}
	if out := int(f); out >= 1 {
		return out
	}
	return 1
}
