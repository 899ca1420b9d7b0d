package table

import (
	"fmt"
	"strings"
)

// Zone-map shape parameters. Every table partitions into fixed-size
// row fragments; each fragment carries a per-column summary (min/max
// bounds, null count, and — while the fragment stays low-cardinality —
// the exact distinct-value set). Scans consult the summaries to skip
// fragments a pushed predicate conjunction provably cannot match.
const (
	// FragmentRows is the fixed fragment size, in rows. The last
	// fragment of a table may be shorter.
	FragmentRows = 256
	// ZoneMaxVals is the distinct-value ceiling below which a fragment
	// column keeps its exact value set (enabling equality, inequality
	// and CONTAINS refutation beyond what min/max bounds can prove).
	ZoneMaxVals = 8
)

// RowRange is a half-open row interval [Start, End).
type RowRange struct {
	Start, End int
}

// Len returns the number of rows in the range.
func (r RowRange) Len() int { return r.End - r.Start }

// ZoneCol is one column's summary within a fragment.
type ZoneCol struct {
	Col   string
	Nulls int
	Min   Value // NULL when the fragment has no non-null values
	Max   Value
	Vals  []Value // ascending distinct non-null values; valid only when Exact
	Exact bool    // Vals holds every distinct non-null value of the fragment
}

// ZoneMap is one fragment's zone map: the row range it covers plus a
// summary per schema column.
type ZoneMap struct {
	Start, End int
	Cols       []ZoneCol // schema order
}

// Zones is the per-fragment zone-map set of one table, folded cell by
// cell in the walk that seals each fragment's batch (sealCol) at every
// registration. Like TableStats, a Zones value is immutable once
// published: an append produces a fresh Zones sharing the sealed
// fragments.
type Zones struct {
	Table string
	Rows  int // rows covered
	Maps  []ZoneMap
}

// fold adds cell v to the summary: a NULL is counted; otherwise Min
// and Max keep the first of Compare-equal values, and Vals stays the
// exact ascending set until it would exceed ZoneMaxVals.
func (zc *ZoneCol) fold(v Value) {
	switch {
	case v.IsNull():
		zc.Nulls++
		return
	case zc.Min.IsNull():
		zc.Min, zc.Max = v, v
	case Compare(v, zc.Min) < 0:
		zc.Min = v
	case Compare(v, zc.Max) > 0:
		zc.Max = v
	}
	if zc.Exact {
		zc.Vals, zc.Exact = zoneInsert(zc.Vals, v)
	}
}

// zoneInsert adds v to the ascending distinct set, reporting overflow
// (set abandoned) when the set would exceed ZoneMaxVals.
func zoneInsert(vals []Value, v Value) ([]Value, bool) {
	lo := 0
	for lo < len(vals) {
		c := Compare(vals[lo], v)
		if c == 0 {
			return vals, true
		}
		if c > 0 {
			break
		}
		lo++
	}
	if len(vals) >= ZoneMaxVals {
		return nil, false
	}
	vals = append(vals, Value{})
	copy(vals[lo+1:], vals[lo:])
	vals[lo] = v
	return vals, true
}

// Col returns the named column's summary (case-insensitive), or nil.
func (zm *ZoneMap) Col(name string) *ZoneCol {
	for i := range zm.Cols {
		if strings.EqualFold(zm.Cols[i].Col, name) {
			return &zm.Cols[i]
		}
	}
	return nil
}

// Refutes reports whether the zone proves that no row of the fragment
// can satisfy p, by the one refutation rule (refutes).
func (zc *ZoneCol) Refutes(p Pred) bool {
	if zc == nil {
		return false
	}
	if p.Val.IsNull() {
		return true // NULL literal matches nothing
	}
	if zc.Min.IsNull() {
		return true // every cell in the fragment is NULL
	}
	var vals func(int) Value
	if zc.Exact {
		vals = func(i int) Value { return zc.Vals[i] }
	}
	return refutes(p, zc.Min, zc.Max, len(zc.Vals), vals)
}

// refutes is the one refutation rule, shared by fragment zone maps
// (ZoneCol) and table statistics (ColStats): whether a column summary —
// the bounds lo ≤ hi of its non-null cells, of which there is at least
// one, and, when vals is non-nil, its n distinct non-null values in
// ascending order — proves that no cell satisfies p, whose literal is
// not NULL. The rules are sound with respect to Pred.Match: NULL cells
// never satisfy any comparison, bounds use the same total Compare order
// Match uses, and equality tests on exact value sets replay Match's own
// matching, as CONTAINS tests do on sets of strings, dates and bools.
func refutes(p Pred, lo, hi Value, n int, vals func(int) Value) bool {
	switch p.Op {
	case OpEq:
		if vals == nil {
			return Compare(p.Val, lo) < 0 || Compare(p.Val, hi) > 0
		}
		for i := range n {
			if Equal(vals(i), p.Val) {
				return false
			}
		}
		return true
	case OpNe:
		// Refuted only when every non-null value equals the literal.
		if vals == nil {
			return Equal(lo, hi) && Equal(lo, p.Val)
		}
		return n == 1 && Equal(vals(0), p.Val)
	case OpLt:
		return Compare(lo, p.Val) >= 0
	case OpLe:
		return Compare(lo, p.Val) > 0
	case OpGt:
		return Compare(hi, p.Val) <= 0
	case OpGe:
		return Compare(hi, p.Val) < 0
	case OpContains:
		if vals == nil {
			return false // substring matching needs the value set
		}
		needle := strings.ToLower(p.Val.String())
		for i := range n {
			// A set keeps one of Compare-equal values, and equal numbers
			// can render apart (0 and -0, 1000000 and 1e+06): a number
			// in the set proves nothing about the text of its rows.
			v := vals(i)
			if v.IsNumeric() || strings.Contains(strings.ToLower(v.String()), needle) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Refutes reports whether the fragment's zone map proves the predicate
// conjunction empty: a refuted conjunct refutes the whole fragment
// unless one before it is on a column the map lacks (every column of
// the table has one), as a row reaching that conjunct fails the scan.
func (zm *ZoneMap) Refutes(preds []Pred) bool {
	for _, p := range preds {
		if zc := zm.Col(p.Col); zc == nil || zc.Refutes(p) {
			return zc != nil
		}
	}
	return false
}

// Prune partitions the table's fragments under a pushed predicate
// conjunction: keep is the merged, ascending row ranges of fragments
// the zone maps cannot refute (never nil — empty means every fragment
// is provably empty), pruned counts refuted fragments. Deterministic
// for fixed zones and predicates.
func (z *Zones) Prune(preds []Pred) (keep []RowRange, pruned int) {
	keep = make([]RowRange, 0, len(z.Maps))
	for _, zm := range z.Maps {
		if zm.Refutes(preds) {
			pruned++
			continue
		}
		if n := len(keep); n > 0 && keep[n-1].End == zm.Start {
			keep[n-1].End = zm.End
		} else {
			keep = append(keep, RowRange{Start: zm.Start, End: zm.End})
		}
	}
	return keep, pruned
}

// IntersectRanges intersects two ascending disjoint range lists,
// returning their (never-nil) ascending intersection. Used to combine
// zone-pruned fragments with an explicit scan row range.
func IntersectRanges(a, b []RowRange) []RowRange {
	out := make([]RowRange, 0, len(a))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo, hi := a[i].Start, a[i].End
		if b[j].Start > lo {
			lo = b[j].Start
		}
		if b[j].End < hi {
			hi = b[j].End
		}
		if lo < hi {
			out = append(out, RowRange{Start: lo, End: hi})
		}
		if a[i].End < b[j].End {
			i++
		} else {
			j++
		}
	}
	return out
}

// RangesLen sums the row counts of a range list.
func RangesLen(ranges []RowRange) int {
	n := 0
	for _, r := range ranges {
		n += r.Len()
	}
	return n
}

// RowsVisited counts the rows of an n-row table a scan restricted to
// the ranges reads: each range clamped to the table, inverted or
// out-of-table ranges counting zero. It is the one definition of
// "scanned under ranges": the vectorized fragment pipeline and the row
// reference its tests hold it to both report it.
func RowsVisited(ranges []RowRange, n int) int {
	visited := 0
	for _, r := range ranges {
		if end := min(r.End, n); end > r.Start {
			visited += end - r.Start
		}
	}
	return visited
}

// Describe renders the zone maps for diagnostics (uniquery -stats):
// one line per fragment with each column's bounds, null count and
// exact value set.
func (z *Zones) Describe() string {
	if z == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "zones: %d fragments of up to %d rows over %d rows\n", len(z.Maps), FragmentRows, z.Rows)
	for i, zm := range z.Maps {
		fmt.Fprintf(&b, "  frag[%d] rows [%d,%d)\n", i, zm.Start, zm.End)
		for _, zc := range zm.Cols {
			fmt.Fprintf(&b, "    %-16s nulls=%d min=%s max=%s", zc.Col, zc.Nulls, zc.Min, zc.Max)
			if zc.Exact {
				vals := make([]string, len(zc.Vals))
				for vi, v := range zc.Vals {
					vals[vi] = v.String()
				}
				fmt.Fprintf(&b, " vals=[%s]", strings.Join(vals, ","))
			}
			b.WriteByte('\n')
		}
	}
	return strings.TrimRight(b.String(), "\n")
}
