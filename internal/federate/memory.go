package federate

import (
	"context"
	"slices"

	"repro/internal/logical"
	"repro/internal/table"
)

// Memory serves every table of an in-process table.Catalog. It is the
// reference backend: full pushdown capability over the catalog's cached
// columnar fragments, where a pushed string or date equality is a probe
// of each fragment's dictionary (logical.VecFragment).
type Memory struct {
	catalog *table.Catalog
}

// NewMemory returns a backend over the catalog.
func NewMemory(c *table.Catalog) *Memory {
	return &Memory{catalog: c}
}

// Name implements Backend.
func (m *Memory) Name() string { return "memory" }

// Tables implements Backend: every catalog table.
func (m *Memory) Tables() []string { return m.catalog.Names() }

// CanPush implements Backend: any predicate the table engine evaluates.
func (m *Memory) CanPush(string, table.Pred) bool { return true }

// CanPushAgg implements Backend: the memory engine absorbs every
// aggregate.
func (m *Memory) CanPushAgg(table.Agg) bool { return true }

// CanPushSort implements Backend: the memory engine runs every top-k
// (logical.VecFragment's kernel, after the filter's selection vectors).
func (m *Memory) CanPushSort(table.SortKey) bool { return true }

// CanProject implements Backend: any projection.
func (m *Memory) CanProject([]string) bool { return true }

// Zones implements Backend: the catalog's per-fragment zone maps,
// maintained incrementally by Catalog.Put.
func (m *Memory) Zones(tbl string) *table.Zones { return m.catalog.ZonesOf(tbl) }

// canDrive reports whether p is an equality that can drive a scan: a
// non-NULL literal of the column's own kind, or a number against a
// numeric column.
func canDrive(t *table.Table, p table.Pred) bool {
	if p.Op != table.OpEq || p.Val.IsNull() {
		return false
	}
	ci := t.Schema.ColIndex(p.Col)
	if ci < 0 {
		return false
	}
	ct := t.Schema[ci].Type
	if p.Val.Kind() == ct {
		return true
	}
	return p.Val.IsNumeric() && (ct == table.TypeInt || ct == table.TypeFloat)
}

// pickEq chooses the equality that drives a scan of t: the canDrive
// predicate with the smallest estimated match count (estEqBucket; the
// first wins ties), returned with that estimate, or -1 and t.Len() when
// none can drive. Estimate and Scan both pick through it, so the
// planned and the executed scan are driven by the same predicate.
func pickEq(t *table.Table, ts *table.TableStats, preds []table.Pred) (pick, est int) {
	pick, est = -1, t.Len()
	for i, p := range preds {
		if !canDrive(t, p) {
			continue
		}
		if n := estEqBucket(ts, t.Len(), p); pick == -1 || n < est {
			pick, est = i, n
		}
	}
	return pick, est
}

// Estimate implements Backend. The scan reads the rows the driving
// equality (pickEq) matches — exact for low-NDV columns, whose
// statistics keep per-value counts — and the remaining predicates flow
// through the shared statistics-driven selectivity model.
// Deterministic for a fixed catalog epoch.
func (m *Memory) Estimate(tbl string, preds []table.Pred) (Estimate, bool) {
	t, err := m.catalog.Get(tbl)
	if err != nil {
		return Estimate{}, false
	}
	ts := m.catalog.StatsOf(tbl)
	pick, scan := pickEq(t, ts, preds)
	rest := preds
	if pick >= 0 {
		rest = slices.Concat(preds[:pick], preds[pick+1:])
	}
	return Estimate{
		Total:   t.Len(),
		Scanned: scan,
		Out:     ts.EstimateRows(scan, rest),
		Cost:    8 + float64(scan),
	}, true
}

// estEqBucket estimates the rows equality predicate p matches: the
// exact per-value count when the column statistics keep one, else the
// statistics-driven (or heuristic) uniform share.
func estEqBucket(ts *table.TableStats, total int, p table.Pred) int {
	if n, ok := ts.Col(p.Col).EqCount(p.Val); ok {
		return n
	}
	return ts.EstimateRows(total, []table.Pred{p})
}

// Scan implements Backend: the shared evaluator over the table and its
// cached columnar fragments, with the driving equality (pickEq) moved
// to the front of the conjunction. Scanned then counts the rows inside
// the planner's surviving ranges that match it, so a scan is charged
// for the rows its equality selects, not for the whole table. Without
// an aggregate or a top-k the result is the catalog table itself, its
// rows selected and projected in place.
func (m *Memory) Scan(_ context.Context, f Fragment) (Result, error) {
	t, err := m.catalog.Get(f.Table)
	if err != nil {
		return Result{}, err
	}
	pick, _ := pickEq(t, m.catalog.StatsOf(f.Table), f.Preds)
	if pick > 0 {
		f.Preds = slices.Concat(f.Preds[pick:pick+1], f.Preds[:pick], f.Preds[pick+1:])
	}
	return evaluate(logical.VecLeaf{Table: t, Frags: m.catalog.FragsOf(f.Table)}, f, pick >= 0)
}
