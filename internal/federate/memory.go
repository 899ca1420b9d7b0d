package federate

import (
	"sync"

	"repro/internal/table"
)

// Memory serves every table of an in-process table.Catalog. It is the
// reference backend: full pushdown capability plus lazy per-column
// hash indexes for equality predicates, so a pushed equality filter
// scans only the matching bucket instead of the whole table. Indexes
// are keyed by the catalog epoch and rebuilt after any mutation.
type Memory struct {
	catalog *table.Catalog

	mu    sync.Mutex
	epoch uint64
	idx   map[string]*colIndex // "table\x00column" -> equality index
}

// NewMemory returns a backend over the catalog.
func NewMemory(c *table.Catalog) *Memory {
	return &Memory{catalog: c, idx: make(map[string]*colIndex)}
}

// Name implements Backend.
func (m *Memory) Name() string { return "memory" }

// Tables implements Backend: every catalog table.
func (m *Memory) Tables() []string { return m.catalog.Names() }

// Caps implements Backend: the memory engine absorbs everything.
func (m *Memory) Caps() Caps { return CapFilter | CapProject | CapAggregate }

// CanPush implements Backend: any predicate the table engine evaluates.
func (m *Memory) CanPush(string, table.Pred) bool { return true }

// Zones implements ZoneMapped: the catalog's per-fragment zone maps,
// maintained incrementally by Catalog.Put.
func (m *Memory) Zones(tbl string) *table.Zones { return m.catalog.ZonesOf(tbl) }

// colIndex maps a column value's hash key to the ascending row indexes
// holding it. Ascending order matters: an index-driven scan must yield
// rows in the same order a full-table filter would, so aggregates
// (float summation order) and lookups (first row) are bit-identical to
// the unindexed path.
type colIndex struct {
	buckets map[string][]int
}

// indexable reports whether the predicate can be answered from an
// equality index on its column: Key() equality must coincide with
// Pred.Eval equality, which holds for same-kind values and for
// numeric-vs-numeric comparisons.
func indexable(t *table.Table, p table.Pred) bool {
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

// indexForLocked returns the equality index for (tbl, col), building
// it on first use. Caller holds m.mu with the epoch already validated.
func (m *Memory) indexForLocked(t *table.Table, col string) *colIndex {
	key := t.Name + "\x00" + col
	if ix, ok := m.idx[key]; ok {
		return ix
	}
	ci := t.Schema.ColIndex(col)
	ix := &colIndex{buckets: make(map[string][]int)}
	for ri, row := range t.Rows {
		v := row[ci]
		if v.IsNull() {
			continue // NULL never satisfies equality
		}
		k := v.Key()
		ix.buckets[k] = append(ix.buckets[k], ri)
	}
	m.idx[key] = ix
	return ix
}

// pickIndex chooses the pushed equality predicate with the smallest
// bucket (first wins ties, so the choice is deterministic) and returns
// its position in preds, or -1 when no predicate is indexable. One
// lock acquisition covers the epoch check and every index touched.
func (m *Memory) pickIndex(t *table.Table, preds []table.Pred) (best int, bucket []int) {
	best = -1
	if len(preds) == 0 {
		return best, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.catalog.Epoch(); e != m.epoch {
		m.epoch = e
		m.idx = make(map[string]*colIndex)
	}
	for i, p := range preds {
		if !indexable(t, p) {
			continue
		}
		b := m.indexForLocked(t, p.Col).buckets[p.Val.Key()]
		if best == -1 || len(b) < len(bucket) {
			best, bucket = i, b
		}
	}
	return best, bucket
}

// Estimate implements Backend. The smallest equality-index bucket an
// indexable predicate would scan is estimated from the catalog's
// per-column statistics — exact for low-NDV columns, where it equals
// the bucket Scan will actually read — without forcing index builds
// at planning time; remaining predicates flow through the shared
// statistics-driven selectivity model. Deterministic for a fixed
// catalog epoch.
func (m *Memory) Estimate(tbl string, preds []table.Pred) (Estimate, bool) {
	t, err := m.catalog.Get(tbl)
	if err != nil {
		return Estimate{}, false
	}
	ts := m.catalog.StatsOf(tbl)
	total := t.Len()
	scan, pick := total, -1
	for i, p := range preds {
		if !indexable(t, p) {
			continue
		}
		if est := estEqBucket(ts, total, p); pick == -1 || est < scan {
			pick, scan = i, est
		}
	}
	rest := preds
	if pick >= 0 {
		rest = append(append([]table.Pred(nil), preds[:pick]...), preds[pick+1:]...)
	}
	return Estimate{
		Total:   total,
		Scanned: scan,
		Out:     ts.EstimateRows(scan, rest),
		Cost:    8 + float64(scan),
	}, true
}

// estEqBucket estimates the rows an equality-index bucket holds for
// p's value: the exact per-value count when the column statistics
// keep one, else the statistics-driven (or heuristic) uniform share.
func estEqBucket(ts *table.TableStats, total int, p table.Pred) int {
	if n, ok := ts.Col(p.Col).EqCount(p.Val); ok {
		return n
	}
	return ts.EstimateRows(total, []table.Pred{p})
}

// Scan implements Backend by selecting candidate rows — the smallest
// equality-index bucket a pushed predicate offers (intersected with the
// planner's surviving row ranges), else the whole table with its cached
// columnar fragments — and handing them to the shared evaluator. Bucket
// rows are ascending and the pruned fragments are provably empty under
// the pushed conjunction, so neither shortcut can change the output.
func (m *Memory) Scan(f Fragment) (Result, error) {
	t, err := m.catalog.Get(f.Table)
	if err != nil {
		return Result{}, err
	}
	pick, bucket := m.pickIndex(t, f.Preds)
	if pick < 0 {
		return evaluate(t, m.catalog.FragsOf(f.Table), f)
	}
	if f.Ranges != nil {
		bucket = intersectAscending(bucket, f.Ranges)
	}
	cand := table.New(t.Name, t.Schema)
	cand.Rows = make([][]table.Value, len(bucket))
	for i, ri := range bucket {
		cand.Rows[i] = t.Rows[ri]
	}
	// Bucket rows already satisfy preds[pick] and lie inside the ranges;
	// only the other predicates remain to evaluate.
	f.Preds = append(append(make([]table.Pred, 0, len(f.Preds)-1), f.Preds[:pick]...), f.Preds[pick+1:]...)
	f.Ranges = nil
	return evaluate(cand, nil, f)
}

// intersectAscending keeps the row indexes that fall inside the
// ascending, disjoint ranges; both inputs are ascending, so one merge
// walk suffices and the output preserves row order.
func intersectAscending(rows []int, ranges []table.RowRange) []int {
	out := rows[:0:0]
	j := 0
	for _, ri := range rows {
		for j < len(ranges) && ranges[j].End <= ri {
			j++
		}
		if j == len(ranges) {
			break
		}
		if ri >= ranges[j].Start {
			out = append(out, ri)
		}
	}
	return out
}
