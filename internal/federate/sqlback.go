package federate

import (
	"context"
	"fmt"

	"repro/internal/logical"
	"repro/internal/sql"
	"repro/internal/table"
)

// SQL drives internal/sql's parser and executor: every fragment is
// built as a sql.Stmt, written to text by sql.Format, parsed back and
// executed against the backing catalog. The fragment crosses the
// backend boundary as text, not as Go structures — the shape a
// federated external SQL store requires — which makes this backend the
// template for wiring real databases behind the planner. It never
// writes dialect text itself: what it can push is exactly what
// sql.Format can write.
type SQL struct {
	catalog *table.Catalog
}

// sqlPerRow and sqlFixed shape the cost model: text round-trip and
// whole-table scans make this backend pricier per row than the in-memory
// engine, so the planner prefers it only when it is the sole provider of
// a table.
const (
	sqlPerRow = 1.25
	sqlFixed  = 24
)

// NewSQL returns a SQL-dialect backend over the catalog.
func NewSQL(c *table.Catalog) *SQL {
	return &SQL{catalog: c}
}

// Name implements Backend.
func (s *SQL) Name() string { return "sql" }

// Tables implements Backend.
func (s *SQL) Tables() []string { return s.catalog.Names() }

// CanPush implements Backend: the predicate must survive the text
// round-trip, so it is pushed exactly when sql.Format can write it (a
// column reference that is not a keyword, a finite or non-float
// literal, a single-line string). The rest stays in the residual.
func (s *SQL) CanPush(_ string, p table.Pred) bool { return sql.CanWritePred(p) }

// CanPushAgg implements Backend: the aggregate must survive the
// text round-trip (sql.CanWriteAgg), which restricts it to the five
// dialect functions — not the routing pass's COUNT_MERGE — over "*" or
// a column that is not a keyword.
func (s *SQL) CanPushAgg(a table.Agg) bool { return sql.CanWriteAgg(a) }

// CanPushSort implements Backend: the key's column must survive the
// text round-trip (sql.CanWriteColumn), written as an ORDER BY key.
func (s *SQL) CanPushSort(k table.SortKey) bool { return sql.CanWriteColumn(k.Col) }

// CanProject implements Backend: every column must survive the text
// round-trip (sql.CanWriteColumn), so a keyword-named column stays in
// the residual, whether it is projected or a group key.
func (s *SQL) CanProject(cols []string) bool {
	for _, c := range cols {
		if !sql.CanWriteColumn(c) {
			return false
		}
	}
	return true
}

// Estimate implements Backend: every scan reads the whole table; the
// shared catalog statistics estimate the output. A table whose name
// the dialect cannot write (sql.CanWriteName) is not served, so routing
// and failover never pick this backend for a scan it cannot express.
func (s *SQL) Estimate(tbl string, preds []table.Pred) (Estimate, bool) {
	t, err := s.catalog.Get(tbl)
	if err != nil || !sql.CanWriteName(tbl) {
		return Estimate{}, false
	}
	return estimateFromStats(s.catalog.StatsOf(tbl), t.Len(), preds, sqlFixed, sqlPerRow), true
}

// Zones implements Backend: the catalog's per-fragment zone maps.
func (s *SQL) Zones(tbl string) *table.Zones { return s.catalog.ZonesOf(tbl) }

// Scan implements Backend: write, parse, execute. The statement
// executes over the same table engine the memory backend uses, so a
// fragment routed here returns identical rows in identical order.
//
// A zone-pruned fragment becomes one ranged SELECT per surviving row
// range (the ROWS a TO b dialect clause), concatenated in ascending
// order — the same row multiset and order a full filtered scan
// produces, reading only the surviving rows. Aggregation and the top-k
// cannot be split across ranges (an aggregate of per-range aggregates
// is not the aggregate of the union), so the ranged SELECTs carry only
// the filters and the shared evaluator finishes the assembled rows.
func (s *SQL) Scan(_ context.Context, f Fragment) (Result, error) {
	t, err := s.catalog.Get(f.Table)
	if err != nil {
		return Result{}, err
	}
	if f.Ranges == nil {
		out, err := s.exec(f, nil)
		if err != nil {
			return Result{}, err
		}
		return Result{Leaf: logical.VecLeaf{Table: out}, Scanned: t.Len()}, nil
	}
	cur := table.New(t.Name, t.Schema)
	scanned := 0
	for i := range f.Ranges {
		part, err := s.exec(Fragment{Table: f.Table, Preds: f.Preds}, &f.Ranges[i])
		if err != nil {
			return Result{}, err
		}
		cur.Rows = append(cur.Rows, part.Rows...)
		scanned += f.Ranges[i].Len()
	}
	res, err := evaluate(logical.VecLeaf{Table: cur}, Fragment{GroupBy: f.GroupBy, Aggs: f.Aggs, Sort: f.Sort, Limit: f.Limit, Columns: f.Columns}, false)
	if err != nil {
		return Result{}, err
	}
	res.Scanned = scanned
	return res, nil
}

// exec writes the fragment as one SELECT, optionally restricted to a
// physical row range via the dialect's ROWS a TO b clause, and
// round-trips it through the dialect as text. A top-k is ORDER BY …
// LIMIT k: the planner pushes one only with k at least 1, since a LIMIT
// of 0 has no form (Format writes no clause for it, and the statement
// would return every row).
func (s *SQL) exec(f Fragment, r *table.RowRange) (*table.Table, error) {
	stmt := &sql.Stmt{From: f.Table, Wheres: f.Preds, Items: sql.Items(f.Columns, nil)}
	if len(f.Aggs) > 0 {
		stmt.Items, stmt.GroupBy = sql.Items(f.GroupBy, f.Aggs), f.GroupBy
	}
	if len(f.Sort) > 0 {
		if f.Limit < 1 {
			return nil, fmt.Errorf("federate: sql backend: top-k of %d rows", f.Limit)
		}
		stmt.OrderBy, stmt.Limit = f.Sort, f.Limit
	}
	if r != nil {
		stmt.RowStart, stmt.RowEnd = r.Start, r.End
	}
	text, err := sql.Format(stmt)
	if err != nil {
		return nil, fmt.Errorf("federate: sql backend: %w", err)
	}
	out, err := sql.Exec(s.catalog, text)
	if err != nil {
		return nil, fmt.Errorf("federate: sql backend: %w", err)
	}
	return out, nil
}
