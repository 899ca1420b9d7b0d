package federate

import (
	"fmt"
	"strings"

	"repro/internal/sql"
	"repro/internal/table"
)

// SQL drives internal/sql's parser and executor: every fragment is
// rendered to a SELECT statement in the engine's dialect, parsed, and
// executed against the backing catalog. The fragment crosses the
// backend boundary as text, not as Go structures — the shape a
// federated external SQL store requires — which makes this backend the
// template for wiring real databases behind the planner.
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

// Caps implements Backend: the dialect expresses filters, projections
// and grouped aggregates.
func (s *SQL) Caps() Caps { return CapFilter | CapProject | CapAggregate }

// sqlIdent reports whether name lexes as a plain identifier in the
// dialect, so pushdown never produces an unparseable statement.
func sqlIdent(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// CanPush implements Backend: the predicate must survive a text
// round-trip — identifier column, single-line literal, and a numeric
// rendering the dialect's lexer can re-parse (large/small floats
// render in exponent notation, which it cannot).
func (s *SQL) CanPush(_ string, p table.Pred) bool {
	if !sqlIdent(p.Col) || p.Val.IsNull() {
		return false
	}
	v := p.Val.String()
	if p.Val.IsNumeric() {
		return plainNumber(v)
	}
	return !strings.ContainsAny(v, "\n\r")
}

// CanPushAgg implements AggPushable: the aggregate must survive the
// text round-trip, which restricts it to the functions the dialect
// parses (COUNT/SUM/AVG/MIN/MAX — not the routing pass's COUNT_MERGE)
// over identifier columns.
func (s *SQL) CanPushAgg(a table.Agg) bool {
	switch a.Func {
	case table.AggSum, table.AggAvg, table.AggCount, table.AggMin, table.AggMax:
	default:
		return false
	}
	return a.Col == "" || sqlIdent(a.Col)
}

// plainNumber reports whether s is a bare decimal literal
// (-?digits[.digits]) — the only numeric shape the dialect lexes.
// Exponent forms ("1e+06"), NaN and ±Inf are rejected.
func plainNumber(s string) bool {
	if strings.HasPrefix(s, "-") {
		s = s[1:]
	}
	if s == "" {
		return false
	}
	dot := false
	for i, r := range s {
		switch {
		case r >= '0' && r <= '9':
		case r == '.' && !dot && i > 0 && i < len(s)-1:
			dot = true
		default:
			return false
		}
	}
	return true
}

// Estimate implements Backend: every scan reads the whole table; the
// shared catalog statistics estimate the output.
func (s *SQL) Estimate(tbl string, preds []table.Pred) (Estimate, bool) {
	t, err := s.catalog.Get(tbl)
	if err != nil {
		return Estimate{}, false
	}
	return estimateFromStats(s.catalog.StatsOf(tbl), t.Len(), preds, sqlFixed, sqlPerRow), true
}

// Zones implements ZoneMapped: the catalog's per-fragment zone maps.
func (s *SQL) Zones(tbl string) *table.Zones { return s.catalog.ZonesOf(tbl) }

// render lowers the fragment to one SELECT, optionally restricted to a
// physical row range via the dialect's ROWS a TO b clause — the text
// form a fragment-ranged scan crosses the backend boundary in.
func (s *SQL) render(f Fragment, r *table.RowRange) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	switch {
	case len(f.Aggs) > 0:
		parts := append([]string(nil), f.GroupBy...)
		for _, a := range f.Aggs {
			col := a.Col
			if col == "" {
				col = "*"
			}
			as := a.As
			if as == "" {
				as = strings.ToLower(a.Func.String()) + "_" + a.Col
			}
			parts = append(parts, fmt.Sprintf("%s(%s) AS %s", a.Func, col, as))
		}
		b.WriteString(strings.Join(parts, ", "))
	case len(f.Columns) > 0:
		b.WriteString(strings.Join(f.Columns, ", "))
	default:
		b.WriteString("*")
	}
	fmt.Fprintf(&b, " FROM %s", f.Table)
	if r != nil {
		fmt.Fprintf(&b, " ROWS %d TO %d", r.Start, r.End)
	}
	if len(f.Preds) > 0 {
		wheres := make([]string, len(f.Preds))
		for i, p := range f.Preds {
			wheres[i] = renderPred(p)
		}
		b.WriteString(" WHERE " + strings.Join(wheres, " AND "))
	}
	if len(f.Aggs) > 0 && len(f.GroupBy) > 0 {
		b.WriteString(" GROUP BY " + strings.Join(f.GroupBy, ", "))
	}
	return b.String()
}

func renderPred(p table.Pred) string {
	val := p.Val.String()
	if !p.Val.IsNumeric() && p.Val.Kind() != table.TypeBool {
		val = "'" + strings.ReplaceAll(val, "'", "''") + "'"
	}
	return fmt.Sprintf("%s %s %s", p.Col, p.Op, val)
}

// Scan implements Backend: render, parse, execute. The statement
// executes over the same table engine the memory backend uses, so a
// fragment routed here returns identical rows in identical order.
//
// A zone-pruned fragment becomes one ranged SELECT per surviving row
// range (the ROWS a TO b dialect clause), concatenated in ascending
// order — the same row multiset and order a full filtered scan
// produces, reading only the surviving rows. Aggregation cannot be
// split across ranges (an aggregate of per-range aggregates is not the
// aggregate of the union), so the ranged SELECTs carry only the filters
// and the shared evaluator finishes the assembled rows.
func (s *SQL) Scan(f Fragment) (Result, error) {
	t, err := s.catalog.Get(f.Table)
	if err != nil {
		return Result{}, err
	}
	if f.Ranges == nil {
		out, err := s.exec(f, nil)
		if err != nil {
			return Result{}, err
		}
		return Result{Table: out, Scanned: t.Len()}, nil
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
	res, err := evaluate(cur, nil, Fragment{GroupBy: f.GroupBy, Aggs: f.Aggs, Columns: f.Columns}, false)
	if err != nil {
		return Result{}, err
	}
	res.Scanned = scanned
	return res, nil
}

// exec round-trips one statement through the dialect as text.
func (s *SQL) exec(f Fragment, r *table.RowRange) (*table.Table, error) {
	out, err := sql.Exec(s.catalog, s.render(f, r))
	if err != nil {
		return nil, fmt.Errorf("federate: sql backend: %w", err)
	}
	return out, nil
}
