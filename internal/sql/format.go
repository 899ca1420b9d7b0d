package sql

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/table"
)

// Format writes stmt as dialect text, the inverse of Parse: for every
// statement Parse returns, Parse(Format(stmt)) equals it, float
// literals bit for bit. The rules are the lexer's. A name is an
// identifier that is not a keyword; a column may be qualified
// ("t.col") where Parse reads one. An int writes in decimal, a float
// in plain decimal notation (shortest, always with a '.': 1e6 is
// 1000000.0, -0 is -0.0), a string single-quoted with inner quotes
// doubled, a bool as TRUE or FALSE, a string NULL (the one Parse
// reads) as NULL. The dialect has no date literal, so a date writes as
// its quoted text, which retyping against its date column restores.
//
// NaN, ±Inf, a string with a line break, a NULL of another kind,
// COUNT_MERGE, a keyword or non-identifier name and any shape Parse
// cannot produce have no form: Format returns an error wrapping
// ErrUnsupported.
func Format(stmt *Stmt) (string, error) {
	w := &writer{}
	w.WriteString("SELECT ")
	if stmt.Distinct {
		w.WriteString("DISTINCT ")
	}
	if len(stmt.Items) == 0 {
		w.fail("an empty select list")
	}
	for i, it := range stmt.Items {
		w.WriteString(sep(i, "", ", "))
		w.item(it)
	}
	w.WriteString(" FROM ")
	w.name(stmt.From)
	if stmt.RowStart != 0 || stmt.RowEnd != 0 {
		if stmt.RowStart < 0 || stmt.RowEnd <= stmt.RowStart {
			w.fail("ROWS %d TO %d", stmt.RowStart, stmt.RowEnd)
		}
		fmt.Fprintf(w, " ROWS %d TO %d", stmt.RowStart, stmt.RowEnd)
	}
	if j := stmt.Join; j != nil {
		w.WriteString(" JOIN ")
		w.name(j.Table)
		w.WriteString(" ON ")
		w.column(j.LeftCol)
		w.WriteString(" = ")
		w.column(j.RightCol)
	}
	for i, p := range stmt.Wheres {
		w.WriteString(sep(i, " WHERE ", " AND "))
		if !CanWritePred(p) {
			w.fail("the predicate %v", p)
		}
		w.WriteString(p.Col + " " + p.Op.String() + " ")
		w.literal(p.Val)
	}
	for i, col := range stmt.GroupBy {
		w.WriteString(sep(i, " GROUP BY ", ", "))
		w.column(col)
	}
	for i, k := range stmt.OrderBy {
		w.WriteString(sep(i, " ORDER BY ", ", "))
		w.column(k.Col)
		if k.Desc {
			w.WriteString(" DESC")
		}
	}
	if stmt.Limit < 0 {
		w.fail("LIMIT %d", stmt.Limit)
	} else if stmt.Limit > 0 {
		fmt.Fprintf(w, " LIMIT %d", stmt.Limit)
	}
	if w.err != nil {
		return "", w.err
	}
	return w.String(), nil
}

// Items is the select list that names cols and then computes aggs,
// each AS its output name (table.Agg.OutName); with neither it is "*".
func Items(cols []string, aggs []table.Agg) []SelectItem {
	if len(cols)+len(aggs) == 0 {
		return []SelectItem{{Star: true}}
	}
	items := make([]SelectItem, 0, len(cols)+len(aggs))
	for _, c := range cols {
		items = append(items, SelectItem{Col: c})
	}
	for _, a := range aggs {
		items = append(items, SelectItem{Agg: a.Func, IsAgg: true, Col: a.Col, Star: a.Col == "", As: a.OutName()})
	}
	return items
}

// CanWritePred reports, without allocating, whether Format can write p
// as a WHERE conjunct.
func CanWritePred(p table.Pred) bool {
	if !CanWriteColumn(p.Col) || p.Op < table.OpEq || p.Op > table.OpContains {
		return false
	}
	switch v := p.Val; {
	case v.IsNull():
		return v.Kind() == table.TypeString
	case v.Kind() == table.TypeFloat:
		return !math.IsNaN(v.Float()) && !math.IsInf(v.Float(), 0)
	case v.Kind() == table.TypeString || v.Kind() == table.TypeDate:
		return !strings.ContainsAny(v.Str(), "\n\r")
	}
	return true
}

// CanWriteAgg reports whether Format can write the select item Items
// makes of a: one of the five dialect functions over "*" or a column.
func CanWriteAgg(a table.Agg) bool {
	return isAggFunc(a.Func) && (a.Col == "" || CanWriteColumn(a.Col)) && CanWriteName(a.OutName())
}

// CanWriteName reports whether Format can write name as a table name
// or an alias: an identifier that is not a keyword.
func CanWriteName(name string) bool {
	if name == "" || !isIdentStart(name[0]) {
		return false
	}
	for i := 1; i < len(name); i++ {
		if !isIdentPart(name[i]) {
			return false
		}
	}
	return !isKeyword(name)
}

// CanWriteColumn reports whether Format can write ref as a column: a
// name, or a name qualified by one ("t.col").
func CanWriteColumn(ref string) bool {
	if i := strings.IndexByte(ref, '.'); i >= 0 {
		return CanWriteName(ref[:i]) && CanWriteName(ref[i+1:])
	}
	return CanWriteName(ref)
}

func isAggFunc(f table.AggFunc) bool {
	fn, ok := aggKeywords[f.String()]
	return ok && fn == f
}

// writer is a string builder whose first failure sticks.
type writer struct {
	strings.Builder
	err error
}

func (w *writer) fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf("%w: no dialect form for %s", ErrUnsupported, fmt.Sprintf(format, args...))
	}
}

func (w *writer) name(s string) {
	if !CanWriteName(s) {
		w.fail("the name %q", s)
	}
	w.WriteString(s)
}

func (w *writer) column(s string) {
	if !CanWriteColumn(s) {
		w.fail("the column %q", s)
	}
	w.WriteString(s)
}

func (w *writer) item(it SelectItem) {
	if it.IsAgg {
		if !isAggFunc(it.Agg) {
			w.fail("the aggregate %s", it.Agg)
		}
		w.WriteString(it.Agg.String() + "(")
	}
	switch {
	case !it.Star:
		w.column(it.Col)
	case it.Col != "" || !it.IsAgg && it.As != "":
		w.fail("the select item %+v", it)
	default:
		w.WriteString("*")
	}
	if it.IsAgg {
		w.WriteString(")")
	}
	if it.As != "" {
		w.WriteString(" AS ")
		w.name(it.As)
	}
}

// literal writes a value CanWritePred accepted.
func (w *writer) literal(v table.Value) {
	switch {
	case v.IsNull():
		w.WriteString("NULL")
	case v.Kind() == table.TypeInt:
		w.WriteString(strconv.FormatInt(v.Int(), 10))
	case v.Kind() == table.TypeFloat:
		s := strconv.FormatFloat(v.Float(), 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		w.WriteString(s)
	case v.Kind() == table.TypeBool:
		w.WriteString(strings.ToUpper(strconv.FormatBool(v.Bool())))
	default:
		w.WriteString("'" + strings.ReplaceAll(v.Str(), "'", "''") + "'")
	}
}

func sep(i int, first, rest string) string {
	if i == 0 {
		return first
	}
	return rest
}
