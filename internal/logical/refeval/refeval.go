// Package refeval is the tests' one reference evaluator: it evaluates a
// logical plan over a catalog from the query dialect's definitions, not
// from the engine's operators, so a test that holds an executor to it
// checks that executor's answers rather than its agreement with another
// copy of the same code. Only _test.go files import it, and it shares
// with the engine only the cell type (table.Value), its order
// (table.Compare), its key bytes (table.AppendKey), the literal cast
// (table.CoerceTo) and the schema type.
//
// Each operator is its definition, written for clarity over speed (a
// join is a nested loop):
//
//   - Scan reads the catalog table in its stored order: the rows
//     [RowStart, RowEnd) when RowEnd > 0, clamped to the table, then
//     the columns Cols. Empty is the same scan with no rows.
//   - Filter keeps the rows that satisfy every predicate, tested left
//     to right. SQL's three-valued logic decides: a NULL cell or a NULL
//     literal makes a comparison unknown, and unknown is not true.
//     CONTAINS is a case-insensitive substring test on the cell's text.
//     An untyped literal takes the type of the column it is compared
//     with, as SQL casts it (table.CoerceTo: '120' on a float column is
//     120). A predicate's column is resolved when a row reaches it, so a
//     missing column fails only a filter that some row reaches.
//   - Project picks columns by name (case-insensitive) and applies the
//     non-empty aliases.
//   - Join is the inner equi-join: a pair of rows joins when neither key
//     is NULL and the keys compare equal. The smaller input (the left on
//     a tie) is the inner loop, so rows come in the order of the larger
//     input, each row's matches in the smaller input's order; a row is
//     the left cells, then the right ones. A right column whose name the
//     output already holds is renamed "<right relation>.<name>".
//   - Aggregate partitions rows by their group-key cells' key bytes
//     (equal exactly when the cells compare equal) and emits the groups
//     in ascending key bytes, each keyed by its first row's cells. A
//     global aggregate has one group even over no rows. NULL cells are
//     skipped. COUNT(*) counts rows and COUNT(col) non-NULL cells; SUM
//     and AVG add the numbers in input order as float64, from 0; MIN and
//     MAX keep the first least or greatest cell. SUM, AVG, MIN and MAX of
//     no cell are NULL. COUNT_MERGE adds partial counts into an int, 0
//     over none.
//   - Sort is stable; Limit keeps the first N rows (none for N < 0);
//     Distinct keeps each row's first occurrence.
//   - Compare is one grouped aggregate per item, in sorted item order:
//     the rows that satisfy the common predicates and whose compared
//     column CONTAINS the item (the item is text, never cast), grouped
//     by that column, appended in item order.
//
// Output names follow the dialect: a relation keeps its table's name
// through Filter, Project, Sort, Limit and Distinct; a join is named
// "<left>_join_<right>", an aggregate "<input>_agg" and a comparison
// "comparison". An aggregate's columns are the group keys as written,
// typed as their input column, then one per aggregate, named by its
// alias or "<function>_<column>" in lower case: COUNT and COUNT_MERGE
// are int, MIN and MAX their input column's type, SUM and AVG float.
//
// Errors report their outcome, not the engine's wording: a test
// compares whether both sides failed, and compares error texts only
// between two executors.
package refeval

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"

	"repro/internal/logical"
	"repro/internal/table"
)

// rel is a relation while it is evaluated.
type rel struct {
	name   string
	schema table.Schema
	rows   [][]table.Value
}

// Eval evaluates the plan n over the catalog c. The result may share
// rows with the catalog's tables, so it is read-only.
func Eval(n *logical.Node, c *table.Catalog) (*table.Table, error) {
	r, err := eval(n, c)
	if err != nil {
		return nil, err
	}
	return &table.Table{Name: r.name, Schema: r.schema, Rows: r.rows}, nil
}

// Render writes a table as its column names, then one line per row
// holding each cell's kind, nullness and text, so two renderings are
// equal exactly when the schemas' names, the row order and every cell
// are: −0 and +0, or int 2 and float 2, render apart.
func Render(t *table.Table) string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Schema.Names(), ","))
	for _, row := range t.RowView() {
		b.WriteByte('\n')
		for _, v := range row {
			b.WriteString(v.Kind().String() + ":" + strconv.FormatBool(v.IsNull()) + ":" + v.String() + "|")
		}
	}
	return b.String()
}

func noColumn(name string) error { return fmt.Errorf("refeval: no column %q", name) }

func eval(n *logical.Node, c *table.Catalog) (rel, error) {
	if n == nil {
		return rel{}, errors.New("refeval: empty plan")
	}
	switch n.Op {
	case logical.OpScan, logical.OpEmpty:
		return scan(n, c)
	case logical.OpJoin:
		l, err := eval(n.In[0], c)
		if err != nil {
			return rel{}, err
		}
		r, err := eval(n.In[1], c)
		if err != nil {
			return rel{}, err
		}
		return join(l, r, n.LeftCol, n.RightCol)
	case logical.OpInput:
		return rel{}, errors.New("refeval: an Input leaf has no catalog table")
	}
	in, err := eval(n.Child(), c)
	if err != nil {
		return rel{}, err
	}
	switch n.Op {
	case logical.OpFilter:
		return filter(in, n.Preds)
	case logical.OpProject:
		return project(in, n.Proj, n.Aliases)
	case logical.OpAggregate:
		return aggregate(in, n.GroupBy, n.Aggs)
	case logical.OpSort:
		return sortRows(in, n.Keys)
	case logical.OpLimit:
		in.rows = in.rows[:min(max(n.N, 0), len(in.rows))]
		return in, nil
	case logical.OpDistinct:
		return distinct(in), nil
	case logical.OpCompare:
		return compare(in, n)
	}
	return rel{}, fmt.Errorf("refeval: no definition for %v", n.Op)
}

func scan(n *logical.Node, c *table.Catalog) (rel, error) {
	t, err := c.Get(n.Table)
	if err != nil {
		return rel{}, err
	}
	rows := t.RowView()
	switch {
	case n.Op == logical.OpEmpty:
		rows = nil
	case n.RowEnd > 0:
		end := min(n.RowEnd, len(rows))
		rows = rows[min(n.RowStart, end):end]
	}
	r := rel{name: t.Name, schema: t.Schema, rows: slices.Clone(rows)}
	if len(n.Cols) > 0 {
		return project(r, n.Cols, nil)
	}
	return r, nil
}

func project(in rel, cols, aliases []string) (rel, error) {
	idx := make([]int, len(cols))
	out := rel{name: in.name, schema: make(table.Schema, len(cols))}
	for i, col := range cols {
		if idx[i] = in.schema.ColIndex(col); idx[i] < 0 {
			return rel{}, noColumn(col)
		}
		out.schema[i] = in.schema[idx[i]]
		if i < len(aliases) && aliases[i] != "" {
			out.schema[i].Name = aliases[i]
		}
	}
	for _, row := range in.rows {
		picked := make([]table.Value, len(idx))
		for i, j := range idx {
			picked[i] = row[j]
		}
		out.rows = append(out.rows, picked)
	}
	return out, nil
}

func filter(in rel, preds []table.Pred) (rel, error) {
	out := rel{name: in.name, schema: in.schema}
	for _, row := range in.rows {
		ok, err := satisfies(in.schema, row, preds)
		if err != nil {
			return rel{}, err
		}
		if ok {
			out.rows = append(out.rows, row)
		}
	}
	return out, nil
}

// satisfies is a WHERE conjunction on one row, tested left to right up
// to the first predicate the row does not satisfy. Each literal is cast
// to its column's type first.
func satisfies(schema table.Schema, row []table.Value, preds []table.Pred) (bool, error) {
	for _, p := range preds {
		i := schema.ColIndex(p.Col)
		if i < 0 {
			return false, noColumn(p.Col)
		}
		ok, err := holds(row[i], p.Op, table.CoerceTo(schema[i].Type, p.Val))
		if !ok || err != nil {
			return false, err
		}
	}
	return true, nil
}

// holds reports whether "cell op lit" is true. A NULL on either side
// makes it unknown, which is not true.
func holds(cell table.Value, op table.CmpOp, lit table.Value) (bool, error) {
	if cell.IsNull() || lit.IsNull() {
		return false, nil
	}
	if op == table.OpContains {
		return strings.Contains(strings.ToLower(cell.String()), strings.ToLower(lit.String())), nil
	}
	c := table.Compare(cell, lit)
	switch op {
	case table.OpEq:
		return c == 0, nil
	case table.OpNe:
		return c != 0, nil
	case table.OpLt:
		return c < 0, nil
	case table.OpLe:
		return c <= 0, nil
	case table.OpGt:
		return c > 0, nil
	case table.OpGe:
		return c >= 0, nil
	}
	return false, fmt.Errorf("refeval: no definition for operator %v", op)
}

func join(l, r rel, leftCol, rightCol string) (rel, error) {
	lk, rk := l.schema.ColIndex(leftCol), r.schema.ColIndex(rightCol)
	if lk < 0 {
		return rel{}, noColumn(leftCol)
	}
	if rk < 0 {
		return rel{}, noColumn(rightCol)
	}
	out := rel{name: l.name + "_join_" + r.name, schema: slices.Clone(l.schema)}
	taken := make(map[string]bool)
	for _, col := range l.schema {
		taken[strings.ToLower(col.Name)] = true
	}
	for _, col := range r.schema {
		if taken[strings.ToLower(col.Name)] {
			col.Name = r.name + "." + col.Name
		}
		taken[strings.ToLower(col.Name)] = true
		out.schema = append(out.schema, col)
	}
	leftInner := len(l.rows) <= len(r.rows)
	outer, inner, outerKey, innerKey := r.rows, l.rows, rk, lk
	if !leftInner {
		outer, inner, outerKey, innerKey = l.rows, r.rows, lk, rk
	}
	for _, o := range outer {
		for _, i := range inner {
			if o[outerKey].IsNull() || i[innerKey].IsNull() || table.Compare(o[outerKey], i[innerKey]) != 0 {
				continue
			}
			left, right := i, o
			if !leftInner {
				left, right = o, i
			}
			out.rows = append(out.rows, append(slices.Clone(left), right...))
		}
	}
	return out, nil
}

// key is the key bytes of a list of cells: two lists' keys are equal
// exactly when their cells compare equal one by one.
func key(cells []table.Value) string {
	var k []byte
	for _, v := range cells {
		k = table.AppendKey(k, v)
	}
	return string(k)
}

func aggregate(in rel, groupBy []string, aggs []table.Agg) (rel, error) {
	out := rel{name: in.name + "_agg"}
	keys := make([]int, len(groupBy))
	for i, col := range groupBy {
		if keys[i] = in.schema.ColIndex(col); keys[i] < 0 {
			return rel{}, noColumn(col)
		}
		out.schema = append(out.schema, table.Column{Name: col, Type: in.schema[keys[i]].Type})
	}
	cols := make([]int, len(aggs))
	for i, a := range aggs {
		name, typ := a.As, table.TypeFloat
		if name == "" {
			name = strings.ToLower(a.Func.String()) + "_" + a.Col
		}
		cols[i] = -1
		switch {
		case a.Col != "":
			if cols[i] = in.schema.ColIndex(a.Col); cols[i] < 0 {
				return rel{}, noColumn(a.Col)
			}
		case a.Func != table.AggCount:
			return rel{}, fmt.Errorf("refeval: %v needs a column", a.Func)
		}
		switch a.Func {
		case table.AggCount, table.AggCountMerge:
			typ = table.TypeInt
		case table.AggMin, table.AggMax:
			typ = in.schema[cols[i]].Type
		}
		if a.Func != table.AggCount && a.Func != table.AggMin && a.Func != table.AggMax {
			if t := in.schema[cols[i]].Type; t != table.TypeInt && t != table.TypeFloat {
				return rel{}, fmt.Errorf("refeval: %v of the non-numeric column %s", a.Func, a.Col)
			}
		}
		out.schema = append(out.schema, table.Column{Name: name, Type: typ})
	}

	groups := make(map[string][][]table.Value)
	if len(groupBy) == 0 {
		groups[""] = nil
	}
	for _, row := range in.rows {
		cells := make([]table.Value, len(keys))
		for i, c := range keys {
			cells[i] = row[c]
		}
		k := key(cells)
		groups[k] = append(groups[k], row)
	}
	for _, k := range slices.Sorted(maps.Keys(groups)) {
		rows := groups[k]
		var row []table.Value
		for _, c := range keys {
			row = append(row, rows[0][c])
		}
		for i, a := range aggs {
			row = append(row, aggValue(a, cols[i], out.schema[len(keys)+i].Type, rows))
		}
		out.rows = append(out.rows, row)
	}
	return out, nil
}

// aggValue is one aggregate of a group's rows; col is -1 for COUNT(*)
// and typ the output column's type.
func aggValue(a table.Agg, col int, typ table.ColType, rows [][]table.Value) table.Value {
	if col < 0 {
		return table.I(int64(len(rows)))
	}
	var n int64
	sum, ext := 0.0, table.Value{}
	for _, row := range rows {
		v := row[col]
		if v.IsNull() {
			continue
		}
		n++
		if v.IsNumeric() {
			sum += v.Float()
		}
		if ext.IsNull() || a.Func == table.AggMin && table.Compare(v, ext) < 0 || a.Func == table.AggMax && table.Compare(v, ext) > 0 {
			ext = v
		}
	}
	switch {
	case a.Func == table.AggCount:
		return table.I(n)
	case a.Func == table.AggCountMerge:
		return table.I(int64(sum))
	case n == 0:
		return table.Null(typ)
	case a.Func == table.AggSum:
		return table.F(sum)
	case a.Func == table.AggAvg:
		return table.F(sum / float64(n))
	}
	return ext
}

func sortRows(in rel, keys []table.SortKey) (rel, error) {
	cols := make([]int, len(keys))
	for i, k := range keys {
		if cols[i] = in.schema.ColIndex(k.Col); cols[i] < 0 {
			return rel{}, noColumn(k.Col)
		}
	}
	in.rows = slices.Clone(in.rows)
	slices.SortStableFunc(in.rows, func(a, b []table.Value) int {
		for i, k := range keys {
			if c := table.Compare(a[cols[i]], b[cols[i]]); c != 0 {
				if k.Desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
	return in, nil
}

func distinct(in rel) rel {
	seen := make(map[string]bool)
	out := rel{name: in.name, schema: in.schema}
	for _, row := range in.rows {
		if k := key(row); !seen[k] {
			seen[k] = true
			out.rows = append(out.rows, row)
		}
	}
	return out
}

func compare(in rel, n *logical.Node) (rel, error) {
	if len(n.Items) == 0 {
		return rel{}, errors.New("refeval: a comparison of no items")
	}
	out := rel{name: "comparison"}
	for i, item := range slices.Sorted(slices.Values(n.Items)) {
		matched := rel{name: in.name, schema: in.schema}
		for _, row := range in.rows {
			ok, err := satisfies(in.schema, row, n.Preds)
			if err != nil {
				return rel{}, err
			}
			if !ok {
				continue
			}
			c := in.schema.ColIndex(n.CompareCol)
			if c < 0 {
				return rel{}, noColumn(n.CompareCol)
			}
			if ok, _ := holds(row[c], table.OpContains, table.S(item)); ok {
				matched.rows = append(matched.rows, row)
			}
		}
		g, err := aggregate(matched, []string{n.CompareCol}, n.Aggs)
		if err != nil {
			return rel{}, err
		}
		if i == 0 {
			out.schema = g.schema
		}
		out.rows = append(out.rows, g.rows...)
	}
	return out, nil
}
