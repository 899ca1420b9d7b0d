package table

import (
	"fmt"
	"sort"
	"strings"
)

// CmpOp is a comparison operator in a predicate.
type CmpOp int

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpContains // case-insensitive substring, strings only
)

// String renders the operator.
func (o CmpOp) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpContains:
		return "CONTAINS"
	default:
		return "?"
	}
}

// Pred is a single-column comparison predicate.
type Pred struct {
	Col string
	Op  CmpOp
	Val Value
}

// String renders the predicate.
func (p Pred) String() string {
	return fmt.Sprintf("%s %s %s", p.Col, p.Op, p.Val)
}

// Eval applies the predicate to a row of the given schema. NULL never
// satisfies any comparison (SQL three-valued logic collapsed to false).
func (p Pred) Eval(schema Schema, row []Value) (bool, error) {
	idx := schema.ColIndex(p.Col)
	if idx < 0 {
		return false, fmt.Errorf("%w: %s", ErrNoColumn, p.Col)
	}
	return p.Match(row[idx])
}

// Match applies the predicate's comparison to a single cell. It is the
// one comparison body both executors share: Eval resolves the column
// and calls it per row, and the vectorized kernels call it on every
// path their typed fast paths do not cover — so the two executors
// cannot diverge on comparison semantics.
func (p Pred) Match(v Value) (bool, error) {
	if v.IsNull() || p.Val.IsNull() {
		return false, nil
	}
	if p.Op == OpContains {
		return strings.Contains(strings.ToLower(v.String()), strings.ToLower(p.Val.String())), nil
	}
	c := Compare(v, p.Val)
	switch p.Op {
	case OpEq:
		return c == 0, nil
	case OpNe:
		return c != 0, nil
	case OpLt:
		return c < 0, nil
	case OpLe:
		return c <= 0, nil
	case OpGt:
		return c > 0, nil
	case OpGe:
		return c >= 0, nil
	default:
		return false, fmt.Errorf("table: unknown operator %v", p.Op)
	}
}

// Filter returns the rows satisfying all predicates (conjunction).
func Filter(t *Table, preds ...Pred) (*Table, error) {
	out := New(t.Name, t.Schema)
	var err error
	if out.Rows, err = appendMatching(out.Rows, t.Schema, t.Rows, preds); err != nil {
		return nil, err
	}
	return out, nil
}

// appendMatching appends the rows satisfying every predicate to dst, in
// row order — the engine's one predicate-conjunction loop.
func appendMatching(dst [][]Value, schema Schema, rows [][]Value, preds []Pred) ([][]Value, error) {
rows:
	for _, row := range rows {
		for _, p := range preds {
			ok, err := p.Eval(schema, row)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue rows
			}
		}
		dst = append(dst, row)
	}
	return dst, nil
}

// Project returns only the named columns, in the given order.
func Project(t *Table, cols ...string) (*Table, error) {
	idxs := make([]int, len(cols))
	schema := make(Schema, len(cols))
	for i, c := range cols {
		idx := t.Schema.ColIndex(c)
		if idx < 0 {
			return nil, fmt.Errorf("%w: %s", ErrNoColumn, c)
		}
		idxs[i] = idx
		schema[i] = t.Schema[idx]
	}
	out := New(t.Name, schema)
	for _, row := range t.Rows {
		nr := make([]Value, len(idxs))
		for i, idx := range idxs {
			nr[i] = row[idx]
		}
		out.Rows = append(out.Rows, nr)
	}
	return out, nil
}

// HashJoin performs an inner equi-join of left and right on
// left.leftCol = right.rightCol, building the hash table on the smaller
// side. Output schema is left columns followed by right columns, with
// right-side name collisions prefixed by the right table name. The
// build map is pre-sized from the build side's length.
func HashJoin(left, right *Table, leftCol, rightCol string) (*Table, error) {
	li := left.Schema.ColIndex(leftCol)
	if li < 0 {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoColumn, left.Name, leftCol)
	}
	ri := right.Schema.ColIndex(rightCol)
	if ri < 0 {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoColumn, right.Name, rightCol)
	}
	out := New(left.Name+"_join_"+right.Name, JoinedSchema(left.Schema, right.Name, right.Schema))

	// Build on the smaller input, probe with the larger, both by key.
	buildLeft := len(left.Rows) <= len(right.Rows)
	bt, bi, pt, pi := left, li, right, ri
	if !buildLeft {
		bt, bi, pt, pi = right, ri, left, li
	}
	build := make(map[string][][]Value, len(bt.Rows))
	for _, br := range bt.Rows {
		if !br[bi].IsNull() {
			k := br[bi].Key()
			build[k] = append(build[k], br)
		}
	}
	var kb []byte
	for _, pr := range pt.Rows {
		if pr[pi].IsNull() {
			continue
		}
		kb = AppendKey(kb[:0], pr[pi])
		for _, br := range build[string(kb)] {
			if buildLeft {
				out.Rows = append(out.Rows, concatRows(br, pr))
			} else {
				out.Rows = append(out.Rows, concatRows(pr, br))
			}
		}
	}
	return out, nil
}

// JoinedSchema computes the output schema of a join without executing
// it: left columns first, then right columns with name collisions
// prefixed by the right relation's name. Plan compilers use it to
// resolve column references exactly the way HashJoin will name them.
func JoinedSchema(left Schema, rightName string, right Schema) Schema {
	schema := append(Schema(nil), left...)
	used := make(map[string]bool, len(schema))
	for _, c := range schema {
		used[strings.ToLower(c.Name)] = true
	}
	for _, c := range right {
		name := c.Name
		if used[strings.ToLower(name)] {
			name = rightName + "." + name
		}
		used[strings.ToLower(name)] = true
		schema = append(schema, Column{Name: name, Type: c.Type})
	}
	return schema
}

func concatRows(a, b []Value) []Value {
	out := make([]Value, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// AggFunc is an aggregation function.
type AggFunc int

// Aggregation functions.
const (
	AggSum AggFunc = iota
	AggAvg
	AggCount
	AggMin
	AggMax
	// AggCountMerge re-aggregates already-counted partial COUNT columns:
	// it sums integer partial counts and emits an integer, so a COUNT
	// regrouped from a materialized rollup keeps COUNT's output type and
	// exact value. Counts stay far below 2^53, where float64 addition is
	// exact, so the shared float accumulator loses nothing. Only the
	// rollup routing pass emits it; no entry language parses it.
	AggCountMerge
)

// String names the function.
func (f AggFunc) String() string {
	switch f {
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggCount:
		return "COUNT"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggCountMerge:
		return "COUNT_MERGE"
	default:
		return "?"
	}
}

// Agg is one aggregation: Func over Col, emitted as output column As.
// For AggCount, Col may be "" (count rows) or a column (count non-null).
type Agg struct {
	Func AggFunc
	Col  string
	As   string
}

// OutName is the output column the aggregation emits: As, or by
// default the lower-cased function and the column ("sum_units").
func (a Agg) OutName() string {
	if a.As != "" {
		return a.As
	}
	return strings.ToLower(a.Func.String()) + "_" + a.Col
}

// Aggregate groups t by the groupBy columns (possibly empty for a
// global aggregate) and computes the aggregations. Output columns are
// the group keys followed by one column per Agg. NULLs are skipped by
// every function except COUNT(""). Group order is deterministic
// (sorted by key values).
func Aggregate(t *Table, groupBy []string, aggs []Agg) (*Table, error) {
	acc, err := makeAggAcc(t.Schema, groupBy, aggs)
	if err != nil {
		return nil, err
	}
	acc.fold(t.Rows)
	return acc.emit(t.Name + "_agg"), nil
}

// aggAcc is the row engine's group-by accumulation state, split into
// fold (accumulate rows, in row order) and emit (materialize groups in
// sorted key order) so a caller can keep it alive between folds. The
// rollup maintainer relies on exactly that split: folding only a Put's
// appended rows into a retained aggAcc performs the identical
// accumulation sequence — including every float addition — as folding
// all rows from scratch, which is what makes incremental rollup
// materializations bit-equal to full rebuilds (FuzzRollupMaintenance).
type aggAcc struct {
	schema   Schema
	groupBy  []string
	aggs     []Agg
	groupIdx []int
	aggIdx   []int

	groups map[string]*aggGroup // allocated on first fold of a row
	order  []string
}

// aggGroup is one group's accumulator: the key values plus per-agg
// running sums, non-null counts and min/max values.
type aggGroup struct {
	key    []Value
	sums   []float64
	counts []int64
	mins   []Value
	maxs   []Value
}

// newAggAcc resolves the group and aggregate columns against schema and
// returns an empty heap-retained accumulator for callers that keep it
// alive across folds.
func newAggAcc(schema Schema, groupBy []string, aggs []Agg) (*aggAcc, error) {
	acc, err := makeAggAcc(schema, groupBy, aggs)
	if err != nil {
		return nil, err
	}
	return &acc, nil
}

// makeAggAcc is newAggAcc returning the accumulator by value, so a
// fold-then-emit caller like Aggregate can keep it on its stack.
func makeAggAcc(schema Schema, groupBy []string, aggs []Agg) (aggAcc, error) {
	groupIdx := make([]int, len(groupBy))
	for i, c := range groupBy {
		idx := schema.ColIndex(c)
		if idx < 0 {
			return aggAcc{}, fmt.Errorf("%w: %s", ErrNoColumn, c)
		}
		groupIdx[i] = idx
	}
	aggIdx := make([]int, len(aggs))
	for i, a := range aggs {
		if a.Col == "" {
			if a.Func != AggCount {
				return aggAcc{}, fmt.Errorf("table: %v requires a column", a.Func)
			}
			aggIdx[i] = -1
			continue
		}
		idx := schema.ColIndex(a.Col)
		if idx < 0 {
			return aggAcc{}, fmt.Errorf("%w: %s", ErrNoColumn, a.Col)
		}
		if a.Func != AggCount && a.Func != AggMin && a.Func != AggMax && schema[idx].Type != TypeInt && schema[idx].Type != TypeFloat {
			return aggAcc{}, fmt.Errorf("table: %v over non-numeric column %s", a.Func, a.Col)
		}
		aggIdx[i] = idx
	}
	return aggAcc{
		schema:   schema,
		groupBy:  groupBy,
		aggs:     aggs,
		groupIdx: groupIdx,
		aggIdx:   aggIdx,
	}, nil
}

// fold accumulates the rows, in order, into the group state.
func (a *aggAcc) fold(rows [][]Value) {
	if len(rows) > 0 && a.groups == nil {
		a.groups = make(map[string]*aggGroup)
	}
	var kb []byte
	for _, row := range rows {
		kb = kb[:0]
		for _, gi := range a.groupIdx {
			kb = AppendKey(kb, row[gi])
		}
		acc, ok := a.groups[string(kb)]
		if !ok {
			ks := string(kb)
			key := make([]Value, len(a.groupIdx))
			for i, gi := range a.groupIdx {
				key[i] = row[gi]
			}
			acc = &aggGroup{
				key:    key,
				sums:   make([]float64, len(a.aggs)),
				counts: make([]int64, len(a.aggs)),
				mins:   make([]Value, len(a.aggs)),
				maxs:   make([]Value, len(a.aggs)),
			}
			a.groups[ks] = acc
			a.order = append(a.order, ks)
		}
		for i := range a.aggs {
			if a.aggIdx[i] == -1 {
				acc.counts[i]++
				continue
			}
			v := row[a.aggIdx[i]]
			if v.IsNull() {
				continue
			}
			acc.counts[i]++
			if v.IsNumeric() {
				acc.sums[i] += v.Float()
			}
			if acc.mins[i].IsNull() || Compare(v, acc.mins[i]) < 0 {
				acc.mins[i] = v
			}
			if acc.maxs[i].IsNull() || Compare(v, acc.maxs[i]) > 0 {
				acc.maxs[i] = v
			}
		}
	}
}

// emit materializes the groups, in sorted key order, as a fresh table.
// The accumulator stays valid: emit may be called again after more
// folds and will include everything folded so far.
func (a *aggAcc) emit(name string) *Table {
	sort.Strings(a.order)
	out := New(name, AggregateSchema(a.schema, a.groupBy, a.aggs))
	if len(a.order) > 0 {
		out.Rows = make([][]Value, 0, len(a.order))
	}
	for _, ks := range a.order {
		acc := a.groups[ks]
		row := append([]Value(nil), acc.key...)
		for i, ag := range a.aggs {
			switch ag.Func {
			case AggSum:
				if acc.counts[i] == 0 {
					row = append(row, Null(TypeFloat))
				} else {
					row = append(row, F(acc.sums[i]))
				}
			case AggAvg:
				if acc.counts[i] == 0 {
					row = append(row, Null(TypeFloat))
				} else {
					row = append(row, F(acc.sums[i]/float64(acc.counts[i])))
				}
			case AggCount:
				row = append(row, I(acc.counts[i]))
			case AggMin:
				row = append(row, acc.mins[i])
			case AggMax:
				row = append(row, acc.maxs[i])
			case AggCountMerge:
				row = append(row, I(int64(acc.sums[i])))
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// AggregateSchema computes the output schema of Aggregate without
// executing it: group-key columns (with their input types) followed by
// one column per aggregation. Plan compilers use it to resolve
// references against aggregated relations.
func AggregateSchema(in Schema, groupBy []string, aggs []Agg) Schema {
	schema := make(Schema, 0, len(groupBy)+len(aggs))
	for _, c := range groupBy {
		typ := TypeString
		if idx := in.ColIndex(c); idx >= 0 {
			typ = in[idx].Type
		}
		schema = append(schema, Column{Name: c, Type: typ})
	}
	for _, a := range aggs {
		typ := TypeFloat
		if a.Func == AggCount || a.Func == AggCountMerge {
			typ = TypeInt
		} else if a.Func == AggMin || a.Func == AggMax {
			if idx := in.ColIndex(a.Col); idx >= 0 {
				typ = in[idx].Type
			}
		}
		schema = append(schema, Column{Name: a.OutName(), Type: typ})
	}
	return schema
}

// SortKey orders rows by a column.
type SortKey struct {
	Col  string
	Desc bool
}

// Sort returns a copy of t ordered by the keys (stable).
func Sort(t *Table, keys ...SortKey) (*Table, error) {
	idxs := make([]int, len(keys))
	for i, k := range keys {
		idx := t.Schema.ColIndex(k.Col)
		if idx < 0 {
			return nil, fmt.Errorf("%w: %s", ErrNoColumn, k.Col)
		}
		idxs[i] = idx
	}
	out := t.Clone()
	sort.SliceStable(out.Rows, func(a, b int) bool {
		for i, k := range keys {
			c := Compare(out.Rows[a][idxs[i]], out.Rows[b][idxs[i]])
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return out, nil
}

// Limit returns at most n rows.
func Limit(t *Table, n int) *Table {
	out := New(t.Name, t.Schema)
	if n > len(t.Rows) {
		n = len(t.Rows)
	}
	if n < 0 {
		n = 0
	}
	out.Rows = append(out.Rows, t.Rows[:n]...)
	return out
}

// Distinct removes duplicate rows, keeping first occurrences.
func Distinct(t *Table) *Table {
	out := New(t.Name, t.Schema)
	seen := make(map[string]bool)
	var kb []byte
	for _, row := range t.Rows {
		kb = kb[:0]
		for _, v := range row {
			kb = AppendKey(kb, v)
		}
		if !seen[string(kb)] {
			seen[string(kb)] = true
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}
