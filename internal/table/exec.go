package table

import (
	"fmt"
	"slices"
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

// Holds reports whether a comparison whose outcome is c (Compare's
// sign) satisfies o. It is the one truth table both executors share:
// CONTAINS, which is not an ordering, and an operator outside the
// dialect hold for no outcome.
func (o CmpOp) Holds(c int) bool {
	switch o {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	}
	return false
}

// Err is the error a comparison under o raises when a non-NULL cell
// meets a non-NULL literal: nil for the dialect's seven operators. Both
// executors decide it once per predicate, so Match never fails.
func (o CmpOp) Err() error {
	if o < OpEq || o > OpContains {
		return fmt.Errorf("table: unknown operator %v", o)
	}
	return nil
}

// Match applies the predicate's comparison to a single cell. NULL never
// satisfies any comparison (SQL three-valued logic collapsed to false),
// and neither does an operator Err rejects. It is the one comparison
// body both executors share: the row filter calls it per row, and the
// vectorized kernels call it on every path their typed fast paths do
// not cover — so the two executors cannot diverge on comparison
// semantics.
func (p Pred) Match(v Value) bool {
	if v.IsNull() || p.Val.IsNull() {
		return false
	}
	if p.Op == OpContains {
		return strings.Contains(strings.ToLower(v.String()), strings.ToLower(p.Val.String()))
	}
	return p.Op.Holds(Compare(v, p.Val))
}

// Filter returns the rows satisfying all predicates (conjunction).
func Filter(t *Table, preds ...Pred) (*Table, error) {
	out := New(t.Name, t.Schema)
	var err error
	if out.Rows, err = appendMatching(out.Rows, t.Schema, t.RowView(), preds); err != nil {
		return nil, err
	}
	return out, nil
}

// appendMatching appends the rows satisfying every predicate to dst, in
// row order — the engine's one predicate-conjunction loop. Each
// predicate's column is resolved once; a missing column fails only when
// a row reaches its predicate, and an operator Err rejects only when a
// non-NULL cell meets a non-NULL literal there.
func appendMatching(dst [][]Value, schema Schema, rows [][]Value, preds []Pred) ([][]Value, error) {
	idx := make([]int, len(preds))
	opErr := make([]error, len(preds))
	for i, p := range preds {
		idx[i], opErr[i] = schema.ColIndex(p.Col), p.Op.Err()
	}
rows:
	for _, row := range rows {
		for i, p := range preds {
			if idx[i] < 0 {
				return nil, fmt.Errorf("%w: %s", ErrNoColumn, p.Col)
			}
			v := row[idx[i]]
			if opErr[i] != nil && !v.IsNull() && !p.Val.IsNull() {
				return nil, opErr[i]
			}
			if !p.Match(v) {
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
	rows := t.RowView()
	out.Rows = slices.Grow(out.Rows, len(rows))
	cells := make([]Value, 0, len(rows)*len(idxs)) // every row carved from one slab
	for _, row := range rows {
		for _, idx := range idxs {
			cells = append(cells, row[idx])
		}
		out.Rows = append(out.Rows, cells[len(cells)-len(idxs):len(cells):len(cells)])
	}
	return out, nil
}

// HashJoin performs an inner equi-join of left and right on
// left.leftCol = right.rightCol, building the hash table on the smaller
// side (the left on a tie) and probing with the other: NULL keys never
// join, and keys join when Compare calls them equal. Rows come in probe
// order, each probe row's matches in build order. Output schema is left
// columns followed by right columns, with right-side name collisions
// prefixed by the right table name. It is the one hash join: both
// executors run it.
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
	buildLeft := left.Len() <= right.Len()
	bt, bi, pt, pi := left.RowView(), li, right.RowView(), ri
	if !buildLeft {
		bt, bi, pt, pi = pt, ri, bt, li
	}
	build := make(map[string][][]Value, len(bt))
	for _, br := range bt {
		if !br[bi].IsNull() {
			k := br[bi].Key()
			build[k] = append(build[k], br)
		}
	}
	var kb []byte
	for _, pr := range pt {
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
// (sorted by key values). A global aggregate emits one row even over no
// rows, as SQL does: COUNT is 0 and every other function NULL.
func Aggregate(t *Table, groupBy []string, aggs []Agg) (*Table, error) {
	var acc AggAcc
	if err := acc.Init(t.Schema, nil, groupBy, aggs); err != nil {
		return nil, err
	}
	acc.Fold(t.RowView())
	return acc.Emit(t.Name + "_agg"), nil
}

// AggAcc is the system's one group-by accumulator: both executors, the
// federated backends' pushed aggregates and rollup maintenance run
// through it. Init resolves and type-checks the columns once; Fold
// (rows) and FoldBatches (columnar batches and their selections)
// accumulate in input order, so float sums are the same additions in
// the same order on every path; Emit materializes the groups in sorted
// key order and leaves the accumulator valid for more Folds. The rollup
// maintainer relies on that split: folding only a Put's appended rows
// into a retained accumulator performs the identical accumulation
// sequence — including every float addition — as folding all rows from
// scratch, which is what makes incremental rollup materializations
// bit-equal to full rebuilds (FuzzRollupMaintenance).
//
// FoldBatches folds a fresh accumulator's whole stream once, between
// Init and Emit. It resolves each batch's rows to their groups first
// and then folds each aggregate's column over them in a typed loop. A
// group's identity is its key (AppendKey's bytes) in one map, except
// for a single group column that carries table-wide ordinals in every
// batch (OrdinalSpan): there an array indexed by ordinal holds the
// groups, no key is written while folding, and each group's key is
// written once at the end, all into one buffer, for Emit to order the
// output by the same bytes. Such groups enter no key map, so no Fold
// may follow.
// Groups and their states are carved from chunked slabs (groupSlab). A
// zero AggAcc is ready for Init.
type AggAcc struct {
	schema  Schema
	groupBy []string
	aggs    []Agg
	groupIn []int // input column of each group key
	aggIn   []int // input column of each aggregate; -1 = COUNT(*)
	extAt   []int // the group cell of each aggregate's extreme; -1 but for MIN and MAX
	cells   int   // a group's cells: one per group key, MIN and MAX

	global *aggGroup            // a global aggregate's one group, from its first row on
	groups map[string]*aggGroup // keyed groups, allocated with the first
	order  []keyedGroup         // keyed groups in first-seen order until Emit sorts them
	kb     []byte
	slab   groupSlab
}

// aggGroup is one group: its cells — its key cells, then the least
// (MIN) or greatest (MAX) cell so far of each MIN and MAX aggregate, at
// AggAcc.extAt — and one running state per aggregate.
type aggGroup struct {
	cells []Value
	aggs  []aggState
}

// keyedGroup is a keyed group and its key encoding.
type keyedGroup struct {
	key string
	g   *aggGroup
}

// aggState is one aggregate's running state in a group: the sum and
// count of its non-NULL cells.
type aggState struct {
	sum   float64
	count int64
}

// maxSlabGroups caps a groupSlab chunk.
const maxSlabGroups = 256

// groupSlab is the chunk new groups are carved from: the groups, their
// aggregate states and their cells. The first chunk holds one
// group, each next one twice the last up to maxSlabGroups, so a global
// aggregate allocates what its one group did alone and a group-by a
// few chunks per thousand groups instead of three allocations each.
type groupSlab struct {
	groups []aggGroup
	states []aggState
	cells  []Value
}

// carve returns a zeroed group with nc cells and na states.
func (s *groupSlab) carve(nc, na int) *aggGroup {
	if len(s.groups) == cap(s.groups) {
		n := min(max(2*cap(s.groups), 1), maxSlabGroups)
		s.groups = make([]aggGroup, 0, n)
		s.states = make([]aggState, n*na)
		s.cells = make([]Value, n*nc)
	}
	s.groups = s.groups[:len(s.groups)+1]
	g := &s.groups[len(s.groups)-1]
	g.cells, s.cells = s.cells[:nc:nc], s.cells[nc:]
	g.aggs, s.states = s.states[:na:na], s.states[na:]
	return g
}

// Init resolves the group and aggregate columns against schema and
// empties the accumulator. Folded rows and batches hold schema column i
// at input column cols[i]; nil cols is the identity.
func (a *AggAcc) Init(schema Schema, cols []int, groupBy []string, aggs []Agg) error {
	in := func(idx int) int {
		if cols == nil {
			return idx
		}
		return cols[idx]
	}
	groupIn := make([]int, len(groupBy))
	for i, c := range groupBy {
		idx := schema.ColIndex(c)
		if idx < 0 {
			return fmt.Errorf("%w: %s", ErrNoColumn, c)
		}
		groupIn[i] = in(idx)
	}
	at, cells := make([]int, 2*len(aggs)), len(groupIn) // aggIn and extAt, in one allocation
	aggIn, extAt := at[:len(aggs)], at[len(aggs):]
	for i, ag := range aggs {
		extAt[i] = -1
		if ag.Func == AggMin || ag.Func == AggMax {
			extAt[i], cells = cells, cells+1
		}
		if ag.Col == "" {
			if ag.Func != AggCount {
				return fmt.Errorf("table: %v requires a column", ag.Func)
			}
			aggIn[i] = -1
			continue
		}
		idx := schema.ColIndex(ag.Col)
		if idx < 0 {
			return fmt.Errorf("%w: %s", ErrNoColumn, ag.Col)
		}
		if ag.Func != AggCount && ag.Func != AggMin && ag.Func != AggMax && schema[idx].Type != TypeInt && schema[idx].Type != TypeFloat {
			return fmt.Errorf("table: %v over non-numeric column %s", ag.Func, ag.Col)
		}
		aggIn[i] = in(idx)
	}
	*a = AggAcc{schema: schema, groupBy: groupBy, aggs: aggs, groupIn: groupIn, aggIn: aggIn, extAt: extAt, cells: cells}
	return nil
}

// Fold accumulates the rows, in order. It may not follow a FoldBatches
// that grouped by ordinal.
func (a *AggAcc) Fold(rows [][]Value) {
	if len(a.groups) != len(a.order) {
		panic("table: AggAcc.Fold after a fold by ordinal")
	}
	for _, row := range rows {
		g := a.global
		if g == nil {
			a.kb = a.kb[:0]
			for _, c := range a.groupIn {
				a.kb = AppendKey(a.kb, row[c])
			}
			if g = a.groups[string(a.kb)]; g == nil {
				g = a.addGroup()
				for i, c := range a.groupIn {
					g.cells[i] = row[c]
				}
			}
		}
		for i, c := range a.aggIn {
			if c < 0 {
				g.aggs[i].count++
			} else if v := row[c]; !v.IsNull() {
				a.add(g, i, v)
			}
		}
	}
}

// FoldBatches accumulates the batches into the freshly Init'ed
// accumulator, in order: of bs[bi], the rows sels[bi] selects (nil
// sels, or a nil entry: every row), in row order. A global aggregate
// folds each aggregate's column in one loop. A group-by resolves every
// selected row of a batch to its group first — by ordinal into one
// array when its one group column qualifies (OrdinalSpan), by key
// otherwise — and then folds each aggregate's column over them. Either way COUNT, SUM
// and AVG of an unboxed int or float column add without building a
// Value, carrying a group's count and sum across a run of its rows, and
// each group's state sees its cells in row order, so its float
// additions are the ones Fold makes.
func (a *AggAcc) FoldBatches(bs []*Batch, sels [][]int32) { a.foldBatches(bs, sels, true) }

// foldBatches is FoldBatches, grouping by ordinal only when byOrdinal
// allows it: a fold by key leaves the accumulator open to more Folds.
func (a *AggAcc) foldBatches(bs []*Batch, sels [][]int32, byOrdinal bool) {
	if a.global != nil || len(a.order) > 0 {
		panic("table: AggAcc.FoldBatches on an accumulator already folded")
	}
	var dense []*aggGroup // groups by ordinal, then NULL's
	if byOrdinal && len(a.groupIn) == 1 {
		if span, ok := OrdinalSpan(bs, sels, a.groupIn[0]); ok {
			dense = make([]*aggGroup, span+1)
			a.order = make([]keyedGroup, 0, span+1) // at most a group per slot
		}
	}
	var ks [FragmentRows]uint32       // each selected row's slot in its batch's groups
	var local [FragmentRows]*aggGroup // a batch's groups by key, one slot per row
	for bi, b := range bs {
		var sel []int32
		if sels != nil {
			sel = sels[bi]
		}
		n := b.Len
		if sel != nil {
			n = len(sel)
		}
		switch {
		case n == 0:
		case len(a.groupIn) == 0:
			g := a.global
			if g == nil {
				g = a.addGroup()
			}
			for i := range a.aggs {
				a.foldGlobal(g, i, b, sel, n)
			}
		default:
			groups := dense
			if dense != nil {
				a.ordSlots(ks[:n], dense, &b.Cols[a.groupIn[0]], sel)
			} else {
				for j := range n {
					local[j], ks[j] = a.batchGroup(b, selRow(sel, j)), uint32(j)
				}
				groups = local[:n]
			}
			for i := range a.aggs {
				a.foldGrouped(groups, ks[:n], i, b, sel)
			}
		}
	}
	if dense != nil {
		a.writeKeys()
	}
}

// selRow is the j-th row sel selects (nil: all).
func selRow(sel []int32, j int) int {
	if sel == nil {
		return j
	}
	return int(sel[j])
}

// foldGlobal folds aggregate i's column over the n rows of b that sel
// selects into group g.
func (a *AggAcc) foldGlobal(g *aggGroup, i int, b *Batch, sel []int32, n int) {
	c, st := a.aggIn[i], &g.aggs[i]
	if c < 0 {
		st.count += int64(n)
		return
	}
	switch col := &b.Cols[c]; {
	case a.aggs[i].Func == AggMin || a.aggs[i].Func == AggMax:
	case col.Ints != nil:
		foldNums(st, sel, n, col.Nulls, col.Ints)
		return
	case col.Floats != nil:
		foldNums(st, sel, n, col.Nulls, col.Floats)
		return
	}
	for j := 0; j < n; j++ {
		a.foldCell(g, i, b, selRow(sel, j))
	}
}

// foldNums adds the non-NULL cells of vals that sel selects (nil: the
// first n) to st, in row order.
func foldNums[T int64 | float64](st *aggState, sel []int32, n int, nulls Bitmap, vals []T) {
	count, sum := st.count, st.sum
	if sel == nil {
		for ri, x := range vals[:n] {
			if !nulls.Get(ri) {
				count++
				sum += float64(x)
			}
		}
	} else {
		for _, ri := range sel {
			if !nulls.Get(int(ri)) {
				count++
				sum += float64(vals[ri])
			}
		}
	}
	st.count, st.sum = count, sum
}

// ordSlots writes the ordinal of each row of col that sel selects (nil:
// all) to ks, one entry per selected row and len(dense)-1 for NULL, and
// makes the group dense[k] of each slot k at its first row. A whole
// batch holds a row of every entry of its dictionary, and of NULL when
// its bitmap is set, so their groups are made before its rows are read.
func (a *AggAcc) ordSlots(ks []uint32, dense []*aggGroup, col *ColVec, sel []int32) {
	null := uint32(len(dense) - 1)
	if sel == nil {
		for code, o := range col.Ords {
			if dense[o] == nil {
				key := S(col.Dict[code])
				if col.Type == TypeDate {
					key = D(col.Dict[code])
				}
				dense[o] = a.ordGroup(key)
			}
		}
		if len(col.Ords) > 0 { // else every row is NULL, and its code no entry's
			for ri, code := range col.Codes[:len(ks)] {
				ks[ri] = col.Ords[code]
			}
		}
		if col.Nulls != nil {
			if dense[null] == nil {
				dense[null] = a.ordGroup(Null(col.Type))
			}
			for ri := range ks {
				if col.Nulls.Get(ri) {
					ks[ri] = null
				}
			}
		}
		return
	}
	for j, ri := range sel {
		k := null
		if !col.Nulls.Get(int(ri)) {
			k = col.Ords[col.Codes[ri]]
		}
		if dense[k] == nil {
			dense[k] = a.ordGroup(col.ValueAt(int(ri)))
		}
		ks[j] = k
	}
}

// ordGroup makes the group of one group key for a fold by ordinal: it
// enters no key map, and writeKeys writes its key once the fold ends.
func (a *AggAcc) ordGroup(key Value) *aggGroup {
	g := a.slab.carve(a.cells, len(a.aggs))
	g.cells[0] = key
	a.order = append(a.order, keyedGroup{g: g})
	return g
}

// foldGrouped folds aggregate i's column over the selected rows of b,
// the j-th into the state of group groups[ks[j]].
func (a *AggAcc) foldGrouped(groups []*aggGroup, ks []uint32, i int, b *Batch, sel []int32) {
	c := a.aggIn[i]
	if c < 0 {
		countGrouped(groups, ks, i)
		return
	}
	switch col := &b.Cols[c]; {
	case a.aggs[i].Func == AggMin || a.aggs[i].Func == AggMax:
	case col.Ints != nil:
		foldNumsGrouped(groups, ks, i, sel, col.Nulls, col.Ints)
		return
	case col.Floats != nil:
		foldNumsGrouped(groups, ks, i, sel, col.Nulls, col.Floats)
		return
	}
	for j, k := range ks {
		a.foldCell(groups[k], i, b, selRow(sel, j))
	}
}

// countGrouped counts each row into state i of its group, carrying a
// group's count across a run of its rows.
func countGrouped(groups []*aggGroup, ks []uint32, i int) {
	cur := ks[0]
	st := &groups[cur].aggs[i]
	count := st.count
	for _, k := range ks {
		if k != cur {
			st.count = count
			cur, st = k, &groups[k].aggs[i]
			count = st.count
		}
		count++
	}
	st.count = count
}

// foldNumsGrouped adds each non-NULL cell of vals that sel selects
// (nil: the first len(ks)) to state i of its row's group, in row order,
// carrying a group's count and sum across a run of its rows.
func foldNumsGrouped[T int64 | float64](groups []*aggGroup, ks []uint32, i int, sel []int32, nulls Bitmap, vals []T) {
	cur := ks[0]
	st := &groups[cur].aggs[i]
	count, sum := st.count, st.sum
	if sel == nil {
		vals = vals[:len(ks)]
		for ri, k := range ks {
			if nulls.Get(ri) {
				continue
			}
			if k != cur {
				st.count, st.sum = count, sum
				cur, st = k, &groups[k].aggs[i]
				count, sum = st.count, st.sum
			}
			count++
			sum += float64(vals[ri])
		}
	} else {
		for j, k := range ks {
			ri := sel[j]
			if nulls.Get(int(ri)) {
				continue
			}
			if k != cur {
				st.count, st.sum = count, sum
				cur, st = k, &groups[k].aggs[i]
				count, sum = st.count, st.sum
			}
			count++
			sum += float64(vals[ri])
		}
	}
	st.count, st.sum = count, sum
}

// foldCell folds row ri's cell of aggregate i's column into group g.
func (a *AggAcc) foldCell(g *aggGroup, i int, b *Batch, ri int) {
	c := a.aggIn[i]
	if c < 0 {
		g.aggs[i].count++
		return
	}
	col := &b.Cols[c]
	if col.Boxed == nil && col.Nulls.Get(ri) {
		return
	}
	switch st, e := &g.aggs[i], a.extAt[i]; {
	case col.Ints != nil:
		st.count++
		st.sum += float64(col.Ints[ri])
		if e >= 0 {
			keepExtreme(&g.cells[e], a.aggs[i].Func, I(col.Ints[ri]))
		}
	case col.Floats != nil:
		st.count++
		st.sum += col.Floats[ri]
		if e >= 0 {
			keepExtreme(&g.cells[e], a.aggs[i].Func, F(col.Floats[ri]))
		}
	default:
		if v := col.ValueAt(ri); !v.IsNull() {
			a.add(g, i, v)
		}
	}
}

// batchGroup is row ri's group, found or created by its key.
func (a *AggAcc) batchGroup(b *Batch, ri int) *aggGroup {
	a.kb = a.kb[:0]
	for _, c := range a.groupIn {
		a.kb = b.Cols[c].AppendKey(a.kb, ri)
	}
	if g := a.groups[string(a.kb)]; g != nil {
		return g
	}
	g := a.addGroup()
	for i, c := range a.groupIn {
		g.cells[i] = b.Cols[c].ValueAt(ri)
	}
	return g
}

// addGroup registers a new group under the key in a.kb — the global
// group when there is no group column — for the caller to fill its key
// cells.
func (a *AggAcc) addGroup() *aggGroup {
	g := a.slab.carve(a.cells, len(a.aggs))
	if len(a.groupIn) == 0 {
		a.global = g
		return g
	}
	if a.groups == nil {
		a.groups = make(map[string]*aggGroup)
	}
	ks := string(a.kb)
	a.groups[ks] = g
	a.order = append(a.order, keyedGroup{ks, g})
	return g
}

// writeKeys writes the key of every group of a fold by ordinal, all
// into one buffer that their keys slice. Such a fold runs only on a
// fresh accumulator, so every group is its, with one key cell.
func (a *AggAcc) writeKeys() {
	size := 0
	for _, kg := range a.order {
		size += len(kg.g.cells[0].s) + 6 // a string's text and 3 bytes, or NULL's 6
	}
	ends, buf := make([]int, len(a.order)), make([]byte, 0, size)
	for i, kg := range a.order {
		buf = AppendKey(buf, kg.g.cells[0])
		ends[i] = len(buf)
	}
	keys, start := string(buf), 0
	for i, end := range ends {
		a.order[i].key, start = keys[start:end], end
	}
}

// add folds one non-NULL cell into group g's state of aggregate i.
func (a *AggAcc) add(g *aggGroup, i int, v Value) {
	st := &g.aggs[i]
	st.count++
	if v.IsNumeric() {
		st.sum += v.Float()
	}
	if e := a.extAt[i]; e >= 0 {
		keepExtreme(&g.cells[e], a.aggs[i].Func, v)
	}
}

// keepExtreme keeps v in ext when it is the least cell so far of a MIN
// f, or the greatest of a MAX.
func keepExtreme(ext *Value, f AggFunc, v Value) {
	if ext.IsNull() || f == AggMin && Compare(v, *ext) < 0 || f == AggMax && Compare(v, *ext) > 0 {
		*ext = v
	}
}

// Emit materializes the groups, in sorted key order, as a fresh table:
// one row for a global aggregate, folded or not; a keyed group-by's
// rows are carved from one allocation. The accumulator stays valid:
// Emit may be called again after more Folds and will include
// everything folded so far.
func (a *AggAcc) Emit(name string) *Table {
	out := New(name, AggregateSchema(a.schema, a.groupBy, a.aggs))
	w := len(out.Schema)
	if len(a.groupBy) == 0 {
		out.Rows = [][]Value{a.row(a.global, out.Schema, make([]Value, 0, w))}
		return out
	}
	slices.SortFunc(a.order, func(x, y keyedGroup) int { return strings.Compare(x.key, y.key) })
	if len(a.order) > 0 {
		out.Rows = make([][]Value, len(a.order))
	}
	cells := make([]Value, len(a.order)*w)
	for i, kg := range a.order {
		out.Rows[i] = a.row(kg.g, out.Schema, cells[i*w:i*w:(i+1)*w])
	}
	return out
}

// row appends the group to dst and returns it: its key cells, then
// each aggregate's value, one per column of the output schema out. A
// nil group is the global group of no rows. An aggregate other than
// COUNT that saw no value is its column's NULL: Null(TypeFloat) for SUM
// and AVG, the input type's for MIN and MAX, so MIN of a materialized
// SUM or AVG column (the pinned rollup route) emits the NULL the direct
// plan does.
func (a *AggAcc) row(g *aggGroup, out Schema, dst []Value) []Value {
	var sts []aggState
	if g != nil {
		dst, sts = append(dst, g.cells[:len(a.groupIn)]...), g.aggs
	}
	for i, ag := range a.aggs {
		var st aggState
		if sts != nil {
			st = sts[i]
		}
		v := Null(out[len(dst)].Type)
		switch {
		case ag.Func == AggCount:
			v = I(st.count)
		case ag.Func == AggCountMerge:
			v = I(int64(st.sum))
		case st.count == 0:
		case ag.Func == AggSum:
			v = F(st.sum)
		case ag.Func == AggAvg:
			v = F(st.sum / float64(st.count))
		default: // MIN, MAX
			v = g.cells[a.extAt[i]]
		}
		dst = append(dst, v)
	}
	return dst
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

// Sort returns t's rows ordered by the keys (stable) in a new table,
// which shares the rows' cells (Values are immutable).
func Sort(t *Table, keys ...SortKey) (*Table, error) {
	idxs := make([]int, len(keys))
	for i, k := range keys {
		idx := t.Schema.ColIndex(k.Col)
		if idx < 0 {
			return nil, fmt.Errorf("%w: %s", ErrNoColumn, k.Col)
		}
		idxs[i] = idx
	}
	out := New(t.Name, t.Schema)
	out.Rows = slices.Clone(t.RowView())
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
	rows := t.RowView()
	out.Rows = append(out.Rows, rows[:max(min(n, len(rows)), 0)]...)
	return out
}

// Distinct removes duplicate rows, keeping first occurrences.
func Distinct(t *Table) *Table {
	out := New(t.Name, t.Schema)
	seen := make(map[string]bool)
	var kb []byte
	for _, row := range t.RowView() {
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
