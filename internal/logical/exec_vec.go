package logical

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/par"
	"repro/internal/table"
)

// Vectorized executor. RunVec interprets the same trees Run does, but
// over typed column batches (table.Batch, one per 256-row fragment)
// instead of row-at-a-time Values: filters compile predicates once and
// emit selection vectors, and aggregates feed the batches to the one
// group-by accumulator (table.AggAcc) the row interpreter folds rows
// into. Joins run table.HashJoin over the materialized inputs, as Run
// does. Every key — join, group, distinct — is table.AppendKey's
// encoding, written cell by cell from the typed columns
// (ColVec.AppendKey), so two rows share a key exactly when
// table.Compare calls their cells equal. Filters and batch extraction
// run fragments in parallel through internal/par, while everything
// order-sensitive (float accumulation, result emission) stays in
// fragment order — so results are bit-identical to the row interpreter
// at any worker count.
//
// Rows materialize once, at the end: filter, project and distinct only
// refine a stream's selection vectors and column mapping, and aggregate
// reads them in place. Every stream starts the same way (stream),
// in both executors: a leaf's input is a VecLeaf — a table, the cached
// fragments covering it, a projection left pending over it and the
// selection vectors of its rows — whose pending projection and the Scan
// leaf's own column set compose into one column mapping, and whose ROWS
// range refines its selection vectors, so no row is sliced or copied.
// The row interpreter's leaf is that stream materialized (rowLeaf).
// VecFragment runs a backend's whole filter → aggregate → top-k →
// project fragment from the same start and hands back, as a VecLeaf,
// the stream it ended in: a scan's rows cross the federation boundary
// unmaterialized, and only an aggregate's or a top-k's output is a new
// table.
//
// A Limit directly over a Sort is the top-k kernel, which copies no
// key: it reads the key columns in place through the selection vectors
// as typed cells in table.Compare's order (no Value boxed per
// comparison), keeps a k-entry heap of row locators ordered by (keys,
// input order), rejects a row that cannot beat the running k-th key
// with one typed compare on the first key, and materializes only the k
// winners. A Sort without a Limit is the same kernel keeping every row:
// one sort of the locators by (keys, input order), which is table.Sort's
// stable order, ties included. Distinct is a selection-vector kernel
// keyed by the row's group-key encoding, first occurrence kept.
//
// The filter, the group-by fold (table.AggAcc.FoldBatches) and distinct
// make no call per row on their typed paths: each is a loop over a
// column's typed array, a dense one for a whole batch and a sparse one
// reading the selection vector inline. A filter's survivors are
// compacted in place in one batch-sized scratch array and leave it at
// their own length. When the one group or distinct column carries
// table-wide dictionary ordinals in every batch read
// (table.OrdinalSpan), group identity is the ordinal: the accumulator
// indexes its groups by it and distinct keeps a bitset over it, so no
// key is written or looked up per row; the accumulator writes each
// group's key once, as the fold ends, to order its output. Any other
// input goes through the key map for every batch.
//
// Compare reuses the filter and aggregate kernels, running each
// CompareBranches arm over the child stream and appending per-item
// results in branch order. Every operator of the IR has a columnar
// form; the federated executor records its plan-time dispatch decision
// in EXPLAIN as "exec: vectorized|row".

// VecEnv supplies the vectorized executor's environment: how leaves
// resolve to their input, and the morsel parallelism budget.
type VecEnv struct {
	// Leaf resolves a leaf node (Scan, Input or Empty) to its input. The
	// executor applies a leaf's own column set and ROWS range on top of
	// it, and reads no row of an Empty leaf's input.
	Leaf func(leaf *Node) (VecLeaf, error)
	// Workers bounds fragment parallelism (par.Workers convention).
	Workers int
}

// VecLeaf is a leaf's input to either executor, and a scan fragment's
// output (VecFragment): the table, a projection still pending over it
// (nil = none), and per-batch selection vectors over it on the
// FragmentRows grid (nil = all rows; a nil entry = the whole batch).
// Both executors start the leaf's stream from it (stream), so its rows
// are copied only when a consumer materializes it.
type VecLeaf struct {
	Table *table.Table
	Cols  []string
	Sels  [][]int32
}

// Len is the number of rows the leaf delivers: those Sels selects.
func (l VecLeaf) Len() int { return selCount(l.Sels, l.Table.Len()) }

// RunVec interprets the tree with the vectorized kernels; an operator
// without one returns a "cannot execute" error. Results are
// bit-identical to Run over the same sources.
func RunVec(n *Node, env VecEnv) (*table.Table, error) {
	if n == nil {
		return nil, ErrEmptyPlan
	}
	v := &vecRun{env: env}
	s, err := v.eval(n)
	if err != nil {
		return nil, err
	}
	return v.materialize(s), nil
}

// ExecVec runs the tree against a single catalog with the vectorized
// executor, resolving leaves through catalogLeaf.
func ExecVec(n *Node, c *table.Catalog, workers int) (*table.Table, error) {
	return RunVec(n, VecEnv{Leaf: catalogLeaf(c), Workers: workers})
}

// catalogLeaf resolves Scan leaves to registered catalog tables; an
// Empty leaf's folded scan table supplies its schema.
func catalogLeaf(c *table.Catalog) func(*Node) (VecLeaf, error) {
	return func(leaf *Node) (VecLeaf, error) {
		if leaf.Op != OpScan && leaf.Op != OpEmpty {
			return VecLeaf{}, fmt.Errorf("logical: unresolved %v leaf", leaf.Op)
		}
		t, err := c.Get(leaf.Table)
		return VecLeaf{Table: t}, err
	}
}

// vecRun is one vectorized execution.
type vecRun struct {
	env VecEnv
}

// vstream is an operator's in-flight result: a base table plus its lazy
// columnar view (batches), an optional column projection (schema[i]
// reads base column cols[i]) and optional per-batch selection vectors.
// Filter and distinct refine sels, project rewrites cols, aggregate and
// sort read both in place; rows are copied only by materialize, once,
// for the consumer that needs them (a join input, the final result).
type vstream struct {
	name   string
	schema table.Schema
	base   *table.Table
	cols   []int          // nil = identity projection onto base columns
	bs     []*table.Batch // lazy columnar view of base, FragmentRows grid
	sels   [][]int32      // per-batch selections; nil slice = all rows; nil entry = whole batch
}

// passthrough is a stream of every row of t.
func passthrough(t *table.Table) *vstream {
	return &vstream{name: t.Name, schema: t.Schema, base: t}
}

// baseCol maps a stream-schema column index to its base column index.
func (s *vstream) baseCol(i int) int {
	if s.cols == nil {
		return i
	}
	return s.cols[i]
}

// sel is batch bi's selection vector: nil when every row is selected.
func (s *vstream) sel(bi int) []int32 {
	if s.sels == nil {
		return nil
	}
	return s.sels[bi]
}

// selCount counts the rows per-batch selections sels select over an
// n-row base (nil: all of them).
func selCount(sels [][]int32, n int) int {
	if sels == nil {
		return n
	}
	c := 0
	for bi, sel := range sels {
		c += selLen(sel, gridLen(n, bi))
	}
	return c
}

// gridLen is the length of batch bi on the FragmentRows grid of an
// n-row base.
func gridLen(n, bi int) int { return min(table.FragmentRows, n-bi*table.FragmentRows) }

// materialize renders the stream as a result table: a whole result
// base is that table, and otherwise the selected rows, under the column
// mapping, are read from the stream's batches — exactly the rows the
// row interpreter's Filter/Project chain would produce.
func (v *vecRun) materialize(s *vstream) *table.Table {
	if s.sels == nil && s.cols == nil && s.base.Frags() == nil {
		return s.base
	}
	out := table.New(s.name, s.schema)
	out.Rows = make([][]Value, 0, selCount(s.sels, s.base.Len()))
	rows := s.rowCopier(cap(out.Rows))
	for bi, b := range v.batches(s) {
		sel := s.sel(bi)
		for j := range selLen(sel, b.Len) {
			out.Rows = append(out.Rows, rows.copy(b, selRow(sel, j)))
		}
	}
	return out
}

// rowCopier renders rows of the stream's batches under its column
// mapping (nil: every column), n rows carved from one allocation. Each
// copy is a window of cells capped at its own length, so appending to
// one row cannot write into the next.
type rowCopier struct {
	cols  []int
	cells []Value
}

func (s *vstream) rowCopier(n int) rowCopier {
	return rowCopier{cols: s.cols, cells: make([]Value, 0, n*len(s.schema))}
}

// copy renders row i of batch b.
func (r *rowCopier) copy(b *table.Batch, i int) []Value {
	start := len(r.cells)
	if r.cols == nil {
		for c := range b.Cols {
			r.cells = append(r.cells, b.Cols[c].ValueAt(i))
		}
	}
	for _, c := range r.cols {
		r.cells = append(r.cells, b.Cols[c].ValueAt(i))
	}
	return r.cells[start:len(r.cells):len(r.cells)]
}

// Value is re-exported locally for brevity in row emission.
type Value = table.Value

// batches resolves the stream's columnar view: a registered base's
// fragments, or fragment-aligned batches extracted (in parallel) from a
// result base's rows.
func (v *vecRun) batches(s *vstream) []*table.Batch {
	if s.bs != nil {
		return s.bs
	}
	if fr := s.base.Frags(); fr != nil {
		s.bs = fr.Batches
		return s.bs
	}
	base, n := s.base, s.base.Len()
	bs := make([]*table.Batch, (n+table.FragmentRows-1)/table.FragmentRows)
	par.ForEach(len(bs), v.env.Workers, func(bi int) {
		start := bi * table.FragmentRows
		bs[bi] = table.BatchRange(base, start, min(start+table.FragmentRows, n))
	})
	s.bs = bs
	return bs
}

// eval recursively evaluates the tree to a stream.
func (v *vecRun) eval(n *Node) (*vstream, error) {
	if n == nil {
		return nil, ErrEmptyPlan
	}
	switch n.Op {
	case OpScan, OpInput, OpEmpty:
		s, err := v.leaf(n)
		return &s, err
	case OpJoin:
		ls, err := v.eval(n.In[0])
		if err != nil {
			return nil, err
		}
		rs, err := v.eval(n.In[1])
		if err != nil {
			return nil, err
		}
		out, err := table.HashJoin(v.materialize(ls), v.materialize(rs), n.LeftCol, n.RightCol)
		if err != nil {
			return nil, err
		}
		return passthrough(out), nil
	}
	if n.Op == OpLimit && n.Child() != nil && n.Child().Op == OpSort {
		// Limit directly over Sort: the first N rows of the stable
		// order, without ordering the rest.
		s, err := v.eval(n.Child().Child())
		if err != nil {
			return nil, err
		}
		return v.topK(s, n.Child().Keys, max(n.N, 0))
	}
	s, err := v.eval(n.Child())
	if err != nil {
		return nil, err
	}
	switch n.Op {
	case OpFilter:
		return v.filter(s, n.Preds)
	case OpProject:
		return s, s.project(n.Proj, n.Aliases)
	case OpAggregate:
		out, err := v.aggregate(s, n.GroupBy, n.Aggs)
		if err != nil {
			return nil, err
		}
		return passthrough(out), nil
	case OpSort:
		return v.topK(s, n.Keys, math.MaxInt)
	case OpLimit:
		return passthrough(table.Limit(v.materialize(s), n.N)), nil
	case OpDistinct:
		return v.distinctStream(s), nil
	case OpCompare:
		return v.compareStream(n, s)
	default:
		return nil, fmt.Errorf("logical: cannot execute %v node", n.Op)
	}
}

// leaf starts a leaf's stream from its input: a Scan's ROWS range and
// any leaf's column set apply on top of it, and an Empty leaf keeps only
// its input's schema.
func (v *vecRun) leaf(n *Node) (vstream, error) {
	in, err := v.env.Leaf(n)
	if err != nil {
		return vstream{}, err
	}
	var ranges []table.RowRange
	switch {
	case n.Op == OpEmpty:
		in.Table, in.Sels = table.New(in.Table.Name, in.Table.Schema), nil
	case n.RowEnd > 0:
		ranges = []table.RowRange{{Start: n.RowStart, End: n.RowEnd}}
	}
	return stream(in, n.Cols, ranges)
}

// stream starts every stream from in: its selection vectors, then its
// pending projection and then cols composed into one column mapping,
// and the ascending disjoint ranges (nil = all rows) of in's rows
// refining the selection — no row is sliced or copied.
func stream(in VecLeaf, cols []string, ranges []table.RowRange) (vstream, error) {
	s := vstream{name: in.Table.Name, schema: in.Table.Schema, base: in.Table, sels: in.Sels}
	for _, proj := range [][]string{in.Cols, cols} {
		if len(proj) > 0 {
			if err := s.project(proj, nil); err != nil {
				return vstream{}, err
			}
		}
	}
	if ranges != nil {
		s.sels = rangeSels(s.base.Len(), s.sels, ranges)
	}
	return s, nil
}

// rangeSels keeps, of the rows sels selects over an n-row base (nil:
// all of them), those whose position among the selected rows lies in
// one of the ascending disjoint ranges, as per-batch selection vectors
// on the FragmentRows grid. A batch whose selected rows one range
// covers keeps its selection (nil stays the whole batch).
func rangeSels(n int, sels [][]int32, ranges []table.RowRange) [][]int32 {
	out := make([][]int32, (n+table.FragmentRows-1)/table.FragmentRows)
	pos := 0 // the position of batch bi's first selected row
	for bi := range out {
		var sel []int32
		if sels != nil {
			sel = sels[bi]
		}
		m := selLen(sel, gridLen(n, bi))
		out[bi] = []int32{}
		for _, r := range ranges {
			lo, hi := max(r.Start, pos), min(r.End, pos+m)
			switch {
			case lo >= hi:
			case lo == pos && hi == pos+m:
				out[bi] = sel
			default:
				for j := lo; j < hi; j++ {
					out[bi] = append(out[bi], int32(selRow(sel, j-pos)))
				}
			}
		}
		pos += m
	}
	return out
}

// ---- filter ----

// vecPred is a predicate compiled against a stream: the base column
// index and the operator's verdicts are resolved once (lazily erroring,
// like the row path, only if a row actually reaches the predicate) and
// the literal is pre-lowered for the typed fast paths.
type vecPred struct {
	p      table.Pred
	ci     int     // base column index; -1 = unresolved
	holds  [3]bool // p.Op.Holds of Compare's outcomes -1, 0, 1
	opErr  error   // p.Op.Err: raised once a non-NULL cell reaches p
	num    float64 // numeric literal, a NaN lowered to +Inf (numHolds)
	str    string
	needle string // lowered CONTAINS needle
	null   bool   // NULL literal: matches nothing
	// numHolds is the verdict for a numeric cell below num, equal to
	// it, and above it or NaN: holds, except for a NaN literal.
	// CompareFloat puts NaN above every number and level with itself,
	// so against a NaN literal a number — +Inf too — is below and a NaN
	// cell equal; num = +Inf with verdicts (holds[0], holds[0],
	// holds[1]) says that.
	numHolds [3]bool
	bools    [2]bool // the verdict for a false and a true cell
}

func compilePreds(s *vstream, preds []table.Pred) []vecPred {
	out := make([]vecPred, len(preds))
	for i, p := range preds {
		cp := vecPred{p: p, ci: -1, null: p.Val.IsNull(), opErr: p.Op.Err(),
			holds: [3]bool{p.Op.Holds(-1), p.Op.Holds(0), p.Op.Holds(1)}}
		if idx := s.schema.ColIndex(p.Col); idx >= 0 {
			cp.ci = s.baseCol(idx)
		}
		switch {
		case p.Op == table.OpContains:
			cp.needle = strings.ToLower(p.Val.String())
		case p.Val.IsNumeric():
			cp.num, cp.numHolds = p.Val.Float(), cp.holds
			if math.IsNaN(cp.num) {
				cp.num, cp.numHolds = math.Inf(1), [3]bool{cp.holds[0], cp.holds[0], cp.holds[1]}
			}
		case p.Val.Kind() == table.TypeString || p.Val.Kind() == table.TypeDate:
			cp.str = p.Val.Str()
		case p.Val.Kind() == table.TypeBool:
			lit := p.Val.Bool()
			cp.bools = [2]bool{cp.holds[cmpBool(false, lit)+1], cp.holds[cmpBool(true, lit)+1]}
		}
		out[i] = cp
	}
	return out
}

// filter refines the stream's selection vectors, evaluating batches in
// parallel. Selection order within and across batches is row order, so
// results are worker-count independent.
func (v *vecRun) filter(s *vstream, preds []table.Pred) (*vstream, error) {
	bs := v.batches(s)
	cps := compilePreds(s, preds)
	nsels := make([][]int32, len(bs))
	errs := make([]error, len(bs))
	par.ForEach(len(bs), v.env.Workers, func(bi int) {
		in := s.sel(bi)
		if in != nil && len(in) == 0 {
			nsels[bi] = in
			return
		}
		nsels[bi], errs[bi] = filterBatch(bs[bi], in, cps)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &vstream{
		name: s.name, schema: s.schema, base: s.base,
		cols: s.cols, bs: bs, sels: nsels,
	}, nil
}

// filterBatch applies the predicate conjunction to one batch,
// pipelining each predicate over the survivors of the previous one —
// the same short-circuit shape (and therefore the same lazy error
// semantics) as the row interpreter. The survivors live in one
// batch-sized scratch array, each predicate compacting them in place,
// and leave it once, at their own length (keptSel). An empty
// conjunction returns the incoming selection unchanged (nil stays
// "whole batch").
func filterBatch(b *table.Batch, in []int32, cps []vecPred) ([]int32, error) {
	if len(cps) == 0 {
		return in, nil
	}
	if b.Len == 0 {
		return []int32{}, nil
	}
	var buf [table.FragmentRows]int32 // a batch's rows, so appends stay in it
	scratch := buf[:0]
	cand := in
	for pi := range cps {
		cp := &cps[pi]
		if cand != nil && len(cand) == 0 {
			return []int32{}, nil // no row reaches the remaining predicates
		}
		if cp.ci < 0 {
			return nil, fmt.Errorf("%w: %s", table.ErrNoColumn, cp.p.Col)
		}
		if cp.null {
			return []int32{}, nil // NULL literal matches nothing
		}
		if cp.opErr != nil {
			// The operator holds for no row, and fails the filter once
			// a non-NULL cell reaches it.
			col := &b.Cols[cp.ci]
			for j := range selLen(cand, b.Len) {
				if !col.ValueAt(selRow(cand, j)).IsNull() {
					return nil, cp.opErr
				}
			}
			return []int32{}, nil
		}
		cand = evalPred(b, cand, cp, scratch)
	}
	return keptSel(cand, in, b.Len), nil
}

// selLen is the number of rows sel selects of an n-row batch (nil: all).
func selLen(sel []int32, n int) int {
	if sel == nil {
		return n
	}
	return len(sel)
}

// selRow is the j-th row sel selects (nil: all).
func selRow(sel []int32, j int) int {
	if sel == nil {
		return j
	}
	return int(sel[j])
}

// keptSel is the selection a filter over in (nil: all n rows of the
// batch) keeps when sel survives: in itself when every row survived,
// else a copy of sel at its own length. A published selection is never
// written again, so sharing in is safe.
func keptSel(sel, in []int32, n int) []int32 {
	if len(sel) == selLen(in, n) {
		return in
	}
	out := make([]int32, len(sel))
	copy(out, sel)
	return out
}

// evalPred appends to dst the rows of a batch that cand selects (nil:
// all) and that pass one predicate, in row order. dst may share cand's
// array: each survivor is written at or before its own position. The
// typed paths are loops over the column's array with the verdict
// inline, a dense one for a whole batch and a sparse one reading cand;
// they read the operator's verdict from cp.holds (or its pre-lowered
// forms) and skip NULL rows after the loop (dropNulls), as a NULL's
// typed slot holds a zero. A string or date column takes the verdict
// of each dictionary entry once and selects rows by code (selectCodes).
// Boxed columns and the literal kinds no typed path takes go through
// Pred.Match, one cell at a time.
func evalPred(b *table.Batch, cand []int32, cp *vecPred, dst []int32) []int32 {
	col := &b.Cols[cp.ci]
	n := b.Len
	op, kind := cp.p.Op, cp.p.Val.Kind()
	str := kind == table.TypeString || kind == table.TypeDate
	switch {
	case col.Boxed != nil:
	case col.Codes != nil && (op == table.OpContains || str):
		return selectDict(dst, cand, col, cp)
	case op == table.OpContains:
	case col.Ints != nil && cp.p.Val.IsNumeric():
		// Int cells compare through float64, exactly like Compare.
		return dropNulls(selectNums(dst, cand, col.Ints[:n], cp.num, cp.numHolds), col.Nulls)
	case col.Floats != nil && cp.p.Val.IsNumeric():
		return dropNulls(selectNums(dst, cand, col.Floats[:n], cp.num, cp.numHolds), col.Nulls)
	case col.Bools != nil && kind == table.TypeBool && cp.bools[0] != cp.bools[1]:
		// The operator holds for one of the two values: the rows holding
		// it. (One that holds for both or neither is rare enough for
		// Pred.Match.)
		return dropNulls(selectEq(dst, cand, col.Bools[:n], cp.bools[1]), col.Nulls)
	}
	if cand == nil {
		for ri := range n {
			if cp.p.Match(col.ValueAt(ri)) {
				dst = append(dst, int32(ri))
			}
		}
		return dst
	}
	for _, ri := range cand {
		if cp.p.Match(col.ValueAt(int(ri))) {
			dst = append(dst, ri)
		}
	}
	return dst
}

// selectNums appends the rows whose cell of vals, through float64, is
// below, equal to or above lit (a NaN cell: above) and whose verdict in
// holds is true.
func selectNums[T int64 | float64](dst, cand []int32, vals []T, lit float64, holds [3]bool) []int32 {
	lt, eq, gt := holds[0], holds[1], holds[2]
	if cand == nil {
		for ri, v := range vals {
			x, ok := float64(v), gt
			if x < lit {
				ok = lt
			} else if x == lit {
				ok = eq
			}
			if ok {
				dst = append(dst, int32(ri))
			}
		}
		return dst
	}
	for _, ri := range cand {
		x, ok := float64(vals[ri]), gt
		if x < lit {
			ok = lt
		} else if x == lit {
			ok = eq
		}
		if ok {
			dst = append(dst, ri)
		}
	}
	return dst
}

// selectEq appends the rows whose cell of vals is want. Over a whole
// batch it writes every row and advances past the ones that pass, with
// no branch on the cell, so its time does not depend on how well the
// branch predictor learns the column's pattern.
func selectEq(dst, cand []int32, vals []bool, want bool) []int32 {
	if cand == nil {
		at := len(dst)
		dst = slices.Grow(dst, len(vals))[:at+len(vals)]
		for ri, v := range vals {
			dst[at] = int32(ri)
			var pass int
			if v == want {
				pass = 1
			}
			at += pass
		}
		return dst[:at]
	}
	for _, ri := range cand {
		if vals[ri] == want {
			dst = append(dst, ri)
		}
	}
	return dst
}

// selectDict is evalPred's path for a string predicate (a comparison
// with a string or date literal, or CONTAINS) over a coded column:
// string and date cells are one class and compare by text, so each
// dictionary entry is decided once, then the rows are selected by code.
func selectDict(dst, cand []int32, col *table.ColVec, cp *vecPred) []int32 {
	var ok dictVerdicts
	for c, s := range col.Dict {
		if cp.p.Op == table.OpContains {
			ok[c] = containsFold(s, cp.needle)
		} else {
			ok[c] = cp.holds[strings.Compare(s, cp.str)+1]
		}
	}
	return selectCodes(dst, cand, col, &ok, false)
}

// dictVerdicts is a verdict per dictionary entry of a coded column,
// indexed by code.
type dictVerdicts [table.FragmentRows]bool

// selectCodes appends the rows of a coded column that cand selects (nil:
// all) whose verdict is true, in row order: ok[c] for a row holding
// code c, null for a NULL row. dst may share cand's array.
func selectCodes(dst, cand []int32, col *table.ColVec, ok *dictVerdicts, null bool) []int32 {
	codes, nulls := col.Codes, col.Nulls
	switch {
	case nulls != nil:
		for j := range selLen(cand, len(codes)) {
			ri := selRow(cand, j)
			keep := ok[codes[ri]]
			if nulls.Get(ri) {
				keep = null
			}
			if keep {
				dst = append(dst, int32(ri))
			}
		}
	case cand == nil:
		for ri, c := range codes {
			if ok[c] {
				dst = append(dst, int32(ri))
			}
		}
	default:
		for _, ri := range cand {
			if ok[codes[ri]] {
				dst = append(dst, ri)
			}
		}
	}
	return dst
}

// dropNulls removes the rows nulls marks from sel, in place.
func dropNulls(sel []int32, nulls table.Bitmap) []int32 {
	if nulls == nil {
		return sel
	}
	out := sel[:0]
	for _, ri := range sel {
		if !nulls.Get(int(ri)) {
			out = append(out, ri)
		}
	}
	return out
}

func cmpBool(a, b bool) int {
	switch {
	case !a && b:
		return -1
	case a && !b:
		return 1
	default:
		return 0
	}
}

// containsFold reports case-insensitive substring containment,
// byte-folding pure-ASCII haystacks without allocating and deferring
// to the row interpreter's exact ToLower form otherwise. needle must
// already be lowered with strings.ToLower.
func containsFold(s, needle string) bool {
	if needle == "" {
		return true
	}
	if !asciiString(s) {
		return strings.Contains(strings.ToLower(s), needle)
	}
	// ASCII haystack: ToLower(s) folds bytes in place, so a direct
	// folded scan is equivalent. Non-ASCII needle bytes can never
	// match a folded ASCII byte, which Contains agrees with.
	n := len(needle)
	if n > len(s) {
		return false
	}
	for i := 0; i+n <= len(s); i++ {
		if foldedPrefix(s[i:i+n], needle) {
			return true
		}
	}
	return false
}

func foldedPrefix(s, needle string) bool {
	for i := 0; i < len(needle); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != needle[i] {
			return false
		}
	}
	return true
}

func asciiString(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// ---- project ----

// project composes a column selection onto the stream's column mapping
// without copying any rows; materialization applies it exactly like
// table.Project.
func (s *vstream) project(proj, aliases []string) error {
	cols := make([]int, len(proj))
	schema := make(table.Schema, len(proj))
	for i, c := range proj {
		idx := s.schema.ColIndex(c)
		if idx < 0 {
			return fmt.Errorf("%w: %s", table.ErrNoColumn, c)
		}
		cols[i] = s.baseCol(idx)
		schema[i] = s.schema[idx]
	}
	for i, alias := range aliases {
		if alias != "" && i < len(schema) {
			schema[i].Name = alias
		}
	}
	s.cols, s.schema = cols, schema
	return nil
}

// ---- sort ----

// sortKeyCols resolves the sort keys to base column indexes.
func sortKeyCols(s *vstream, keys []table.SortKey) ([]int, error) {
	idx := make([]int, len(keys))
	for i, k := range keys {
		ci := s.schema.ColIndex(k.Col)
		if ci < 0 {
			return nil, fmt.Errorf("%w: %s", table.ErrNoColumn, k.Col)
		}
		idx[i] = s.baseCol(ci)
	}
	return idx, nil
}

// ---- top-k ----

// Key-cell classes, in table.Compare's class order.
const (
	clsNull byte = iota
	clsBool
	clsNum
	clsStr
)

// keyCell is one sort-key cell read in place from a batch, in
// table.Compare's order: class first (NULL < bool < number <
// string/date), then numbers — int cells through float64 — by
// table.CompareFloat, bools as 0 < 1 the same way, strings and dates by
// text.
type keyCell struct {
	class byte
	f     float64
	s     string
}

// cellAt reads row ri of col as a keyCell without boxing it.
func cellAt(col *table.ColVec, ri int) keyCell {
	switch {
	case col.Boxed != nil:
		v := col.Boxed[ri]
		switch {
		case v.IsNull():
			return keyCell{}
		case v.IsNumeric():
			return keyCell{class: clsNum, f: v.Float()}
		case v.Kind() == table.TypeBool:
			if v.Bool() {
				return keyCell{class: clsBool, f: 1}
			}
			return keyCell{class: clsBool}
		}
		return keyCell{class: clsStr, s: v.Str()}
	case col.Nulls.Get(ri):
		return keyCell{}
	case col.Floats != nil:
		return keyCell{class: clsNum, f: col.Floats[ri]}
	case col.Ints != nil:
		return keyCell{class: clsNum, f: float64(col.Ints[ri])}
	case col.Codes != nil:
		return keyCell{class: clsStr, s: col.Dict[col.Codes[ri]]}
	case col.Bools[ri]:
		return keyCell{class: clsBool, f: 1}
	}
	return keyCell{class: clsBool}
}

// compareCells is table.Compare over two key cells.
func compareCells(a, b *keyCell) int {
	if a.class == clsNum && b.class == clsNum {
		return table.CompareFloat(a.f, b.f)
	}
	return compareClasses(a, b)
}

// compareClasses is compareCells past its numeric fast path.
func compareClasses(a, b *keyCell) int {
	switch {
	case a.class != b.class:
		return int(a.class) - int(b.class)
	case a.class == clsStr:
		return strings.Compare(a.s, b.s)
	case a.class == clsNull:
		return 0
	}
	return table.CompareFloat(a.f, b.f)
}

// topRow is a row in the top-k heap: its first key cell, the slot of
// topKHeap.cells that holds its later key cells, and its locator (batch
// index, row within the batch), which orders as the rows do in the
// stream.
type topRow struct {
	first        keyCell
	slot, bi, ri int32
}

// topK is the typed top-k kernel under a Limit directly over a Sort,
// and with k = math.MaxInt the Sort kernel: it keeps the first k rows of
// the stable order of the stream's selected rows — the prefix
// table.Limit takes of table.Sort — and materializes only those
// (applying any pending projection). The key columns are
// read in place through the selection vectors; only the key cells of
// the rows in the heap are kept, the first beside each row's locator.
// A k-entry heap holds the best rows so far under (keys, input order),
// the last of them on top, and that top row's first key is the running
// k-th key: a typed loop over each batch's first key column (beating)
// rejects every row that sorts after it before any row comparison, and
// a row that ties it loses unless a later key ranks it first — input
// order breaks what the keys leave tied, as the stable sort does.
func (v *vecRun) topK(s *vstream, keys []table.SortKey, k int) (*vstream, error) {
	ci, err := sortKeyCols(s, keys)
	if err != nil {
		return nil, err
	}
	bs := v.batches(s)
	// When every selected row is kept (a Sort without a Limit is topK
	// with k = math.MaxInt), no row is ever compared with the heap's
	// top: the rows are kept in input order and the final sort orders
	// them.
	n := selCount(s.sels, s.base.Len())
	fits := n <= k
	size := min(k, n)
	t := &topKHeap{keys: keys, h: make([]topRow, 0, size), spare: int32(size)}
	if len(keys) > 1 {
		t.cells = make([]keyCell, (size+1)*(len(keys)-1))
	}
	scratch := make([]int32, 0, table.FragmentRows)
	for bi := 0; k > 0 && bi < len(bs); bi++ {
		b := bs[bi]
		cand := s.sel(bi)
		if !fits && len(t.h) == k {
			var first *table.ColVec
			if len(ci) > 0 {
				first = &b.Cols[ci[0]]
			}
			if c, ok := t.beating(first, b.Len, cand, scratch[:0]); ok {
				scratch, cand = c, c
			}
		}
		m := len(cand)
		if cand == nil {
			m = b.Len
		}
		for j := 0; j < m; j++ {
			ri := j
			if cand != nil {
				ri = int(cand[j])
			}
			row := topRow{slot: t.spare, bi: int32(bi), ri: int32(ri)}
			if len(t.h) < k {
				row.slot = int32(len(t.h))
			}
			if len(ci) > 0 {
				row.first = cellAt(&b.Cols[ci[0]], ri)
			}
			rest := t.slot(row.slot)
			for i := range rest {
				rest[i] = cellAt(&b.Cols[ci[i+1]], ri)
			}
			switch {
			case fits:
				t.h = append(t.h, row)
			case len(t.h) < k:
				t.push(row)
			case t.after(&t.h[0], &row):
				t.spare = t.h[0].slot
				t.replaceTop(row)
			}
		}
	}
	slices.SortFunc(t.h, func(a, b topRow) int {
		if t.after(&a, &b) {
			return 1
		}
		return -1
	})
	out := table.New(s.name, s.schema)
	out.Rows = make([][]Value, len(t.h))
	rows := s.rowCopier(len(t.h))
	for i, r := range t.h {
		out.Rows[i] = rows.copy(bs[r.bi], int(r.ri))
	}
	return passthrough(out), nil
}

// topKHeap is topK's state: a max-heap of rows under after, and the
// later key cells of the rows in it plus one spare slot, where a
// candidate's cells go before it is compared; a candidate that enters
// the heap takes the spare slot and frees the evicted row's.
type topKHeap struct {
	keys  []table.SortKey
	h     []topRow
	cells []keyCell // len(keys)-1 cells per slot
	spare int32
}

// slot is the later key cells of slot i.
func (t *topKHeap) slot(i int32) []keyCell {
	nk := max(len(t.keys)-1, 0)
	return t.cells[int(i)*nk : int(i+1)*nk]
}

// after reports whether row a sorts after row b: on the keys, then in
// input order.
func (t *topKHeap) after(a, b *topRow) bool {
	if len(t.keys) > 0 {
		if c := compareCells(&a.first, &b.first); c != 0 {
			return c > 0 != t.keys[0].Desc
		}
		if len(t.keys) > 1 {
			return t.afterRest(a, b)
		}
	}
	return a.bi > b.bi || a.bi == b.bi && a.ri > b.ri
}

// afterRest is after for two rows whose first keys tie.
func (t *topKHeap) afterRest(a, b *topRow) bool {
	ca, cb := t.slot(a.slot), t.slot(b.slot)
	for i := range ca {
		if c := compareCells(&ca[i], &cb[i]); c != 0 {
			return c > 0 != t.keys[i+1].Desc
		}
	}
	return a.bi > b.bi || a.bi == b.bi && a.ri > b.ri
}

// push adds a row to a heap not yet full.
func (t *topKHeap) push(r topRow) {
	t.h = append(t.h, r)
	i := len(t.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !t.after(&r, &t.h[p]) {
			break
		}
		t.h[i] = t.h[p]
		i = p
	}
	t.h[i] = r
}

// replaceTop puts r, which sorts before the top row, in the top row's
// place and restores the heap, moving each row it passes up one level.
func (t *topKHeap) replaceTop(r topRow) {
	i := 0
	for {
		c := 2*i + 1
		if c >= len(t.h) {
			break
		}
		if c+1 < len(t.h) && t.after(&t.h[c+1], &t.h[c]) {
			c++
		}
		if !t.after(&t.h[c], &r) {
			break
		}
		t.h[i] = t.h[c]
		i = c
	}
	t.h[i] = r
}

// beating appends to dst, for a full heap, the rows of an n-row batch
// that sel selects (nil: all) whose first key, in column col (nil
// without keys), does not sort after the k-th key — the top row's —
// through a typed loop over the column. Only those rows can still enter
// the heap, and the k-th key only moves forward, so the rows left out
// need no further look. ok is false where no typed loop applies (a
// boxed or bool column, a NaN k-th key, a k-th key of another class) and
// every selected row stays a candidate.
func (t *topKHeap) beating(col *table.ColVec, n int, sel, dst []int32) (out []int32, ok bool) {
	if col == nil {
		return dst, true // no keys: every later row ties and loses
	}
	if sel != nil {
		n = len(sel)
	}
	kth, desc := t.h[0].first, t.keys[0].Desc
	num := kth.class == clsNum && kth.f == kth.f
	switch {
	case col.Boxed != nil:
		return nil, false
	case kth.class == clsNull && !desc:
		// A NULL sorts before every non-NULL key: only NULLs tie it.
		for j := 0; j < n; j++ {
			ri := int32(j)
			if sel != nil {
				ri = sel[j]
			}
			if col.Nulls.Get(int(ri)) {
				dst = append(dst, ri)
			}
		}
		return dst, true
	case num && col.Floats != nil:
		return numsBeating(dst, n, sel, col.Nulls, col.Floats, kth.f, desc), true
	case num && col.Ints != nil:
		return numsBeating(dst, n, sel, col.Nulls, col.Ints, kth.f, desc), true
	case kth.class == clsStr && col.Codes != nil:
		// Strings and dates compare by text. A NULL sorts before every
		// string, so it can beat the k-th key ascending and never
		// descending.
		var ok dictVerdicts
		for c, s := range col.Dict {
			ok[c] = desc && s >= kth.s || !desc && s <= kth.s
		}
		return selectCodes(dst, sel, col, &ok, !desc), true
	}
	return nil, false
}

// numsBeating is beating over a number column and a non-NaN k-th key
// thr: table.CompareFloat(x, thr) <= 0 is x <= thr, and >= 0 is
// !(x < thr) (a NaN sorts above every number). Ints compare through
// float64, as table.Compare does. A NULL sorts before every number, so
// it can beat thr ascending and never descending; a NULL row's slot
// holds 0, and the NULL check decides it.
func numsBeating[T int64 | float64](dst []int32, n int, sel []int32, nulls table.Bitmap, vals []T, thr float64, desc bool) []int32 {
	for j := 0; j < n; j++ {
		ri := int32(j)
		if sel != nil {
			ri = sel[j]
		}
		if x := float64(vals[ri]); desc {
			if !(x < thr) && !nulls.Get(int(ri)) {
				dst = append(dst, ri)
			}
		} else if x <= thr || nulls.Get(int(ri)) {
			dst = append(dst, ri)
		}
	}
	return dst
}

// ---- compare ----

// compareStream is the vectorized Compare: each CompareBranches arm
// runs through the filter and aggregate kernels over the child stream.
// Branch filters only refine selection vectors, so the child stream is
// evaluated once no matter how many items are compared.
func (v *vecRun) compareStream(n *Node, s *vstream) (*vstream, error) {
	out, err := unionBranches(n, func(br CompareBranch) (*table.Table, error) {
		fs, err := v.filter(s, br.Preds)
		if err != nil {
			return nil, err
		}
		return v.aggregate(fs, br.GroupBy, n.Aggs)
	})
	if err != nil {
		return nil, err
	}
	return passthrough(out), nil
}

// ---- aggregate ----

// aggregate feeds the stream's selected rows, batch by batch in
// fragment order, to the one group-by accumulator (table.AggAcc): the
// row interpreter's accumulation order, so float sums agree bitwise.
// The accumulator reads the batches in place through the stream's
// column mapping.
func (v *vecRun) aggregate(s *vstream, groupBy []string, aggs []table.Agg) (*table.Table, error) {
	var acc table.AggAcc
	if err := acc.Init(s.schema, s.cols, groupBy, aggs); err != nil {
		return nil, err
	}
	acc.FoldBatches(v.batches(s), s.sels)
	return acc.Emit(s.name + "_agg"), nil
}

// ---- distinct ----

// distinctStream is the vectorized Distinct kernel: it keeps the first
// selected row of every distinct key — the table.AppendKey bytes of the
// stream's (mapped) columns, exactly table.Distinct's row key — as a
// refined selection, copying no row. A single column whose every batch
// carries table-wide ordinals (table.OrdinalSpan) runs by ordinal
// instead, with no key written or looked up.
func (v *vecRun) distinctStream(s *vstream) *vstream {
	bs := v.batches(s)
	nsels := make([][]int32, len(bs))
	span, byOrd := 0, false
	if len(s.schema) == 1 {
		span, byOrd = table.OrdinalSpan(bs, s.sels, s.baseCol(0))
	}
	if byOrd {
		seen := make(table.Bitmap, span/64+1) // ordinals, then NULL
		for bi, b := range bs {
			nsels[bi] = distinctByOrdinal(seen, span, &b.Cols[s.baseCol(0)], selLen(s.sel(bi), b.Len), s.sel(bi))
		}
	} else {
		d := distinct{s: s, seen: make(map[string]struct{}), kb: make([]byte, 0, 64)}
		for bi, b := range bs {
			var buf [table.FragmentRows]int32 // a batch's rows, so appends stay in it
			keep := buf[:0]
			sel := s.sel(bi)
			for j := range selLen(sel, b.Len) {
				if ri := selRow(sel, j); d.first(b, ri) {
					keep = append(keep, int32(ri))
				}
			}
			nsels[bi] = append(make([]int32, 0, len(keep)), keep...)
		}
	}
	return &vstream{
		name: s.name, schema: s.schema, base: s.base,
		cols: s.cols, bs: bs, sels: nsels,
	}
}

// distinctByOrdinal returns the rows of col's batch that sel selects
// (nil: the first n) whose value no earlier row held: seen holds a bit
// per table-wide ordinal, and bit span is NULL's. A batch with no row
// selected is not read: span bounds only the ordinals of batches with
// one (table.OrdinalSpan). A batch whose every value (and NULL, when
// it holds one) is already seen is skipped unread, and the loop stops
// once the batch's unseen values are found.
func distinctByOrdinal(seen table.Bitmap, span int, col *table.ColVec, n int, sel []int32) []int32 {
	if n == 0 {
		return []int32{}
	}
	fresh := 0 // the batch's values, and NULL, not yet seen
	for _, o := range col.Ords {
		if !seen.Get(int(o)) {
			fresh++
		}
	}
	if col.Nulls != nil && !seen.Get(span) {
		fresh++
	}
	var buf [table.FragmentRows]int32 // a batch's rows, so appends stay in it
	keep := buf[:0]
	for j := 0; j < n && fresh > 0; j++ {
		ri := selRow(sel, j)
		o := span
		if !col.Nulls.Get(ri) {
			o = int(col.Ords[col.Codes[ri]])
		}
		if !seen.Get(o) {
			seen.Set(o)
			keep = append(keep, int32(ri))
			fresh--
		}
	}
	return append(make([]int32, 0, len(keep)), keep...)
}

// distinct is distinctStream's key map over one stream.
type distinct struct {
	s    *vstream
	seen map[string]struct{}
	kb   []byte
}

// first reports whether row ri of b holds a key no earlier row held,
// and records it.
func (d *distinct) first(b *table.Batch, ri int) bool {
	d.kb = d.kb[:0]
	for i := range d.s.schema {
		d.kb = b.Cols[d.s.baseCol(i)].AppendKey(d.kb, ri)
	}
	if _, dup := d.seen[string(d.kb)]; dup {
		return false
	}
	d.seen[string(d.kb)] = struct{}{}
	return true
}

// ---- fragment entry (backend scans) ----

// FragmentOps are the operators of one scan fragment, in the order
// VecFragment runs them: the row ranges and the predicates, the
// aggregate, the top-k, the projection.
type FragmentOps struct {
	Ranges  []table.RowRange // ascending, disjoint; nil = all rows
	Preds   []table.Pred
	GroupBy []string
	Aggs    []table.Agg
	Sort    []table.SortKey // the top-k's order; nil = no top-k
	Limit   int             // the top-k's row count, with Sort
	Cols    []string
}

// VecFragment runs one scan fragment — filter (ops.Preds, restricted to
// ops.Ranges when non-nil), then aggregate, then top-k, then project —
// over the leaf in as a single stream, and returns the stream it ends
// in without materializing it: the ranges and predicates refine in's
// selection vectors, the aggregate and the top-k read them in place over
// the columnar fragments and are the only stages whose output is a new
// table (the top-k's k rows), and the projection is left pending as
// names (validated here, so an unknown column fails the fragment). With
// nothing to run but a projection, the result is in with the names
// pending. Bit-identical to table.Filter over the ranges' rows →
// table.Aggregate → table.Limit∘table.Sort → table.Project over in's
// rows, errors included; ranges are positions among in's rows. lead
// counts the rows the leading stage keeps: those inside the ranges that
// pass Preds[0] (all of them without predicates).
func VecFragment(in VecLeaf, ops FragmentOps) (out VecLeaf, lead int, err error) {
	out, lead = in, in.Len()
	if ops.Ranges != nil || len(ops.Preds) > 0 || len(ops.Aggs) > 0 || ops.Sort != nil {
		v := &vecRun{env: VecEnv{Workers: 1}}
		st, err := stream(in, nil, ops.Ranges)
		if err != nil {
			return VecLeaf{}, 0, err
		}
		s := &st
		// The first predicate runs alone so its survivors can be counted;
		// a predicate only errors on a row that reaches it, so splitting
		// the conjunction changes no error.
		if len(ops.Preds) > 0 {
			if s, err = v.filter(s, ops.Preds[:1]); err != nil {
				return VecLeaf{}, 0, err
			}
		}
		lead = selCount(s.sels, s.base.Len())
		if len(ops.Preds) > 1 {
			if s, err = v.filter(s, ops.Preds[1:]); err != nil {
				return VecLeaf{}, 0, err
			}
		}
		out.Sels = s.sels
		if len(ops.Aggs) > 0 {
			t, err := v.aggregate(s, ops.GroupBy, ops.Aggs)
			if err != nil {
				return VecLeaf{}, 0, err
			}
			s, out = passthrough(t), VecLeaf{Table: t}
		}
		if ops.Sort != nil {
			// A projection that keeps every sort key runs first, so the
			// top-k copies only the columns kept.
			if p := *s; len(ops.Cols) > 0 && p.project(ops.Cols, nil) == nil &&
				!slices.ContainsFunc(ops.Sort, func(k table.SortKey) bool { return p.schema.ColIndex(k.Col) < 0 }) {
				s, ops.Cols = &p, nil
			}
			if s, err = v.topK(s, ops.Sort, max(ops.Limit, 0)); err != nil {
				return VecLeaf{}, 0, err
			}
			out = VecLeaf{Table: s.base}
		}
	}
	if len(ops.Cols) > 0 {
		out.Cols, err = pendingCols(out, ops.Cols)
	}
	return out, lead, err
}

// pendingCols is the projection cols composed onto the one l leaves
// pending, as names over l.Table; each name must be a column of l.
func pendingCols(l VecLeaf, cols []string) ([]string, error) {
	out := cols
	if l.Cols != nil {
		out = make([]string, len(cols))
	}
	for i, c := range cols {
		j := l.Table.Schema.ColIndex(c)
		if l.Cols != nil {
			j = slices.IndexFunc(l.Cols, func(p string) bool { return strings.EqualFold(p, c) })
		}
		if j < 0 {
			return nil, fmt.Errorf("%w: %s", table.ErrNoColumn, c)
		}
		if l.Cols != nil {
			out[i] = l.Cols[j]
		}
	}
	return out, nil
}
