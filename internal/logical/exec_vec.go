package logical

import (
	"fmt"
	"math"
	"slices"
	"sort"
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
// reads them in place. Every stream starts the same way (vecRun.stream):
// a leaf's input is a VecLeaf — a table, the cached fragments covering
// it and a projection a backend left pending over it — whose pending
// projection and the Scan leaf's own column set compose into one column
// mapping, and whose ROWS range becomes selection vectors, so no row is
// sliced or copied. VecFragment runs a backend's whole filter →
// aggregate → project fragment from the same start.
//
// Sort runs as a columnar kernel too: the key columns are extracted
// to per-class typed arrays over the selected rows (nulls first,
// cross-kind int/float via float64 under table.CompareFloat, generic
// Values only for columns mixing classes) and a stable permutation sort
// reorders row references — the exact ordering and tie stability of
// table.Sort without boxing a Value per comparison. A Limit directly
// over a Sort is one bounded selection: a k-entry heap ordered by
// (keys, row index) keeps the first k rows of that stable order without
// sorting the rest. Distinct is a selection-vector kernel keyed by the
// row's group-key encoding, first occurrence kept. When the one
// group or distinct column of a catalog fragment carries dictionary
// codes, a per-batch memo indexed by code (table.CodeMemo) sits in front
// of that one key map, so a key is encoded and hashed once per value per
// batch instead of once per row; the map stays the only source of group
// identity and output order. Compare reuses the filter and aggregate
// kernels, running each CompareBranches arm over the child stream and
// appending per-item results in branch order. Every operator of the IR
// has a columnar form; the federated executor records its plan-time
// dispatch decision in EXPLAIN as "exec: vectorized|row".

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

// VecLeaf is a leaf's input to the vectorized executor: the table, the
// cached columnar fragments covering exactly it (nil = extract batches
// on the fly), and a pass-through projection still pending over it (nil
// = none), which the executor composes into the stream's column mapping
// instead of copying rows.
type VecLeaf struct {
	Table *table.Table
	Frags *table.Frags
	Cols  []string
}

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
	return s.materialize(), nil
}

// ExecVec runs the tree against a single catalog with the vectorized
// executor — the columnar counterpart of Exec, resolving Scan leaves
// to catalog tables and their cached fragment batches (an Empty leaf's
// folded scan table supplies its schema).
func ExecVec(n *Node, c *table.Catalog, workers int) (*table.Table, error) {
	return RunVec(n, VecEnv{
		Leaf: func(leaf *Node) (VecLeaf, error) {
			if leaf.Op != OpScan && leaf.Op != OpEmpty {
				return VecLeaf{}, fmt.Errorf("logical: unresolved %v leaf", leaf.Op)
			}
			t, err := c.Get(leaf.Table)
			return VecLeaf{Table: t, Frags: c.FragsOf(leaf.Table)}, err
		},
		Workers: workers,
	})
}

// vecRun is one vectorized execution.
type vecRun struct {
	env VecEnv
}

// vstream is an operator's in-flight result: backing rows plus a lazy
// columnar view, an optional column projection (schema[i] reads base
// column cols[i]) and optional per-batch selection vectors. Filter and
// distinct refine sels, project rewrites cols, aggregate and sort read
// both in place; rows are copied only by materialize, once, for the
// consumer that needs them (a join input, the final result).
type vstream struct {
	name   string
	schema table.Schema
	base   *table.Table
	fr     *table.Frags
	cols   []int          // nil = identity projection onto base columns
	bs     []*table.Batch // lazy columnar view of base, FragmentRows grid
	sels   [][]int32      // per-batch selections; nil slice = all rows; nil entry = whole batch
	mat    *table.Table   // cached materialization
}

func passthrough(t *table.Table, fr *table.Frags) *vstream {
	return &vstream{name: t.Name, schema: t.Schema, base: t, fr: fr}
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

// selCount counts selected rows.
func (s *vstream) selCount() int {
	if s.sels == nil {
		return s.base.Len()
	}
	n := 0
	for bi, sel := range s.sels {
		if sel == nil {
			n += s.bs[bi].Len
		} else {
			n += len(sel)
		}
	}
	return n
}

// materialize renders the stream as a table: shared row slices when no
// projection is pending, projected copies otherwise — exactly the rows
// the row interpreter's Filter/Project chain would produce.
func (s *vstream) materialize() *table.Table {
	if s.mat != nil {
		return s.mat
	}
	if s.sels == nil && s.cols == nil {
		s.mat = s.base
		return s.mat
	}
	out := table.New(s.name, s.schema)
	out.Rows = make([][]Value, 0, s.selCount())
	emit := func(row []Value) { out.Rows = append(out.Rows, s.mapRow(row)) }
	if s.sels == nil {
		for _, row := range s.base.Rows {
			emit(row)
		}
	} else {
		for bi, sel := range s.sels {
			start := bi * table.FragmentRows
			if sel == nil {
				for ri := 0; ri < s.bs[bi].Len; ri++ {
					emit(s.base.Rows[start+ri])
				}
				continue
			}
			for _, ri := range sel {
				emit(s.base.Rows[start+int(ri)])
			}
		}
	}
	s.mat = out
	return s.mat
}

// mapRow is a base row under the stream's column mapping: the row
// itself without one, a copy of the mapped cells with one.
func (s *vstream) mapRow(row []Value) []Value {
	if s.cols == nil {
		return row
	}
	nr := make([]Value, len(s.cols))
	for i, ci := range s.cols {
		nr[i] = row[ci]
	}
	return nr
}

// Value is re-exported locally for brevity in row emission.
type Value = table.Value

// batches resolves the stream's columnar view, reusing catalog
// fragments when they cover the base table exactly and extracting
// fragment-aligned batches (in parallel) otherwise.
func (v *vecRun) batches(s *vstream) []*table.Batch {
	if s.bs != nil {
		return s.bs
	}
	if s.fr != nil && s.fr.Rows == s.base.Len() {
		s.bs = s.fr.Batches
		return s.bs
	}
	n := s.base.Len()
	nb := (n + table.FragmentRows - 1) / table.FragmentRows
	s.bs = make([]*table.Batch, nb)
	par.ForEach(nb, v.env.Workers, func(bi int) {
		start := bi * table.FragmentRows
		end := start + table.FragmentRows
		if end > n {
			end = n
		}
		s.bs[bi] = table.BatchRange(s.base, start, end)
	})
	return s.bs
}

// eval recursively evaluates the tree to a stream.
func (v *vecRun) eval(n *Node) (*vstream, error) {
	if n == nil {
		return nil, ErrEmptyPlan
	}
	switch n.Op {
	case OpScan, OpInput, OpEmpty:
		return v.leaf(n)
	case OpJoin:
		ls, err := v.eval(n.In[0])
		if err != nil {
			return nil, err
		}
		rs, err := v.eval(n.In[1])
		if err != nil {
			return nil, err
		}
		out, err := table.HashJoin(ls.materialize(), rs.materialize(), n.LeftCol, n.RightCol)
		if err != nil {
			return nil, err
		}
		return passthrough(out, nil), nil
	}
	if n.Op == OpLimit && n.Child() != nil && n.Child().Op == OpSort {
		// Limit directly over Sort: select the first N rows of the
		// stable order without ordering the rest.
		s, err := v.eval(n.Child().Child())
		if err != nil {
			return nil, err
		}
		return v.sortStream(s, n.Child().Keys, max(n.N, 0))
	}
	s, err := v.eval(n.Child())
	if err != nil {
		return nil, err
	}
	switch n.Op {
	case OpFilter:
		return v.filter(s, n.Preds)
	case OpProject:
		return v.project(s, n.Proj, n.Aliases)
	case OpAggregate:
		out, err := v.aggregate(s, n.GroupBy, n.Aggs)
		if err != nil {
			return nil, err
		}
		return passthrough(out, nil), nil
	case OpSort:
		return v.sortStream(s, n.Keys, math.MaxInt)
	case OpLimit:
		return passthrough(table.Limit(s.materialize(), n.N), nil), nil
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
func (v *vecRun) leaf(n *Node) (*vstream, error) {
	in, err := v.env.Leaf(n)
	if err != nil {
		return nil, err
	}
	var ranges []table.RowRange
	switch {
	case n.Op == OpEmpty:
		in.Table, in.Frags = table.New(in.Table.Name, in.Table.Schema), nil
	case n.RowEnd > 0:
		end := min(n.RowEnd, in.Table.Len())
		ranges = []table.RowRange{{Start: min(n.RowStart, end), End: end}}
	}
	return v.stream(in, n.Cols, ranges)
}

// stream starts every stream: in's pending projection and then cols
// compose into one column mapping, and the ascending disjoint row ranges
// (nil = all rows) become per-batch selection vectors — no row is
// sliced or copied.
func (v *vecRun) stream(in VecLeaf, cols []string, ranges []table.RowRange) (*vstream, error) {
	s := passthrough(in.Table, in.Frags)
	var err error
	for _, proj := range [][]string{in.Cols, cols} {
		if len(proj) > 0 {
			if s, err = v.project(s, proj, nil); err != nil {
				return nil, err
			}
		}
	}
	if ranges != nil {
		s.sels = rangeSels(v.batches(s), ranges)
	}
	return s, nil
}

// rangeSels converts ascending disjoint row ranges into per-batch
// selection vectors on the FragmentRows grid: nil for fully covered
// batches, explicit indices for partially covered ones.
func rangeSels(bs []*table.Batch, ranges []table.RowRange) [][]int32 {
	sels := make([][]int32, len(bs))
	covered := make([]bool, len(bs))
	for bi := range bs {
		sels[bi] = []int32{}
	}
	for _, r := range ranges {
		for bi := range bs {
			start := bi * table.FragmentRows
			end := start + bs[bi].Len
			lo, hi := r.Start, r.End
			if lo < start {
				lo = start
			}
			if hi > end {
				hi = end
			}
			if lo >= hi {
				continue
			}
			if lo == start && hi == end && len(sels[bi]) == 0 && !covered[bi] {
				sels[bi] = nil
				covered[bi] = true
				continue
			}
			if covered[bi] {
				continue // already whole-batch
			}
			for ri := lo; ri < hi; ri++ {
				sels[bi] = append(sels[bi], int32(ri-start))
			}
		}
	}
	return sels
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
	f64    float64
	str    string
	b      bool
	needle string // lowered CONTAINS needle
	null   bool   // NULL literal: matches nothing
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
			cp.f64 = p.Val.Float()
		case p.Val.Kind() == table.TypeString || p.Val.Kind() == table.TypeDate:
			cp.str = p.Val.Str()
		case p.Val.Kind() == table.TypeBool:
			cp.b = p.Val.Bool()
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
		fr: s.fr, cols: s.cols, bs: bs, sels: nsels,
	}, nil
}

// filterBatch applies the predicate conjunction to one batch,
// pipelining each predicate over the survivors of the previous one —
// the same short-circuit shape (and therefore the same lazy error
// semantics) as the row interpreter. An empty conjunction returns the
// incoming selection unchanged (nil stays "whole batch").
func filterBatch(b *table.Batch, in []int32, cps []vecPred) ([]int32, error) {
	cand := in
	for pi := range cps {
		cp := &cps[pi]
		if cand != nil && len(cand) == 0 {
			return cand, nil // no row reaches the remaining predicates
		}
		if b.Len == 0 {
			return []int32{}, nil
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
			col, reached := &b.Cols[cp.ci], false
			table.ForSel(b.Len, cand, func(ri int) { reached = reached || !col.ValueAt(ri).IsNull() })
			if reached {
				return nil, cp.opErr
			}
			return []int32{}, nil
		}
		cand = evalPred(b, cand, cp)
	}
	return cand, nil
}

// evalPred evaluates one predicate over the candidate rows of a batch
// (nil = all rows), returning the passing indices in row order. The
// typed paths read the operator's verdict from cp.holds.
func evalPred(b *table.Batch, cand []int32, cp *vecPred) []int32 {
	col := &b.Cols[cp.ci]
	n := len(cand)
	if cand == nil {
		n = b.Len
	}
	out := make([]int32, 0, n)
	each := func(fn func(ri int) bool) {
		if cand == nil {
			for ri := 0; ri < b.Len; ri++ {
				if fn(ri) {
					out = append(out, int32(ri))
				}
			}
			return
		}
		for _, ri := range cand {
			if fn(int(ri)) {
				out = append(out, ri)
			}
		}
	}
	generic := func() {
		each(func(ri int) bool { return cp.p.Match(col.ValueAt(ri)) })
	}

	op, kind := cp.p.Op, cp.p.Val.Kind()
	switch {
	case col.Boxed != nil:
		generic()
	case op == table.OpContains:
		if col.Strs == nil {
			generic()
			break
		}
		each(func(ri int) bool { return !col.Nulls.Get(ri) && containsFold(col.Strs[ri], cp.needle) })
	case col.Ints != nil && cp.p.Val.IsNumeric():
		// Int cells compare through float64, exactly like Compare.
		each(func(ri int) bool {
			return !col.Nulls.Get(ri) && cp.holds[table.CompareFloat(float64(col.Ints[ri]), cp.f64)+1]
		})
	case col.Floats != nil && cp.p.Val.IsNumeric():
		each(func(ri int) bool {
			return !col.Nulls.Get(ri) && cp.holds[table.CompareFloat(col.Floats[ri], cp.f64)+1]
		})
	case op == table.OpEq && col.Codes != nil && (kind == table.TypeString || kind == table.TypeDate):
		// Dictionary probe: Strs[ri] == Dict[Codes[ri]], so the rows
		// equal to the literal are those holding its code, and a literal
		// missing from Dict matches none. A NULL row holds code 0.
		if code := slices.Index(col.Dict, cp.str); code >= 0 {
			c := uint8(code)
			each(func(ri int) bool { return col.Codes[ri] == c && !col.Nulls.Get(ri) })
		}
	case col.Strs != nil && (kind == table.TypeString || kind == table.TypeDate):
		// String and date cells are one class and compare by text.
		each(func(ri int) bool {
			return !col.Nulls.Get(ri) && cp.holds[strings.Compare(col.Strs[ri], cp.str)+1]
		})
	case col.Bools != nil && kind == table.TypeBool:
		each(func(ri int) bool {
			return !col.Nulls.Get(ri) && cp.holds[cmpBool(col.Bools[ri], cp.b)+1]
		})
	default:
		generic()
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

// project composes a column selection onto the stream without copying
// any rows; materialization applies it exactly like table.Project.
func (v *vecRun) project(s *vstream, proj, aliases []string) (*vstream, error) {
	cols := make([]int, len(proj))
	schema := make(table.Schema, len(proj))
	for i, c := range proj {
		idx := s.schema.ColIndex(c)
		if idx < 0 {
			return nil, fmt.Errorf("%w: %s", table.ErrNoColumn, c)
		}
		cols[i] = s.baseCol(idx)
		schema[i] = s.schema[idx]
	}
	for i, alias := range aliases {
		if alias != "" && i < len(schema) {
			schema[i].Name = alias
		}
	}
	return &vstream{
		name: s.name, schema: schema, base: s.base,
		fr: s.fr, cols: cols, bs: s.bs, sels: s.sels,
	}, nil
}

// ---- sort ----

// Sort-key column classes: the first non-NULL cell of a key column
// fixes its class.
const (
	kcEmpty   = iota // no non-null cell yet
	kcNum            // int/float cells, compared as float64
	kcStr            // string/date cells, compared by text
	kcBool           // bool cells
	kcGeneric        // mixed classes: exact Values
)

// sortCol is one sort key extracted to typed array form over the
// stream's selected rows: a column of one class compares its cells
// without boxing them, in table.Compare's order for that class —
// numbers by table.CompareFloat across int and float, strings and dates
// by text, bools false < true — and a column mixing classes keeps exact
// Values compared with table.Compare itself.
type sortCol struct {
	class int
	nums  []float64
	strs  []string
	bools []bool
	vals  []Value
	nulls table.Bitmap
}

// compare orders the selected rows a and b on this key with
// table.Compare's exact semantics: NULL sorts before every non-NULL
// value, two NULLs tie, and non-NULL cells dispatch on the column
// class.
func (sc *sortCol) compare(a, b int) int {
	an, bn := sc.nulls.Get(a), sc.nulls.Get(b)
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	switch sc.class {
	case kcNum:
		return table.CompareFloat(sc.nums[a], sc.nums[b])
	case kcStr:
		return strings.Compare(sc.strs[a], sc.strs[b])
	case kcBool:
		return cmpBool(sc.bools[a], sc.bools[b])
	default:
		return table.Compare(sc.vals[a], sc.vals[b])
	}
}

// sortStream is the vectorized Sort kernel, with the Limit above it
// (math.MaxInt = none) folded in: it gathers the stream's selected rows
// in row order, extracts each key column into typed arrays, orders a
// row permutation and emits its first limit rows (applying any pending
// projection) — bit-identical to table.Limit over table.Sort over the
// materialized stream, ties included. Every key is a total preorder
// (table.Compare is a total order), so when the limit cuts rows the
// permutation is a bounded selection under (keys, row index); otherwise
// a stable sort from row order.
func (v *vecRun) sortStream(s *vstream, keys []table.SortKey, limit int) (*vstream, error) {
	keyIdx := make([]int, len(keys))
	for i, k := range keys {
		idx := s.schema.ColIndex(k.Col)
		if idx < 0 {
			return nil, fmt.Errorf("%w: %s", table.ErrNoColumn, k.Col)
		}
		keyIdx[i] = s.baseCol(idx)
	}
	bs := v.batches(s)
	n := s.selCount()
	// Row locators of every selected row, in row order: batch index
	// and in-batch row index.
	rowB := make([]int32, 0, n)
	rowR := make([]int32, 0, n)
	for bi, b := range bs {
		table.ForSel(b.Len, s.sel(bi), func(ri int) {
			rowB = append(rowB, int32(bi))
			rowR = append(rowR, int32(ri))
		})
	}
	cols := make([]*sortCol, len(keys))
	for k := range keys {
		cols[k] = extractSortCol(bs, rowB, rowR, keyIdx[k])
	}
	// cmp orders two selected rows on the keys alone (0 = tie).
	cmp := func(a, b int32) int {
		for k := range keys {
			if c := cols[k].compare(int(a), int(b)); c != 0 {
				if keys[k].Desc {
					return -c
				}
				return c
			}
		}
		return 0
	}
	var perm []int32
	if limit < n {
		perm = topK(n, limit, func(a, b int32) bool {
			c := cmp(a, b)
			return c > 0 || (c == 0 && a > b)
		})
	} else {
		perm = make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
		sort.SliceStable(perm, func(i, j int) bool { return cmp(perm[i], perm[j]) < 0 })
		perm = perm[:min(limit, n)]
	}
	out := table.New(s.name, s.schema)
	out.Rows = make([][]Value, 0, len(perm))
	for _, pi := range perm {
		out.Rows = append(out.Rows, s.mapRow(s.base.Rows[int(rowB[pi])*table.FragmentRows+int(rowR[pi])]))
	}
	return passthrough(out, nil), nil
}

// topK returns, in order, the first k of the indexes 0..n-1 under the
// strict total order whose inverse is after (after(a, b): a sorts after
// b), 0 <= k < n. A k-entry heap holds the best rows seen so far with
// the last of them on top; each later row replaces the top only when it
// sorts before it, so the work is n comparisons plus a sift per
// replacement instead of a full sort.
func topK(n, k int, after func(a, b int32) bool) []int32 {
	if k == 0 {
		return nil
	}
	h := make([]int32, k)
	for i := range h {
		h[i] = int32(i)
	}
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= k {
				return
			}
			if c+1 < k && after(h[c+1], h[c]) {
				c++
			}
			if !after(h[c], h[i]) {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for i := k/2 - 1; i >= 0; i-- {
		down(i)
	}
	for i := int32(k); i < int32(n); i++ {
		if after(h[0], i) {
			h[0] = i
			down(0)
		}
	}
	sort.Slice(h, func(x, y int) bool { return after(h[y], h[x]) })
	return h
}

// extractSortCol pulls one key column of the selected rows into typed
// form. The first non-NULL cell fixes the column class; a later cell
// of a different class demotes the whole column to exact Values.
func extractSortCol(bs []*table.Batch, rowB, rowR []int32, ci int) *sortCol {
	n := len(rowB)
	sc := &sortCol{class: kcEmpty, nulls: table.NewBitmap(n)}
	ensure := func(class int) bool {
		if sc.class == kcEmpty {
			sc.class = class
			switch class {
			case kcNum:
				sc.nums = make([]float64, n)
			case kcStr:
				sc.strs = make([]string, n)
			case kcBool:
				sc.bools = make([]bool, n)
			}
		}
		return sc.class == class
	}
	for i := range rowB {
		col := &bs[rowB[i]].Cols[ci]
		ri := int(rowR[i])
		if col.Boxed == nil {
			if col.Nulls.Get(ri) {
				sc.nulls.Set(i)
				continue
			}
			switch {
			case col.Ints != nil:
				if !ensure(kcNum) {
					return genericSortCol(bs, rowB, rowR, ci)
				}
				sc.nums[i] = float64(col.Ints[ri])
			case col.Floats != nil:
				if !ensure(kcNum) {
					return genericSortCol(bs, rowB, rowR, ci)
				}
				sc.nums[i] = col.Floats[ri]
			case col.Bools != nil:
				if !ensure(kcBool) {
					return genericSortCol(bs, rowB, rowR, ci)
				}
				sc.bools[i] = col.Bools[ri]
			default:
				if !ensure(kcStr) {
					return genericSortCol(bs, rowB, rowR, ci)
				}
				sc.strs[i] = col.Strs[ri]
			}
			continue
		}
		bv := col.Boxed[ri]
		if bv.IsNull() {
			sc.nulls.Set(i)
			continue
		}
		switch {
		case bv.IsNumeric():
			if !ensure(kcNum) {
				return genericSortCol(bs, rowB, rowR, ci)
			}
			sc.nums[i] = bv.Float()
		case bv.Kind() == table.TypeString || bv.Kind() == table.TypeDate:
			if !ensure(kcStr) {
				return genericSortCol(bs, rowB, rowR, ci)
			}
			sc.strs[i] = bv.Str()
		case bv.Kind() == table.TypeBool:
			if !ensure(kcBool) {
				return genericSortCol(bs, rowB, rowR, ci)
			}
			sc.bools[i] = bv.Bool()
		default:
			return genericSortCol(bs, rowB, rowR, ci)
		}
	}
	return sc
}

func genericSortCol(bs []*table.Batch, rowB, rowR []int32, ci int) *sortCol {
	n := len(rowB)
	sc := &sortCol{class: kcGeneric, vals: make([]Value, n), nulls: table.NewBitmap(n)}
	for i := range rowB {
		bv := bs[rowB[i]].Cols[ci].ValueAt(int(rowR[i]))
		sc.vals[i] = bv
		if bv.IsNull() {
			sc.nulls.Set(i)
		}
	}
	return sc
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
	return passthrough(out, nil), nil
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
	for bi, b := range v.batches(s) {
		acc.FoldBatch(b, s.sel(bi))
	}
	return acc.Emit(s.name + "_agg"), nil
}

// ---- distinct ----

// distinctStream is the vectorized Distinct kernel: it keeps the first
// selected row of every distinct key — the table.AppendKey bytes of the
// stream's (mapped) columns, exactly table.Distinct's row key — as a
// refined selection, copying no row. A single column carrying
// dictionary codes has a table.CodeMemo in front of the key map: only a
// code's first row in a batch is looked up, its later rows are
// duplicates.
func (v *vecRun) distinctStream(s *vstream) *vstream {
	bs := v.batches(s)
	seen := make(map[string]struct{})
	kb := make([]byte, 0, 64)
	nsels := make([][]int32, len(bs))
	var memo table.CodeMemo[bool] // a code's row already reached the map
	for bi, b := range bs {
		keep := []int32{}
		coded := len(s.schema) == 1 && memo.Reset(&b.Cols[s.baseCol(0)])
		table.ForSel(b.Len, s.sel(bi), func(ri int) {
			if coded {
				slot := memo.Slot(ri)
				if *slot {
					return
				}
				*slot = true
			}
			kb = kb[:0]
			for i := range s.schema {
				kb = b.Cols[s.baseCol(i)].AppendKey(kb, ri)
			}
			if _, dup := seen[string(kb)]; !dup {
				seen[string(kb)] = struct{}{}
				keep = append(keep, int32(ri))
			}
		})
		nsels[bi] = keep
	}
	return &vstream{
		name: s.name, schema: s.schema, base: s.base,
		fr: s.fr, cols: s.cols, bs: bs, sels: nsels,
	}
}

// ---- fragment entry (backend scans) ----

// VecFragment runs one scan fragment — filter (preds, restricted to the
// ascending disjoint row ranges when non-nil), then aggregate, then
// project — over candidate table t as a single stream: the ranges and
// predicates refine selection vectors, the aggregate reads them in
// place over the columnar fragments (fr caches them for exactly t; nil
// extracts on the fly), the projection is a column mapping, and rows
// materialize once at the end. Bit-identical to table.Filter over the
// ranges' rows → table.Aggregate → table.Project over the same input,
// errors included. lead counts the rows the leading stage keeps: those
// inside the ranges that pass preds[0] (all of them without preds).
func VecFragment(t *table.Table, fr *table.Frags, ranges []table.RowRange, preds []table.Pred, groupBy []string, aggs []table.Agg, cols []string) (out *table.Table, lead int, err error) {
	v := &vecRun{env: VecEnv{Workers: 1}}
	s, err := v.stream(VecLeaf{Table: t, Frags: fr}, nil, ranges)
	if err != nil {
		return nil, 0, err
	}
	// The first predicate runs alone so its survivors can be counted; a
	// predicate only errors on a row that reaches it, so splitting the
	// conjunction changes no error.
	if len(preds) > 0 {
		if s, err = v.filter(s, preds[:1]); err != nil {
			return nil, 0, err
		}
	}
	lead = s.selCount()
	if len(preds) > 1 {
		if s, err = v.filter(s, preds[1:]); err != nil {
			return nil, 0, err
		}
	}
	if len(aggs) > 0 {
		if t, err = v.aggregate(s, groupBy, aggs); err != nil {
			return nil, 0, err
		}
		s = passthrough(t, nil)
	}
	if len(cols) > 0 {
		if s, err = v.project(s, cols, nil); err != nil {
			return nil, 0, err
		}
	}
	return s.materialize(), lead, nil
}
