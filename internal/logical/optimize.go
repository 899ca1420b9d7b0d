package logical

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/table"
)

// Stats is the catalog surface the optimizer consults: base-table
// schemas for predicate re-typing and projection pruning, row counts
// and per-column statistics (NDV, histograms) for selectivity
// estimation and join-input reordering, and the rollups the routing
// pass may read instead of a base table. A nil Stats disables the
// passes that need it; the structural passes still run.
type Stats interface {
	Schema(tbl string) (table.Schema, bool)
	Card(tbl string) (int, bool)
	// TableStats returns the per-column statistics of a base table, or
	// nil when none are kept (the caller falls back to the fixed
	// selectivity heuristic).
	TableStats(tbl string) *table.TableStats
	// RollupsFor returns the registered rollup definitions over a base
	// table, in sorted name order (the routing pass's deterministic
	// candidate order); nil routes nothing.
	RollupsFor(base string) []table.RollupDef
}

type catalogStats struct{ c *table.Catalog }

func (s catalogStats) Schema(tbl string) (table.Schema, bool) {
	t, err := s.c.Get(tbl)
	if err != nil {
		return nil, false
	}
	return t.Schema, true
}

func (s catalogStats) Card(tbl string) (int, bool) {
	t, err := s.c.Get(tbl)
	if err != nil {
		return 0, false
	}
	return t.Len(), true
}

func (s catalogStats) TableStats(tbl string) *table.TableStats {
	return s.c.StatsOf(tbl)
}

func (s catalogStats) RollupsFor(base string) []table.RollupDef {
	return s.c.RollupsFor(base)
}

// CatalogStats adapts a table.Catalog to the optimizer's Stats surface.
func CatalogStats(c *table.Catalog) Stats {
	if c == nil {
		return nil
	}
	return catalogStats{c}
}

// Optimized is a plan tree after the rule passes, carrying the
// deterministic trace of every rule that fired — the "rules:" section
// of EXPLAIN.
type Optimized struct {
	Root  *Node
	Trace []string
	// Rollups lists the rollup routings the rollup pass performed, one
	// preformatted "base -> rollup (mode)" line per rewrite — the
	// source of EXPLAIN's "rollup:" line. Empty when nothing routed.
	Rollups []string
	// Stats is the statistics source the passes ran against, carried
	// with the plan so whoever lowers or executes it consults the same
	// source descriptions rather than a copy of the sources. Nil means
	// "no statistics", exactly as the passes treat it.
	Stats Stats
}

// Optimize clones the tree and runs the rule passes in a fixed order:
//
//  1. fold — merge adjacent filters, drop empty ones, dedupe predicates
//  2. retype — coerce predicate literals to their column's type
//  3. pushdown — sink filters below order-safe operators toward scans
//  4. emptyfold — fold statistically refuted filtered scans into
//     constant-empty leaves
//  5. rollup — rewrite subsumed Aggregate subtrees onto materialized
//     rollup scans (exact grain, or re-aggregating a coarser grain)
//  6. prune — narrow scans to the columns the plan can reference
//  7. reorder — seed the cheaper join input with the driving side's
//     join-key equalities, by catalog cardinality
//  8. compare_rewrite — normalize comparisons to grouped-filter form
//
// Every pass preserves results bit-exactly: predicate evaluation order
// within a conjunction, the driving side's row order through joins,
// and float accumulation order through aggregates are all unchanged.
// The trace is deterministic for a fixed tree and catalog.
func Optimize(root *Node, st Stats) *Optimized {
	if root == nil {
		return &Optimized{}
	}
	o := &Optimized{Root: root.Clone(), Stats: st}
	passes := []struct {
		name string
		run  func(*Optimized, Stats) []string
	}{
		{"fold", foldPass},
		{"retype", retypePass},
		{"pushdown", pushdownPass},
		{"emptyfold", emptyfoldPass},
		{"rollup", rollupPass},
		{"prune", prunePass},
		{"reorder", reorderPass},
		{"compare_rewrite", comparePass},
	}
	for _, p := range passes {
		for _, note := range p.run(o, st) {
			o.Trace = append(o.Trace, fmt.Sprintf("%s(%s)", p.name, note))
		}
	}
	return o
}

// rewrite applies fn bottom-up over the tree, replacing each child
// pointer with fn's result.
func rewrite(n *Node, fn func(*Node) *Node) *Node {
	if n == nil {
		return nil
	}
	for i, in := range n.In {
		n.In[i] = rewrite(in, fn)
	}
	return fn(n)
}

// walk visits every node top-down.
func walk(n *Node, fn func(*Node)) {
	if n == nil {
		return
	}
	fn(n)
	for _, in := range n.In {
		walk(in, fn)
	}
}

// foldPass merges adjacent Filter nodes into one conjunction, removes
// empty filters, and drops exact-duplicate predicates. All three keep
// the surviving predicates in first-seen order, so per-row evaluation
// matches the unfolded plan.
func foldPass(o *Optimized, _ Stats) []string {
	var notes []string
	o.Root = rewrite(o.Root, func(n *Node) *Node {
		if n.Op != OpFilter {
			return n
		}
		if c := n.Child(); c != nil && c.Op == OpFilter {
			n.Preds = append(append([]table.Pred(nil), c.Preds...), n.Preds...)
			n.In = c.In
			notes = append(notes, "merged adjacent filters")
		}
		seen := make(map[string]bool, len(n.Preds))
		kept := n.Preds[:0]
		for _, p := range n.Preds {
			key := predKey(p)
			if seen[key] {
				notes = append(notes, "dropped duplicate "+p.String())
				continue
			}
			seen[key] = true
			kept = append(kept, p)
		}
		n.Preds = kept
		if len(n.Preds) == 0 {
			notes = append(notes, "removed empty filter")
			return n.Child()
		}
		return n
	})
	return notes
}

// predKey keys a predicate: its lowered column, operator and literal,
// each written through table.AppendKey, so no part can run into the
// next.
func predKey(p table.Pred) string {
	var buf [64]byte
	k := table.AppendKey(buf[:0], table.S(strings.ToLower(p.Col)))
	k = table.AppendKey(k, table.I(int64(p.Op)))
	return string(table.AppendKey(k, p.Val))
}

// retypePass coerces every predicate literal to the type of the column
// it compares against (table.CoerceTo), so a string "20" filters a
// float column numerically on every entry path — the re-typing that
// used to live inline in the SQL interpreter.
func retypePass(o *Optimized, st Stats) []string {
	if st == nil {
		return nil
	}
	var notes []string
	coerce := func(schema table.Schema, preds []table.Pred) {
		for i, p := range preds {
			idx := schema.ColIndex(p.Col)
			if idx < 0 {
				continue
			}
			want := schema[idx].Type
			coerced := table.CoerceTo(want, p.Val)
			if coerced.Kind() != p.Val.Kind() {
				notes = append(notes, fmt.Sprintf("%s '%s' -> %v", p.Col, p.Val, want))
				preds[i].Val = coerced
			}
		}
	}
	walk(o.Root, func(n *Node) {
		if n.Op != OpFilter && n.Op != OpCompare {
			return
		}
		if schema, ok := inputSchema(n.Child(), st); ok {
			coerce(schema, n.Preds)
		}
	})
	return notes
}

// inputSchema derives the schema a node produces, tracking the exact
// renames the engine applies through joins, projections and
// aggregation. ok is false when a base table is unknown to Stats.
func inputSchema(n *Node, st Stats) (table.Schema, bool) {
	schema, _, ok := schemaAndName(n, st)
	return schema, ok
}

func schemaAndName(n *Node, st Stats) (table.Schema, string, bool) {
	if n == nil || st == nil {
		return nil, "", false
	}
	switch n.Op {
	case OpScan, OpEmpty:
		schema, ok := st.Schema(n.Table)
		if !ok {
			return nil, "", false
		}
		if len(n.Cols) > 0 {
			sub := make(table.Schema, 0, len(n.Cols))
			for _, c := range n.Cols {
				idx := schema.ColIndex(c)
				if idx < 0 {
					return nil, "", false
				}
				sub = append(sub, schema[idx])
			}
			schema = sub
		}
		return schema, n.Table, true
	case OpInput:
		return nil, "", false
	case OpFilter, OpSort, OpLimit, OpDistinct:
		return schemaAndName(n.Child(), st)
	case OpProject:
		in, name, ok := schemaAndName(n.Child(), st)
		if !ok {
			return nil, "", false
		}
		out := make(table.Schema, 0, len(n.Proj))
		for i, c := range n.Proj {
			idx := in.ColIndex(c)
			if idx < 0 {
				return nil, "", false
			}
			col := in[idx]
			if i < len(n.Aliases) && n.Aliases[i] != "" {
				col.Name = n.Aliases[i]
			}
			out = append(out, col)
		}
		return out, name, true
	case OpJoin:
		left, ln, ok := schemaAndName(n.In[0], st)
		if !ok {
			return nil, "", false
		}
		right, rn, ok := schemaAndName(n.In[1], st)
		if !ok {
			return nil, "", false
		}
		return table.JoinedSchema(left, rn, right), ln + "_join_" + rn, true
	case OpAggregate:
		in, name, ok := schemaAndName(n.Child(), st)
		if !ok {
			return nil, "", false
		}
		return table.AggregateSchema(in, n.GroupBy, n.Aggs), name + "_agg", true
	case OpCompare:
		in, _, ok := schemaAndName(n.Child(), st)
		if !ok {
			return nil, "", false
		}
		return table.AggregateSchema(in, []string{n.CompareCol}, n.Aggs), "comparison", true
	default:
		return nil, "", false
	}
}

// pushdownPass sinks Filter nodes toward the scans through operators
// that commute with them exactly: stable Sort (filtered-then-sorted
// equals sorted-then-filtered, including row order), Distinct
// (first-occurrence sets agree), and alias-free Project whose columns
// cover the predicates. Limit and Aggregate block the sink.
func pushdownPass(o *Optimized, _ Stats) []string {
	var notes []string
	var sink func(f *Node) *Node
	sink = func(f *Node) *Node {
		c := f.Child()
		if c == nil {
			return f
		}
		sinkable := false
		switch c.Op {
		case OpSort, OpDistinct:
			sinkable = true
		case OpProject:
			sinkable = len(c.Aliases) == 0 && PredsCovered(f.Preds, c.Proj)
		}
		if !sinkable {
			return f
		}
		notes = append(notes, fmt.Sprintf("filter below %s", strings.ToLower(c.Op.String())))
		f.In = c.In
		c.In = []*Node{sink(f)}
		return c
	}
	o.Root = rewrite(o.Root, func(n *Node) *Node {
		if n.Op == OpFilter {
			return sink(n)
		}
		return n
	})
	return notes
}

// emptyfoldPass folds subtrees the statistics refute into a
// constant-empty leaf. It runs after pushdown, when predicates sit
// directly on their scans: a Filter over a Scan whose conjunction
// TableStats.Refutes proves empty becomes an Empty leaf carrying the
// scan's table and column set (the execution-time schema source), and
// schema-preserving operators directly over an Empty leaf — Filter,
// Sort, Distinct, Limit — collapse into it. A proof over the whole
// table covers any row-ranged slice of it, so ranged scans fold too.
// Aggregate and Compare never fold: a global aggregate over zero rows
// still emits its one summary row. The proof is epoch-stable —
// statistics are a pure function of the catalog state the plan caches
// under — so a fold can never outlive the data that justified it.
func emptyfoldPass(o *Optimized, st Stats) []string {
	if st == nil {
		return nil
	}
	var notes []string
	o.Root = rewrite(o.Root, func(n *Node) *Node {
		switch n.Op {
		case OpFilter:
			c := n.Child()
			if c == nil {
				return n
			}
			if c.Op == OpEmpty {
				notes = append(notes, "collapsed filter over empty "+c.Table)
				return c
			}
			if c.Op != OpScan {
				return n
			}
			ts := st.TableStats(c.Table)
			if ts == nil || !ts.Refutes(n.Preds) {
				return n
			}
			notes = append(notes, fmt.Sprintf("%s: statistics refute %s", c.Table, predList(n.Preds, " AND ")))
			return &Node{Op: OpEmpty, Table: c.Table, Cols: c.Cols}
		case OpSort, OpDistinct, OpLimit:
			// A sort key the input lacks fails the Sort even over no rows.
			c := n.Child()
			lacks := func(k table.SortKey) bool { schema, _ := inputSchema(c, st); return schema.ColIndex(k.Col) < 0 }
			if c != nil && c.Op == OpEmpty && !slices.ContainsFunc(n.Keys, lacks) {
				notes = append(notes, "collapsed "+strings.ToLower(n.Op.String())+" over empty "+c.Table)
				return c
			}
		}
		return n
	})
	return notes
}

// PredsCovered reports whether every predicate's column is one of cols
// (case-insensitively, as Schema.ColIndex resolves names) — the
// condition under which a filter still evaluates after projecting to
// cols.
func PredsCovered(preds []table.Pred, cols []string) bool {
	for _, p := range preds {
		found := false
		for _, c := range cols {
			if strings.EqualFold(c, p.Col) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// prunePass narrows each Scan to the columns the plan above it can
// reference. A scan is pruned only when every path to the root passes
// through a schema-bounding operator (Project, Aggregate or Compare),
// so unbounded outputs — list queries returning whole rows — keep
// their full schema and results stay bit-identical.
func prunePass(o *Optimized, st Stats) []string {
	if st == nil {
		return nil
	}
	var notes []string
	var visit func(n *Node, req map[string]bool)
	visit = func(n *Node, req map[string]bool) {
		if n == nil {
			return
		}
		switch n.Op {
		case OpScan:
			if req == nil || len(n.Cols) > 0 {
				return
			}
			schema, ok := st.Schema(n.Table)
			if !ok {
				return
			}
			cols := make([]string, 0, len(schema))
			for _, c := range schema {
				if req[strings.ToLower(c.Name)] {
					cols = append(cols, c.Name)
				}
			}
			if len(cols) == 0 || len(cols) == len(schema) {
				return
			}
			n.Cols = cols
			notes = append(notes, fmt.Sprintf("%s -> %s", n.Table, strings.Join(cols, ",")))
		case OpInput:
		case OpProject:
			visit(n.Child(), colSet(n.Proj))
		case OpAggregate:
			need := colSet(n.GroupBy)
			for _, a := range n.Aggs {
				if a.Col != "" {
					need[strings.ToLower(a.Col)] = true
				}
			}
			visit(n.Child(), need)
		case OpCompare:
			need := colSet([]string{n.CompareCol})
			for _, p := range n.Preds {
				need[strings.ToLower(p.Col)] = true
			}
			for _, a := range n.Aggs {
				if a.Col != "" {
					need[strings.ToLower(a.Col)] = true
				}
			}
			visit(n.Child(), need)
		case OpFilter:
			if req == nil {
				visit(n.Child(), nil)
				return
			}
			need := copySet(req)
			for _, p := range n.Preds {
				need[strings.ToLower(p.Col)] = true
			}
			visit(n.Child(), need)
		case OpSort:
			if req == nil {
				visit(n.Child(), nil)
				return
			}
			need := copySet(req)
			for _, k := range n.Keys {
				need[strings.ToLower(k.Col)] = true
			}
			visit(n.Child(), need)
		case OpLimit:
			visit(n.Child(), req)
		case OpDistinct:
			// Distinct keys on every input column; requirements cannot
			// narrow through it (a Project below re-bounds them).
			visit(n.Child(), nil)
		case OpJoin:
			if req == nil {
				visit(n.In[0], nil)
				visit(n.In[1], nil)
				return
			}
			ls, _, lok := schemaAndName(n.In[0], st)
			rs, rn, rok := schemaAndName(n.In[1], st)
			if !lok || !rok {
				visit(n.In[0], nil)
				visit(n.In[1], nil)
				return
			}
			leftNeed := colSet([]string{n.LeftCol})
			for _, c := range ls {
				if req[strings.ToLower(c.Name)] {
					leftNeed[strings.ToLower(c.Name)] = true
				}
			}
			rightNeed := colSet([]string{n.RightCol})
			joined := table.JoinedSchema(ls, rn, rs)
			for i, c := range rs {
				out := joined[len(ls)+i].Name
				if req[strings.ToLower(out)] || req[strings.ToLower(c.Name)] {
					rightNeed[strings.ToLower(c.Name)] = true
					if !strings.EqualFold(out, c.Name) {
						// The reference resolves through a collision rename
						// ("rn.col"), which exists only while the left side
						// keeps its same-named column — pruning it away
						// would un-rename the right column and break the
						// compiled reference.
						leftNeed[strings.ToLower(c.Name)] = true
					}
				}
			}
			visit(n.In[0], leftNeed)
			visit(n.In[1], rightNeed)
		default:
			visit(n.Child(), nil)
		}
	}
	visit(o.Root, nil)
	return notes
}

func colSet(cols []string) map[string]bool {
	out := make(map[string]bool, len(cols))
	for _, c := range cols {
		out[strings.ToLower(c)] = true
	}
	return out
}

func copySet(in map[string]bool) map[string]bool {
	out := make(map[string]bool, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// EstimateGroupRows estimates how many group rows an aggregation over
// in input rows produces: one for a global aggregate, else the product
// of the group keys' distinct counts, capped at the input estimate
// (grouping cannot create rows). The federated planner's
// pushed-aggregate re-estimate is its one user.
func EstimateGroupRows(ts *table.TableStats, in int, groupBy []string) int {
	if in == 0 {
		return 0
	}
	if len(groupBy) == 0 {
		return 1
	}
	groups := 1
	for _, col := range groupBy {
		ndv := in // unknown column: assume no collapsing
		if cs := ts.Col(col); cs != nil && cs.NDV > 0 {
			ndv = cs.NDV
		}
		if groups >= (in+ndv-1)/ndv { // groups*ndv would overshoot in
			return in
		}
		groups *= ndv
	}
	if groups > in {
		return in
	}
	return groups
}

// reorderPass reorders join-input evaluation by estimated filtered
// cardinality: when the driving (left) side is the larger input and
// carries an equality predicate on the join key, that predicate is
// seeded into the smaller joined side's scan, so the join's lookup
// input shrinks before it is ever read. The driving side's row order
// is untouched — the larger side stays the hash-probe side before and
// after — so results are bit-identical; only the joined side's scan
// gets cheaper.
func reorderPass(o *Optimized, st Stats) []string {
	if st == nil {
		return nil
	}
	var notes []string
	var filters []*Node // Filter nodes on the path above the current node
	var visit func(n *Node)
	visit = func(n *Node) {
		if n == nil {
			return
		}
		if n.Op == OpFilter {
			filters = append(filters, n)
			visit(n.Child())
			filters = filters[:len(filters)-1]
			return
		}
		if n.Op == OpJoin {
			notes = append(notes, seedJoin(n, filters, st)...)
			// Filters above a join constrain joined rows, not either
			// bare input: descend with a fresh path on both sides.
			saved := filters
			filters = nil
			visit(n.In[0])
			filters = nil
			visit(n.In[1])
			filters = saved
			return
		}
		for _, in := range n.In {
			visit(in)
		}
	}
	visit(o.Root)
	return notes
}

// seedJoin propagates key equalities from the filters above a join
// into its right input. Fires only when the left side is a clean scan
// (no local filters or limits, so its runtime size is its catalog
// cardinality, or the slice its ROWS range keeps of it) that is
// strictly larger than the right table: the right input — at most
// card(right) distinct keys before seeding, fewer after — is then
// smaller than the left side in both plans, so the hash join builds
// on the right and probes the left both before and after, and
// shrinking the right input cannot perturb row order. A non-strict
// gate would let equal cardinalities flip the build side.
//
// Within that safety gate, per-column statistics decide whether each
// seed pays: the driving side's cardinality as filtered by the
// predicates above the join must still exceed the seeded right side's
// estimate. When stats show the "larger" driving table filtering down
// below the lookup side, the seed is skipped (with a trace note) —
// the per-row predicate tax on the right scan would outweigh a join
// that is already probe-bound small.
func seedJoin(j *Node, above []*Node, st Stats) []string {
	left := j.In[0]
	for left != nil && left.Op == OpProject { // projection keeps row count
		left = left.Child()
	}
	if left == nil || left.Op != OpScan {
		return nil
	}
	rightScan := j.In[1]
	for rightScan != nil && rightScan.Op != OpScan {
		rightScan = rightScan.Child()
	}
	if rightScan == nil {
		return nil
	}
	leftCard, lok := st.Card(left.Table)
	rightCard, rok := st.Card(rightScan.Table)
	if left.RowEnd > 0 { // a ROWS range delivers only its slice
		leftCard = max(min(leftCard, left.RowEnd)-left.RowStart, 0)
	}
	if !lok || !rok || leftCard <= rightCard || rightCard <= 1 {
		return nil
	}

	// Estimated driving-side cardinality after every above-join
	// predicate that resolves against its schema (the join keeps the
	// driving side's column names; renamed right-side collisions do
	// not resolve here).
	leftStats := st.TableStats(left.Table)
	leftSchema, _ := st.Schema(left.Table)
	estLeft := float64(leftCard)
	for _, f := range above {
		for _, p := range f.Preds {
			if leftSchema.ColIndex(p.Col) >= 0 {
				estLeft *= leftStats.SelectivityOf(p)
			}
		}
	}

	// Existing right-side predicates, to skip duplicates and estimate.
	rightStats := st.TableStats(rightScan.Table)
	var rightFilter *Node
	existing := make(map[string]bool)
	estBefore := float64(rightCard)
	for c := j.In[1]; c != nil; c = c.Child() {
		if c.Op != OpFilter {
			continue
		}
		if rightFilter == nil {
			rightFilter = c
		}
		for _, p := range c.Preds {
			existing[predKey(p)] = true
			estBefore *= rightStats.SelectivityOf(p)
		}
	}

	var notes []string
	for _, f := range above {
		for _, p := range f.Preds {
			if p.Op != table.OpEq || !strings.EqualFold(p.Col, j.LeftCol) {
				continue
			}
			seeded := table.Pred{Col: j.RightCol, Op: table.OpEq, Val: p.Val}
			if existing[predKey(seeded)] {
				continue
			}
			estAfter := estBefore * rightStats.SelectivityOf(seeded)
			if estLeft <= estAfter {
				notes = append(notes, fmt.Sprintf("skip seed %s with %s (driving est %d <= seeded est %d rows)",
					rightScan.Table, seeded, estRows(estLeft), estRows(estAfter)))
				continue
			}
			existing[predKey(seeded)] = true
			if rightFilter == nil {
				// Insert a Filter directly above the right scan.
				rightFilter = &Node{Op: OpFilter, In: []*Node{rightScan}}
				parent := j.In[1]
				if parent == rightScan {
					j.In[1] = rightFilter
				} else {
					for c := parent; c != nil; c = c.Child() {
						if c.Child() == rightScan {
							c.In[0] = rightFilter
							break
						}
					}
				}
			}
			rightFilter.Preds = append(rightFilter.Preds, seeded)
			notes = append(notes, fmt.Sprintf("seed %s with %s (est %d -> %d rows)",
				rightScan.Table, seeded, estRows(estBefore), estRows(estAfter)))
			estBefore = estAfter
		}
	}
	return notes
}

func estRows(f float64) int {
	n := int(f)
	if n < 1 {
		n = 1
	}
	return n
}

// comparePass normalizes Compare nodes to the grouped-filter form:
// items are sorted (the branch execution order) and the branch count
// is recorded in the trace. The branches themselves materialize
// through CompareBranches, shared with execution and text→SQL
// rendering.
func comparePass(o *Optimized, _ Stats) []string {
	var notes []string
	walk(o.Root, func(n *Node) {
		if n.Op != OpCompare || len(n.Items) == 0 {
			return
		}
		n.Items = sortedItems(n.Items)
		notes = append(notes, fmt.Sprintf("%s -> %d grouped filters", n.CompareCol, len(n.Items)))
	})
	return notes
}
