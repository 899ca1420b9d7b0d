package logical

import (
	"fmt"
	"strings"

	"repro/internal/table"
)

// rollupPass rewrites Aggregate subtrees onto registered rollup
// materializations. It matches the post-pushdown dashboard shape —
// Aggregate over an optional Filter over a full (possibly
// column-narrowed, never row-ranged) Scan — and requires every filter
// column to be a rollup group-key column, so the filter removes whole
// groups and commutes exactly with the materialized aggregation. Three
// grains route:
//
//   - exact: the query's group-key sequence equals the rollup's and
//     every aggregate is materialized — the subtree becomes a Scan of
//     the rollup with the residual filter re-applied and a Project
//     renaming materialized columns to the query's output names.
//   - pinned: the query is a global aggregate (no group keys) whose
//     filter pins every rollup group key with an equality — at most one
//     complete group survives, so the subtree re-aggregates globally
//     over that one materialized row (any function, AVG included: COUNT
//     as COUNT_MERGE, every other function as MIN, which returns the
//     one cell unchanged).
//   - reaggregated: the query groups by a subset (or reordering) of the
//     rollup keys — the subtree re-aggregates the rollup's partial
//     states (COUNT via COUNT_MERGE over partial counts, SUM over
//     integer partial sums, MIN/MAX over partial extrema; AVG never
//     re-aggregates, and float SUM stays on the base table because
//     reassociating float additions is not bit-exact).
//
// All rewrites are result-preserving bit-for-bit: the materialization
// is maintained synchronously inside Catalog.Put by the same
// accumulation sequence the direct plan would run, group emission is
// key-sorted on both paths, the re-aggregations are exact integer,
// one-row or order-free extrema folds, and a pinned filter matching no group yields the same
// summary row on both paths (a global aggregate of zero rows emits
// COUNT 0 and NULLs). Exact routing is preferred over pinned, pinned
// over reaggregation; candidates are tried in sorted rollup-name order.
func rollupPass(o *Optimized, st Stats) []string {
	if st == nil {
		return nil
	}
	var notes []string
	o.Root = rewrite(o.Root, func(n *Node) *Node {
		if n.Op != OpAggregate {
			return n
		}
		scan, filter := aggScanShape(n)
		if scan == nil || !scanColsCover(scan, filter, n) {
			return n
		}
		defs := st.RollupsFor(scan.Table)
		route := func(mode string, try func(RollupCandidate) *Node) *Node {
			for _, def := range defs {
				if !rollupFilterCovered(filter, def) {
					continue
				}
				cand := RollupCandidate{Def: def, Query: n, Filter: filter, Scan: scan, Stats: st}
				if repl := try(cand); repl != nil {
					notes = append(notes, fmt.Sprintf("%s -> %s (%s)", scan.Table, def.Name, mode))
					o.Rollups = append(o.Rollups, fmt.Sprintf("%s -> %s (%s)", scan.Table, def.Name, mode))
					return repl
				}
			}
			return nil
		}
		if repl := route("exact", tryExactRollup); repl != nil {
			return repl
		}
		if repl := route("pinned", tryPinnedRollup); repl != nil {
			return repl
		}
		if repl := route("reaggregated", tryCoarseRollup); repl != nil {
			return repl
		}
		return n
	})
	return notes
}

// RollupCandidate bundles one (query subtree, rollup definition) pair
// the routing pass evaluates.
type RollupCandidate struct {
	// Def is the registered rollup under consideration.
	Def table.RollupDef
	// Query is the Aggregate node being routed.
	Query *Node
	// Filter is the residual filter between Query and Scan, nil when
	// the aggregation is unfiltered.
	Filter *Node
	// Scan is the full-table scan of the rollup's base table.
	Scan *Node
	// Stats resolves base-table schemas for the integer-SUM gate.
	Stats Stats
}

// aggScanShape matches the routable subtree under an Aggregate node: an
// optional single Filter over an un-ranged Scan. Column narrowing is
// allowed (it drops no rows); row ranges are not. Returns (nil, nil)
// for any other shape.
func aggScanShape(n *Node) (scan, filter *Node) {
	c := n.Child()
	if c != nil && c.Op == OpFilter {
		filter = c
		c = c.Child()
	}
	if c == nil || c.Op != OpScan || c.RowStart != 0 || c.RowEnd != 0 {
		return nil, nil
	}
	return c, filter
}

// scanColsCover reports whether a column-narrowed scan still exposes
// every column the filter and aggregate reference. When it does not,
// the direct plan errors on the missing column and routing must not
// paper over that; an un-narrowed scan always covers.
func scanColsCover(scan, filter *Node, q *Node) bool {
	if len(scan.Cols) == 0 {
		return true
	}
	has := func(col string) bool {
		for _, c := range scan.Cols {
			if strings.EqualFold(c, col) {
				return true
			}
		}
		return false
	}
	if filter != nil {
		for _, p := range filter.Preds {
			if !has(p.Col) {
				return false
			}
		}
	}
	for _, g := range q.GroupBy {
		if !has(g) {
			return false
		}
	}
	for _, a := range q.Aggs {
		if a.Col != "" && !has(a.Col) {
			return false
		}
	}
	return true
}

// rollupFilterCovered reports whether every residual filter column is a
// rollup group-key column — the condition under which filtering before
// aggregation (the direct plan) and after materialization (the routed
// plan) keep exactly the same groups, because every row of a group
// shares its key values.
func rollupFilterCovered(filter *Node, def table.RollupDef) bool {
	if filter == nil {
		return true
	}
	return PredsCovered(filter.Preds, def.GroupBy)
}

// findRollupAgg returns the rollup's materialized column name for an
// aggregate with the given function and source column, or false when
// the rollup does not materialize it.
func findRollupAgg(def table.RollupDef, fn table.AggFunc, col string) (string, bool) {
	for _, ra := range def.Aggs {
		if ra.Func == fn && strings.EqualFold(ra.Col, col) {
			return ra.OutName(), true
		}
	}
	return "", false
}

// tryExactRollup routes a query whose group-key sequence equals the
// rollup's and whose every aggregate is materialized: the subtree
// becomes Project(rename) over [Filter(residual) over] Scan(rollup).
func tryExactRollup(c RollupCandidate) *Node {
	q, def := c.Query, c.Def
	if len(q.GroupBy) != len(def.GroupBy) {
		return nil
	}
	for i, g := range q.GroupBy {
		if !strings.EqualFold(g, def.GroupBy[i]) {
			return nil
		}
	}
	proj := make([]string, 0, len(q.GroupBy)+len(q.Aggs))
	aliases := make([]string, 0, len(q.GroupBy)+len(q.Aggs))
	for i, g := range q.GroupBy {
		proj = append(proj, def.GroupBy[i])
		aliases = append(aliases, g)
	}
	for _, a := range q.Aggs {
		rcol, ok := findRollupAgg(def, a.Func, a.Col)
		if !ok {
			return nil
		}
		proj = append(proj, rcol)
		aliases = append(aliases, a.OutName())
	}
	return &Node{Op: OpProject, Proj: proj, Aliases: aliases, In: []*Node{rollupInput(c)}}
}

// tryPinnedRollup routes a global aggregate (no group keys) whose
// filter pins every rollup group key with an equality predicate. All
// surviving base rows then share one group-key tuple, so the direct
// plan aggregates exactly one complete group — the group the rollup
// already materialized. The subtree becomes a global Aggregate over
// Filter over Scan(rollup), which folds that one row or none. COUNT
// becomes COUNT_MERGE of the materialized count, and SUM, AVG, MIN and
// MAX become MIN of the materialized column: MIN of one row is its cell
// unchanged, −0 and NaN payloads included, and MIN of none is the
// column's NULL, the same NULL the direct plan emits. So a pin that
// matches no group gives the direct plan's summary row (COUNT 0 and
// NULLs). Because the materialized row holds final (not partial) states
// of a complete group, every aggregate function routes, AVG included.
func tryPinnedRollup(c RollupCandidate) *Node {
	q, def := c.Query, c.Def
	if len(q.GroupBy) != 0 || c.Filter == nil {
		return nil
	}
	for _, k := range def.GroupBy {
		pinned := false
		for _, p := range c.Filter.Preds {
			if p.Op == table.OpEq && strings.EqualFold(p.Col, k) {
				pinned = true
				break
			}
		}
		if !pinned {
			return nil
		}
	}
	aggs := make([]table.Agg, 0, len(q.Aggs))
	for _, a := range q.Aggs {
		rcol, ok := findRollupAgg(def, a.Func, a.Col)
		if !ok {
			return nil
		}
		out := table.Agg{Func: table.AggMin, Col: rcol, As: a.OutName()}
		if a.Func == table.AggCount {
			out.Func = table.AggCountMerge
		}
		aggs = append(aggs, out)
	}
	return &Node{Op: OpAggregate, Aggs: aggs, In: []*Node{rollupInput(c)}}
}

// tryCoarseRollup routes a query whose group keys are a subset (or
// reordering) of the rollup's by re-aggregating the materialized
// partial states. Only exactly-mergeable aggregates route: COUNT merges
// partial counts through COUNT_MERGE, SUM re-sums only integer-typed
// base columns (integer float64 sums below 2^53 are exact under any
// association), MIN/MAX fold partial extrema; AVG never routes coarser.
func tryCoarseRollup(c RollupCandidate) *Node {
	q, def := c.Query, c.Def
	for _, g := range q.GroupBy {
		found := false
		for _, k := range def.GroupBy {
			if strings.EqualFold(g, k) {
				found = true
				break
			}
		}
		if !found {
			return nil
		}
	}
	baseSchema, ok := c.Stats.Schema(c.Scan.Table)
	if !ok {
		return nil
	}
	remapped := make([]table.Agg, 0, len(q.Aggs))
	for _, a := range q.Aggs {
		rcol, found := findRollupAgg(def, a.Func, a.Col)
		if !found {
			return nil
		}
		out := table.Agg{Col: rcol, As: a.OutName()}
		switch a.Func {
		case table.AggCount:
			out.Func = table.AggCountMerge
		case table.AggSum:
			idx := baseSchema.ColIndex(a.Col)
			if idx < 0 || baseSchema[idx].Type != table.TypeInt {
				return nil
			}
			out.Func = table.AggSum
		case table.AggMin:
			out.Func = table.AggMin
		case table.AggMax:
			out.Func = table.AggMax
		default: // AVG (and anything else) cannot re-aggregate
			return nil
		}
		remapped = append(remapped, out)
	}
	return &Node{
		Op:      OpAggregate,
		GroupBy: append([]string(nil), q.GroupBy...),
		Aggs:    remapped,
		In:      []*Node{rollupInput(c)},
	}
}

// rollupInput builds the routed subtree's input: a Scan of the rollup
// materialization, wrapped in the residual filter when one exists.
func rollupInput(c RollupCandidate) *Node {
	scan := &Node{Op: OpScan, Table: c.Def.Name}
	if c.Filter == nil {
		return scan
	}
	return &Node{
		Op:    OpFilter,
		Preds: append([]table.Pred(nil), c.Filter.Preds...),
		In:    []*Node{scan},
	}
}
