package federate

import (
	"slices"
	"strings"

	"repro/internal/logical"
	"repro/internal/table"
)

// The fragment contract. A Fragment's operators always mean
// filter → aggregate → top-k → project, and two functions are its
// whole implementation: absorb decides which of them a backend takes,
// and evaluate runs them. The planner, failover and every built-in
// backend's Scan call these and nothing else, so a planned fragment, a
// failed-over one and the federation-side remainder cannot disagree.

// absorb splits the operators want offers for a scan of want.Table into
// the fragment backend b takes and the remainder the federation layer
// must evaluate over b's output (left carries operators only). The
// rule, in the fragment's operator order, asks b one question per
// operator:
//
//   - each predicate b can push (CanPush) is taken, the others are
//     left;
//   - the aggregate is taken only with no predicate left, every
//     function pushable (CanPushAgg) and any group keys projectable
//     (CanProject); an aggregate left behind keeps the top-k and the
//     projection above it behind too;
//   - the top-k is taken only with no predicate left, every sort key
//     pushable (CanPushSort) and, under a projection, every key inside
//     it, so the rows b returns still carry the keys;
//   - the projection is taken only when b can project its columns
//     (CanProject) and every left predicate's column and left sort key
//     is inside them, so the remainder can still evaluate over the
//     narrowed rows.
func absorb(b Backend, want Fragment) (got, left Fragment) {
	got = Fragment{Backend: b.Name(), Table: want.Table}
	for _, p := range want.Preds {
		if b.CanPush(want.Table, p) {
			got.Preds = append(got.Preds, p)
		} else {
			left.Preds = append(left.Preds, p)
		}
	}
	if len(want.Aggs) > 0 {
		if len(left.Preds) > 0 || !aggsPushable(b, want.Aggs) || len(want.GroupBy) > 0 && !b.CanProject(want.GroupBy) {
			left.GroupBy, left.Aggs, left.Columns = want.GroupBy, want.Aggs, want.Columns
			left.Sort, left.Limit = want.Sort, want.Limit
			return got, left
		}
		got.GroupBy, got.Aggs = want.GroupBy, want.Aggs
	}
	if len(want.Sort) > 0 {
		if len(left.Preds) == 0 && sortPushable(b, want.Sort) && (len(want.Columns) == 0 || keysCovered(want.Sort, want.Columns)) {
			got.Sort, got.Limit = want.Sort, want.Limit
		} else {
			left.Sort, left.Limit = want.Sort, want.Limit
		}
	}
	if len(want.Columns) > 0 {
		if b.CanProject(want.Columns) && logical.PredsCovered(left.Preds, want.Columns) && keysCovered(left.Sort, want.Columns) {
			got.Columns = want.Columns
		} else {
			left.Columns = want.Columns
		}
	}
	return got, left
}

// aggsPushable reports whether backend b absorbs every aggregate in
// aggs.
func aggsPushable(b Backend, aggs []table.Agg) bool {
	for _, a := range aggs {
		if !b.CanPushAgg(a) {
			return false
		}
	}
	return true
}

// sortPushable reports whether backend b absorbs every key of a top-k's
// order.
func sortPushable(b Backend, keys []table.SortKey) bool {
	for _, k := range keys {
		if !b.CanPushSort(k) {
			return false
		}
	}
	return true
}

// keysCovered reports whether every sort key's column is one of cols
// (case-insensitively, as logical.PredsCovered matches predicates).
func keysCovered(keys []table.SortKey, cols []string) bool {
	for _, k := range keys {
		if !slices.ContainsFunc(cols, func(c string) bool { return strings.EqualFold(c, k.Col) }) {
			return false
		}
	}
	return true
}

// materialize is the table of l's rows, built as the row interpreter
// builds a leaf's (logical.Run over a lone Input): a registered table's
// selected rows are copied out of its fragments into a result table,
// and only a result table with nothing selected or pending is returned
// as it is.
func materialize(l logical.VecLeaf) (*table.Table, error) {
	return logical.Run(&logical.Node{Op: logical.OpInput}, func(*logical.Node) (logical.VecLeaf, error) { return l, nil })
}

// evaluate runs f's operators over the candidate rows in, in the
// contract's order — filter (f.Preds, restricted to f.Ranges when
// non-nil), then aggregate, then top-k, then project — as
// logical.VecFragment: one selection-vector pipeline whose output is
// the stream it ended in. No row is copied unless an aggregate or a
// top-k runs; a filter's survivors cross the boundary as selection
// vectors over in's table and a projection as names pending over it.
// Selecting the candidates is the caller's job; a registered in.Table
// is read through its fragments, a result table's batches are extracted
// as the pipeline goes. Scanned counts the
// candidate rows visited (table.RowsVisited) — or, when driven is set,
// only those that match f.Preds[0], the equality that drives the scan.
func evaluate(in logical.VecLeaf, f Fragment, driven bool) (Result, error) {
	scanned := in.Len()
	if f.Ranges != nil {
		scanned = table.RowsVisited(f.Ranges, scanned)
	}
	out, lead, err := logical.VecFragment(in, logical.FragmentOps{Ranges: f.Ranges, Preds: f.Preds,
		GroupBy: f.GroupBy, Aggs: f.Aggs, Sort: f.Sort, Limit: f.Limit, Cols: f.Columns})
	if err != nil {
		return Result{}, err
	}
	if driven {
		scanned = lead
	}
	return Result{Leaf: out, Scanned: scanned}, nil
}
