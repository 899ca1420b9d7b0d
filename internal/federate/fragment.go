package federate

import (
	"fmt"

	"repro/internal/logical"
	"repro/internal/table"
)

// The fragment contract. A Fragment's operators always mean
// filter → aggregate → project, and two functions are its whole
// implementation: absorb decides which of them a backend takes, and
// evaluate runs them. The planner, failover and every built-in
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
//     (CanProject); an aggregate left behind keeps the projection above
//     it behind too;
//   - the projection is taken only when b can project its columns
//     (CanProject) and every left predicate's column is inside them, so
//     the remainder can still evaluate over the narrowed rows.
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
			return got, left
		}
		got.GroupBy, got.Aggs = want.GroupBy, want.Aggs
	}
	if len(want.Columns) > 0 {
		if b.CanProject(want.Columns) && logical.PredsCovered(left.Preds, want.Columns) {
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

// evaluate runs f's operators over candidate rows t in the contract's
// order — filter (f.Preds, restricted to f.Ranges when non-nil), then
// aggregate, then project — as logical.VecFragment: one
// selection-vector pipeline in which rows materialize once, at the end.
// Selecting the candidates is the caller's job; fr optionally carries
// cached columnar fragments covering exactly t (without them the
// pipeline extracts batches as it goes). Scanned counts the candidate
// rows visited (table.RowsVisited) — or, when driven is set, only those
// that match f.Preds[0], the equality that drives the scan.
//
// Rows do not materialize at all for a projection-only fragment over
// cached fragments: t passes through with Frags and the projection
// stays pending in Result.Columns (validated here, so an unknown column
// still fails the scan). Frags is set only when t passes through.
func evaluate(t *table.Table, fr *table.Frags, f Fragment, driven bool) (Result, error) {
	scanned := t.Len()
	if f.Ranges != nil {
		scanned = table.RowsVisited(f.Ranges, t.Len())
	}
	project := len(f.Columns) > 0
	if f.Ranges == nil && len(f.Preds) == 0 && len(f.Aggs) == 0 && (fr != nil || !project) {
		res := Result{Table: t, Scanned: scanned, Frags: fr}
		if project {
			for _, c := range f.Columns {
				if t.Schema.ColIndex(c) < 0 {
					return Result{}, fmt.Errorf("%w: %s", table.ErrNoColumn, c)
				}
			}
			res.Columns = f.Columns
		}
		return res, nil
	}
	t, lead, err := logical.VecFragment(t, fr, f.Ranges, f.Preds, f.GroupBy, f.Aggs, f.Columns)
	if err != nil {
		return Result{}, err
	}
	if driven {
		scanned = lead
	}
	return Result{Table: t, Scanned: scanned}, nil
}
