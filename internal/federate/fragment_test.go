package federate

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/logical"
	"repro/internal/logical/refeval"
	"repro/internal/table"
)

// fragmentTable builds an n-row table with NULLs in every column the
// fragment operators read.
func fragmentTable(n int) *table.Table {
	t := table.New("ft", table.Schema{
		{Name: "g", Type: table.TypeString},
		{Name: "k", Type: table.TypeInt},
		{Name: "v", Type: table.TypeFloat},
	})
	for i := 0; i < n; i++ {
		row := []table.Value{
			table.S(fmt.Sprintf("g%d", i%5)),
			table.I(int64(i % 17)),
			table.F(float64(i%23) * 0.25),
		}
		if i%13 == 0 {
			row[0] = table.Null(table.TypeString)
		}
		if i%19 == 0 {
			row[2] = table.Null(table.TypeFloat)
		}
		t.MustAppend(row)
	}
	return t
}

// fragsOf is the columnar form a catalog derives for t.
func fragsOf(t *table.Table) *table.Frags {
	c := table.NewCatalog()
	c.Put(t)
	return c.FragsOf(t.Name)
}

// rangedCatalog holds, under t's name, the rows of t inside the
// ascending, disjoint ranges (all of t when ranges is nil), and counts
// the rows the ranges cover.
func rangedCatalog(t *table.Table, ranges []table.RowRange) (*table.Catalog, int) {
	in := table.New(t.Name, t.Schema)
	in.Rows = t.Rows
	if ranges != nil {
		in.Rows = nil
		for _, r := range ranges {
			if end := min(r.End, t.Len()); r.Start < end {
				in.Rows = append(in.Rows, t.Rows[r.Start:end]...)
			}
		}
	}
	c := table.NewCatalog()
	c.Put(in)
	return c, in.Len()
}

// fragmentTree is the fragment contract as a plan over its table: the
// predicates, then the aggregate, then the projection.
func fragmentTree(f Fragment) *logical.Node {
	n := &logical.Node{Op: logical.OpScan, Table: f.Table}
	if len(f.Preds) > 0 {
		n = &logical.Node{Op: logical.OpFilter, Preds: f.Preds, In: []*logical.Node{n}}
	}
	if len(f.Aggs) > 0 {
		n = &logical.Node{Op: logical.OpAggregate, GroupBy: f.GroupBy, Aggs: f.Aggs, In: []*logical.Node{n}}
	}
	if len(f.Columns) > 0 {
		n = &logical.Node{Op: logical.OpProject, Proj: f.Columns, In: []*logical.Node{n}}
	}
	return n
}

// stagedFragment is the composition the evaluator used before the
// single pipeline: each stage through the vectorized kernels on its
// own, a row table materialized between every two.
func stagedFragment(t *table.Table, fr *table.Frags, f Fragment) (*table.Table, error) {
	var err error
	if f.Ranges != nil || len(f.Preds) > 0 {
		if t, _, err = logical.VecFragment(t, fr, f.Ranges, f.Preds, nil, nil, nil); err != nil {
			return nil, err
		}
		fr = nil
	}
	if len(f.Aggs) > 0 {
		if t, _, err = logical.VecFragment(t, fr, nil, nil, f.GroupBy, f.Aggs, nil); err != nil {
			return nil, err
		}
	}
	if len(f.Columns) > 0 {
		return table.Project(t, f.Columns...)
	}
	return t, nil
}

// TestFragmentPipelineMatchesRowKernels crosses every fragment shape
// with sizes around the fragment boundary: evaluate (with and without
// cached fragments — one pipeline either way) and the stage-by-stage
// vectorized composition agree with the reference evaluator on rows,
// schema and error outcome, with each other on the error text, and
// evaluate counts as Scanned the rows the ranges cover.
func TestFragmentPipelineMatchesRowKernels(t *testing.T) {
	type agg struct {
		groupBy []string
		aggs    []table.Agg
		cols    []string // a projection valid over this shape's output
	}
	sum := table.Agg{Func: table.AggSum, Col: "v", As: "total"}
	cnt := table.Agg{Func: table.AggCount, As: "n"}
	aggShapes := map[string]agg{
		"none":    {cols: []string{"v", "g"}},
		"global":  {aggs: []table.Agg{sum, cnt}, cols: []string{"n"}},
		"grouped": {groupBy: []string{"g"}, aggs: []table.Agg{cnt, sum, {Func: table.AggMin, Col: "k"}}, cols: []string{"total", "g"}},
	}
	predShapes := map[string][]table.Pred{
		"none": nil,
		"one":  {{Col: "k", Op: table.OpGt, Val: table.I(3)}},
		"two":  {{Col: "k", Op: table.OpLe, Val: table.I(12)}, {Col: "v", Op: table.OpGe, Val: table.F(1.5)}},
		// Errors lazily: only when a row survives to reach it.
		"error": {{Col: "k", Op: table.OpGe, Val: table.I(0)}, {Col: "nope", Op: table.OpEq, Val: table.I(1)}},
	}
	for _, n := range []int{255, 256, 257, 65536} {
		tb := fragmentTable(n)
		cached := fragsOf(tb)
		rangeShapes := map[string][]table.RowRange{
			"none":  nil,
			"empty": {},
			// A partial batch, whole batches, a range past the table and
			// an inverted one.
			"some": {{Start: 3, End: 40}, {Start: 200, End: n - 1}, {Start: n - 1, End: n + 500}, {Start: n + 9, End: n + 2}},
		}
		for rname, ranges := range rangeShapes {
			ref, wantScanned := rangedCatalog(tb, ranges)
			for pname, preds := range predShapes {
				for aname, a := range aggShapes {
					for _, project := range []bool{false, true} {
						f := Fragment{Table: "ft", Ranges: ranges, Preds: preds, GroupBy: a.groupBy, Aggs: a.aggs}
						if project {
							f.Columns = a.cols
						}
						label := fmt.Sprintf("n=%d ranges=%s preds=%s agg=%s project=%v", n, rname, pname, aname, project)
						want, wantErr := refeval.Eval(fragmentTree(f), ref)
						staged, stagedErr := stagedFragment(tb, cached, f)

						for _, fr := range []*table.Frags{nil, cached} {
							res, err := evaluate(tb, fr, f, false)
							if !sameOutcome(t, label+" evaluate", err, wantErr, stagedErr) || err != nil {
								continue
							}
							got := rowsOf(t, res)
							if render(got) != render(want) || fmt.Sprint(got.Schema) != fmt.Sprint(want.Schema) {
								t.Errorf("%s cached=%v: rows diverge from the reference:\n%s\nvs\n%s", label, fr != nil, render(got), render(want))
							}
							if res.Scanned != wantScanned {
								t.Errorf("%s cached=%v: scanned %d, the ranges cover %d", label, fr != nil, res.Scanned, wantScanned)
							}
							passThrough := ranges == nil && preds == nil && a.aggs == nil
							if (res.Frags != nil) != (passThrough && fr != nil && res.Table == tb) {
								t.Errorf("%s cached=%v: Frags set = %v on a table that is not the untouched input", label, fr != nil, res.Frags != nil)
							}
							if pending := res.Columns != nil; pending != (passThrough && project && fr != nil) {
								t.Errorf("%s cached=%v: pending projection = %v", label, fr != nil, pending)
							}
						}

						if sameOutcome(t, label+" staged", stagedErr, wantErr, stagedErr) && stagedErr == nil && render(staged) != render(want) {
							t.Errorf("%s: staged composition diverges:\n%s\nvs\n%s", label, render(staged), render(want))
						}
					}
				}
			}
		}
	}
}

// sameOutcome reports (and fails on a mismatch) whether got fails
// exactly when the reference does, with the staged composition's text.
func sameOutcome(t *testing.T, label string, got, ref, staged error) bool {
	t.Helper()
	if (got == nil) != (ref == nil) || (got != nil && (staged == nil || got.Error() != staged.Error())) {
		t.Errorf("%s: error %v, the reference's %v, the staged composition's %v", label, got, ref, staged)
		return false
	}
	return true
}

// TestUnknownOperatorFailsWhereTheReferenceDoes runs an operator
// outside the dialect over tables whose predicate column holds no rows,
// only NULL cells, or one non-NULL cell in its last batch, against a
// literal and against NULL, and behind a predicate no row passes. The
// row interpreter, the vectorized executor (coded and uncoded
// fragments, one and four workers) and the memory backend's fragment
// fail exactly where the reference evaluator fails, all with one error
// text: only when a non-NULL cell meets a non-NULL literal.
func TestUnknownOperatorFailsWhereTheReferenceDoes(t *testing.T) {
	const bogus = table.CmpOp(99)
	build := func(n int, nonNull bool) *table.Table {
		tb := table.New("u", table.Schema{{Name: "s", Type: table.TypeString}, {Name: "k", Type: table.TypeInt}})
		for i := 0; i < n; i++ {
			s := table.Null(table.TypeString)
			if nonNull && i == n-1 {
				s = table.S("a")
			}
			tb.MustAppend([]table.Value{s, table.I(int64(i))})
		}
		return tb
	}
	n := 2*table.FragmentRows + 3
	tables := map[string]*table.Table{"no_rows": build(0, false), "null_cells": build(n, false), "non_null_cell": build(n, true)}
	never := table.Pred{Col: "k", Op: table.OpLt, Val: table.I(0)}
	for tname, tb := range tables {
		c := table.NewCatalog()
		c.Put(tb)
		for _, lit := range []table.Value{table.S("a"), table.Null(table.TypeString)} {
			for _, unreached := range []bool{false, true} {
				preds := []table.Pred{{Col: "s", Op: bogus, Val: lit}}
				if unreached {
					preds = append([]table.Pred{never}, preds...)
				}
				label := fmt.Sprintf("%s literal=%v unreached=%v", tname, lit, unreached)
				root := &logical.Node{Op: logical.OpFilter, Preds: preds, In: []*logical.Node{{Op: logical.OpScan, Table: "u"}}}
				_, wantErr := refeval.Eval(root, c)
				if fails := wantErr != nil; fails != (tname == "non_null_cell" && !lit.IsNull() && !unreached) {
					t.Fatalf("%s: the reference fails = %v", label, fails)
				}
				leaf := func(fr *table.Frags) func(*logical.Node) (logical.VecLeaf, error) {
					return func(*logical.Node) (logical.VecLeaf, error) { return logical.VecLeaf{Table: tb, Frags: fr}, nil }
				}
				_, rowErr := logical.Run(root, leaf(nil))
				check := func(way string, err error) {
					if (err == nil) != (wantErr == nil) || err != nil && err.Error() != rowErr.Error() {
						t.Errorf("%s %s: error %v, the reference's %v, the row interpreter's %v", label, way, err, wantErr, rowErr)
					}
				}
				check("row", rowErr)
				for _, fr := range []*table.Frags{c.FragsOf("u"), nil} {
					for _, workers := range []int{1, 4} {
						_, err := logical.RunVec(root, logical.VecEnv{Leaf: leaf(fr), Workers: workers})
						check(fmt.Sprintf("vectorized coded=%v workers=%d", fr != nil, workers), err)
					}
				}
				_, err := NewMemory(c).Scan(context.Background(), Fragment{Table: "u", Preds: preds})
				check("memory fragment", err)
			}
		}
	}
}

// TestPendingProjectionUnknownColumn: leaving the projection pending
// must not defer its validation past the scan.
func TestPendingProjectionUnknownColumn(t *testing.T) {
	tb := fragmentTable(300)
	_, err := evaluate(tb, fragsOf(tb), Fragment{Table: "ft", Columns: []string{"g", "nope"}}, false)
	_, want := table.Project(tb, "g", "nope")
	if err == nil || err.Error() != want.Error() {
		t.Errorf("error %v, want %v", err, want)
	}
}

// eagerBackend is a third-party store written against the Backend
// contract as it stood before Result.Columns existed: it hands back
// finished rows and sets nothing else.
type eagerBackend struct{ *Memory }

func (eagerBackend) Name() string { return "eager" }
func (eb eagerBackend) Scan(ctx context.Context, f Fragment) (Result, error) {
	res, err := eb.Memory.Scan(ctx, f)
	if err != nil {
		return Result{}, err
	}
	rows := res.Table
	if res.Columns != nil {
		rows, err = table.Project(res.Table, res.Columns...)
	}
	return Result{Table: rows, Scanned: res.Scanned}, err
}

// TestBoundaryContractThirdPartyBackend runs the shapes whose
// projection the memory backend now leaves pending — under a top-K
// sort, a distinct, a join, a bare projection, on both executors —
// through the memory backend and through a backend that never sets
// Result.Columns: same rows, same EXPLAIN but for the backend's name.
func TestBoundaryContractThirdPartyBackend(t *testing.T) {
	c := table.NewCatalog()
	tb := fragmentTable(3*table.FragmentRows + 11)
	c.Put(tb)
	small := table.New("dim", table.Schema{{Name: "g", Type: table.TypeString}, {Name: "label", Type: table.TypeString}})
	for i := 0; i < 5; i++ {
		small.MustAppend([]table.Value{table.S(fmt.Sprintf("g%d", i)), table.S(fmt.Sprintf("label-%d", i))})
	}
	c.Put(small)

	scan := func(tbl string) *logical.Node { return &logical.Node{Op: logical.OpScan, Table: tbl} }
	project := func(in *logical.Node, cols ...string) *logical.Node {
		return &logical.Node{Op: logical.OpProject, Proj: cols, In: []*logical.Node{in}}
	}
	shapes := map[string]*logical.Node{
		"projection": project(scan("ft"), "v", "g"),
		"top_k": {Op: logical.OpLimit, N: 20, In: []*logical.Node{{Op: logical.OpSort,
			Keys: []table.SortKey{{Col: "v", Desc: true}, {Col: "g"}},
			In:   []*logical.Node{project(scan("ft"), "g", "v")}}}},
		"distinct": {Op: logical.OpDistinct, In: []*logical.Node{project(scan("ft"), "g", "k")}},
		"join": project(&logical.Node{Op: logical.OpJoin, LeftCol: "g", RightCol: "g",
			In: []*logical.Node{scan("ft"), scan("dim")}}, "label", "v"),
		"small_row_path": project(scan("dim"), "label"),
	}
	memory := New(c.Epoch, Options{Workers: 1}, NewMemory(c))
	eager := New(c.Epoch, Options{Workers: 1}, eagerBackend{NewMemory(c)})
	for name, root := range shapes {
		opt := logical.Optimize(root, logical.CatalogStats(c))
		want, wantRun, err := memory.ExecuteIR(opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, gotRun, err := eager.ExecuteIR(opt)
		if err != nil {
			t.Fatalf("%s: eager backend: %v", name, err)
		}
		ref, err := refeval.Eval(root, c)
		if err != nil {
			t.Fatal(err)
		}
		if render(want) != render(ref) {
			t.Errorf("%s: memory backend diverges from the reference:\n%s\nvs\n%s", name, render(want), render(ref))
		}
		if render(got) != render(ref) {
			t.Errorf("%s: eager backend diverges from the reference:\n%s\nvs\n%s", name, render(got), render(ref))
		}
		if g, w := strings.ReplaceAll(Explain(gotRun), "backend=eager", "backend=memory"), Explain(wantRun); g != w {
			t.Errorf("%s: EXPLAIN differs beyond the backend name:\n%s\nvs\n%s", name, g, w)
		}
	}
}
