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

// registered is t as a catalog holds it: its fragments.
func registered(t *table.Table) *table.Table {
	c := table.NewCatalog()
	c.Put(t)
	reg, _ := c.Get(t.Name)
	return reg
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
func stagedFragment(t *table.Table, f Fragment) (*table.Table, error) {
	stage := func(ops logical.FragmentOps) (err error) {
		out, _, err := logical.VecFragment(logical.VecLeaf{Table: t}, ops)
		if err == nil {
			t, err = materialize(out)
		}
		return err
	}
	if f.Ranges != nil || len(f.Preds) > 0 {
		if err := stage(logical.FragmentOps{Ranges: f.Ranges, Preds: f.Preds}); err != nil {
			return nil, err
		}
	}
	if len(f.Aggs) > 0 {
		if err := stage(logical.FragmentOps{GroupBy: f.GroupBy, Aggs: f.Aggs}); err != nil {
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
//
// It is also the boundary contract: the result leaf read back through
// either executor (Run and RunVec over a lone Input leaf) is the
// reference's rows, and a fragment without an aggregate is its input
// table itself — ranges, predicates and projection, alone or together,
// cross as selection vectors and pending names, and no row is copied.
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
		cached := registered(tb)
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
						staged, stagedErr := stagedFragment(cached, f)

						for _, in := range []*table.Table{tb, cached} {
							fr := in.Frags()
							res, err := evaluate(logical.VecLeaf{Table: in}, f, false)
							if !sameOutcome(t, label+" evaluate", err, wantErr, stagedErr) || err != nil {
								continue
							}
							input := &logical.Node{Op: logical.OpInput}
							leaf := func(*logical.Node) (logical.VecLeaf, error) { return res.Leaf, nil }
							row, rowErr := logical.Run(input, leaf)
							vec, vecErr := logical.RunVec(input, logical.VecEnv{Leaf: leaf, Workers: 2})
							if rowErr != nil || vecErr != nil {
								t.Fatalf("%s cached=%v: reading the leaf back: %v, %v", label, fr != nil, rowErr, vecErr)
							}
							for way, got := range map[string]*table.Table{"row": row, "vectorized": vec} {
								if render(got) != render(want) || fmt.Sprint(got.Schema) != fmt.Sprint(want.Schema) {
									t.Errorf("%s cached=%v %s: rows diverge from the reference:\n%s\nvs\n%s", label, fr != nil, way, render(got), render(want))
								}
							}
							if res.Leaf.Len() != want.Len() {
								t.Errorf("%s cached=%v: the leaf counts %d rows, the reference has %d", label, fr != nil, res.Leaf.Len(), want.Len())
							}
							if res.Scanned != wantScanned {
								t.Errorf("%s cached=%v: scanned %d, the ranges cover %d", label, fr != nil, res.Scanned, wantScanned)
							}
							if a.aggs == nil && res.Leaf.Table != in {
								t.Errorf("%s cached=%v: the result is not the input table: rows were copied", label, fr != nil)
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
// row interpreter, the vectorized executor (catalog fragments and
// batches extracted on the fly, one and four workers) and the memory backend's fragment
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
				leaf := func(in *table.Table) func(*logical.Node) (logical.VecLeaf, error) {
					return func(*logical.Node) (logical.VecLeaf, error) { return logical.VecLeaf{Table: in}, nil }
				}
				_, rowErr := logical.Run(root, leaf(tb))
				check := func(way string, err error) {
					if (err == nil) != (wantErr == nil) || err != nil && err.Error() != rowErr.Error() {
						t.Errorf("%s %s: error %v, the reference's %v, the row interpreter's %v", label, way, err, wantErr, rowErr)
					}
				}
				check("row", rowErr)
				reg, _ := c.Get("u")
				for _, in := range []*table.Table{reg, tb} {
					for _, workers := range []int{1, 4} {
						_, err := logical.RunVec(root, logical.VecEnv{Leaf: leaf(in), Workers: workers})
						check(fmt.Sprintf("vectorized coded=%v workers=%d", in == reg, workers), err)
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
	_, err := evaluate(logical.VecLeaf{Table: registered(tb)}, Fragment{Table: "ft", Columns: []string{"g", "nope"}}, false)
	_, want := table.Project(tb, "g", "nope")
	if err == nil || err.Error() != want.Error() {
		t.Errorf("error %v, want %v", err, want)
	}
}

// eagerBackend is a third-party store that hands back finished rows:
// it materializes the memory backend's result and sets Leaf.Table
// alone.
type eagerBackend struct{ *Memory }

func (eagerBackend) Name() string { return "eager" }
func (eb eagerBackend) Scan(ctx context.Context, f Fragment) (Result, error) {
	res, err := eb.Memory.Scan(ctx, f)
	if err != nil {
		return Result{}, err
	}
	rows, err := materialize(res.Leaf)
	return Result{Leaf: logical.VecLeaf{Table: rows}, Scanned: res.Scanned}, err
}

// TestBoundaryContractThirdPartyBackend runs the shapes whose rows the
// memory backend hands over unmaterialized — a projection pending under
// a top-K sort, a distinct, a join, bare, and a filter's selection
// vectors, on both executors — through the memory backend and through a
// backend that hands back finished rows: same rows, same EXPLAIN but
// for the backend's name.
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
		"filter": project(&logical.Node{Op: logical.OpFilter, Preds: []table.Pred{{Col: "k", Op: table.OpGt, Val: table.I(3)}},
			In: []*logical.Node{scan("ft")}}, "v", "g"),
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
