package federate

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/logical"
	"repro/internal/logical/refeval"
	"repro/internal/table"
)

// topKCatalog holds "tk", 3×256+50 rows over four fragments. seq names
// the row; band is 1 in the second fragment only, so "band = 0" prunes
// that fragment and leaves two row ranges; grp holds one value across
// rows 200–599, so equal keys straddle a batch boundary and the gap
// between those ranges; f cycles through NULL, NaN, −0, +0 and a few
// repeated numbers; n repeats 0..4.
func topKCatalog() *table.Catalog {
	tb := table.New("tk", table.Schema{
		{Name: "seq", Type: table.TypeInt},
		{Name: "band", Type: table.TypeInt},
		{Name: "grp", Type: table.TypeString},
		{Name: "f", Type: table.TypeFloat},
		{Name: "n", Type: table.TypeInt},
	})
	fs := []table.Value{table.Null(table.TypeFloat), table.F(math.NaN()), table.F(math.Copysign(0, -1)),
		table.F(0), table.F(2.5), table.F(-1), table.F(2.5)}
	for i := 0; i < 3*table.FragmentRows+50; i++ {
		band := 0
		if i/table.FragmentRows == 1 {
			band = 1
		}
		grp := fmt.Sprintf("g%d", i%3)
		if i >= 200 && i < 600 {
			grp = "mid"
		}
		tb.MustAppend([]table.Value{table.I(int64(i)), table.I(int64(band)), table.S(grp), fs[i%len(fs)], table.I(int64(i % 5))})
	}
	c := table.NewCatalog()
	c.Put(tb)
	return c
}

// TestFederatedTopKMatchesReference holds a Limit directly over a Sort,
// federated, to the reference evaluator of the same tree: on the memory
// backend, on the SQL backend over a whole scan and over a zone-pruned
// scan of two row ranges, and failed over from a downed memory backend
// to the SQL one. The keys tie across batch and range boundaries, hold
// NULL, NaN and −0, and come in pairs with mixed DESC; k runs from 0 to
// past the row count. A pushed top-k must show on the fragment and
// return at most k rows across the boundary.
func TestFederatedTopKMatchesReference(t *testing.T) {
	c := topKCatalog()
	n := 3*table.FragmentRows + 50
	down := func() Backend { return NewChaos(NewMemory(c), ChaosOptions{Down: true}) }
	backends := map[string][]Backend{
		"memory":   {NewMemory(c)},
		"sql":      {NewSQL(c)},
		"failover": {down(), NewSQL(c)},
	}
	wide := table.Pred{Col: "seq", Op: table.OpGe, Val: table.I(3)}
	pruned := table.Pred{Col: "band", Op: table.OpEq, Val: table.I(0)}
	keySets := map[string][]table.SortKey{
		"grp":          {{Col: "grp"}},
		"grp_desc":     {{Col: "grp", Desc: true}},
		"f":            {{Col: "f"}},
		"f_desc":       {{Col: "f", Desc: true}},
		"grp_f_desc":   {{Col: "grp"}, {Col: "f", Desc: true}},
		"f_desc_n":     {{Col: "f", Desc: true}, {Col: "n"}},
		"n_desc_grp":   {{Col: "n", Desc: true}, {Col: "grp"}},
		"n_desc_f_grp": {{Col: "n", Desc: true}, {Col: "f"}, {Col: "grp", Desc: true}},
	}
	inputs := map[string]func() *logical.Node{
		"scan":   func() *logical.Node { return &logical.Node{Op: logical.OpScan, Table: "tk"} },
		"filter": func() *logical.Node { return filterScan("tk", wide) },
		"ranges": func() *logical.Node { return filterScan("tk", pruned) },
		"project": func() *logical.Node {
			return &logical.Node{Op: logical.OpProject, Proj: []string{"f", "grp", "n"}, In: []*logical.Node{filterScan("tk", pruned)}}
		},
	}
	for bname, bs := range backends {
		e := New(c.Epoch, Options{Workers: 1, Breaker: BreakerConfig{FailThreshold: -1}}, bs...)
		for iname, in := range inputs {
			for kname, keys := range keySets {
				for _, k := range []int{0, 1, 2, 255, 256, 257, 300, n, n + 9} {
					label := fmt.Sprintf("%s %s %s k=%d", bname, iname, kname, k)
					root := topKOver(in(), k, keys...)
					want, err := refeval.Eval(root, c)
					if err != nil {
						t.Fatalf("%s: reference: %v", label, err)
					}
					got, run, err := e.ExecuteIR(logical.Optimize(root, logical.CatalogStats(c)))
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if refeval.Render(got) != refeval.Render(want) {
						t.Fatalf("%s: rows diverge from the reference:\n%s\nvs\n%s", label, refeval.Render(got), refeval.Render(want))
					}
					fr := run.Fragments[0]
					switch {
					case k == 0 && len(fr.Sort) > 0:
						t.Errorf("%s: a zero-row top-k was pushed", label)
					case k > 0 && (len(fr.Sort) == 0 || fr.Limit != k):
						t.Errorf("%s: top-k not pushed: sort=%v limit=%d", label, fr.Sort, fr.Limit)
					case k > 0 && (fr.ActOut > k || fr.Est.Out > k):
						t.Errorf("%s: %d rows out (est %d) for a top-%d", label, fr.ActOut, fr.Est.Out, k)
					}
					if iname == "ranges" && bname != "failover" && len(fr.Ranges) != 2 {
						t.Errorf("%s: ranges %v, want two", label, fr.Ranges)
					}
					if wantOver := bname == "failover"; (fr.FailedOver == "sql") != wantOver {
						t.Errorf("%s: failed over to %q", label, fr.FailedOver)
					}
				}
			}
		}
	}
}

// TestTopKStaysWithLeftPredicates: a top-k rides a fragment only when
// no predicate stayed behind — a filter the backend cannot push must
// run before the top-k — and the graph-evidence backend, which sorts
// nothing, never takes one.
func TestTopKStaysWithLeftPredicates(t *testing.T) {
	c := topKCatalog()
	// The SQL dialect cannot write a NaN literal, so the SQL backend
	// leaves this predicate to the residual.
	nan := table.Pred{Col: "f", Op: table.OpNe, Val: table.F(math.NaN())}
	root := topKOver(filterScan("tk", nan), 4, table.SortKey{Col: "seq", Desc: true})
	e := New(c.Epoch, Options{Workers: 1}, NewSQL(c))
	got, run, err := e.ExecuteIR(logical.Optimize(root, logical.CatalogStats(c)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := refeval.Eval(root, c)
	if err != nil {
		t.Fatal(err)
	}
	if refeval.Render(got) != refeval.Render(want) {
		t.Fatalf("rows diverge from the reference:\n%s\nvs\n%s", refeval.Render(got), refeval.Render(want))
	}
	if fr := run.Fragments[0]; len(fr.Sort) > 0 || len(fr.Preds) > 0 {
		t.Errorf("sql fragment took push=%v sort=%v, want neither", fr.Preds, fr.Sort)
	}
	got2, left := absorb(&GraphEvidence{}, Fragment{Table: "tk", Sort: []table.SortKey{{Col: "seq"}}, Limit: 3})
	if len(got2.Sort) > 0 || len(left.Sort) != 1 || left.Limit != 3 {
		t.Errorf("graph evidence absorb: got %+v left %+v", got2, left)
	}
}
