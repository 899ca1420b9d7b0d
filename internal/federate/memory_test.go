package federate

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/logical"
	"repro/internal/table"
)

// TestMemoryScanMatchesEvaluate: the memory backend answers a pushed
// equality conjunction exactly as the shared evaluator over the whole
// table and as the sql backend do. The table holds the float cells
// whose equality is easy to get wrong — NaN, which equals only NaN, and
// −0 beside +0 — and NULLs, plus a string column
// over four fragments whose literal "a3" is missing from fragment 1's
// dictionary. Scanned counts the rows inside the ranges that match the
// driving equality.
func TestMemoryScanMatchesEvaluate(t *testing.T) {
	c := table.NewCatalog()
	tb := table.New("m", table.Schema{
		{Name: "x", Type: table.TypeFloat},
		{Name: "s", Type: table.TypeString},
		{Name: "n", Type: table.TypeInt},
	})
	negZero := table.F(math.Copysign(0, -1))
	n := 3*table.FragmentRows + 40
	for i := 0; i < n; i++ {
		x := table.F(float64(i % 3))
		switch {
		case i%97 == 5:
			x = table.F(math.NaN())
		case i%10 == 0:
			x = negZero
		case i%17 == 0:
			x = table.Null(table.TypeFloat)
		}
		s := table.S(fmt.Sprintf("a%d", i%6))
		switch {
		case i/table.FragmentRows == 1 && i%6 == 3:
			s = table.S("b")
		case i%11 == 0:
			s = table.Null(table.TypeString)
		}
		tb.MustAppend([]table.Value{x, s, table.I(int64(i % 7))})
	}
	c.Put(tb)
	for bi, b := range c.FragsOf("m").Batches {
		if b.Cols[1].Codes == nil {
			t.Fatalf("fragment %d: column s carries no dictionary codes", bi)
		}
	}

	eq := func(col string, v table.Value) table.Pred { return table.Pred{Col: col, Op: table.OpEq, Val: v} }
	conjunctions := map[string][]table.Pred{
		"x=1 (NaN)":       {eq("x", table.F(1))},
		"x=int 1 (NaN)":   {eq("x", table.I(1))},
		"x=+0":            {eq("x", table.F(0))},
		"x=-0":            {eq("x", negZero)},
		"s=a3 (some)":     {eq("s", table.S("a3"))},
		"s=zz (none)":     {eq("s", table.S("zz"))},
		"s=a3,x=0":        {eq("s", table.S("a3")), eq("x", table.F(0))},
		"n=3,s=a1":        {eq("n", table.I(3)), eq("s", table.S("a1"))},
		"x=1,n=4,s=a4":    {eq("x", table.F(1)), eq("n", table.I(4)), eq("s", table.S("a4"))},
		"s=a2,n>2":        {eq("s", table.S("a2")), {Col: "n", Op: table.OpGt, Val: table.I(2)}},
		"n<5,x=2,s=zz":    {{Col: "n", Op: table.OpLt, Val: table.I(5)}, eq("x", table.F(2)), eq("s", table.S("zz"))},
		"x=2,s=b (frag1)": {eq("x", table.F(2)), eq("s", table.S("b"))},
	}
	rangeShapes := map[string][]table.RowRange{
		"none": nil,
		"some": {{Start: 10, End: 300}, {Start: 2*table.FragmentRows + 3, End: n}},
	}
	m, s := NewMemory(c), NewSQL(c)
	reg, _ := c.Get("m")
	for cname, preds := range conjunctions {
		for rname, ranges := range rangeShapes {
			label := cname + " ranges=" + rname
			f := Fragment{Table: "m", Preds: preds, Ranges: ranges}
			got, err := m.Scan(context.Background(), f)
			if err != nil {
				t.Fatalf("%s: memory: %v", label, err)
			}
			want, err := evaluate(logical.VecLeaf{Table: reg}, f, false)
			if err != nil {
				t.Fatalf("%s: evaluate: %v", label, err)
			}
			viaSQL, err := s.Scan(context.Background(), f)
			if err != nil {
				t.Fatalf("%s: sql: %v", label, err)
			}
			w := render(rowsOf(t, want))
			if render(rowsOf(t, got)) != w {
				t.Errorf("%s: memory returns %d rows, evaluate %d", label, got.Leaf.Len(), want.Leaf.Len())
			}
			if render(rowsOf(t, viaSQL)) != w {
				t.Errorf("%s: sql returns %d rows, evaluate %d", label, viaSQL.Leaf.Len(), want.Leaf.Len())
			}
			pick, _ := pickEq(tb, c.StatsOf("m"), preds)
			driving, err := evaluate(logical.VecLeaf{Table: reg}, Fragment{Table: "m", Preds: preds[pick : pick+1], Ranges: ranges}, false)
			if err != nil {
				t.Fatal(err)
			}
			if got.Scanned != driving.Leaf.Len() {
				t.Errorf("%s: scanned %d, want the %d rows matching %v", label, got.Scanned, driving.Leaf.Len(), preds[pick])
			}
		}
	}
}
