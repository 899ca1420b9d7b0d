package logical_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/logical"
	"repro/internal/logical/refeval"
	"repro/internal/table"
)

// topKTable builds a seeded n-row table whose columns cover what the
// bounded selection must order exactly like the stable sort: NULLs in
// every key column, ±0 and (optionally) NaN floats, heavy duplicates, a
// mixed-kind column that extracts boxed and sorts as exact Values, and
// a unique id that makes any tie-order slip visible.
func topKTable(seed int64, n int, nan bool) *table.Table {
	rng := rand.New(rand.NewSource(seed))
	t := table.New("t", table.Schema{
		{Name: "id", Type: table.TypeInt},
		{Name: "g", Type: table.TypeString},
		{Name: "f", Type: table.TypeFloat},
		{Name: "i", Type: table.TypeInt},
		{Name: "b", Type: table.TypeBool},
		{Name: "m", Type: table.TypeString},
	})
	negZero := math.Copysign(0, -1)
	for r := 0; r < n; r++ {
		g := table.S(fmt.Sprintf("g%d", rng.Intn(4)))
		if rng.Intn(9) == 0 {
			g = table.Null(table.TypeString)
		}
		var f table.Value
		switch k := rng.Intn(12); {
		case k == 0:
			f = table.Null(table.TypeFloat)
		case k == 1:
			f = table.F(0)
		case k == 2:
			f = table.F(negZero)
		case k == 3 && nan:
			f = table.F(math.NaN())
		default:
			f = table.F(float64(rng.Intn(7)) - 2.5)
		}
		i := table.I(int64(rng.Intn(5)))
		if rng.Intn(11) == 0 {
			i = table.Null(table.TypeInt)
		}
		b := table.B(rng.Intn(2) == 0)
		if rng.Intn(7) == 0 {
			b = table.Null(table.TypeBool)
		}
		var m table.Value
		switch rng.Intn(5) {
		case 0:
			m = table.I(int64(rng.Intn(12)))
		case 1:
			m = table.F(float64(rng.Intn(12)) + 0.5)
		case 2:
			m = table.S(fmt.Sprintf("%d", rng.Intn(12)))
		case 3:
			m = table.B(rng.Intn(2) == 0)
		default:
			m = table.Null(table.TypeString)
		}
		// Appended directly: the mixed-kind cells bypass MustAppend's
		// kind check on purpose.
		t.Rows = append(t.Rows, []table.Value{table.I(int64(r)), g, f, i, b, m})
	}
	return t
}

// prefix is the first k rows of t, none for k < 0: a LIMIT k.
func prefix(t *table.Table, k int) *table.Table {
	return &table.Table{Name: t.Name, Schema: t.Schema, Rows: t.Rows[:min(max(k, 0), t.Len())]}
}

// sameCells reports whether two tables agree cell for cell: schema
// names and types, row count, and each cell's nullness, kind and text
// (refeval.Render, which separates -0 from +0 and renders NaN).
func sameCells(a, b *table.Table) error {
	if fmt.Sprint(a.Schema) != fmt.Sprint(b.Schema) || refeval.Render(a) != refeval.Render(b) {
		return fmt.Errorf("%v\n%s\nvs\n%v\n%s", a.Schema, refeval.Render(a), b.Schema, refeval.Render(b))
	}
	return nil
}

// TestVecTopKEqualsStableSortPrefix is the bounded selection's
// property: over every input shape a Sort can sit on — bare scan,
// selection vectors from a filter and from a row range, a projection,
// a projection left pending at the leaf — RunVec(Limit(k, Sort(keys,
// X))) equals the reference evaluator's stable sort prefix cell for cell
// at every k around the input size, ties in row order — the NaN-bearing
// and mixed-kind keys included, which table.Compare orders totally like
// every other key.
func TestVecTopKEqualsStableSortPrefix(t *testing.T) {
	keySets := map[string][]table.SortKey{
		"float":            {{Col: "f"}},
		"float_desc":       {{Col: "f", Desc: true}},
		"dups":             {{Col: "g"}},
		"str_float_desc":   {{Col: "g"}, {Col: "f", Desc: true}},
		"bool_int_str":     {{Col: "b"}, {Col: "i", Desc: true}, {Col: "g"}},
		"mixed":            {{Col: "m"}},
		"mixed_desc_int":   {{Col: "m", Desc: true}, {Col: "i"}},
		"int_desc_mixed":   {{Col: "i", Desc: true}, {Col: "m"}},
		"unique_desc":      {{Col: "id", Desc: true}},
		"no_keys_all_ties": {},
	}
	gt := table.Pred{Col: "i", Op: table.OpGt, Val: table.I(0)}
	cols := []string{"f", "g", "m", "id", "b", "i"}
	inputs := map[string]func() *logical.Node{
		"scan":   func() *logical.Node { return scan("t") },
		"filter": func() *logical.Node { return filter(scan("t"), gt) },
		"range": func() *logical.Node {
			sc := scan("t")
			sc.RowStart, sc.RowEnd = 3, 300
			return sc
		},
		"filter_project": func() *logical.Node {
			return &logical.Node{Op: logical.OpProject, Proj: cols, In: []*logical.Node{filter(scan("t"), gt)}}
		},
		"pruned_scan": func() *logical.Node {
			sc := scan("t")
			sc.Cols = cols
			return sc
		},
	}
	for _, tc := range []struct {
		seed int64
		n    int
		nan  bool
	}{{1, 6, false}, {2, 255, false}, {3, 700, false}, {4, 700, true}, {5, 40, true}} {
		base := topKTable(tc.seed, tc.n, tc.nan)
		c := table.NewCatalog()
		c.Put(base)
		for iname, mk := range inputs {
			in, err := refeval.Eval(mk(), c)
			if err != nil {
				t.Fatal(err)
			}
			n := in.Len()
			for kname, keys := range keySets {
				sorted, err := refeval.Eval(sortNode(mk(), keys...), c)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{-3, 0, 1, 2, n - 1, n, n + 1} {
					root := &logical.Node{Op: logical.OpLimit, N: k, In: []*logical.Node{sortNode(mk(), keys...)}}
					want := prefix(sorted, k)
					for _, workers := range []int{1, 4} {
						got, err := logical.ExecVec(root, c, workers)
						if err != nil {
							t.Fatalf("seed %d %s/%s k=%d: %v", tc.seed, iname, kname, k, err)
						}
						if err := sameCells(got, want); err != nil {
							t.Fatalf("seed %d %s/%s k=%d workers=%d: %v", tc.seed, iname, kname, k, workers, err)
						}
					}
				}
			}
		}

		// The projection pending at the leaf, as an in-process backend
		// leaves it: the leaf table is the unprojected base, and the
		// reference scans the projected columns.
		fr := c.FragsOf(base.Name)
		for _, withFrags := range []bool{true, false} {
			env := logical.VecEnv{
				Leaf: func(*logical.Node) (logical.VecLeaf, error) {
					if withFrags {
						return logical.VecLeaf{Table: base, Frags: fr, Cols: cols}, nil
					}
					return logical.VecLeaf{Table: base, Cols: cols}, nil
				},
				Workers: 1,
			}
			for kname, keys := range keySets {
				sorted, err := refeval.Eval(sortNode(&logical.Node{Op: logical.OpScan, Table: "t", Cols: cols}, keys...), c)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{1, 2, tc.n - 1, tc.n, tc.n + 1} {
					root := &logical.Node{Op: logical.OpLimit, N: k, In: []*logical.Node{sortNode(&logical.Node{Op: logical.OpInput}, keys...)}}
					got, err := logical.RunVec(root, env)
					if err != nil {
						t.Fatalf("seed %d pending/%s k=%d: %v", tc.seed, kname, k, err)
					}
					if err := sameCells(got, prefix(sorted, k)); err != nil {
						t.Fatalf("seed %d pending/%s k=%d frags=%v: %v", tc.seed, kname, k, withFrags, err)
					}
				}
			}
		}
	}
}

// TestVecTopKErrors: an unknown sort column fails, with the row
// interpreter's error text, at any limit (including one that selects
// nothing), and an error below the Sort wins over it.
func TestVecTopKErrors(t *testing.T) {
	c := table.NewCatalog()
	c.Put(topKTable(9, 300, false))
	for _, k := range []int{-1, 0, 5, 300, 1000} {
		assertReference(t, &logical.Node{Op: logical.OpLimit, N: k,
			In: []*logical.Node{sortNode(scan("t"), table.SortKey{Col: "f"}, table.SortKey{Col: "nope"})}}, c)
		assertReference(t, &logical.Node{Op: logical.OpLimit, N: k,
			In: []*logical.Node{sortNode(
				filter(scan("t"), table.Pred{Col: "missing", Op: table.OpEq, Val: table.I(1)}),
				table.SortKey{Col: "nope"})}}, c)
	}
}

// TestVecDistinctKeys holds both executors' distinct to the reference
// evaluator on the keys where equality is coarser or finer than it looks: NULL in either
// column, 1 vs 1.0 (equal), NaN (equal to NaN), -0 vs +0 (equal), a
// date vs the same text as a string (equal), over
// bare, filtered and projected inputs — first occurrence kept.
func TestVecDistinctKeys(t *testing.T) {
	tb := table.New("d", table.Schema{
		{Name: "x", Type: table.TypeFloat},
		{Name: "s", Type: table.TypeString},
		{Name: "n", Type: table.TypeInt},
	})
	xs := []table.Value{table.I(1), table.F(1), table.F(math.NaN()), table.Null(table.TypeFloat),
		table.F(0), table.F(math.Copysign(0, -1)), table.F(math.NaN()), table.F(2.5)}
	ss := []table.Value{table.S("2024-01-01"), table.D("2024-01-01"), table.Null(table.TypeString), table.S("a")}
	for r := 0; r < 600; r++ {
		tb.Rows = append(tb.Rows, []table.Value{xs[r%len(xs)], ss[(r/3)%len(ss)], table.I(int64(r % 2))})
	}
	c := table.NewCatalog()
	c.Put(tb)
	distinct := func(in *logical.Node) *logical.Node {
		return &logical.Node{Op: logical.OpDistinct, In: []*logical.Node{in}}
	}
	project := func(in *logical.Node, cols ...string) *logical.Node {
		return &logical.Node{Op: logical.OpProject, Proj: cols, In: []*logical.Node{in}}
	}
	for name, root := range map[string]*logical.Node{
		"all_columns": distinct(scan("d")),
		"two_columns": distinct(project(scan("d"), "s", "x")),
		"one_column":  distinct(project(scan("d"), "x")),
		"filtered": distinct(project(
			filter(scan("d"), table.Pred{Col: "n", Op: table.OpEq, Val: table.I(1)}), "x", "s")),
		"then_sorted": sortNode(distinct(project(scan("d"), "s", "n")), table.SortKey{Col: "n", Desc: true}),
	} {
		want, err := refeval.Eval(root, c)
		if err != nil {
			t.Fatal(err)
		}
		row, rowErr := logical.Exec(root, c)
		vec, vecErr := logical.ExecVec(root, c, 1)
		for _, got := range []struct {
			name string
			t    *table.Table
			err  error
		}{{"row interpreter", row, rowErr}, {"vectorized", vec, vecErr}} {
			if got.err != nil {
				t.Fatalf("%s (%s): %v", name, got.name, got.err)
			}
			if err := sameCells(got.t, want); err != nil {
				t.Errorf("%s (%s): %v", name, got.name, err)
			}
		}
	}
}
