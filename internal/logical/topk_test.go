package logical

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

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

// sameCells reports whether two tables agree cell for cell: schema,
// row count, and each cell's nullness, kind and text (which separates
// -0 from +0 and renders NaN, where Key merges the zeros).
func sameCells(a, b *table.Table) error {
	if fmt.Sprint(a.Schema) != fmt.Sprint(b.Schema) {
		return fmt.Errorf("schema %v vs %v", a.Schema, b.Schema)
	}
	if a.Len() != b.Len() {
		return fmt.Errorf("%d rows vs %d", a.Len(), b.Len())
	}
	for r := range a.Rows {
		for c := range a.Rows[r] {
			x, y := a.Rows[r][c], b.Rows[r][c]
			if x.IsNull() != y.IsNull() || x.Kind() != y.Kind() || x.String() != y.String() {
				return fmt.Errorf("row %d col %s: %v (%v) vs %v (%v)", r, a.Schema[c].Name, x, x.Kind(), y, y.Kind())
			}
		}
	}
	return nil
}

// TestVecTopKEqualsStableSortPrefix is the bounded selection's
// property: over every input shape a Sort can sit on — bare scan,
// selection vectors from a filter and from a row range, a projection,
// a projection left pending at the leaf — RunVec(Limit(k, Sort(keys,
// X))) equals table.Limit(table.Sort(X, keys), k) cell for cell at
// every k around the input size, ties in row order — the NaN-bearing
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
	inputs := map[string]func() *Node{
		"scan":   func() *Node { return scan("t") },
		"filter": func() *Node { return filter(scan("t"), gt) },
		"range": func() *Node {
			sc := scan("t")
			sc.RowStart, sc.RowEnd = 3, 300
			return sc
		},
		"filter_project": func() *Node {
			return &Node{Op: OpProject, Proj: cols, In: []*Node{filter(scan("t"), gt)}}
		},
		"pruned_scan": func() *Node {
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
			in, err := Exec(mk(), c)
			if err != nil {
				t.Fatal(err)
			}
			n := in.Len()
			for kname, keys := range keySets {
				sorted, err := table.Sort(in, keys...)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{-3, 0, 1, 2, n - 1, n, n + 1} {
					root := &Node{Op: OpLimit, N: k, In: []*Node{sortNode(mk(), keys...)}}
					for _, workers := range []int{1, 4} {
						got, err := ExecVec(root, c, workers)
						if err != nil {
							t.Fatalf("seed %d %s/%s k=%d: %v", tc.seed, iname, kname, k, err)
						}
						if err := sameCells(got, table.Limit(sorted, k)); err != nil {
							t.Fatalf("seed %d %s/%s k=%d workers=%d: %v", tc.seed, iname, kname, k, workers, err)
						}
					}
				}
			}
		}

		// The projection pending at the leaf, as an in-process backend
		// leaves it: the leaf table is the unprojected base.
		fr := c.FragsOf(base.Name)
		for _, withFrags := range []bool{true, false} {
			env := VecEnv{
				Leaf: func(*Node) (*table.Table, error) { return base, nil },
				Columnar: func(*Node) (*table.Frags, []string) {
					if withFrags {
						return fr, cols
					}
					return nil, cols
				},
				Workers: 1,
			}
			projected, err := table.Project(base, cols...)
			if err != nil {
				t.Fatal(err)
			}
			for kname, keys := range keySets {
				sorted, err := table.Sort(projected, keys...)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{1, 2, tc.n - 1, tc.n, tc.n + 1} {
					root := &Node{Op: OpLimit, N: k, In: []*Node{sortNode(&Node{Op: OpInput}, keys...)}}
					got, err := RunVec(root, env)
					if err != nil {
						t.Fatalf("seed %d pending/%s k=%d: %v", tc.seed, kname, k, err)
					}
					if err := sameCells(got, table.Limit(sorted, k)); err != nil {
						t.Fatalf("seed %d pending/%s k=%d frags=%v: %v", tc.seed, kname, k, withFrags, err)
					}
				}
			}
		}
	}
}

// TestVecTopKErrors: an unknown sort column fails with the row
// interpreter's error at any limit (including one that selects nothing),
// and an error below the Sort wins over it, as in the row interpreter.
func TestVecTopKErrors(t *testing.T) {
	c := table.NewCatalog()
	c.Put(topKTable(9, 300, false))
	for _, k := range []int{-1, 0, 5, 300, 1000} {
		assertVecParity(t, &Node{Op: OpLimit, N: k,
			In: []*Node{sortNode(scan("t"), table.SortKey{Col: "f"}, table.SortKey{Col: "nope"})}}, c)
		assertVecParity(t, &Node{Op: OpLimit, N: k,
			In: []*Node{sortNode(
				filter(scan("t"), table.Pred{Col: "missing", Op: table.OpEq, Val: table.I(1)}),
				table.SortKey{Col: "nope"})}}, c)
	}
}

// TestVecDistinctKeys pins the distinct kernel to table.Distinct on the
// keys where equality is coarser or finer than it looks: NULL in either
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
	distinct := func(in *Node) *Node { return &Node{Op: OpDistinct, In: []*Node{in}} }
	project := func(in *Node, cols ...string) *Node { return &Node{Op: OpProject, Proj: cols, In: []*Node{in}} }
	for name, root := range map[string]*Node{
		"all_columns": distinct(scan("d")),
		"two_columns": distinct(project(scan("d"), "s", "x")),
		"one_column":  distinct(project(scan("d"), "x")),
		"filtered": distinct(project(
			filter(scan("d"), table.Pred{Col: "n", Op: table.OpEq, Val: table.I(1)}), "x", "s")),
		"then_sorted": sortNode(distinct(project(scan("d"), "s", "n")), table.SortKey{Col: "n", Desc: true}),
	} {
		want, err := Exec(root, c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ExecVec(root, c, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := sameCells(got, want); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestVecFilterNoPredsKeepsSelections: an empty conjunction passes the
// incoming selections through — whole-batch entries stay nil instead of
// becoming explicit 256-entry index lists.
func TestVecFilterNoPredsKeepsSelections(t *testing.T) {
	base := topKTable(11, 700, false)
	v := &vecRun{env: VecEnv{Workers: 1}}
	s := passthrough(base, nil)
	s.sels = rangeSels(v.batches(s), []table.RowRange{{Start: 100, End: 600}})
	out, err := v.filter(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	for bi := range s.sels {
		if (s.sels[bi] == nil) != (out.sels[bi] == nil) || len(s.sels[bi]) != len(out.sels[bi]) {
			t.Errorf("batch %d: selection %v became %v", bi, s.sels[bi], out.sels[bi])
		}
	}
	if out.sels[1] != nil {
		t.Errorf("fully covered batch materialized a %d-entry selection", len(out.sels[1]))
	}
}
