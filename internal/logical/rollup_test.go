package logical

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/table"
)

func mustAddRollup(t *testing.T, c *table.Catalog, def table.RollupDef) {
	t.Helper()
	if err := c.AddRollup(def); err != nil {
		t.Fatal(err)
	}
}

func productRollup() table.RollupDef {
	return table.RollupDef{
		Name:    "sales_by_product",
		Base:    "sales",
		GroupBy: []string{"product"},
		Aggs: []table.Agg{
			{Func: table.AggSum, Col: "revenue"},
			{Func: table.AggCount, Col: "", As: "n"},
		},
	}
}

func pqRollup(name string) table.RollupDef {
	return table.RollupDef{
		Name:    name,
		Base:    "sales",
		GroupBy: []string{"product", "quarter"},
		Aggs: []table.Agg{
			{Func: table.AggCount, Col: "", As: "n"},
			{Func: table.AggSum, Col: "units"},
			{Func: table.AggSum, Col: "revenue"},
			{Func: table.AggAvg, Col: "revenue"},
			{Func: table.AggMin, Col: "units"},
			{Func: table.AggMax, Col: "units"},
		},
	}
}

func aggOver(in *Node, groupBy []string, aggs ...table.Agg) *Node {
	return &Node{Op: OpAggregate, GroupBy: groupBy, Aggs: aggs, In: []*Node{in}}
}

// scansTable reports whether any Scan in the tree reads the named table.
func scansTable(n *Node, tbl string) bool {
	if n == nil {
		return false
	}
	if n.Op == OpScan && strings.EqualFold(n.Table, tbl) {
		return true
	}
	for _, in := range n.In {
		if scansTable(in, tbl) {
			return true
		}
	}
	return false
}

func TestRollupExactRouting(t *testing.T) {
	c := testCatalog()
	mustAddRollup(t, c, productRollup())
	root := aggOver(scan("sales"), []string{"product"},
		table.Agg{Func: table.AggSum, Col: "revenue", As: "total"},
		table.Agg{Func: table.AggCount, Col: "", As: "cnt"})
	out, opt := execBoth(t, root, c)
	if !traced(t, opt, "rollup") {
		t.Fatalf("rollup did not fire: %v", opt.Trace)
	}
	if want := []string{"sales -> sales_by_product (exact)"}; len(opt.Rollups) != 1 || opt.Rollups[0] != want[0] {
		t.Fatalf("Rollups = %v, want %v", opt.Rollups, want)
	}
	if !scansTable(opt.Root, "sales_by_product") || scansTable(opt.Root, "sales") {
		t.Fatalf("routed plan still reads the base table: %s", opt.Root)
	}
	if out.Len() != 3 {
		t.Fatalf("rows = %d, want 3 products", out.Len())
	}
	if got := out.Schema.Names(); got[1] != "total" || got[2] != "cnt" {
		t.Fatalf("query output names lost: %v", got)
	}
}

func TestRollupExactRoutingWithResidualFilter(t *testing.T) {
	c := testCatalog()
	mustAddRollup(t, c, productRollup())
	root := aggOver(
		filter(scan("sales"), table.Pred{Col: "product", Op: table.OpEq, Val: table.S("Alpha")}),
		[]string{"product"},
		table.Agg{Func: table.AggSum, Col: "revenue", As: "total"})
	out, opt := execBoth(t, root, c)
	if len(opt.Rollups) != 1 {
		t.Fatalf("rollup did not route: %v", opt.Trace)
	}
	if !scansTable(opt.Root, "sales_by_product") {
		t.Fatalf("routed plan misses the rollup: %s", opt.Root)
	}
	if out.Len() != 1 || out.Rows[0][1].Float() != 220 {
		t.Fatalf("unexpected result:\n%v", out)
	}
}

func TestRollupRoutesNarrowedScan(t *testing.T) {
	c := testCatalog()
	mustAddRollup(t, c, productRollup())
	// Column narrowing drops no rows; a narrowed scan that still covers
	// the referenced columns routes like a full scan.
	root := aggOver(&Node{Op: OpScan, Table: "sales", Cols: []string{"product", "revenue"}},
		[]string{"product"}, table.Agg{Func: table.AggSum, Col: "revenue", As: "total"})
	_, opt := execBoth(t, root, c)
	if len(opt.Rollups) != 1 {
		t.Fatalf("narrowed covering scan did not route: %v", opt.Trace)
	}
}

func TestRollupPinnedRouting(t *testing.T) {
	c := testCatalog()
	mustAddRollup(t, c, pqRollup("sales_by_pq"))
	// A global aggregate whose filter pins both rollup keys by equality
	// reads the one materialized group directly — AVG included.
	root := aggOver(
		filter(scan("sales"),
			table.Pred{Col: "product", Op: table.OpEq, Val: table.S("Alpha")},
			table.Pred{Col: "quarter", Op: table.OpEq, Val: table.S("Q1")}),
		nil,
		table.Agg{Func: table.AggAvg, Col: "revenue", As: "avg_rev"},
		table.Agg{Func: table.AggCount, Col: "", As: "n"})
	out, opt := execBoth(t, root, c)
	if want := "sales -> sales_by_pq (pinned)"; len(opt.Rollups) != 1 || opt.Rollups[0] != want {
		t.Fatalf("Rollups = %v, want %q", opt.Rollups, want)
	}
	if out.Len() != 1 || out.Rows[0][0].Float() != 100 {
		t.Fatalf("unexpected result:\n%v", out)
	}

	// Pinning a value that matches no group yields one summary row on
	// both paths (a global aggregate of empty input emits COUNT 0 and
	// NULLs). The probe value must survive emptyfold: past StatsMaxExact distinct keys the
	// statistics only keep min/max bounds, so an absent in-range key
	// reaches the rollup pass unrefuted.
	big := table.New("big", table.Schema{
		{Name: "k", Type: table.TypeString},
		{Name: "v", Type: table.TypeFloat},
	})
	for i := 0; i < table.StatsMaxExact+6; i++ {
		big.MustAppend([]table.Value{table.S(fmt.Sprintf("k%03d", i)), table.F(float64(i))})
	}
	bc := table.NewCatalog()
	bc.Put(big)
	mustAddRollup(t, bc, table.RollupDef{Name: "big_by_k", Base: "big", GroupBy: []string{"k"},
		Aggs: []table.Agg{{Func: table.AggAvg, Col: "v"}}})
	miss := aggOver(
		filter(scan("big"), table.Pred{Col: "k", Op: table.OpEq, Val: table.S("k010x")}),
		nil,
		table.Agg{Func: table.AggAvg, Col: "v", As: "avg_v"})
	out, opt = execBoth(t, miss, bc)
	if want := "big -> big_by_k (pinned)"; len(opt.Rollups) != 1 || opt.Rollups[0] != want {
		t.Fatalf("pinned miss did not route: %v (trace %v)", opt.Rollups, opt.Trace)
	}
	if out.Len() != 1 || !out.Rows[0][0].IsNull() {
		t.Fatalf("pinned miss = %v, want one NULL row", out.Rows)
	}
}

// TestRollupPinnedIsBitExact pins the pinned route to the direct
// plan's bits on the cells a re-aggregation of the materialized row
// would change: an AVG that a negative subnormal sum divides down to
// −0 (an AVG of that one cell reads +0), a MAX that is a NaN with a
// payload, and the typed NULLs of a pin that matches no group. The
// vectorized executor runs both plans.
func TestRollupPinnedIsBitExact(t *testing.T) {
	const payload = 0x7ff8000000000001
	m := table.New("m", table.Schema{
		{Name: "k", Type: table.TypeString},
		{Name: "v", Type: table.TypeFloat},
		{Name: "n", Type: table.TypeInt},
	})
	for _, v := range []float64{-5e-324, 0, 0} {
		m.MustAppend([]table.Value{table.S("neg"), table.F(v), table.I(1)})
	}
	m.MustAppend([]table.Value{table.S("nan"), table.F(math.Float64frombits(payload)), table.I(2)})
	m.MustAppend([]table.Value{table.S("nan"), table.F(1), table.I(3)})
	// Past StatsMaxExact distinct keys an absent in-range key reaches
	// the rollup pass unrefuted (see TestRollupPinnedRouting).
	for i := 0; i < table.StatsMaxExact+6; i++ {
		m.MustAppend([]table.Value{table.S(fmt.Sprintf("k%03d", i)), table.F(float64(i)), table.I(int64(i))})
	}
	c := table.NewCatalog()
	c.Put(m)
	aggs := []table.Agg{
		{Func: table.AggSum, Col: "v", As: "s"},
		{Func: table.AggAvg, Col: "v", As: "a"},
		{Func: table.AggMin, Col: "v", As: "lo"},
		{Func: table.AggMax, Col: "v", As: "hi"},
		{Func: table.AggMin, Col: "n", As: "nlo"},
		{Func: table.AggMax, Col: "n", As: "nhi"},
		{Func: table.AggCount, As: "cnt"},
	}
	def := table.RollupDef{Name: "m_by_k", Base: "m", GroupBy: []string{"k"}}
	for _, a := range aggs {
		def.Aggs = append(def.Aggs, table.Agg{Func: a.Func, Col: a.Col})
	}
	mustAddRollup(t, c, def)

	bits := func(v table.Value) string {
		if v.Kind() == table.TypeFloat && !v.IsNull() {
			return fmt.Sprintf("%v:%#x", v.Kind(), math.Float64bits(v.Float()))
		}
		return fmt.Sprintf("%v:%v:%s", v.Kind(), v.IsNull(), v)
	}
	for _, key := range []string{"neg", "nan", "k010x"} {
		root := aggOver(filter(scan("m"), table.Pred{Col: "k", Op: table.OpEq, Val: table.S(key)}), nil, aggs...)
		want, err := ExecVec(root.Clone(), c, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, opt := execBoth(t, root, c)
		if len(opt.Rollups) != 1 || !strings.HasSuffix(opt.Rollups[0], "(pinned)") {
			t.Fatalf("%s: pin did not route: %v", key, opt.Rollups)
		}
		got, err := ExecVec(opt.Root, c, 1)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if got.Len() != 1 || want.Len() != 1 {
			t.Fatalf("%s: %d rows, direct %d, want 1", key, got.Len(), want.Len())
		}
		for i, v := range got.Rows[0] {
			if bits(v) != bits(want.Rows[0][i]) {
				t.Errorf("%s %s: routed %s, direct %s", key, got.Schema[i].Name, bits(v), bits(want.Rows[0][i]))
			}
		}
		switch row := want.Rows[0]; key {
		case "neg":
			if a := row[1].Float(); a != 0 || !math.Signbit(a) {
				t.Errorf("neg: direct AVG = %v, want -0", a)
			}
		case "nan":
			if h := math.Float64bits(row[3].Float()); h != payload {
				t.Errorf("nan: direct MAX bits = %#x, want %#x", h, uint64(payload))
			}
		default:
			if row[0].Kind() != table.TypeFloat || row[4].Kind() != table.TypeInt || row[6].Int() != 0 {
				t.Errorf("miss: direct row %v, want typed NULLs and COUNT 0", row)
			}
		}
	}
}

func TestRollupPinnedRefusesPartialPin(t *testing.T) {
	c := testCatalog()
	mustAddRollup(t, c, pqRollup("sales_by_pq"))
	// Equality on only one of two keys leaves several groups in play: a
	// global AVG across them cannot read materialized rows.
	root := aggOver(
		filter(scan("sales"), table.Pred{Col: "product", Op: table.OpEq, Val: table.S("Alpha")}),
		nil,
		table.Agg{Func: table.AggAvg, Col: "revenue", As: "avg_rev"})
	_, opt := execBoth(t, root, c)
	if len(opt.Rollups) != 0 {
		t.Fatalf("partial pin routed: %v", opt.Rollups)
	}
	// A range predicate pins nothing even on the right column.
	ranged := aggOver(
		filter(scan("sales"),
			table.Pred{Col: "product", Op: table.OpGt, Val: table.S("A")},
			table.Pred{Col: "quarter", Op: table.OpEq, Val: table.S("Q1")}),
		nil,
		table.Agg{Func: table.AggAvg, Col: "revenue", As: "avg_rev"})
	_, opt = execBoth(t, ranged, c)
	if len(opt.Rollups) != 0 {
		t.Fatalf("range pin routed: %v", opt.Rollups)
	}
}

func TestRollupRefusesFilterOffGroupKeys(t *testing.T) {
	c := testCatalog()
	mustAddRollup(t, c, productRollup())
	// quarter is not a group key of the rollup: filtering it does not
	// commute with the materialized aggregation, so routing must refuse.
	root := aggOver(
		filter(scan("sales"), table.Pred{Col: "quarter", Op: table.OpEq, Val: table.S("Q1")}),
		[]string{"product"},
		table.Agg{Func: table.AggSum, Col: "revenue", As: "total"})
	_, opt := execBoth(t, root, c)
	if len(opt.Rollups) != 0 || scansTable(opt.Root, "sales_by_product") {
		t.Fatalf("routed through a non-commuting filter: %v\n%s", opt.Rollups, opt.Root)
	}
}

func TestRollupCoarseReaggregation(t *testing.T) {
	c := testCatalog()
	mustAddRollup(t, c, pqRollup("sales_by_pq"))
	root := aggOver(scan("sales"), []string{"product"},
		table.Agg{Func: table.AggCount, Col: "", As: "n"},
		table.Agg{Func: table.AggSum, Col: "units", As: "u"},
		table.Agg{Func: table.AggMin, Col: "units", As: "lo"},
		table.Agg{Func: table.AggMax, Col: "units", As: "hi"})
	out, opt := execBoth(t, root, c)
	if want := "sales -> sales_by_pq (reaggregated)"; len(opt.Rollups) != 1 || opt.Rollups[0] != want {
		t.Fatalf("Rollups = %v, want %q", opt.Rollups, want)
	}
	agg := opt.Root
	for agg != nil && agg.Op != OpAggregate {
		agg = agg.Child()
	}
	if agg == nil || agg.Aggs[0].Func != table.AggCountMerge {
		t.Fatalf("COUNT not remapped to COUNT_MERGE: %s", opt.Root)
	}
	if out.Len() != 3 {
		t.Fatalf("rows = %d, want 3", out.Len())
	}
}

func TestRollupCoarseRefusesAvg(t *testing.T) {
	c := testCatalog()
	mustAddRollup(t, c, pqRollup("sales_by_pq"))
	// AVG of partial averages is wrong for uneven group sizes; AVG never
	// re-aggregates even though the rollup materializes it.
	root := aggOver(scan("sales"), []string{"product"},
		table.Agg{Func: table.AggAvg, Col: "revenue", As: "avg_rev"})
	_, opt := execBoth(t, root, c)
	if len(opt.Rollups) != 0 {
		t.Fatalf("AVG routed coarser: %v", opt.Rollups)
	}
}

func TestRollupCoarseRefusesFloatSum(t *testing.T) {
	c := testCatalog()
	mustAddRollup(t, c, pqRollup("sales_by_pq"))
	// revenue is a float column: re-associating float additions is not
	// bit-exact, so a coarser SUM(revenue) stays on the base table.
	root := aggOver(scan("sales"), []string{"product"},
		table.Agg{Func: table.AggSum, Col: "revenue", As: "total"})
	_, opt := execBoth(t, root, c)
	if len(opt.Rollups) != 0 {
		t.Fatalf("float SUM routed coarser: %v", opt.Rollups)
	}
}

func TestRollupRefusesNonScanShapes(t *testing.T) {
	c := testCatalog()
	mustAddRollup(t, c, productRollup())
	agg := table.Agg{Func: table.AggSum, Col: "revenue", As: "total"}
	shapes := map[string]*Node{
		"ranged scan":             aggOver(&Node{Op: OpScan, Table: "sales", RowEnd: 3}, []string{"product"}, agg),
		"scan missing agg column": aggOver(&Node{Op: OpScan, Table: "sales", Cols: []string{"product"}}, []string{"product"}, agg),
		"sort below": aggOver(
			&Node{Op: OpSort, Keys: []table.SortKey{{Col: "revenue"}}, In: []*Node{scan("sales")}},
			[]string{"product"}, agg),
		"unmaterialized agg": aggOver(scan("sales"), []string{"product"},
			table.Agg{Func: table.AggMin, Col: "revenue", As: "lo"}),
		"different grain": aggOver(scan("sales"), []string{"quarter"}, agg),
	}
	for name, root := range shapes {
		opt := Optimize(root.Clone(), CatalogStats(c))
		if len(opt.Rollups) != 0 {
			t.Errorf("%s: routed %v", name, opt.Rollups)
		}
	}
}

func TestRollupPrefersExactOverCoarse(t *testing.T) {
	c := testCatalog()
	// "a_pq" sorts before "z_by_product"; exact routing must still win
	// over the earlier-named reaggregation candidate.
	mustAddRollup(t, c, pqRollup("a_pq"))
	fine := productRollup()
	fine.Name = "z_by_product"
	mustAddRollup(t, c, fine)
	root := aggOver(scan("sales"), []string{"product"},
		table.Agg{Func: table.AggCount, Col: "", As: "n"})
	_, opt := execBoth(t, root, c)
	if want := "sales -> z_by_product (exact)"; len(opt.Rollups) != 1 || opt.Rollups[0] != want {
		t.Fatalf("Rollups = %v, want %q", opt.Rollups, want)
	}
}

func TestRollupRoutingSkippedWithoutRollupStats(t *testing.T) {
	c := testCatalog()
	mustAddRollup(t, c, productRollup())
	root := aggOver(scan("sales"), []string{"product"},
		table.Agg{Func: table.AggSum, Col: "revenue", As: "total"})
	// A Stats that lists no rollups routes nothing.
	opt := Optimize(root, noRollupStats{CatalogStats(c)})
	if len(opt.Rollups) != 0 || traced(t, opt, "rollup") {
		t.Fatalf("pass routed without rollups: %v", opt.Trace)
	}
}

// noRollupStats wraps a Stats and lists no rollups.
type noRollupStats struct{ s Stats }

func (n noRollupStats) Schema(tbl string) (table.Schema, bool)  { return n.s.Schema(tbl) }
func (n noRollupStats) Card(tbl string) (int, bool)             { return n.s.Card(tbl) }
func (n noRollupStats) TableStats(tbl string) *table.TableStats { return n.s.TableStats(tbl) }
func (noRollupStats) RollupsFor(string) []table.RollupDef       { return nil }
