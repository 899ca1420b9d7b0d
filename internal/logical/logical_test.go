package logical

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/table"
)

func testCatalog() *table.Catalog {
	c := table.NewCatalog()
	sales := table.New("sales", table.Schema{
		{Name: "product", Type: table.TypeString},
		{Name: "quarter", Type: table.TypeString},
		{Name: "revenue", Type: table.TypeFloat},
		{Name: "units", Type: table.TypeInt},
	})
	rows := []struct {
		p, q string
		r    float64
		u    int64
	}{
		{"Alpha", "Q1", 100, 10}, {"Alpha", "Q2", 120, 12},
		{"Beta", "Q1", 80, 8}, {"Beta", "Q2", 60, 6},
		{"Gamma", "Q1", 200, 20}, {"Gamma", "Q2", 240, 24},
	}
	for _, r := range rows {
		sales.MustAppend([]table.Value{table.S(r.p), table.S(r.q), table.F(r.r), table.I(r.u)})
	}
	c.Put(sales)

	changes := table.New("metric_changes", table.Schema{
		{Name: "product", Type: table.TypeString},
		{Name: "change_pct", Type: table.TypeFloat},
		{Name: "quarter", Type: table.TypeString}, // collides with sales.quarter
		{Name: "note", Type: table.TypeString},
	})
	for i, p := range []string{"Alpha", "Beta", "Gamma", "Alpha", "Beta"} {
		changes.MustAppend([]table.Value{
			table.S(p), table.F(float64(i*10 - 10)), table.S("Q" + string(rune('1'+i%2))), table.S("n")})
	}
	c.Put(changes)
	return c
}

// render flattens a table to its schema names and every cell's kind,
// nullness and text, so equal renderings mean identical cells: −0 and
// +0, or int 2 and float 2, render apart (Value.Key would merge them).
func render(t *table.Table) string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Schema.Names(), ","))
	for _, row := range t.Rows {
		b.WriteByte('\n')
		for _, v := range row {
			fmt.Fprintf(&b, "%v:%v:%s|", v.Kind(), v.IsNull(), v)
		}
	}
	return b.String()
}

func scan(tbl string) *Node { return &Node{Op: OpScan, Table: tbl} }

func filter(in *Node, preds ...table.Pred) *Node {
	return &Node{Op: OpFilter, Preds: preds, In: []*Node{in}}
}

func traced(t *testing.T, o *Optimized, rule string) bool {
	t.Helper()
	for _, tr := range o.Trace {
		if strings.HasPrefix(tr, rule+"(") {
			return true
		}
	}
	return false
}

// execBoth runs the tree optimized and unoptimized on the vectorized
// executor and asserts equal results (for trees whose semantics the
// rules must preserve exactly).
func execBoth(t *testing.T, root *Node, c *table.Catalog) (*table.Table, *Optimized) {
	t.Helper()
	plain, err := ExecVec(root.Clone(), c, 1)
	if err != nil {
		t.Fatalf("unoptimized exec: %v", err)
	}
	opt := Optimize(root, CatalogStats(c))
	out, err := ExecVec(opt.Root, c, 1)
	if err != nil {
		t.Fatalf("optimized exec: %v", err)
	}
	if render(out) != render(plain) {
		t.Fatalf("optimizer changed results:\n%s\nvs\n%s\ntrace: %v", render(out), render(plain), opt.Trace)
	}
	return out, opt
}

func TestFoldMergesAndDedupes(t *testing.T) {
	c := testCatalog()
	pred := table.Pred{Col: "product", Op: table.OpEq, Val: table.S("Alpha")}
	root := filter(filter(scan("sales"), pred), pred,
		table.Pred{Col: "quarter", Op: table.OpEq, Val: table.S("Q1")})
	out, opt := execBoth(t, root, c)
	if !traced(t, opt, "fold") {
		t.Errorf("fold did not fire: %v", opt.Trace)
	}
	if opt.Root.Op != OpFilter || opt.Root.Child().Op != OpScan {
		t.Errorf("filters not merged: %s", opt.Root)
	}
	if len(opt.Root.Preds) != 2 {
		t.Errorf("duplicate predicate survived: %v", opt.Root.Preds)
	}
	if out.Len() != 1 {
		t.Errorf("rows = %d, want 1", out.Len())
	}
}

func TestRetypeCoercesLiteralToColumnType(t *testing.T) {
	c := testCatalog()
	// String "90" on a float column: lexically "100" < "90", numerically
	// 100 > 90 — the coerced plan must filter numerically.
	root := filter(scan("sales"), table.Pred{Col: "revenue", Op: table.OpGt, Val: table.S("90")})
	opt := Optimize(root, CatalogStats(c))
	if !traced(t, opt, "retype") {
		t.Fatalf("retype did not fire: %v", opt.Trace)
	}
	out, err := Exec(opt.Root, c)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4 { // 100, 120, 200, 240
		t.Errorf("rows = %d, want 4 (numeric comparison)\n%s", out.Len(), out)
	}
}

func TestPushdownSinksFilterBelowSort(t *testing.T) {
	c := testCatalog()
	root := filter(
		&Node{Op: OpSort, Keys: []table.SortKey{{Col: "revenue", Desc: true}}, In: []*Node{scan("sales")}},
		table.Pred{Col: "quarter", Op: table.OpEq, Val: table.S("Q2")})
	out, opt := execBoth(t, root, c)
	if !traced(t, opt, "pushdown") {
		t.Errorf("pushdown did not fire: %v", opt.Trace)
	}
	if opt.Root.Op != OpSort || opt.Root.Child().Op != OpFilter {
		t.Errorf("filter did not sink below sort: %s", opt.Root)
	}
	if out.Len() != 3 || out.Rows[0][2].Float() != 240 {
		t.Errorf("unexpected result:\n%s", out)
	}
}

func TestPruneNarrowsBoundedScans(t *testing.T) {
	c := testCatalog()
	root := &Node{Op: OpAggregate, GroupBy: []string{"product"},
		Aggs: []table.Agg{{Func: table.AggSum, Col: "units", As: "result"}},
		In:   []*Node{scan("sales")}}
	_, opt := execBoth(t, root, c)
	if !traced(t, opt, "prune") {
		t.Fatalf("prune did not fire: %v", opt.Trace)
	}
	s := opt.Root.Child()
	if s.Op != OpScan || strings.Join(s.Cols, ",") != "product,units" {
		t.Errorf("scan not pruned to [product units]: %s", opt.Root)
	}
}

func TestPruneKeepsSortKeyColumns(t *testing.T) {
	c := testCatalog()
	// The projection references only product, but the Sort below orders
	// by revenue: the narrowed scan must still carry the sort key, and
	// both executors must order identically over the pruned plan.
	root := &Node{Op: OpProject, Proj: []string{"product"},
		In: []*Node{{Op: OpSort, Keys: []table.SortKey{{Col: "revenue", Desc: true}},
			In: []*Node{scan("sales")}}}}
	_, opt := execBoth(t, root, c)
	if !traced(t, opt, "prune") {
		t.Fatalf("prune did not fire: %v", opt.Trace)
	}
	var cols string
	walk(opt.Root, func(n *Node) {
		if n.Op == OpScan {
			cols = strings.Join(n.Cols, ",")
		}
	})
	if !strings.Contains(cols, "revenue") {
		t.Fatalf("pruned scan dropped the sort key: cols=[%s]\n%s", cols, opt.Root)
	}
	vec, err := ExecVec(opt.Root, c, 2)
	if err != nil {
		t.Fatalf("vectorized exec over pruned sort plan: %v", err)
	}
	row, err := Exec(opt.Root, c)
	if err != nil {
		t.Fatal(err)
	}
	if render(vec) != render(row) {
		t.Fatalf("vectorized pruned sort diverges:\n%s\nvs\n%s", render(vec), render(row))
	}
}

func TestPruneSkipsUnboundedOutput(t *testing.T) {
	c := testCatalog()
	// A list query returns whole rows; pruning would change the output.
	root := &Node{Op: OpLimit, N: 10,
		In: []*Node{filter(scan("sales"), table.Pred{Col: "quarter", Op: table.OpEq, Val: table.S("Q1")})}}
	_, opt := execBoth(t, root, c)
	if traced(t, opt, "prune") {
		t.Errorf("prune fired on an unbounded plan: %v", opt.Trace)
	}
}

// semiJoin builds the NL-entry join shape: driving scan, joined side
// filtered, key-projected and deduplicated.
func semiJoin(mainTbl, joinTbl, key string, joinPreds []table.Pred) *Node {
	right := scan(joinTbl)
	if len(joinPreds) > 0 {
		right = filter(right, joinPreds...)
	}
	right = &Node{Op: OpProject, Proj: []string{key}, In: []*Node{right}}
	right = &Node{Op: OpDistinct, In: []*Node{right}}
	return &Node{Op: OpJoin, LeftCol: key, RightCol: key, In: []*Node{scan(mainTbl), right}}
}

func TestReorderSeedsJoinSide(t *testing.T) {
	c := testCatalog()
	join := semiJoin("sales", "metric_changes", "product",
		[]table.Pred{{Col: "change_pct", Op: table.OpGt, Val: table.F(0)}})
	root := &Node{Op: OpAggregate, GroupBy: nil,
		Aggs: []table.Agg{{Func: table.AggAvg, Col: "revenue", As: "result"}},
		In: []*Node{filter(join,
			table.Pred{Col: "product", Op: table.OpEq, Val: table.S("Alpha")})}}
	_, opt := execBoth(t, root, c)
	if !traced(t, opt, "reorder") {
		t.Fatalf("reorder did not fire: %v", opt.Trace)
	}
	// The seeded equality must land on the joined side's filter.
	var seeded bool
	walk(opt.Root, func(n *Node) {
		if n.Op != OpFilter {
			return
		}
		for _, p := range n.Preds {
			if p.Col == "product" && p.Op == table.OpEq {
				if c := n.Child(); c != nil && c.Op == OpScan && c.Table == "metric_changes" {
					seeded = true
				}
			}
		}
	})
	if !seeded {
		t.Errorf("join side not seeded:\n%s", opt.Root)
	}
}

func TestPruneKeepsCollisionRenameColumns(t *testing.T) {
	// "metric_changes.quarter" exists only because sales.quarter
	// collides with it in the joined schema. Pruning sales down to the
	// aggregate's needs would drop sales.quarter, un-rename the right
	// column, and break the compiled reference — prune must keep the
	// colliding left column.
	c := testCatalog()
	join := &Node{Op: OpJoin, LeftCol: "product", RightCol: "product",
		In: []*Node{scan("sales"), scan("metric_changes")}}
	root := &Node{Op: OpAggregate,
		GroupBy: []string{"metric_changes.quarter"},
		Aggs:    []table.Agg{{Func: table.AggSum, Col: "revenue", As: "r"}},
		In:      []*Node{join}}
	out, opt := execBoth(t, root, c)
	if out.Len() == 0 {
		t.Fatal("empty result")
	}
	if s := opt.Root.Child().In[0]; s.Op == OpScan && len(s.Cols) > 0 {
		found := false
		for _, col := range s.Cols {
			if col == "quarter" {
				found = true
			}
		}
		if !found {
			t.Errorf("pruned left scan dropped the collision column: %v", s.Cols)
		}
	}
}

func TestReorderSkipsEqualCardinalities(t *testing.T) {
	// Equal table sizes: seeding could shrink the right input below the
	// left and flip the hash join's build side, reordering join output rows.
	// The gate must be strict.
	c := table.NewCatalog()
	for _, name := range []string{"a", "b"} {
		tb := table.New(name, table.Schema{
			{Name: "key", Type: table.TypeString},
			{Name: "v", Type: table.TypeInt},
		})
		for i, k := range []string{"k1", "k1", "k2", "k2"} {
			tb.MustAppend([]table.Value{table.S(k), table.I(int64(i))})
		}
		c.Put(tb)
	}
	root := filter(
		&Node{Op: OpJoin, LeftCol: "key", RightCol: "key",
			In: []*Node{scan("a"), scan("b")}},
		table.Pred{Col: "key", Op: table.OpEq, Val: table.S("k1")})
	_, opt := execBoth(t, root, c)
	if traced(t, opt, "reorder") {
		t.Errorf("reorder fired at equal cardinalities: %v", opt.Trace)
	}
}

func TestReorderSkipsLimitedDrivingSide(t *testing.T) {
	// A Limit shrinks the driving side's runtime size below its catalog
	// cardinality, so the build-side argument no longer holds.
	c := testCatalog()
	limited := &Node{Op: OpLimit, N: 1, In: []*Node{scan("sales")}}
	right := &Node{Op: OpDistinct, In: []*Node{
		{Op: OpProject, Proj: []string{"product"}, In: []*Node{scan("metric_changes")}}}}
	root := filter(
		&Node{Op: OpJoin, LeftCol: "product", RightCol: "product",
			In: []*Node{limited, right}},
		table.Pred{Col: "product", Op: table.OpEq, Val: table.S("Alpha")})
	_, opt := execBoth(t, root, c)
	if traced(t, opt, "reorder") {
		t.Errorf("reorder fired through a Limit: %v", opt.Trace)
	}
}

// rangedJoinCatalog holds a 20-row driving table whose keys alternate
// a/b and a 6-row lookup table with two "a" rows.
func rangedJoinCatalog() *table.Catalog {
	c := table.NewCatalog()
	big := table.New("big", table.Schema{
		{Name: "k", Type: table.TypeString},
		{Name: "id", Type: table.TypeInt},
	})
	for i := 0; i < 20; i++ {
		big.MustAppend([]table.Value{table.S(string(rune('a' + i%2))), table.I(int64(i))})
	}
	c.Put(big)
	small := table.New("small", table.Schema{
		{Name: "k", Type: table.TypeString},
		{Name: "tag", Type: table.TypeInt},
	})
	for i, k := range []string{"a", "b", "c", "d", "a", "e"} {
		small.MustAppend([]table.Value{table.S(k), table.I(int64(100 + i))})
	}
	c.Put(small)
	return c
}

func TestReorderSkipsRowRangedDrivingSide(t *testing.T) {
	// A ROWS range shrinks the driving scan to 4 rows, below the
	// joined side's 6: the join builds on the left and probes the
	// right, so seeding the right side down to 2 rows would flip the
	// build side and reorder the output.
	c := rangedJoinCatalog()
	ranged := &Node{Op: OpScan, Table: "big", RowStart: 0, RowEnd: 4}
	root := filter(
		&Node{Op: OpJoin, LeftCol: "k", RightCol: "k",
			In: []*Node{ranged, scan("small")}},
		table.Pred{Col: "k", Op: table.OpEq, Val: table.S("a")})
	_, opt := execBoth(t, root, c)
	if traced(t, opt, "reorder") {
		t.Errorf("reorder fired over a row-ranged driving scan: %v", opt.Trace)
	}
}

func TestReorderSkipsSmallerDrivingSide(t *testing.T) {
	c := testCatalog()
	// Driving side smaller than the joined side: seeding could flip the
	// hash-join build side and perturb row order, so the rule must not
	// fire.
	join := semiJoin("metric_changes", "sales", "product", nil)
	root := filter(join, table.Pred{Col: "product", Op: table.OpEq, Val: table.S("Alpha")})
	_, opt := execBoth(t, root, c)
	if traced(t, opt, "reorder") {
		t.Errorf("reorder fired with a smaller driving side: %v", opt.Trace)
	}
}

// skewCatalog builds the statistics-sensitive reorder scenario: the
// driving table is raw-larger than the joined side (the fixed
// heuristic's only gate), but its join-key values are spread thin
// while the joined side is heavily skewed toward one key.
func skewCatalog() *table.Catalog {
	c := table.NewCatalog()
	events := table.New("events", table.Schema{
		{Name: "key", Type: table.TypeString},
		{Name: "amount", Type: table.TypeInt},
	})
	for i := 0; i < 40; i++ { // 20 distinct keys, 2 rows each
		events.MustAppend([]table.Value{table.S(fmt.Sprintf("k%02d", i%20)), table.I(int64(i))})
	}
	c.Put(events)
	dims := table.New("dims", table.Schema{
		{Name: "key", Type: table.TypeString},
		{Name: "weight", Type: table.TypeInt},
	})
	for i := 0; i < 30; i++ { // 25 rows of the hot key, 5 singleton keys
		k := "k00"
		if i >= 25 {
			k = fmt.Sprintf("k%02d", i-24)
		}
		dims.MustAppend([]table.Value{table.S(k), table.I(int64(i))})
	}
	c.Put(dims)
	return c
}

// TestReorderSkipsWhenDrivingFiltersBelowSeededSide pins the rule
// interaction the fixed heuristic got wrong: the driving table is
// raw-larger (40 vs 30 rows), so the pre-statistics gate always
// seeded, but the per-column statistics show the key equality filters
// the driving side down to ~2 rows while the seeded joined side would
// still hold ~25 rows of the skewed key. The seed must be skipped
// (with a trace note) and results stay bit-identical.
func TestReorderSkipsWhenDrivingFiltersBelowSeededSide(t *testing.T) {
	c := skewCatalog()
	join := semiJoin("events", "dims", "key", nil)
	root := filter(join, table.Pred{Col: "key", Op: table.OpEq, Val: table.S("k00")})
	_, opt := execBoth(t, root, c)
	skipped := false
	for _, tr := range opt.Trace {
		if strings.Contains(tr, "skip seed dims") {
			skipped = true
		}
	}
	if !skipped {
		t.Fatalf("expected a skip-seed trace note, got %v", opt.Trace)
	}
	walk(opt.Root, func(n *Node) {
		if n.Op == OpFilter {
			if ch := n.Child(); ch != nil && ch.Op == OpScan && ch.Table == "dims" {
				t.Errorf("seed landed on the joined side despite the skip gate:\n%s", opt.Root)
			}
		}
	})
}

// TestReorderSeedGateIsPerValue shows the same plan shape firing for a
// rare key: exact per-value counts make the gate data-dependent, not
// shape-dependent. "k05" holds one row of dims, so the seeded side
// estimates below the filtered driving side and seeding pays.
func TestReorderSeedGateIsPerValue(t *testing.T) {
	c := skewCatalog()
	join := semiJoin("events", "dims", "key", nil)
	root := filter(join, table.Pred{Col: "key", Op: table.OpEq, Val: table.S("k05")})
	_, opt := execBoth(t, root, c)
	if !traced(t, opt, "reorder") {
		t.Fatalf("reorder did not fire for the rare key: %v", opt.Trace)
	}
	seeded := false
	walk(opt.Root, func(n *Node) {
		if n.Op == OpFilter {
			if ch := n.Child(); ch != nil && ch.Op == OpScan && ch.Table == "dims" {
				seeded = true
			}
		}
	})
	if !seeded {
		t.Errorf("rare-key seed did not land on the joined side:\n%s", opt.Root)
	}
}

// TestSelectivityWithFallsBackToHeuristic pins the contract of
// TableStats.SelectivityOf, which the reorder pass prices seeds with:
// statistics answer when they can, and degrade to the fixed heuristic
// for unknown columns or nil statistics.
func TestSelectivityWithFallsBackToHeuristic(t *testing.T) {
	c := testCatalog()
	ts := c.StatsOf("sales")
	eq := table.Pred{Col: "product", Op: table.OpEq, Val: table.S("Alpha")}
	if got := ts.SelectivityOf(eq); got != 2.0/6 {
		t.Errorf("stats equality selectivity = %v, want 2/6 (exact count)", got)
	}
	unknown := table.Pred{Col: "no_such_col", Op: table.OpEq, Val: table.S("x")}
	if got := ts.SelectivityOf(unknown); got != table.DefaultSelectivity(unknown) {
		t.Errorf("unknown column selectivity = %v, want heuristic %v", got, table.DefaultSelectivity(unknown))
	}
	if got := (*table.TableStats)(nil).SelectivityOf(eq); got != table.DefaultSelectivity(eq) {
		t.Errorf("nil stats selectivity = %v, want heuristic %v", got, table.DefaultSelectivity(eq))
	}
}

func TestCompareBranchesSortedAndShared(t *testing.T) {
	n := &Node{Op: OpCompare, CompareCol: "product",
		Items: []string{"Beta", "Alpha"},
		Preds: []table.Pred{{Col: "quarter", Op: table.OpEq, Val: table.S("Q1")}},
		Aggs:  []table.Agg{{Func: table.AggSum, Col: "revenue", As: "result"}},
		In:    []*Node{scan("sales")}}
	branches := CompareBranches(n)
	if len(branches) != 2 || branches[0].Item != "Alpha" || branches[1].Item != "Beta" {
		t.Fatalf("branches not in sorted item order: %+v", branches)
	}
	for _, br := range branches {
		if len(br.Preds) != 2 || br.Preds[0].Col != "quarter" || br.Preds[1].Op != table.OpContains {
			t.Errorf("branch predicates wrong: %v", br.Preds)
		}
		if len(br.GroupBy) != 1 || br.GroupBy[0] != "product" {
			t.Errorf("branch group-by wrong: %v", br.GroupBy)
		}
	}

	out, err := Exec(n, testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 || out.Rows[0][0].Str() != "Alpha" || out.Rows[1][0].Str() != "Beta" {
		t.Errorf("compare result wrong:\n%s", out)
	}
}

func TestFingerprintCanonicalizesPredicateOrder(t *testing.T) {
	a := table.Pred{Col: "product", Op: table.OpEq, Val: table.S("Alpha")}
	b := table.Pred{Col: "quarter", Op: table.OpEq, Val: table.S("Q1")}
	fp1 := Fingerprint(filter(scan("sales"), a, b))
	fp2 := Fingerprint(filter(scan("sales"), b, a))
	if fp1 != fp2 {
		t.Error("conjunction order changed the fingerprint")
	}
	fp3 := Fingerprint(filter(scan("sales"), a))
	if fp3 == fp1 {
		t.Error("different plans share a fingerprint")
	}
	if Fingerprint(scan("sales")) == Fingerprint(scan("metric_changes")) {
		t.Error("different tables share a fingerprint")
	}
}

// TestFingerprintSeparatesFields: a literal or a name whose text
// spells out the fields of another plan does not fingerprint as that
// plan. One predicate a = 'p<sep>b<sep>0<sep>s:q' is not the conjunction
// a = 'p' AND b = 'q', and one projected column "a<sep>b" is not the
// two columns a and b.
func TestFingerprintSeparatesFields(t *testing.T) {
	eq := func(col, v string) table.Pred { return table.Pred{Col: col, Op: table.OpEq, Val: table.S(v)} }
	project := func(cols ...string) *Node { return &Node{Op: OpProject, Proj: cols, In: []*Node{scan("c")}} }
	plans := map[string]*Node{
		"two predicates":       filter(scan("c"), eq("a", "p"), eq("b", "q")),
		"one spelled-out pred": filter(scan("c"), eq("a", "p\x1fb\x1e0\x1es:q")),
		"two columns":          project("a", "b"),
		"one spelled-out col":  project("a\x1fb"),
		"escaped separator":    project("a\x1f\xffb"),
	}
	seen := map[string]string{}
	for name, n := range plans {
		fp := Fingerprint(n)
		if other, dup := seen[fp]; dup {
			t.Errorf("%s and %s share the fingerprint %q", name, other, fp)
		}
		seen[fp] = name
	}
}

func TestOptimizeIsDeterministic(t *testing.T) {
	c := testCatalog()
	build := func() *Node {
		join := semiJoin("sales", "metric_changes", "product",
			[]table.Pred{{Col: "change_pct", Op: table.OpGt, Val: table.S("0")}})
		return &Node{Op: OpAggregate,
			Aggs: []table.Agg{{Func: table.AggAvg, Col: "revenue", As: "result"}},
			In: []*Node{filter(join,
				table.Pred{Col: "product", Op: table.OpEq, Val: table.S("Alpha")})}}
	}
	o1 := Optimize(build(), CatalogStats(c))
	o2 := Optimize(build(), CatalogStats(c))
	if strings.Join(o1.Trace, ";") != strings.Join(o2.Trace, ";") {
		t.Errorf("trace not deterministic:\n%v\nvs\n%v", o1.Trace, o2.Trace)
	}
	if Fingerprint(o1.Root) != Fingerprint(o2.Root) {
		t.Error("optimized fingerprint not deterministic")
	}
}

func TestExecNilPlan(t *testing.T) {
	if _, err := Exec(nil, testCatalog()); err == nil {
		t.Error("nil plan executed without error")
	}
}

// TestProvablyEmpty pins the proof the emptyfold pass folds on,
// TableStats.Refutes.
func TestProvablyEmpty(t *testing.T) {
	c := testCatalog()
	ts := c.StatsOf("sales") // revenue in [60,240]
	if !ts.Refutes([]table.Pred{{Col: "revenue", Op: table.OpGt, Val: table.F(240)}}) {
		t.Error("out-of-bounds range not proven empty")
	}
	if ts.Refutes([]table.Pred{{Col: "revenue", Op: table.OpGe, Val: table.F(240)}}) {
		t.Error("boundary range wrongly proven empty")
	}
	if (*table.TableStats)(nil).Refutes([]table.Pred{{Col: "revenue", Op: table.OpGt, Val: table.F(1e9)}}) {
		t.Error("nil statistics cannot prove anything")
	}
	// SelectivityOf surfaces the proof as an exact zero.
	if f := ts.SelectivityOf(table.Pred{Col: "revenue", Op: table.OpGt, Val: table.F(240)}); f != 0 {
		t.Errorf("refuted predicate selectivity = %v, want 0", f)
	}
}

// TestEmptyfoldCollapsesRefutedScan pins the emptyfold pass end to
// end: a statistically refuted filtered scan becomes a constant-empty
// leaf, the fold is traced, the plan renders as Empty, and execution
// returns the schema with zero rows — bit-identical to the unfolded
// plan.
func TestEmptyfoldCollapsesRefutedScan(t *testing.T) {
	c := testCatalog()
	root := &Node{Op: OpSort, Keys: []table.SortKey{{Col: "product"}},
		In: []*Node{filter(scan("sales"),
			table.Pred{Col: "revenue", Op: table.OpGt, Val: table.F(240)})}}
	out, opt := execBoth(t, root, c)
	if !traced(t, opt, "emptyfold") {
		t.Fatalf("emptyfold did not fire: %v", opt.Trace)
	}
	// Both the fold and the sort-over-empty collapse must be traced.
	want := []string{
		"emptyfold(sales: statistics refute revenue > 240)",
		"emptyfold(collapsed sort over empty sales)",
	}
	for _, w := range want {
		found := false
		for _, tr := range opt.Trace {
			if tr == w {
				found = true
			}
		}
		if !found {
			t.Errorf("trace misses %q: %v", w, opt.Trace)
		}
	}
	if opt.Root.Op != OpEmpty {
		t.Fatalf("plan = %s, want constant-empty leaf", opt.Root)
	}
	if got := opt.Root.String(); got != "Empty(sales)" {
		t.Errorf("plan renders %q, want %q", got, "Empty(sales)")
	}
	if out.Len() != 0 {
		t.Errorf("empty plan returned %d rows", out.Len())
	}
	if got := strings.Join(out.Schema.Names(), ","); got != "product,quarter,revenue,units" {
		t.Errorf("empty result schema = %s", got)
	}
}

// TestEmptyfoldNeverFoldsAggregates pins the semantic guard: an
// aggregate changes the output schema (and, in general dialects, a
// global aggregate over zero rows can still yield a row), so the fold
// must stop below it — the empty leaf feeds the aggregate, which runs.
func TestEmptyfoldNeverFoldsAggregates(t *testing.T) {
	c := testCatalog()
	root := &Node{Op: OpAggregate,
		Aggs: []table.Agg{{Func: table.AggCount, As: "n"}},
		In: []*Node{filter(scan("sales"),
			table.Pred{Col: "revenue", Op: table.OpGt, Val: table.F(240)})}}
	out, opt := execBoth(t, root, c)
	if opt.Root.Op != OpAggregate || opt.Root.Child().Op != OpEmpty {
		t.Fatalf("plan = %s, want aggregate over empty leaf", opt.Root)
	}
	if got := strings.Join(out.Schema.Names(), ","); got != "n" {
		t.Errorf("aggregate schema = %s, want n", got)
	}
}

// TestEmptyfoldLeavesUnrefutedScans pins the negative: a satisfiable
// predicate must not fold, whatever the pass's enthusiasm.
func TestEmptyfoldLeavesUnrefutedScans(t *testing.T) {
	c := testCatalog()
	root := filter(scan("sales"), table.Pred{Col: "revenue", Op: table.OpGe, Val: table.F(240)})
	out, opt := execBoth(t, root, c)
	if traced(t, opt, "emptyfold") {
		t.Errorf("emptyfold fired on a satisfiable predicate: %v", opt.Trace)
	}
	if out.Len() != 1 { // Gamma Q2, revenue 240
		t.Errorf("rows = %d, want 1", out.Len())
	}
}

// TestVecFilterNoPredsKeepsSelections: an empty conjunction passes the
// incoming selections through — whole-batch entries stay nil instead of
// becoming explicit 256-entry index lists.
func TestVecFilterNoPredsKeepsSelections(t *testing.T) {
	base := table.New("t", table.Schema{{Name: "i", Type: table.TypeInt}})
	for r := 0; r < 700; r++ {
		base.MustAppend([]table.Value{table.I(int64(r))})
	}
	v := &vecRun{env: VecEnv{Workers: 1}}
	s := passthrough(base)
	s.sels = rangeSels(base.Len(), nil, []table.RowRange{{Start: 100, End: 600}})
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
