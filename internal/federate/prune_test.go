package federate

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/logical"
	"repro/internal/logical/refeval"
	"repro/internal/semop"
	"repro/internal/slm"
	"repro/internal/table"
	"repro/internal/workload"
)

// prunableCatalog builds a catalog whose events table spans several
// fragments with zone-friendly layout: seq is monotone (disjoint
// per-fragment ranges), region is constant per fragment (equality
// pruning), and amount stays bounded (out-of-range refutation).
func prunableCatalog(rows int) *table.Catalog {
	c := table.NewCatalog()
	events := table.New("events", table.Schema{
		{Name: "region", Type: table.TypeString},
		{Name: "seq", Type: table.TypeInt},
		{Name: "amount", Type: table.TypeFloat},
	})
	regions := []string{"east", "west", "north", "south"}
	for i := 0; i < rows; i++ {
		events.MustAppend([]table.Value{
			table.S(regions[(i/table.FragmentRows)%len(regions)]),
			table.I(int64(i)),
			table.F(float64(i % 500)),
		})
	}
	c.Put(events)
	return c
}

// runPruned executes the tree federated (pruned) and through the
// reference evaluator over the bare catalog and asserts identical
// results.
func runPruned(t *testing.T, e *Executor, c *table.Catalog, root *logical.Node) *Run {
	t.Helper()
	opt := logical.Optimize(root, logical.CatalogStats(c))
	got, run, err := e.ExecuteIR(opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refeval.Eval(root, c)
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(want) {
		t.Fatalf("pruned execution diverges from unpruned:\n%s\nvs\n%s", render(got), render(want))
	}
	return run
}

func filterScan(tbl string, preds ...table.Pred) *logical.Node {
	return &logical.Node{Op: logical.OpFilter, Preds: preds,
		In: []*logical.Node{{Op: logical.OpScan, Table: tbl}}}
}

// TestZonePruneSkipsRefutedFragments drives the memory backend through
// full, partial and no pruning, pinning rows actually scanned.
func TestZonePruneSkipsRefutedFragments(t *testing.T) {
	rows := 3*table.FragmentRows + 50
	c := prunableCatalog(rows)
	e := New(c.Epoch, Options{}, NewMemory(c))

	// Out-of-bounds range predicate: table-wide statistics refute it, so
	// emptyfold collapses the scan at plan time — no fragment is even
	// routed to a backend, and the run returns an empty result.
	opt := logical.Optimize(filterScan("events", table.Pred{Col: "amount", Op: table.OpGt, Val: table.F(1e9)}), logical.CatalogStats(c))
	if opt.Root.Op != logical.OpEmpty {
		t.Fatalf("statistically refuted scan not folded: %s", opt.Root)
	}
	got, run, err := e.ExecuteIR(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Fragments) != 0 || got.Len() != 0 || run.RowsOut != 0 {
		t.Errorf("folded scan routed %d fragments, returned %d rows; want 0/0", len(run.Fragments), got.Len())
	}

	// Cross-column conjunction: no single column's table-wide statistics
	// refute it (east exists; seq >= FragmentRows is in bounds), so the
	// scan survives to the planner — but every fragment's zones refute
	// one conjunct (fragment 0 is the only east fragment and holds
	// exactly seq < FragmentRows), so zone pruning skips all four.
	run = runPruned(t, e, c, filterScan("events",
		table.Pred{Col: "region", Op: table.OpEq, Val: table.S("east")},
		table.Pred{Col: "seq", Op: table.OpGe, Val: table.I(int64(table.FragmentRows))}))
	fr := run.Fragments[0]
	if fr.ActScanned != 0 {
		t.Errorf("zone-refuted conjunction scanned %d rows, want 0", fr.ActScanned)
	}
	if fr.ZonePruned != 4 || fr.ZoneTotal != 4 {
		t.Errorf("pruned %d/%d fragments, want 4/4", fr.ZonePruned, fr.ZoneTotal)
	}

	// Range hitting one fragment: the others are refuted by seq bounds.
	lo := int64(2 * table.FragmentRows)
	run = runPruned(t, e, c, filterScan("events",
		table.Pred{Col: "seq", Op: table.OpGe, Val: table.I(lo)},
		table.Pred{Col: "seq", Op: table.OpLt, Val: table.I(lo + 10)}))
	fr = run.Fragments[0]
	if fr.ActScanned != table.FragmentRows {
		t.Errorf("one-fragment range scanned %d rows, want %d", fr.ActScanned, table.FragmentRows)
	}
	if fr.ZonePruned != 3 {
		t.Errorf("pruned %d fragments, want 3", fr.ZonePruned)
	}

	// Per-fragment-constant equality: only the matching fragment scans.
	run = runPruned(t, e, c, filterScan("events", table.Pred{Col: "region", Op: table.OpEq, Val: table.S("west")}))
	if fr = run.Fragments[0]; fr.ActScanned != table.FragmentRows {
		t.Errorf("region equality scanned %d rows, want %d", fr.ActScanned, table.FragmentRows)
	}

	// Matching-everything predicate: nothing pruned, full scan.
	run = runPruned(t, e, c, filterScan("events", table.Pred{Col: "seq", Op: table.OpGe, Val: table.I(0)}))
	if fr = run.Fragments[0]; fr.ActScanned != rows || fr.ZonePruned != 0 {
		t.Errorf("unprunable predicate scanned %d (pruned %d), want full %d / 0", fr.ActScanned, fr.ZonePruned, rows)
	}

	// EXPLAIN carries the pruning decision.
	run = runPruned(t, e, c, filterScan("events",
		table.Pred{Col: "region", Op: table.OpEq, Val: table.S("east")},
		table.Pred{Col: "seq", Op: table.OpGe, Val: table.I(int64(table.FragmentRows))}))
	if !strings.Contains(Explain(run), "pruned:   scan[0] 4/4 fragments") {
		t.Errorf("EXPLAIN misses the pruned line:\n%s", Explain(run))
	}
}

// TestZonePruneWithEqualityIndex pins the interplay of the driving
// equality and fragment pruning: only its matches inside the surviving
// ranges count as scanned.
func TestZonePruneWithEqualityIndex(t *testing.T) {
	c := prunableCatalog(4 * table.FragmentRows)
	e := New(c.Epoch, Options{}, NewMemory(c))
	// region = west lives only in fragment 1; seq < FragmentRows refutes
	// it, so no match lies inside the ranges even though west has rows.
	run := runPruned(t, e, c, filterScan("events",
		table.Pred{Col: "region", Op: table.OpEq, Val: table.S("west")},
		table.Pred{Col: "seq", Op: table.OpLt, Val: table.I(int64(table.FragmentRows))}))
	if fr := run.Fragments[0]; fr.ActScanned != 0 {
		t.Errorf("contradictory conjunction scanned %d rows, want 0", fr.ActScanned)
	}
}

// TestSQLBackendFragmentRangedSelects routes a pruned scan to the SQL
// backend, which must express the surviving fragments as ranged
// SELECT text (ROWS a TO b) — including the locally-reassembled
// aggregate — and still match the reference evaluator bit-exactly.
func TestSQLBackendFragmentRangedSelects(t *testing.T) {
	rows := 3*table.FragmentRows + 50
	c := prunableCatalog(rows)
	e := New(c.Epoch, Options{}, NewSQL(c)) // sole provider: everything routes to sql

	lo := int64(table.FragmentRows)
	pred := table.Pred{Col: "seq", Op: table.OpGe, Val: table.I(lo)}
	hi := table.Pred{Col: "seq", Op: table.OpLt, Val: table.I(lo + 20)}

	run := runPruned(t, e, c, filterScan("events", pred, hi))
	if fr := run.Fragments[0]; fr.ActScanned != table.FragmentRows || fr.Backend != "sql" {
		t.Errorf("sql ranged scan read %d rows via %s, want %d via sql", fr.ActScanned, fr.Backend, table.FragmentRows)
	}

	// Pushed group-by aggregate over a pruned scan: the backend runs
	// ranged filter SELECTs and aggregates the assembly locally.
	agg := &logical.Node{Op: logical.OpAggregate,
		GroupBy: []string{"region"},
		Aggs:    []table.Agg{{Func: table.AggSum, Col: "amount", As: "total"}},
		In:      []*logical.Node{filterScan("events", table.Pred{Col: "seq", Op: table.OpGe, Val: table.I(int64(2 * table.FragmentRows))})}}
	run = runPruned(t, e, c, agg)
	if len(run.Fragments[0].Aggs) == 0 {
		t.Error("aggregate not pushed into the pruned sql fragment")
	}
	if fr := run.Fragments[0]; fr.ActScanned != rows-2*table.FragmentRows {
		t.Errorf("pruned agg scan read %d rows, want %d", fr.ActScanned, rows-2*table.FragmentRows)
	}

	// All fragments zone-refuted: zero SELECTs, empty aggregate, zero
	// rows. The conjunction must dodge table-wide refutation (west
	// exists, seq < FragmentRows is in bounds) or emptyfold would
	// collapse the scan before the SQL backend ever saw it.
	run = runPruned(t, e, c, &logical.Node{Op: logical.OpAggregate,
		Aggs: []table.Agg{{Func: table.AggSum, Col: "amount", As: "total"}},
		In: []*logical.Node{filterScan("events",
			table.Pred{Col: "region", Op: table.OpEq, Val: table.S("west")},
			table.Pred{Col: "seq", Op: table.OpLt, Val: table.I(int64(table.FragmentRows))})}})
	if fr := run.Fragments[0]; fr.ActScanned != 0 {
		t.Errorf("fully-pruned sql scan read %d rows, want 0", fr.ActScanned)
	}
}

// TestGraphBackendPrunesViews pins zone pruning on the materialized
// graph views: a per-fragment-refuted conjunction reads zero rows,
// and a statistically impossible predicate folds before routing.
func TestGraphBackendPrunesViews(t *testing.T) {
	g := graph.New()
	for i := 0; i < 2*table.FragmentRows; i++ {
		etype := "drug"
		if i >= table.FragmentRows {
			etype = "gene"
		}
		g.EnsureNode(graph.Node{ID: fmt.Sprintf("entity:%04d", i), Type: graph.NodeEntity,
			Label: fmt.Sprintf("E%04d", i), EType: etype})
	}
	e := New(func() uint64 { return 1 }, Options{}, NewGraphEvidence(g, func() uint64 { return 1 }))

	// No single column refutes this conjunction over the whole view
	// (drugs exist; the label bound is inside the entity range), so the
	// scan reaches the backend — but each fragment's zones refute one
	// conjunct: fragment 0 holds every drug yet only labels below the
	// bound, fragment 1 the reverse.
	root := filterScan(GraphEntitiesTable,
		table.Pred{Col: "etype", Op: table.OpEq, Val: table.S("drug")},
		table.Pred{Col: "entity", Op: table.OpGe, Val: table.S(fmt.Sprintf("E%04d", table.FragmentRows))})
	opt := logical.Optimize(root, bindingStats(e))
	res, run, err := e.ExecuteIR(opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("contradictory conjunction returned %d rows", res.Len())
	}
	if fr := run.Fragments[0]; fr.ActScanned != 0 || fr.ZonePruned != fr.ZoneTotal || fr.ZoneTotal == 0 {
		t.Errorf("graph view scan = %d rows, pruned %d/%d; want 0 rows, all fragments pruned",
			fr.ActScanned, fr.ZonePruned, fr.ZoneTotal)
	}

	// An impossible degree bound is refuted by the view's table-wide
	// statistics: emptyfold collapses the scan and no fragment is routed.
	opt = logical.Optimize(filterScan(GraphEntitiesTable,
		table.Pred{Col: "degree", Op: table.OpGt, Val: table.I(1 << 40)}), bindingStats(e))
	res, run, err = e.ExecuteIR(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Fragments) != 0 || res.Len() != 0 {
		t.Errorf("folded graph scan routed %d fragments, returned %d rows; want 0/0",
			len(run.Fragments), res.Len())
	}
}

// viewsOf is the evidence-view catalog ge holds now, nil before the
// first materialization; each materialization makes a new one.
func viewsOf(ge *GraphEvidence) *table.Catalog {
	ge.mu.Lock()
	defer ge.mu.Unlock()
	return ge.views
}

// TestGraphViewsRematerializeOncePerEpoch pins the epoch guard: any
// number of plans against an unchanged epoch materializes the views
// exactly once; an epoch move rebuilds exactly once more.
func TestGraphViewsRematerializeOncePerEpoch(t *testing.T) {
	g := graph.New()
	g.EnsureNode(graph.Node{ID: "entity:0", Type: graph.NodeEntity, Label: "Drug A",
		EType: "drug"})
	epoch := uint64(1)
	ge := NewGraphEvidence(g, func() uint64 { return epoch })
	e := New(func() uint64 { return epoch }, Options{}, ge)

	root := filterScan(GraphEntitiesTable, table.Pred{Col: "etype", Op: table.OpEq, Val: table.S("drug")})
	var first *table.Catalog
	for i := 0; i < 5; i++ {
		if _, _, err := e.ExecuteIR(logical.Optimize(root, bindingStats(e))); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = viewsOf(ge)
		}
		if viewsOf(ge) == nil || viewsOf(ge) != first {
			t.Fatalf("views materialized again at one epoch (plan %d)", i)
		}
	}
	epoch++
	if _, _, err := e.ExecuteIR(logical.Optimize(root, bindingStats(e))); err != nil {
		t.Fatal(err)
	}
	second := viewsOf(ge)
	if second == first {
		t.Fatal("views not materialized after an epoch move")
	}
	if _, _, err := e.ExecuteIR(logical.Optimize(root, bindingStats(e))); err != nil {
		t.Fatal(err)
	}
	if viewsOf(ge) != second {
		t.Fatal("views materialized twice after one epoch move")
	}
}

// TestPrunedExecutionMatchesUnprunedWorkload is the pruning-parity
// harness: every bindable workload question of both domains executes
// through the zone-pruning federated planner and must return exactly
// the rows the unpruned single-store executor returns.
func TestPrunedExecutionMatchesUnprunedWorkload(t *testing.T) {
	corpora := []*workload.Corpus{
		workload.ECommerce(workload.DefaultECommerceOptions()),
		workload.Healthcare(workload.DefaultHealthcareOptions()),
	}
	bound := 0
	for _, c := range corpora {
		ner := slm.NewNER()
		c.Register(ner)
		cat := workloadCatalog(t, c, ner)
		e := New(cat.Epoch, Options{}, NewMemory(cat), NewSQL(cat))
		for _, q := range c.Queries {
			plan, err := semop.Bind(semop.Parse(q.Text, ner), cat)
			if err != nil {
				continue
			}
			bound++
			got, _, err := execPlan(e, plan, cat)
			if err != nil {
				t.Fatalf("%s: %q: %v", c.Name, q.Text, err)
			}
			want, err := refeval.Eval(semop.Compile(plan), cat)
			if err != nil {
				t.Fatalf("%s: %q: reference: %v", c.Name, q.Text, err)
			}
			if render(got) != render(want) {
				t.Errorf("%s: %q: pruned execution diverges:\n%s\nvs\n%s", c.Name, q.Text, render(got), render(want))
			}
		}
	}
	if bound == 0 {
		t.Fatal("no workload question bound — parity harness vacuous")
	}
}
