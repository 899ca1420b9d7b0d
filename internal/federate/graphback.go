package federate

import (
	"context"
	"strings"
	"sync"

	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/logical"
	"repro/internal/table"
)

// Graph-evidence table names.
const (
	GraphEntitiesTable = "graph_entities"
	GraphTriplesTable  = "graph_triples"
)

// GraphEvidence exposes the heterogeneous graph index as relational
// evidence tables, so questions that bind to no catalog table can
// still execute structurally:
//
//	graph_entities(entity, etype, degree)   one row per entity node
//	graph_triples(subject, verb, object, sources)   the cue layer
//
// Tables materialize lazily, sorted for determinism, and are
// invalidated whenever the owner-supplied epoch moves (the hybrid
// system bumps it on every Ingest). The backend is deliberately
// scan+filter only — no aggregate or projection pushdown — so the
// planner must compensate in the federation layer, exercising the
// capability-aware lowering path real external stores need.
type GraphEvidence struct {
	g       *graph.Graph
	epochFn func() uint64

	mu    sync.Mutex
	epoch uint64         // guarded by mu
	views *table.Catalog // guarded by mu; both evidence tables at epoch, nil before the first build
}

// NewGraphEvidence returns a backend over g. epochFn versions the
// graph: materialized tables are reused only while it is unchanged.
func NewGraphEvidence(g *graph.Graph, epochFn func() uint64) *GraphEvidence {
	return &GraphEvidence{g: g, epochFn: epochFn}
}

// Name implements Backend.
func (ge *GraphEvidence) Name() string { return "graph" }

// Tables implements Backend.
func (ge *GraphEvidence) Tables() []string {
	return []string{GraphEntitiesTable, GraphTriplesTable}
}

// CanPush implements Backend: every filter.
func (ge *GraphEvidence) CanPush(string, table.Pred) bool { return true }

// CanPushAgg implements Backend: no aggregate.
func (ge *GraphEvidence) CanPushAgg(table.Agg) bool { return false }

// CanPushSort implements Backend: no top-k.
func (ge *GraphEvidence) CanPushSort(table.SortKey) bool { return false }

// CanProject implements Backend: no projection.
func (ge *GraphEvidence) CanProject([]string) bool { return false }

// materialize returns the named evidence view and the catalog holding
// both, rebuilding them only when the supplied epoch has moved since
// the last build — consecutive plans over an unchanged graph reuse the
// same views, statistics, zone maps and columnar fragments (a rebuild
// makes a new catalog, which is how tests tell). Unserved names return
// immediately — the planner probes every backend for every table, and a
// miss must not trigger an O(graph) rebuild on the answer hot path.
// Everything derived from a view comes from Catalog.Put, the derive
// path every catalog table takes, so graph-view estimates and pruning
// share the one cost model. A returned catalog is never mutated again.
func (ge *GraphEvidence) materialize(name string) (*table.Table, *table.Catalog, bool) {
	if !strings.EqualFold(name, GraphEntitiesTable) && !strings.EqualFold(name, GraphTriplesTable) {
		return nil, nil, false
	}
	ge.mu.Lock()
	defer ge.mu.Unlock()
	if e := ge.epochFn(); ge.views == nil || e != ge.epoch {
		ge.epoch = e
		ge.views = table.NewCatalog()
		ge.views.Put(ge.buildEntities())
		ge.views.Put(ge.buildTriples())
	}
	t, err := ge.views.Get(name)
	return t, ge.views, err == nil
}

// Zones implements Backend: the materialized view's fragment zone
// maps, built alongside the view at the current epoch.
func (ge *GraphEvidence) Zones(tbl string) *table.Zones {
	_, c, ok := ge.materialize(tbl)
	if !ok {
		return nil
	}
	return c.ZonesOf(tbl)
}

func (ge *GraphEvidence) buildEntities() *table.Table {
	t := table.New(GraphEntitiesTable, table.Schema{
		{Name: "entity", Type: table.TypeString},
		{Name: "etype", Type: table.TypeString},
		{Name: "degree", Type: table.TypeInt},
	})
	for _, n := range ge.g.NodesOfType(graph.NodeEntity) {
		t.MustAppend([]table.Value{
			table.S(n.Label),
			table.S(n.EType),
			table.I(int64(ge.g.Degree(n.ID))),
		})
	}
	return t
}

func (ge *GraphEvidence) buildTriples() *table.Table {
	t := table.New(GraphTriplesTable, table.Schema{
		{Name: "subject", Type: table.TypeString},
		{Name: "verb", Type: table.TypeString},
		{Name: "object", Type: table.TypeString},
		{Name: "sources", Type: table.TypeString},
	})
	for _, tr := range index.Triples(ge.g) {
		t.MustAppend([]table.Value{
			table.S(tr.Subject),
			table.S(tr.Predicate),
			table.S(tr.Object),
			table.S(strings.Join(tr.Sources, ";")),
		})
	}
	return t
}

// Estimate implements Backend: full scan of the materialized view,
// output estimated from the view's per-column statistics through the
// shared estimator.
func (ge *GraphEvidence) Estimate(tbl string, preds []table.Pred) (Estimate, bool) {
	t, c, ok := ge.materialize(tbl)
	if !ok {
		return Estimate{}, false
	}
	return estimateFromStats(c.StatsOf(tbl), t.Len(), preds, 16, 1), true
}

// Scan implements Backend: the materialized view is the candidate set,
// the shared evaluator does the rest. Zone-pruned fragments read only
// the surviving row ranges, in ascending order — identical rows to a
// full filtered scan, fewer rows visited.
func (ge *GraphEvidence) Scan(_ context.Context, f Fragment) (Result, error) {
	t, c, ok := ge.materialize(f.Table)
	if !ok {
		return Result{}, ErrNoBackend
	}
	return evaluate(logical.VecLeaf{Table: t, Frags: c.FragsOf(f.Table)}, f, false)
}
