// Package federate is the multi-backend execution layer of the unified
// query system. It lowers an optimized logical-plan tree
// (internal/logical) into per-backend scan fragments with predicate
// and projection pushdown, routes every fragment to the cheapest
// capable Backend through a cost-based physical planner, interprets
// the residual tree over the fragment outputs (cross-backend joins
// run with bounded parallelism via internal/par), and renders a
// deterministic EXPLAIN of the logical → rules → physical lowering
// with the optimizer trace and estimated vs actual row counts.
// Physical plans cache by the canonical IR fingerprint and the data
// epoch, so the NL and SQL compilations of one question share a
// single cached plan and no plan outlives the catalog state it was
// derived from.
//
// Rows materialize once: every fragment, of any size, runs as one
// selection-vector pipeline (fragment.go), and a pass-through
// projection crosses the fragment boundary as a column mapping
// (Result.Columns) that the vectorized residual composes instead of
// copying the table.
//
// The residual tree executes through either of internal/logical's
// bit-identical engines, handed one leaf resolver: the vectorized
// columnar executor when some fragment is estimated to deliver at
// least 32 rows across the boundary, the row interpreter otherwise.
// The dispatch is decided once at plan time (PhysicalPlan.VecResidual)
// and reported on EXPLAIN's "exec:" line.
//
// Three backends ship with the system: the in-memory catalog (over
// its cached, dictionary-coded columnar fragments), a SQL backend that round-trips
// fragments through internal/sql's dialect as text — the template for
// federating an external SQL store — and a graph-evidence backend that
// exposes the heterogeneous graph index as relational tables. New
// stores implement Backend — one interface, every method required: the
// planner asks it one pushdown question per operator (CanPush,
// CanPushAgg, CanProject) and for its zone maps, and hands every Scan
// the query's context — and register through unisem.RegisterBackend.
package federate

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/table"
)

// ErrNoBackend is returned when no registered backend serves a table
// the plan scans.
var ErrNoBackend = errors.New("federate: no backend serves table")

// Estimate is a backend's deterministic cost guess for one fragment.
// Cost is the scalar the planner minimizes across candidate backends;
// the row counts feed EXPLAIN's estimated-vs-actual report.
type Estimate struct {
	Total   int     // rows in the base table
	Scanned int     // rows the backend expects to read
	Out     int     // rows expected to cross the federation boundary
	Cost    float64 // fixed overhead + per-row scan cost
}

// Fragment is the unit of work the planner hands to one backend: a
// scan of a single table carrying whatever predicates, projection and
// aggregation the backend advertised it can absorb, plus the surviving
// row ranges after zone-map fragment pruning.
type Fragment struct {
	Backend string       // chosen backend name (filled by the planner)
	Table   string       // base table to scan
	Preds   []table.Pred // pushed-down filters (conjunction)
	Columns []string     // pushed-down projection (nil = all columns)
	GroupBy []string     // pushed-down aggregation group keys
	Aggs    []table.Agg  // pushed-down aggregates
	Est     Estimate     // planning-time estimate for this fragment

	// Ranges are the ascending row ranges the backend must read: the
	// survivors after the planner pruned fragments whose zone maps
	// refute the pushed conjunction, intersected with the explicit row
	// slice. nil means scan everything; an empty non-nil slice means
	// every fragment was refuted and the backend must read zero rows.
	// Every backend honours them, with or without zone maps.
	Ranges []table.RowRange
	// ZonePruned/ZoneTotal report the pruning decision for EXPLAIN's
	// "pruned:" line: ZonePruned of ZoneTotal fragments were refuted.
	// ZoneTotal is 0 when the serving backend exposes no zone maps.
	ZonePruned, ZoneTotal int

	// SliceStart/SliceEnd record the scan's explicit row window (the
	// SQL dialect's ROWS clause) when one exists; SliceEnd 0 means no
	// slice. Ranges follow the serving backend's zone maps, but the
	// slice is semantic, so failover re-routing must re-derive Ranges
	// from it on the new backend rather than drop it.
	SliceStart, SliceEnd int
}

// Result is a fragment's output plus scan accounting: Scanned counts
// the base-table rows the backend actually read (the number pushdown
// exists to minimize), Table holds the rows that crossed the boundary.
// Table alone is the output only while Columns is nil.
type Result struct {
	Table   *table.Table
	Scanned int
	// Frags optionally carries columnar fragments covering exactly
	// Table (a pass-through scan returning a cached base table), so
	// the vectorized residual executor reuses them instead of
	// re-extracting columns. Nil is always valid.
	Frags *table.Frags
	// Columns, when non-nil, is the fragment's projection left pending
	// over Table: an in-process backend whose scan is otherwise a
	// pass-through returns its base table untouched, and the projection
	// crosses the boundary as these names, which the residual applies
	// as a leaf's pending projection (logical.VecLeaf.Cols). Nil, which
	// is all a backend that never sets it produces, means Table is
	// already the output.
	Columns []string
}

// Backend is one executor in the federation: a store that can scan its
// tables and absorb the plan operations it answers yes for, one
// question per operator (absorb asks them). Every method is required.
// Implementations must be safe for concurrent Scan/Estimate calls and
// must produce deterministic results — same fragment, same rows, same
// row order — regardless of how many fragments run in parallel.
type Backend interface {
	// Name identifies the backend in plans and EXPLAIN output.
	Name() string
	// Tables lists the tables this backend serves, sorted.
	Tables() []string
	// CanPush reports whether one specific predicate on tbl can be
	// pushed down (dialects may not support every operator).
	CanPush(tbl string, p table.Pred) bool
	// CanPushAgg reports whether one aggregate can be pushed down.
	CanPushAgg(a table.Agg) bool
	// CanProject reports whether the backend can return just the named
	// columns: a pushed projection's, or a pushed aggregate's group
	// keys.
	CanProject(cols []string) bool
	// Estimate returns deterministic row/cost estimates for scanning
	// tbl under the pushed preds; ok is false when tbl is not served.
	Estimate(tbl string, preds []table.Pred) (est Estimate, ok bool)
	// Zones returns tbl's per-fragment zone maps for plan-time pruning,
	// or nil when the backend keeps none.
	Zones(tbl string) *table.Zones
	// Scan executes the fragment, reading only f.Ranges when they are
	// non-nil, in ascending order, so that a pruned or row-sliced scan
	// returns exactly the rows of those ranges a full scan would. ctx
	// is the query's (its deadline, or a failed sibling fragment,
	// cancels it); BindingCatalog's scans run outside any query.
	Scan(ctx context.Context, f Fragment) (Result, error)
}

// estimateFromStats derives a backend's Estimate from shared
// per-column table statistics: a full scan of the table, an output
// estimated per predicate through TableStats.SelectivityOf (exact
// value counts, NDV division, histogram interpolation — heuristic
// fallback for columns without stats), and a linear fixed + per-row
// cost.
// A backend with a smarter access path (the memory backend, which
// drives its scan by its most selective equality) refines
// Scanned/Out/Cost on top of it.
func estimateFromStats(ts *table.TableStats, total int, preds []table.Pred, fixed, perRow float64) Estimate {
	return Estimate{
		Total:   total,
		Scanned: total,
		Out:     ts.EstimateRows(total, preds),
		Cost:    fixed + perRow*float64(total),
	}
}

// predsString renders a predicate conjunction for EXPLAIN.
func predsString(preds []table.Pred) string {
	if len(preds) == 0 {
		return "[]"
	}
	parts := make([]string, len(preds))
	for i, p := range preds {
		parts[i] = p.String()
	}
	return "[" + strings.Join(parts, " AND ") + "]"
}

// aggsString renders pushed aggregates for EXPLAIN.
func aggsString(groupBy []string, aggs []table.Agg) string {
	names := make([]string, len(aggs))
	for i, a := range aggs {
		names[i] = fmt.Sprintf("%s(%s)", a.Func, a.Col)
	}
	return fmt.Sprintf("group=%v %s", groupBy, strings.Join(names, ","))
}
