package federate

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/logical"
	"repro/internal/metrics"
	"repro/internal/table"
)

// Options configures an Executor.
type Options struct {
	// Workers bounds fragment-level parallelism (cross-backend scans of
	// one query run concurrently). 0 means GOMAXPROCS, 1 sequential.
	Workers int
	// Timeout bounds each query execution; fragment scans observe the
	// deadline through their context. 0 means no deadline.
	Timeout time.Duration
	// Retry schedules per-fragment retries of transient scan failures.
	// The zero value selects fault.DefaultPolicy(); MaxRetries -1
	// disables retrying.
	Retry fault.Policy
	// Breaker tunes per-backend circuit breaking. Zero-value fields
	// select the defaults (threshold 3, cooldown 8); FailThreshold -1
	// disables breaking.
	Breaker BreakerConfig
	// Clock drives retry-backoff sleeps; nil selects the wall clock.
	// Tests inject fault.NewFakeClock so they never sleep for real.
	Clock fault.Clock
	// Counters receives resilience instrumentation (scan.retry,
	// scan.failover, breaker.open, ...). Nil disables
	// instrumentation; *metrics.CounterSet methods are nil-safe.
	Counters *metrics.CounterSet
}

// Executor is the federation engine: it owns the backend registry, the
// cost-based physical planner, and the epoch-keyed plan cache. Safe
// for concurrent use; Register may interleave with ExecuteIR.
type Executor struct {
	opts    Options
	epochFn func() uint64

	mu       sync.RWMutex
	backends []Backend // guarded by mu; sorted by name; ties in cost resolve by order
	regGen   uint64    // guarded by mu; bumped by Register; versions routing decisions

	plans  *planCache
	health *healthTracker

	bindMu    sync.Mutex
	bindEpoch uint64         // guarded by bindMu
	bindGen   uint64         // guarded by bindMu
	binding   *table.Catalog // guarded by bindMu
}

// New returns an executor over the given backends. epochFn versions
// the underlying data: cached physical plans and binding catalogs are
// reused only while it is unchanged. A nil epochFn pins epoch 0
// (static data).
func New(epochFn func() uint64, opts Options, backends ...Backend) *Executor {
	if epochFn == nil {
		epochFn = func() uint64 { return 0 }
	}
	if opts.Retry == (fault.Policy{}) {
		opts.Retry = fault.DefaultPolicy()
	}
	if opts.Retry.MaxRetries < 0 {
		opts.Retry.MaxRetries = 0
	}
	if opts.Breaker.FailThreshold == 0 {
		opts.Breaker.FailThreshold = 3
	}
	if opts.Breaker.Cooldown <= 0 {
		opts.Breaker.Cooldown = 8
	}
	if opts.Clock == nil {
		opts.Clock = fault.RealClock()
	}
	e := &Executor{opts: opts, epochFn: epochFn, plans: newPlanCache(planCacheSize), health: newHealthTracker()}
	for _, b := range backends {
		e.Register(b)
	}
	return e
}

// Register adds a backend (replacing any with the same name) and
// flushes the plan cache, since routing decisions may change. The
// registry generation bump also invalidates the binding catalog and any
// plan an in-flight ExecuteIR computed against the old registry but has
// not cached yet.
func (e *Executor) Register(b Backend) {
	e.mu.Lock()
	kept := e.backends[:0]
	for _, x := range e.backends {
		if x.Name() != b.Name() {
			kept = append(kept, x)
		}
	}
	e.backends = append(kept, b)
	sort.Slice(e.backends, func(i, j int) bool { return e.backends[i].Name() < e.backends[j].Name() })
	e.regGen++
	e.mu.Unlock()

	e.plans.flush()
}

// generation returns the registry version; plans and binding catalogs
// are valid only for the generation they were computed at.
func (e *Executor) generation() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.regGen
}

// Backends lists registered backend names, sorted.
func (e *Executor) Backends() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, len(e.backends))
	for i, b := range e.backends {
		out[i] = b.Name()
	}
	return out
}

func (e *Executor) backend(name string) Backend {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, b := range e.backends {
		if b.Name() == name {
			return b
		}
	}
	return nil
}

// PlanCacheStats reports physical-plan cache hits, misses and size.
func (e *Executor) PlanCacheStats() (hits, misses int64, size int) {
	return e.plans.stats()
}

// BindingCatalog returns a catalog spanning every backend's tables —
// the schema surface semantic-operator binding falls back to when the
// primary catalog cannot answer a query. Materialized once per epoch:
// each table is the rows its backend's full scan delivers, selection and
// pending projection applied. When two backends serve the same table
// name, the first in name order wins. A catalog built while some
// backend's scan failed is returned but not cached, so a transient fault
// cannot leave that backend's tables unbindable until the next epoch.
func (e *Executor) BindingCatalog() *table.Catalog {
	epoch := e.epochFn()
	gen := e.generation()
	e.bindMu.Lock()
	defer e.bindMu.Unlock()
	if e.binding != nil && e.bindEpoch == epoch && e.bindGen == gen {
		return e.binding
	}
	c := table.NewCatalog()
	e.mu.RLock()
	backends := append([]Backend(nil), e.backends...)
	e.mu.RUnlock()
	complete := true
	for _, b := range backends {
		for _, name := range b.Tables() {
			if _, err := c.Get(name); err == nil {
				continue
			}
			res, err := b.Scan(context.Background(), Fragment{Backend: b.Name(), Table: name})
			var t *table.Table
			if err == nil {
				t, err = materialize(res.Leaf)
			}
			if err != nil {
				complete = false
				continue
			}
			c.Put(t)
		}
	}
	if complete {
		e.binding, e.bindEpoch, e.bindGen = c, epoch, gen
	}
	return c
}

// PhysicalPlan is an optimized logical tree lowered onto backends: one
// fragment per Scan leaf plus the residual tree the federation layer
// interprets over the fragment outputs. Physical plans are immutable
// once planned and cached by (IR fingerprint, epoch); per-run row
// counts live in Run, not here.
type PhysicalPlan struct {
	Root     *logical.Node // optimized logical plan (EXPLAIN "logical:")
	Residual *logical.Node // Scan leaves replaced by Inputs, absorbed ops removed
	Trace    []string      // optimizer rule trace (EXPLAIN "rules:")
	Rollups  []string      // rollup routings (EXPLAIN "rollup:"), empty when none
	Frags    []Fragment    // scan fragments in left-to-right tree order

	// JoinRes is the joined side's non-pushable predicate residue
	// (EXPLAIN "residual="). The driving side's residue needs no field:
	// it is the Filter directly above Input 0 in Residual. Main-side
	// filters of join plans never reach the fragment at all — they stay
	// above the join in the residual tree, preserving the unfederated
	// operator order (join, then filter) so row order and results are
	// identical.
	JoinRes []table.Pred

	// VecResidual records the executor dispatch decision, made once at
	// plan time: true when at least one fragment is estimated to
	// deliver vecResidualMinRows rows across the boundary. Both
	// executors are bit-identical, so the dispatch never changes
	// results; EXPLAIN renders it as "exec: vectorized|row".
	VecResidual bool

	Epoch uint64
	gen   uint64 // registry generation the routing was decided at
}

// price offers preds and the column set cols to backend b for a scan of
// tbl: what b absorbs of them (the fragment, with b's estimate and Cost
// replaced by the comparable routing cost) and the predicate residue.
// Planned routing and failover ordering both rank by it, so the two
// cannot drift. ok is false when b does not serve tbl.
func (e *Executor) price(b Backend, open openSet, tbl string, preds []table.Pred, cols []string) (f Fragment, rest []table.Pred, ok bool) {
	f, left := absorb(b, Fragment{Table: tbl, Preds: preds, Columns: cols})
	if f.Est, ok = b.Estimate(tbl, f.Preds); !ok {
		return Fragment{}, nil, false
	}
	// Residual predicates cost the federation layer one evaluation
	// per returned row; fold that into the comparable cost.
	f.Est.Cost += float64(f.Est.Out) * 0.25 * float64(len(left.Preds))
	// An open breaker deprioritizes the backend without excluding
	// it: health is a planning input, exactly like cost. A plan priced
	// against a non-empty open set is never cached (see plan).
	if open.has(b.Name()) {
		f.Est.Cost += breakerPenalty
	}
	return f, left.Preds, true
}

// route picks the cheapest backend serving tbl, offering preds and the
// column set cols for pushdown. Ties resolve to the first backend in
// name order.
func (e *Executor) route(open openSet, tbl string, preds []table.Pred, cols []string) (Backend, Fragment, []table.Pred, error) {
	e.mu.RLock()
	backends := append([]Backend(nil), e.backends...)
	e.mu.RUnlock()

	var (
		best     Backend
		bestFrag Fragment
		bestRest []table.Pred
	)
	for _, b := range backends {
		f, rest, ok := e.price(b, open, tbl, preds, cols)
		if ok && (best == nil || f.Est.Cost < bestFrag.Est.Cost) {
			best, bestFrag, bestRest = b, f, rest
		}
	}
	if best == nil {
		return nil, Fragment{}, nil, fmt.Errorf("%w: %s", ErrNoBackend, tbl)
	}
	return best, bestFrag, bestRest, nil
}

// vecResidualMinRows is the plan-time dispatch threshold: the residual
// runs the columnar executor only when some fragment is estimated to
// deliver at least this many rows across the federation boundary, the
// row interpreter otherwise. Small inputs are not measurably cheaper on
// the row interpreter: with the threshold at 0, ten alternating pairs
// of the ask_mixed and ingest_live benchmark workloads (2-core x86-64)
// moved no end-to-end metric beyond its bound.
const vecResidualMinRows = 32

// maxEstOut returns the largest estimated boundary-crossing row count
// across the plan's fragments — the size of the biggest residual
// input, which drives the executor dispatch decision.
func maxEstOut(frags []Fragment) int {
	m := 0
	for _, f := range frags {
		if f.Est.Out > m {
			m = f.Est.Out
		}
	}
	return m
}

// plan lowers the optimized tree, consulting the epoch-keyed cache.
// key is the tree's canonical fingerprint. gen is the registry
// generation read before routing: if a Register lands mid-plan, the
// generation mismatch keeps the stale plan out of the cache (put drops
// it) and out of future lookups. Routing reads one thing about health,
// the open set, so the cache holds only plans routed with every breaker
// closed or half-open: while a breaker is open the query plans afresh
// (a bypass counts as a miss) and the plan is not kept — a route around
// an outage cannot be served after it ends, nor the healthy route
// during it.
func (e *Executor) plan(opt *logical.Optimized, key string, gen uint64, open openSet) (*PhysicalPlan, error) {
	epoch := e.epochFn()
	cached := len(open) == 0
	if !cached {
		e.plans.miss()
	} else if pp := e.plans.get(key, epoch, gen); pp != nil {
		return pp, nil
	}

	pp := &PhysicalPlan{Root: opt.Root, Trace: opt.Trace, Rollups: opt.Rollups, Epoch: epoch, gen: gen}
	residual, err := e.lower(opt.Root, opt.Stats, open, pp)
	if err != nil {
		return nil, err
	}
	pp.Residual = residual
	pp.VecResidual = maxEstOut(pp.Frags) >= vecResidualMinRows

	if cached {
		e.plans.put(key, pp, e.generation())
	}
	return pp, nil
}

// lower recursively rewrites the tree: every Scan leaf becomes a
// routed fragment plus an Input node, and the operators a fragment's
// backend absorbs — pushable predicates, pruned or explicitly
// projected columns, a whole directly-stacked aggregation — disappear
// from the residual the federation layer interprets; a top-k the
// backend absorbs stays in the residual too, over at most k rows. st is
// the statistics source the tree was optimized against (nil for none).
func (e *Executor) lower(n *logical.Node, st logical.Stats, open openSet, pp *PhysicalPlan) (*logical.Node, error) {
	if scan, preds, top, lim := chain(n); scan != nil {
		return e.lowerScan(scan, preds, top, lim, st, open, pp)
	}
	out := n.Clone()
	out.In = make([]*logical.Node, len(n.In))
	for i, in := range n.In {
		low, err := e.lower(in, st, open, pp)
		if err != nil {
			return nil, err
		}
		out.In[i] = low
	}
	return out, nil
}

// chain matches the operator stacks a single fragment can serve: a
// Scan, optionally under a Filter, optionally under one top operator —
// an Aggregate, an alias-free Project (the semi-join key projection, or
// a plain SQL SELECT list), or a Compare directly on the Scan, whose
// common predicates are its pushdown offer — and, over any of them but
// the Compare, optionally a top-k: a Limit of at least one row directly
// over a Sort by at least one key, returned as lim (the Limit node).
// scan is nil for any other shape.
func chain(n *logical.Node) (scan *logical.Node, preds []table.Pred, top, lim *logical.Node) {
	if n.Op == logical.OpLimit && n.N > 0 {
		if s := n.Child(); s != nil && s.Op == logical.OpSort && len(s.Keys) > 0 &&
			s.Child() != nil && s.Child().Op != logical.OpCompare {
			lim, n = n, s.Child()
		}
	}
	below := n
	switch {
	case n.Op == logical.OpAggregate && len(n.Aggs) > 0,
		n.Op == logical.OpProject && len(n.Aliases) == 0 && len(n.Proj) > 0:
		top, below = n, n.Child()
	case n.Op == logical.OpCompare:
		if c := n.Child(); c != nil && c.Op == logical.OpScan {
			return c, n.Preds, n, nil
		}
		return nil, nil, nil, nil
	}
	if below != nil && below.Op == logical.OpFilter {
		preds, below = below.Preds, below.Child()
	}
	if below == nil || below.Op != logical.OpScan {
		return nil, nil, nil, nil
	}
	return below, preds, top, lim
}

// lowerScan routes one chain to its cheapest backend and applies the
// absorb rule twice: to the scan's own pruned column set (inside
// route), then to the whole stack including top and the top-k lim. A
// top operator the backend absorbs disappears from the residual — the
// fragment output is exactly the aggregate, or only the projected
// columns cross the wire — and one it does not stays above the Input
// leaf, over a federation-side projection when the pruned columns
// stayed behind too. A Compare keeps its predicate residue inside the
// residual Compare node, applied per branch exactly as the single-store
// executor applies it. The top-k stays above all of it: when the
// backend absorbs it, the residual Sort and Limit order at most k rows.
func (e *Executor) lowerScan(scan *logical.Node, preds []table.Pred, top, lim *logical.Node, st logical.Stats, open openSet, pp *PhysicalPlan) (*logical.Node, error) {
	b, frag, rest, err := e.route(open, scan.Table, preds, scan.Cols)
	if err != nil {
		return nil, err
	}
	pruneFragment(b, &frag, scan.RowStart, scan.RowEnd)
	if len(pp.Frags) > 0 {
		pp.JoinRes = rest
	}
	topRides := false
	if top != nil && top.Op != logical.OpCompare || lim != nil {
		want := Fragment{Table: scan.Table, Preds: preds}
		if top != nil {
			want.GroupBy, want.Aggs, want.Columns = top.GroupBy, top.Aggs, top.Proj
		}
		if lim != nil {
			want.Sort, want.Limit = lim.Child().Keys, lim.N
		}
		got, left := absorb(b, want)
		if topRides = top != nil && len(left.Aggs) == 0 && len(left.Columns) == 0; topRides {
			// An absorbed aggregate already minimizes the output, so the
			// pruned column set is dropped with it.
			frag.GroupBy, frag.Aggs, frag.Columns = got.GroupBy, got.Aggs, got.Columns
			if len(got.Aggs) > 0 {
				// The fragment now returns group rows, not filtered rows:
				// re-estimate its output from the group keys' distinct
				// counts.
				var ts *table.TableStats
				if st != nil {
					ts = st.TableStats(frag.Table)
				}
				frag.Est.Out = logical.EstimateGroupRows(ts, frag.Est.Out, got.GroupBy)
			}
		}
		if len(got.Sort) > 0 {
			frag.Sort, frag.Limit = got.Sort, got.Limit
			frag.Est.Out = min(frag.Est.Out, got.Limit)
		}
	}
	pp.Frags = append(pp.Frags, frag)
	out := chainResidual(scan, rest, top, topRides, len(frag.Columns) > 0, len(pp.Frags)-1)
	if lim == nil {
		return out, nil
	}
	sorted := &logical.Node{Op: logical.OpSort, Keys: lim.Child().Keys, In: []*logical.Node{out}}
	return &logical.Node{Op: logical.OpLimit, N: lim.N, In: []*logical.Node{sorted}}, nil
}

// chainResidual is what the federation layer evaluates of a chain below
// its top-k over fragment index's output: the predicate residue rest, and
// top unless it rode the fragment, over a projection to the scan's
// pruned columns when the fragment did not take them (projected).
func chainResidual(scan *logical.Node, rest []table.Pred, top *logical.Node, topRides, projected bool, index int) *logical.Node {
	input := &logical.Node{Op: logical.OpInput, Index: index, Table: scan.Table}
	if topRides {
		return wrapFilter(input, rest)
	}
	if len(scan.Cols) > 0 && !projected {
		input = &logical.Node{Op: logical.OpProject,
			Proj: append([]string(nil), scan.Cols...), In: []*logical.Node{input}}
	}
	if top == nil {
		return wrapFilter(input, rest)
	}
	out := top.Clone()
	if top.Op == logical.OpCompare {
		out.Preds, out.In = rest, []*logical.Node{input}
	} else {
		out.In = []*logical.Node{wrapFilter(input, rest)}
	}
	return out
}

// pruneFragment consults backend b's zone maps and restricts the
// fragment to the row ranges its pushed conjunction cannot be refuted
// on. Pruning happens at plan time — zone maps are a pure function of
// the data epoch the plan caches under — so the decision (and EXPLAIN's
// "pruned:" line) is deterministic at any worker count. An explicit row
// range [rowStart, rowEnd) (the SQL dialect's ROWS clause; rowEnd 0 for
// none) is intersected with the survivors, or is the whole of Ranges
// when b has no zone maps.
func pruneFragment(b Backend, frag *Fragment, rowStart, rowEnd int) {
	if rowEnd > 0 {
		frag.SliceStart, frag.SliceEnd = rowStart, rowEnd
	}
	z := b.Zones(frag.Table)
	if z == nil || len(z.Maps) == 0 {
		if rowEnd > 0 {
			frag.Ranges = []table.RowRange{{Start: rowStart, End: rowEnd}}
		}
		return
	}
	keep, pruned := z.Prune(frag.Preds)
	frag.ZoneTotal = len(z.Maps)
	frag.ZonePruned = pruned
	if rowEnd > 0 {
		keep = table.IntersectRanges(keep, []table.RowRange{{Start: rowStart, End: rowEnd}})
	} else if pruned == 0 {
		return // nothing refuted: plain full scan, no range plumbing
	}
	frag.Ranges = keep
	surv := table.RangesLen(keep)
	if surv < frag.Est.Scanned {
		frag.Est.Scanned = surv
	}
	if surv < frag.Est.Out {
		frag.Est.Out = surv
	}
}

func wrapFilter(in *logical.Node, preds []table.Pred) *logical.Node {
	if len(preds) == 0 {
		return in
	}
	return &logical.Node{Op: logical.OpFilter, Preds: preds, In: []*logical.Node{in}}
}

// planCacheSize caps the physical-plan cache.
const planCacheSize = 256

// planCache is a bounded map of physical plans keyed by the canonical
// IR fingerprint. Entries carry the epoch they were planned at; a
// stale hit is treated as a miss and overwritten, so an epoch bump
// (ingest, backend registration) invalidates everything without a
// sweep.
type planCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*PhysicalPlan // guarded by mu
	hits    int64                    // guarded by mu
	misses  int64                    // guarded by mu
}

func newPlanCache(capacity int) *planCache {
	return &planCache{cap: capacity, entries: make(map[string]*PhysicalPlan, capacity)}
}

func (c *planCache) get(key string, epoch, gen uint64) *PhysicalPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	pp := c.entries[key]
	if pp == nil || pp.Epoch != epoch || pp.gen != gen {
		c.misses++
		return nil
	}
	c.hits++
	return pp
}

// miss counts a query that planned without consulting the cache.
func (c *planCache) miss() {
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
}

// put caches the plan unless the registry generation moved while it
// was being computed — a concurrent Register already flushed the cache,
// and re-inserting a plan routed against the old registry would undo
// that flush.
func (c *planCache) put(key string, pp *PhysicalPlan, gen uint64) {
	if pp.gen != gen {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) >= c.cap {
		if _, ok := c.entries[key]; !ok {
			// Wholesale flush at capacity: plans are cheap to rebuild and
			// a deterministic full reset beats tracking recency.
			c.entries = make(map[string]*PhysicalPlan, c.cap)
		}
	}
	c.entries[key] = pp
}

func (c *planCache) flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]*PhysicalPlan, c.cap)
}

func (c *planCache) stats() (hits, misses int64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.entries)
}
