package federate

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/table"
)

// ChaosOptions configures a Chaos wrapper. Every injected fault is a
// pure function of (Seed, fragment identity, attempt number): the same
// wrapped system replays the same fault schedule on every run, on any
// machine, at any worker count — which is what lets the chaos-parity
// suite assert bit-identical results under injection.
type ChaosOptions struct {
	// Seed selects the fault schedule.
	Seed uint64
	// MaxTransient caps injected transient failures per fragment
	// identity: the schedule injects k = Hash64(Seed, identity) mod
	// (MaxTransient+1) transient errors before letting the scan
	// through. Keeping MaxTransient at or below the executor's retry
	// budget guarantees every scan eventually succeeds.
	MaxTransient int
	// Latency is sleep injected before every scan (through Clock, so
	// tests record it instead of waiting).
	Latency time.Duration
	// Down fails every scan with a permanent error — the
	// backend-fully-down scenario that exercises failover.
	Down bool
	// Hang blocks scans until the query context is cancelled; it
	// requires a deadline or sibling cancellation to ever return. On a
	// context that cannot be cancelled the scan fails permanently
	// instead of deadlocking.
	Hang bool
	// Tables restricts injection to the named tables; nil injects on
	// all.
	Tables []string
	// Clock receives latency sleeps; nil uses the wall clock.
	Clock fault.Clock
}

// Chaos is a fault-injecting Backend wrapper: it delegates everything
// to the wrapped backend but injects deterministic, seeded faults per
// Scan. It keeps the wrapped backend's name, so registering a
// chaos-wrapped built-in replaces the healthy one — routing, EXPLAIN
// and goldens all see the usual backend names.
//
// Every planning question (CanPush, CanPushAgg, CanProject, Estimate,
// Zones) goes to the wrapped backend, so pushdown, zone pruning and
// row-sliced scans plan exactly as without the wrapper; only Scan
// outcomes change.
type Chaos struct {
	inner Backend
	opts  ChaosOptions

	mu       sync.Mutex
	attempts map[string]int // guarded by mu; scan attempts seen per fragment identity
}

// NewChaos wraps b with fault injection.
func NewChaos(b Backend, opts ChaosOptions) *Chaos {
	if opts.Clock == nil {
		opts.Clock = fault.RealClock()
	}
	return &Chaos{inner: b, opts: opts, attempts: make(map[string]int)}
}

// Name implements Backend, keeping the wrapped backend's identity.
func (c *Chaos) Name() string { return c.inner.Name() }

// Tables implements Backend.
func (c *Chaos) Tables() []string { return c.inner.Tables() }

// CanPush implements Backend.
func (c *Chaos) CanPush(tbl string, p table.Pred) bool { return c.inner.CanPush(tbl, p) }

// CanPushAgg implements Backend.
func (c *Chaos) CanPushAgg(a table.Agg) bool { return c.inner.CanPushAgg(a) }

// CanPushSort implements Backend.
func (c *Chaos) CanPushSort(k table.SortKey) bool { return c.inner.CanPushSort(k) }

// CanProject implements Backend.
func (c *Chaos) CanProject(cols []string) bool { return c.inner.CanProject(cols) }

// Estimate implements Backend. Estimates stay fault-free: chaos
// attacks execution, not planning, so routing decisions are identical
// to the healthy system's.
func (c *Chaos) Estimate(tbl string, preds []table.Pred) (Estimate, bool) {
	return c.inner.Estimate(tbl, preds)
}

// Zones implements Backend.
func (c *Chaos) Zones(tbl string) *table.Zones { return c.inner.Zones(tbl) }

// identity canonicalizes the fragment for the fault schedule: the
// parts that define what is being scanned (table, predicates,
// projection, aggregation, ranges) — not the estimates, which may
// drift with statistics without changing the scan's meaning.
func (c *Chaos) identity(f Fragment) string {
	var b strings.Builder
	b.WriteString(f.Table)
	b.WriteByte('|')
	b.WriteString(predsString(f.Preds))
	b.WriteByte('|')
	b.WriteString(strings.Join(f.Columns, ","))
	if len(f.Aggs) > 0 {
		b.WriteByte('|')
		b.WriteString(aggsString(f.GroupBy, f.Aggs))
	}
	for _, r := range f.Ranges {
		fmt.Fprintf(&b, "|%d-%d", r.Start, r.End)
	}
	return b.String()
}

// targeted reports whether injection applies to this table.
func (c *Chaos) targeted(tbl string) bool {
	if len(c.opts.Tables) == 0 {
		return true
	}
	for _, t := range c.opts.Tables {
		if t == tbl {
			return true
		}
	}
	return false
}

// Scan implements Backend: inject, then delegate. Injection precedes
// delegation so a scan that survives injection returns exactly the
// fault-free Result — row counts, order and scan accounting included —
// which is why EXPLAIN's stats and pruned lines are byte-identical
// under chaos and only the resilience line differs. Hang injection
// blocks on ctx, so deadline expiry or sibling cancellation unblocks
// it.
func (c *Chaos) Scan(ctx context.Context, f Fragment) (Result, error) {
	if c.targeted(f.Table) {
		if err := c.inject(ctx, f); err != nil {
			return Result{}, err
		}
	}
	return c.inner.Scan(ctx, f)
}

// inject applies the configured faults for this scan attempt.
func (c *Chaos) inject(ctx context.Context, f Fragment) error {
	if c.opts.Latency > 0 {
		c.opts.Clock.Sleep(c.opts.Latency)
	}
	if c.opts.Down {
		return fault.Permanent(fmt.Errorf("chaos: backend %s is down (scan %s)", c.Name(), f.Table))
	}
	if c.opts.Hang {
		if ctx.Done() == nil {
			return fault.Permanent(fmt.Errorf("chaos: hang on %s without cancellable context", c.Name()))
		}
		<-ctx.Done()
		return ctx.Err()
	}
	if c.opts.MaxTransient > 0 {
		id := c.identity(f)
		budget := int(fault.Hash64(c.opts.Seed, c.Name()+"\x00"+id) % uint64(c.opts.MaxTransient+1))
		c.mu.Lock()
		attempt := c.attempts[id]
		if attempt < budget {
			c.attempts[id] = attempt + 1
		}
		c.mu.Unlock()
		if attempt < budget {
			return fault.Transient(fmt.Errorf("chaos: injected fault %d/%d on %s %s", attempt+1, budget, c.Name(), f.Table))
		}
	}
	return nil
}
