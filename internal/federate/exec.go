package federate

import (
	"context"
	"fmt"

	"repro/internal/logical"
	"repro/internal/par"
	"repro/internal/semop"
	"repro/internal/table"
)

// FragmentRun pairs a planned fragment with its actual execution
// counts for the estimated-vs-actual EXPLAIN report, plus the
// resilience events the scan went through. Under seeded fault
// injection the event counts are as deterministic as the faults
// themselves; fault-free runs record all zeros and EXPLAIN omits the
// resilience line entirely.
type FragmentRun struct {
	Fragment
	ActScanned int // base-table rows the backend actually read
	ActOut     int // rows that actually crossed the boundary

	Retries     int    // transient-failure retries taken (all backends tried)
	FailedOver  string // backend that actually served after failover ("" = planned backend)
	BreakerSkip bool   // planned backend skipped because its breaker was open

	// The health verdicts of the fragment's scans, for healthTracker.apply:
	// the backends whose scans failed for good, in attempt order, and the
	// one whose scan succeeded and ended the ladder ("" when none did).
	failed []string
	served string
	err    error // the scan's error, for firstScanError
}

// Run records one federated execution: the physical plan, per-fragment
// actuals, and the final result size. Everything in a Run is
// deterministic for a fixed corpus and epoch — it is the unit the
// golden EXPLAIN tests snapshot.
type Run struct {
	Plan      *PhysicalPlan
	Fragments []FragmentRun
	RowsOut   int // rows in the final result table
}

// ExecuteIR runs an already-optimized logical tree — the one entry
// point, shared by the NL and SQL front ends; opt.Stats is the only
// statistics source consulted. Because the physical-plan cache is keyed
// by the canonical IR fingerprint, the NL and SQL compilations of the
// same question land on one cached physical plan. The residual tree is
// interpreted over the fragment outputs through the same operator loop
// the single-store executors use, so joins, comparisons, residual
// filters, aggregation, sort, limit and projection apply in exactly the
// order the unfederated path applies them.
//
// A panic inside — a backend's Scan, a kernel — leaves ExecuteIR as a
// *PlanPanic carrying the plan's fingerprint, so whoever recovers it
// can say which plan failed.
func (e *Executor) ExecuteIR(opt *logical.Optimized) (*table.Table, *Run, error) {
	if opt == nil || opt.Root == nil {
		return nil, nil, semop.ErrEmptyPlan
	}
	key := logical.Fingerprint(opt.Root)
	defer func() {
		if v := recover(); v != nil {
			panic(&PlanPanic{Fingerprint: key, Value: v})
		}
	}()
	return e.executeOnce(opt, key)
}

// PlanPanic is the value ExecuteIR panics with when executing a plan
// panicked: the canonical fingerprint of the plan (the plan cache's
// key) and the value of the original panic.
type PlanPanic struct {
	Fingerprint string
	Value       any
}

// String says what panicked, for a panic no one recovers.
func (p *PlanPanic) String() string { return fmt.Sprintf("federate: executing plan: %v", p.Value) }

// executeOnce runs one planning + scan + residual pass. The executor's
// Timeout, when set, bounds the whole pass; the context scans are handed
// is also cancelled by the first scan failure, which interrupts
// in-flight siblings (a hung scan does not outlive the query that
// already failed) without changing which attempts they make — see
// scanFragment.
//
// A query sees one breaker state: the open set is taken once, after the
// cooldown clock's tick for this query, and routing, every fragment's
// gate and every failover ordering read that value. The verdicts of the
// scans are applied when all fragments are done, in fragment order, so
// neither what a fragment does nor what the breakers hold afterwards
// depends on how its siblings were scheduled.
func (e *Executor) executeOnce(opt *logical.Optimized, key string) (*table.Table, *Run, error) {
	gen := e.generation()
	open := e.health.snapshot(gen, e.opts.Breaker)
	pp, err := e.plan(opt, key, gen, open)
	if err != nil {
		return nil, nil, err
	}

	frags := pp.Frags
	ctx := context.Background()
	if e.opts.Timeout > 0 {
		var stop context.CancelFunc
		ctx, stop = context.WithTimeout(ctx, e.opts.Timeout)
		defer stop()
	}
	// Only multi-fragment plans have siblings to interrupt; the
	// single-fragment hot path skips the context allocation.
	inflight := ctx
	var abort context.CancelFunc
	if len(frags) > 1 {
		inflight, abort = context.WithCancel(ctx)
		defer abort()
	}

	results := make([]Result, len(frags))
	runs := make([]FragmentRun, len(frags))
	par.ForEach(len(frags), e.opts.Workers, func(i int) {
		runs[i].Fragment = frags[i]
		results[i], runs[i].err = e.scanFragment(ctx, inflight, frags[i], open, &runs[i])
		if runs[i].err != nil && abort != nil {
			abort() // first failure interrupts in-flight siblings
		}
	})
	opened, closed := e.health.apply(runs, e.opts.Breaker.FailThreshold)
	if opened > 0 {
		e.opts.Counters.Add("breaker.open", opened)
	}
	if closed > 0 {
		e.opts.Counters.Add("breaker.close", closed)
	}
	if err := firstScanError(runs); err != nil {
		return nil, nil, err
	}

	run := &Run{Plan: pp, Fragments: runs}
	for i := range runs {
		runs[i].ActScanned = results[i].Scanned
		runs[i].ActOut = results[i].Leaf.Len()
	}

	// leaf resolves the residual's leaves to the streams the fragments
	// ended in.
	leaf := func(leaf *logical.Node) (logical.VecLeaf, error) {
		if leaf.Op == logical.OpEmpty {
			// emptyfold proved the scan selects no rows; no fragment was
			// routed. The schema the passes folded against stands in for
			// the scan's output.
			if opt.Stats != nil {
				if schema, ok := opt.Stats.Schema(leaf.Table); ok {
					return logical.VecLeaf{Table: table.New(leaf.Table, schema)}, nil
				}
			}
			return logical.VecLeaf{}, fmt.Errorf("federate: no schema for empty leaf %s", leaf.Table)
		}
		if leaf.Op != logical.OpInput || leaf.Index >= len(results) {
			return logical.VecLeaf{}, fmt.Errorf("federate: unresolved %v leaf", leaf.Op)
		}
		return results[leaf.Index].Leaf, nil
	}
	var out *table.Table
	if pp.VecResidual {
		// The vectorized executor reads the fragments' batches through
		// their selection vectors and composes their pending
		// projections as column mappings. Bit-identical to Run.
		out, err = logical.RunVec(pp.Residual, logical.VecEnv{Leaf: leaf, Workers: e.opts.Workers})
	} else {
		out, err = logical.Run(pp.Residual, leaf)
	}
	if err != nil {
		return nil, nil, err
	}
	run.RowsOut = out.Len()
	return out, run, nil
}
