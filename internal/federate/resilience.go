package federate

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/fault"
)

// isCancellation reports whether err is context cancellation or
// deadline expiry — outcomes of the query's own lifecycle, never
// evidence against a backend's health, and never worth a retry.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// breakerPenalty is the routing-cost surcharge for a backend whose
// breaker is open: large enough to lose to any healthy backend, but a
// penalty rather than exclusion — when the open backend is the only
// provider, the fragment still routes there (and the scan becomes a
// probe).
const breakerPenalty = 1e12

// BreakerConfig tunes the per-backend circuit breaker. The breaker is
// deliberately clock-free: cooldown is counted in executed queries
// rather than elapsed time, so its state transitions are a
// deterministic function of the query/outcome sequence and tests need
// no fake timers.
type BreakerConfig struct {
	// FailThreshold is the consecutive-failure count that opens the
	// breaker (default 3). -1 disables circuit breaking.
	FailThreshold int
	// Cooldown is how many queries an open breaker sits out before
	// transitioning to half-open, where the next scan routed at the
	// backend is the recovery probe (default 8).
	Cooldown int
}

// Breaker states. closed = healthy, open = shedding, halfOpen = one
// probe decides.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breakerState is one backend's health record inside healthTracker.
// All fields are guarded by the tracker's mutex.
type breakerState struct {
	state    int    // guarded by healthTracker.mu
	failures int    // guarded by healthTracker.mu; consecutive scan failures
	openedAt uint64 // guarded by healthTracker.mu; query count when the breaker last opened
}

// healthTracker is the executor's per-backend circuit-breaker table.
// Its generation mirrors the backend registry generation: when the
// registry changes, accumulated health is forgiven (a re-registered
// backend is a new instance). The cooldown clock is the executed-query
// count, ticked once per execution, so an open breaker half-opens after
// Cooldown queries even when routing has stopped consulting the backend
// entirely.
//
// A query touches the tracker twice: snapshot before it plans, apply
// after its last scan. In between it reads the value snapshot returned,
// so concurrent queries and sibling fragments cannot change what it
// does.
type healthTracker struct {
	mu        sync.Mutex
	gen       uint64                   // guarded by mu; registry generation the states belong to
	queries   uint64                   // guarded by mu; executions seen — the cooldown clock
	nonClosed int                      // guarded by mu; breakers currently open or half-open
	m         map[string]*breakerState // guarded by mu
	names     []string                 // guarded by mu; sorted keys of m, for deterministic sweeps
}

func newHealthTracker() *healthTracker {
	return &healthTracker{m: make(map[string]*breakerState)}
}

// openSet is the breaker state one query runs against: the names of
// the backends whose breaker is open, sorted; nil while every breaker is
// closed. Half-open reads as not open: the next scan is the probe.
type openSet []string

func (o openSet) has(name string) bool { return slices.Contains(o, name) }

// snapshot starts a query: it advances the cooldown clock by one
// executed query, moving any open breaker whose cooldown expired to
// half-open (its next routed scan becomes the recovery probe; the sweep
// walks backends in sorted name order); aligns the tracker with the
// registry generation, forgiving all health when the registry changed;
// and returns the open set.
func (h *healthTracker) snapshot(gen uint64, cfg BreakerConfig) openSet {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.queries++
	if h.nonClosed > 0 {
		for _, name := range h.names {
			s := h.m[name]
			if s.state == breakerOpen && h.queries-s.openedAt >= uint64(cfg.Cooldown) {
				s.state = breakerHalfOpen
			}
		}
	}
	if gen != h.gen {
		h.gen = gen
		if len(h.m) > 0 {
			h.m = make(map[string]*breakerState)
			h.names = nil
			h.nonClosed = 0
		}
	}
	var open openSet
	if h.nonClosed > 0 {
		for _, name := range h.names {
			if h.m[name].state == breakerOpen {
				open = append(open, name)
			}
		}
	}
	return open
}

// stateLocked returns the named backend's record, creating a closed
// one on first sight. Caller holds h.mu.
func (h *healthTracker) stateLocked(name string) *breakerState {
	s := h.m[name]
	if s == nil {
		s = &breakerState{}
		h.m[name] = s
		i := sort.SearchStrings(h.names, name)
		h.names = append(h.names, "")
		copy(h.names[i+1:], h.names[i:])
		h.names[i] = name
	}
	return s
}

// apply ends a query: it records the verdicts its fragments' scans left
// on runs, in fragment order and within a fragment in attempt order —
// the failures, then the success that ended the ladder — and returns how
// many breakers opened and how many closed (the breaker.open and
// breaker.close counters). A scan that failed for good (permanent error,
// or transient retries exhausted) counts toward the backend's
// consecutive failures: a half-open probe failure re-opens immediately;
// a closed breaker opens at threshold; an already-open breaker (a forced
// probe on a sole provider) restarts its cooldown. A successful scan
// resets the failures and closes a non-closed breaker. threshold < 0
// disables breaking: failures are not recorded at all.
func (h *healthTracker) apply(runs []FragmentRun, threshold int) (opened, closed int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range runs {
		fr := &runs[i]
		if threshold >= 0 {
			for _, name := range fr.failed {
				s := h.stateLocked(name)
				s.failures++
				switch s.state {
				case breakerHalfOpen:
					s.state = breakerOpen
					s.openedAt = h.queries
					opened++
				case breakerClosed:
					if s.failures >= threshold {
						s.state = breakerOpen
						s.openedAt = h.queries
						h.nonClosed++
						opened++
					}
				case breakerOpen:
					s.openedAt = h.queries
				}
			}
		}
		if fr.served != "" {
			s := h.stateLocked(fr.served)
			s.failures = 0
			if s.state != breakerClosed {
				s.state = breakerClosed
				h.nonClosed--
				closed++
			}
		}
	}
	return opened, closed
}

// scanFragment executes one planned fragment with the full resilience
// ladder: breaker gate, retry with backoff on the planned backend,
// then cost-ordered failover across every other backend serving the
// table. Observability lands on fr (retries, breaker skips, the
// failover target), and so do the health verdicts, for
// healthTracker.apply; open is the query's one reading of the breakers.
//
// Two contexts, one rule. ctx is the query's: only its deadline ends
// it, and once it has, nothing further is attempted. inflight is what
// scans are handed: a failed sibling cancels it too, which interrupts a
// scan that is running (a hung one returns at once) but never skips an
// attempt that has not started — so the attempts a fragment makes, the
// health verdicts they record and the error it reports do not depend on
// when a sibling failed. An interrupted scan counts as that attempt's
// failure without a verdict; the fragment reports the first real fault
// it met, and context.Canceled only when it met none.
func (e *Executor) scanFragment(ctx, inflight context.Context, f Fragment, open openSet, fr *FragmentRun) (Result, error) {
	b := e.backend(f.Backend)
	if b == nil {
		return Result{}, fmt.Errorf("federate: backend %s planned for table %s is not registered", f.Backend, f.Table)
	}

	var primaryErr error
	var cands []Backend
	skipPrimary := false
	if open.has(f.Backend) {
		// Breaker open: skip straight to failover when an alternative
		// exists. With no alternative the scan proceeds anyway — a
		// forced probe beats failing a query the backend might serve.
		cands = e.failoverCandidates(f, open)
		if len(cands) > 0 {
			skipPrimary = true
			fr.BreakerSkip = true
			e.opts.Counters.Inc("scan.breaker_skip")
		}
	}

	if !skipPrimary {
		res, err := e.scanRetrying(ctx, inflight, b, f, fr)
		if err == nil {
			return res, nil
		}
		if errors.Is(err, context.DeadlineExceeded) {
			return Result{}, err
		}
		primaryErr = err
		cands = e.failoverCandidates(f, open)
	}

	for _, c := range cands {
		if open.has(c.Name()) {
			continue
		}
		nf, left := refragment(c, f)
		res, err := e.scanRetrying(ctx, inflight, c, nf, fr)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				return Result{}, err
			}
			if primaryErr == nil || errors.Is(primaryErr, context.Canceled) {
				primaryErr = err
			}
			continue
		}
		// Whatever c did not absorb runs federation-side through the
		// same evaluator every backend's Scan ends in, over the stream
		// c's scan ended in, so the output is bit-identical to the
		// planned backend's.
		out, err := evaluate(res.Leaf, left, false)
		if err != nil {
			return Result{}, err
		}
		out.Scanned = res.Scanned
		fr.FailedOver = c.Name()
		e.opts.Counters.Inc("scan.failover")
		return out, nil
	}
	if primaryErr == nil {
		primaryErr = fmt.Errorf("federate: breaker open for %s and no failover candidate serves %s", f.Backend, f.Table)
	}
	return Result{}, primaryErr
}

// scanRetrying runs the fragment on one backend under the retry
// policy: transient failures back off (through the injectable clock)
// and retry up to the budget; permanent failures and cancellations
// return immediately. Before each attempt the query's deadline is
// checked, and nothing else. The scan outcome — success, or the final
// failure — is recorded on fr as a health verdict exactly once.
func (e *Executor) scanRetrying(ctx, inflight context.Context, b Backend, f Fragment, fr *FragmentRun) (Result, error) {
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		res, err := b.Scan(inflight, f)
		if err == nil {
			fr.served = b.Name()
			return res, nil
		}
		if isCancellation(err) {
			// The query is over, not the backend: no health verdict.
			return Result{}, err
		}
		if !fault.IsTransient(err) || attempt >= e.opts.Retry.MaxRetries {
			fr.failed = append(fr.failed, b.Name())
			return Result{}, err
		}
		fr.Retries++
		e.opts.Counters.Inc("scan.retry")
		e.opts.Clock.Sleep(e.opts.Retry.Backoff(attempt))
	}
}

// failoverCandidates lists every other backend serving f.Table,
// cheapest first (by the same cost model route uses, with open
// breakers pushed to the back), name-ordered on ties so the failover
// sequence is deterministic.
func (e *Executor) failoverCandidates(f Fragment, open openSet) []Backend {
	e.mu.RLock()
	backends := append([]Backend(nil), e.backends...)
	e.mu.RUnlock()

	type cand struct {
		b    Backend
		cost float64
	}
	var cands []cand
	for _, b := range backends {
		if b.Name() == f.Backend {
			continue
		}
		pf, _, ok := e.price(b, open, f.Table, f.Preds, nil)
		if !ok {
			continue
		}
		cands = append(cands, cand{b, pf.Est.Cost})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].cost != cands[j].cost {
			return cands[i].cost < cands[j].cost
		}
		return cands[i].b.Name() < cands[j].b.Name()
	})
	out := make([]Backend, len(cands))
	for i, c := range cands {
		out[i] = c.b
	}
	return out
}

// refragment re-plans fragment f for failover candidate c through the
// same absorb rule the planner applied: nf is what c takes of f's
// operators, left what the federation layer evaluates over c's output.
// Zone pruning and any explicit row slice are re-derived from c's own
// zone maps.
func refragment(c Backend, f Fragment) (nf, left Fragment) {
	nf, left = absorb(c, f)
	pruneFragment(c, &nf, f.SliceStart, f.SliceEnd)
	return nf, left
}

// firstScanError picks the deterministic query error from per-fragment
// scan errors: the lowest-index real failure wins; deadline expiry
// outranks sibling cancellation (which fragment got cancelled is
// scheduling noise, the deadline is the cause); cancellation only
// surfaces when nothing else explains the abort.
func firstScanError(errs []error) error {
	var deadlineErr, cancelErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.DeadlineExceeded) {
			if deadlineErr == nil {
				deadlineErr = err
			}
			continue
		}
		if errors.Is(err, context.Canceled) {
			if cancelErr == nil {
				cancelErr = err
			}
			continue
		}
		return err
	}
	if deadlineErr != nil {
		return deadlineErr
	}
	return cancelErr
}
