package federate

import (
	"fmt"
	"strings"

	"repro/internal/logical"
)

// Explain renders the run as a deterministic logical → rules →
// physical report. Every number in it is reproducible for a fixed
// corpus and epoch at any worker count: estimates come from the cost
// model, actuals from deterministic scans, the rule trace from the
// fixed-order optimizer passes, and nothing scheduling-dependent
// (timings, cache hits) is included.
//
//	logical:  Scan(ratings[product,stars]) -> Join(...) -> Aggregate(group=[], AVG(stars))
//	rules:    prune(ratings -> product,stars)
//	stats:    scan[0] ratings est 96 act 96 q=1.00; scan[1] metric_changes est 12 act 12 q=1.00
//	physical:
//	  scan[0]: backend=memory table=ratings push=[] project=[product,stars] est: scan 96/96 out 96; actual: scan 96 out 96
//	  scan[1]: backend=memory table=metric_changes push=[change_pct > 15] project=[product] est: scan 12/48 out 12; actual: scan 12 out 12
//	  join: hash(product = product)
//	  post: Aggregate(group=[] AVG(stars))
//	  result: 1 rows
func Explain(run *Run) string {
	if run == nil || run.Plan == nil {
		return ""
	}
	pp := run.Plan
	var b strings.Builder
	fmt.Fprintf(&b, "logical:  %s\n", pp.Root.String())
	if len(pp.Trace) > 0 {
		fmt.Fprintf(&b, "rules:    %s\n", strings.Join(pp.Trace, "; "))
	} else {
		b.WriteString("rules:    none\n")
	}
	b.WriteString("stats:    ")
	for i, fr := range run.Fragments {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "scan[%d] %s est %d act %d q=%.2f",
			i, fr.Table, fr.Est.Out, fr.ActOut, QError(fr.Est.Out, fr.ActOut))
	}
	b.WriteByte('\n')
	if line := prunedLine(run); line != "" {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	if len(pp.Rollups) > 0 {
		fmt.Fprintf(&b, "rollup:   %s\n", strings.Join(pp.Rollups, "; "))
	}
	if line := resilienceLine(run); line != "" {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	exec := "row"
	if run.Plan.VecResidual {
		exec = "vectorized"
	}
	fmt.Fprintf(&b, "exec:     %s\n", exec)
	b.WriteString("physical:\n")
	for i, fr := range run.Fragments {
		fmt.Fprintf(&b, "  scan[%d]: backend=%s table=%s push=%s",
			i, fr.Backend, fr.Table, predsString(fr.Preds))
		if len(fr.Columns) > 0 {
			fmt.Fprintf(&b, " project=[%s]", strings.Join(fr.Columns, ","))
		}
		if len(fr.Aggs) > 0 {
			fmt.Fprintf(&b, " agg=(%s)", aggsString(fr.GroupBy, fr.Aggs))
		}
		if len(fr.Sort) > 0 {
			fmt.Fprintf(&b, " topk=(%d by %s)", fr.Limit, sortString(fr.Sort))
		}
		fmt.Fprintf(&b, " est: scan %d/%d out %d; actual: scan %d out %d\n",
			fr.Est.Scanned, fr.Est.Total, fr.Est.Out, fr.ActScanned, fr.ActOut)
	}
	if join := findJoin(pp.Residual); join != nil {
		fmt.Fprintf(&b, "  join: hash(%s = %s)", join.LeftCol, join.RightCol)
		if len(pp.JoinRes) > 0 {
			fmt.Fprintf(&b, " residual=%s", predsString(pp.JoinRes))
		}
		b.WriteByte('\n')
	}
	if post := postOps(pp.Residual); len(post) > 0 {
		fmt.Fprintf(&b, "  post: %s\n", strings.Join(post, " -> "))
	}
	fmt.Fprintf(&b, "  result: %d rows", run.RowsOut)
	return b.String()
}

// prunedLine renders the zone-map pruning decisions: per scan, how
// many of the table's fragments the pushed conjunction provably
// refuted. Pruning is decided at plan time from the epoch's zone maps,
// so the line is deterministic at any worker count. Scans routed to
// backends without zone maps are omitted; the line disappears entirely
// when no scan had zone maps to consult.
func prunedLine(run *Run) string {
	var b strings.Builder
	for i, fr := range run.Fragments {
		if fr.ZoneTotal == 0 {
			continue
		}
		if b.Len() == 0 {
			b.WriteString("pruned:   ")
		} else {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "scan[%d] %d/%d fragments", i, fr.ZonePruned, fr.ZoneTotal)
	}
	return b.String()
}

// resilienceLine renders the run's resilience events — per-scan
// retries, breaker skips and failover targets — and returns "" for the
// fault-free run, so every EXPLAIN
// golden recorded before fault injection existed stays byte-identical.
// Under seeded fault injection the counts are a pure function of the
// fault schedule, making the line golden-stable like every other.
func resilienceLine(run *Run) string {
	var b strings.Builder
	item := func() {
		if b.Len() == 0 {
			b.WriteString("resilience: ")
		} else {
			b.WriteString("; ")
		}
	}
	for i, fr := range run.Fragments {
		if fr.Retries == 0 && fr.FailedOver == "" && !fr.BreakerSkip {
			continue
		}
		item()
		fmt.Fprintf(&b, "scan[%d]", i)
		if fr.Retries > 0 {
			fmt.Fprintf(&b, " retries %d", fr.Retries)
		}
		if fr.BreakerSkip {
			b.WriteString(" breaker-skip")
		}
		if fr.FailedOver != "" {
			fmt.Fprintf(&b, " failover %s->%s", fr.Backend, fr.FailedOver)
		}
	}
	return b.String()
}

// QError is the symmetric estimation-accuracy ratio max(e/a, a/e) of
// an estimated vs actual row count, both floored at one row so empty
// fragments compare finitely. 1.0 is a perfect estimate. It is the
// one definition behind EXPLAIN's stats line, the estimate-accuracy
// harness, and the benchguard-gated q_error_max metric.
func QError(est, act int) float64 {
	e, a := float64(max(est, 1)), float64(max(act, 1))
	if e > a {
		return e / a
	}
	return a / e
}

// findJoin locates the join of the residual tree (at most one in the
// plan shapes the compilers emit).
func findJoin(n *logical.Node) *logical.Node {
	if n == nil {
		return nil
	}
	if n.Op == logical.OpJoin {
		return n
	}
	for _, in := range n.In {
		if j := findJoin(in); j != nil {
			return j
		}
	}
	return nil
}

// postOps renders the federation-side operators above the join (or
// above the driving fragment when there is no join), bottom-up along
// the driving chain.
func postOps(n *logical.Node) []string {
	if n == nil || n.Op == logical.OpJoin || n.Op == logical.OpInput {
		return nil
	}
	ops := postOps(n.Child())
	switch n.Op {
	case logical.OpFilter:
		ops = append(ops, "Filter"+predsString(n.Preds))
	case logical.OpCompare:
		if len(n.Preds) > 0 {
			ops = append(ops, "Filter"+predsString(n.Preds))
		}
		items := append([]string(nil), n.Items...)
		ops = append(ops, fmt.Sprintf("Compare(%s in [%s] -> %s)",
			n.CompareCol, strings.Join(items, ","), aggsString([]string{n.CompareCol}, n.Aggs)))
	case logical.OpAggregate:
		ops = append(ops, fmt.Sprintf("Aggregate(%s)", aggsString(n.GroupBy, n.Aggs)))
	case logical.OpSort:
		ops = append(ops, fmt.Sprintf("Sort(%s)", sortString(n.Keys)))
	case logical.OpLimit:
		ops = append(ops, fmt.Sprintf("Limit(%d)", n.N))
	case logical.OpProject:
		ops = append(ops, fmt.Sprintf("Project(%s)", strings.Join(n.Proj, ",")))
	case logical.OpDistinct:
		ops = append(ops, "Distinct")
	}
	return ops
}
