package logical

import (
	"fmt"

	"repro/internal/table"
)

// Run interprets the tree a row at a time, resolving leaves through
// leaf — the vectorized executor's contract (VecEnv.Leaf), applied the
// same way (rowLeaf), so RunVec over the same resolver is bit-identical.
// Its one production caller is the federated residual's row branch.
func Run(n *Node, leaf func(*Node) (VecLeaf, error)) (*table.Table, error) {
	if n == nil {
		return nil, ErrEmptyPlan
	}
	switch n.Op {
	case OpScan, OpInput, OpEmpty:
		return rowLeaf(n, leaf)
	case OpJoin:
		left, err := Run(n.In[0], leaf)
		if err != nil {
			return nil, err
		}
		right, err := Run(n.In[1], leaf)
		if err != nil {
			return nil, err
		}
		return table.HashJoin(left, right, n.LeftCol, n.RightCol)
	}
	in, err := Run(n.Child(), leaf)
	if err != nil {
		return nil, err
	}
	switch n.Op {
	case OpFilter:
		return table.Filter(in, n.Preds...)
	case OpProject:
		out, err := table.Project(in, n.Proj...)
		if err != nil {
			return nil, err
		}
		for i, alias := range n.Aliases {
			if alias != "" && i < len(out.Schema) {
				out.Schema[i].Name = alias
			}
		}
		return out, nil
	case OpAggregate:
		return table.Aggregate(in, n.GroupBy, n.Aggs)
	case OpSort:
		return table.Sort(in, n.Keys...)
	case OpLimit:
		return table.Limit(in, n.N), nil
	case OpDistinct:
		return table.Distinct(in), nil
	case OpCompare:
		return runCompare(n, in)
	default:
		return nil, fmt.Errorf("logical: cannot execute %v node", n.Op)
	}
}

// runCompare executes the comparison tail: one filtered grouped
// aggregate per compared item, unioned in sorted item order.
func runCompare(n *Node, in *table.Table) (*table.Table, error) {
	return unionBranches(n, func(br CompareBranch) (*table.Table, error) {
		filtered, err := table.Filter(in, br.Preds...)
		if err != nil {
			return nil, err
		}
		return table.Aggregate(filtered, br.GroupBy, n.Aggs)
	})
}

// unionBranches is both executors' Compare: it evaluates each branch of
// CompareBranches — the rewrite ToSQL renders and the federated planner
// lowers — and appends their rows in branch order.
func unionBranches(n *Node, eval func(CompareBranch) (*table.Table, error)) (*table.Table, error) {
	var out *table.Table
	for _, br := range CompareBranches(n) {
		agged, err := eval(br)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = table.New("comparison", agged.Schema)
		}
		out.Rows = append(out.Rows, agged.Rows...)
	}
	if out == nil {
		return nil, ErrEmptyCompare
	}
	return out, nil
}

// rowLeaf is vecRun.leaf materialized: the leaf's input with its
// selection, its pending projection, the leaf's own column set and ROWS
// range applied as RunVec applies them, and rows copied only when one of
// them is pending.
func rowLeaf(n *Node, leaf func(*Node) (VecLeaf, error)) (*table.Table, error) {
	v := vecRun{env: VecEnv{Leaf: leaf}}
	s, err := v.leaf(n)
	if err != nil {
		return nil, err
	}
	return s.materialize(), nil
}

// Exec runs the tree against a single catalog with the row interpreter,
// resolving leaves as ExecVec does (catalogLeaf). Nothing serves a query
// through it: it stays as the row-executor timing of the benchmark's
// traced runs (bench/traced.go) until the row interpreter goes.
func Exec(n *Node, c *table.Catalog) (*table.Table, error) {
	return Run(n, catalogLeaf(c))
}
