package logical

import (
	"fmt"

	"repro/internal/table"
)

// Source resolves a leaf node (Scan or Input) to its rows for Run. The
// single-store executor resolves Scans from a catalog; the federation
// layer resolves Inputs from fragment results. For an Empty leaf the
// source returns any table carrying the folded scan's full schema (its
// rows are never read); Run materialises the leaf from it.
type Source func(leaf *Node) (*table.Table, error)

// emptyLeaf materialises an Empty leaf from the table src resolved it
// to: zero rows under the folded scan's schema (an already-empty table
// is reused as is), narrowed to the leaf's pruned column set. The proof
// that no rows survive already happened at plan time.
func emptyLeaf(leaf *Node, src Source) (*table.Table, error) {
	base, err := src(leaf)
	if err != nil {
		return nil, err
	}
	empty := base
	if base.Len() > 0 {
		empty = table.New(base.Name, base.Schema)
	}
	if len(leaf.Cols) > 0 {
		return table.Project(empty, leaf.Cols...)
	}
	return empty, nil
}

// Run interprets the tree, resolving leaves through src. This is the
// one operator loop of the system: semop.Exec, sql.Exec and the
// federated executor's post-fragment processing all run through it, so
// an operator's semantics cannot diverge between entry paths.
func Run(n *Node, src Source) (*table.Table, error) {
	if n == nil {
		return nil, ErrEmptyPlan
	}
	switch n.Op {
	case OpScan, OpInput:
		return src(n)
	case OpEmpty:
		return emptyLeaf(n, src)
	case OpJoin:
		left, err := Run(n.In[0], src)
		if err != nil {
			return nil, err
		}
		right, err := Run(n.In[1], src)
		if err != nil {
			return nil, err
		}
		return table.HashJoin(left, right, n.LeftCol, n.RightCol)
	}
	in, err := Run(n.Child(), src)
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

// Exec runs the tree against a single catalog: every Scan resolves to
// a catalog table, with the node's row range (the SQL dialect's ROWS
// clause) applied before its pruned column set.
func Exec(n *Node, c *table.Catalog) (*table.Table, error) {
	return Run(n, func(leaf *Node) (*table.Table, error) {
		switch leaf.Op {
		case OpScan:
			t, err := c.Get(leaf.Table)
			if err != nil {
				return nil, err
			}
			if leaf.RowEnd > 0 {
				t = sliceRows(t, leaf.RowStart, leaf.RowEnd)
			}
			if len(leaf.Cols) > 0 {
				return table.Project(t, leaf.Cols...)
			}
			return t, nil
		case OpEmpty:
			return c.Get(leaf.Table) // the folded scan's table supplies the schema
		default:
			return nil, fmt.Errorf("logical: unresolved %v leaf", leaf.Op)
		}
	})
}

// sliceRows views the physical row range [start, end) of a table,
// clamped to its bounds.
func sliceRows(t *table.Table, start, end int) *table.Table {
	if end > t.Len() {
		end = t.Len()
	}
	if start > end {
		start = end
	}
	out := table.New(t.Name, t.Schema)
	out.Rows = t.Rows[start:end]
	return out
}
