// Package logical is the shared logical-plan IR of the unified query
// system. Both entry languages compile into it — natural-language
// questions through semop.Compile (parse → bind → compile) and SQL
// text through sql.Compile (parse → resolve → compile) — and every
// executor consumes it: the row interpreter (Run/Exec), the
// vectorized columnar executor (RunVec/ExecVec), the federated
// physical planner (internal/federate lowers an optimized tree into
// backend fragments), and the text→SQL renderer (semop's ToSQL reuses
// the comparison rewrite). The rule-based optimizer (Optimize) runs
// the same passes over every entry path, so predicate re-typing,
// pushdown, projection pruning, join-input reordering and the
// compare-to-grouped-filter rewrite cannot drift between the NL and
// SQL pipelines.
//
// The two executors are interchangeable: RunVec evaluates typed
// kernels over the catalog's cached 256-row columnar fragments
// (filters to selection vectors, sorts and top-ks over typed key cells
// read in place, morsel-parallel via internal/par) and is
// bit-identical to Run — same schema, row order, cell values and
// errors, at any worker count. Both read a leaf through one contract
// (VecLeaf) and run the same hash join (table.HashJoin) and group-by
// accumulator (table.AggAcc), one over rows and the other over batches.
// Single-catalog entries (ExecVec: sql.Exec, semop.Exec) run vectorized;
// the row interpreter's one production caller is the federated
// residual over small inputs.
package logical

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/table"
)

// Op identifies a plan node's operator.
type Op int

// Plan operators. The tree is left-deep: In[0] is the driving input of
// every non-leaf node; Join's In[1] is the joined side.
const (
	OpScan      Op = iota // leaf: base-table scan (Cols prunes columns)
	OpInput               // leaf: materialized input (federated fragment output)
	OpFilter              // conjunctive predicate filter
	OpProject             // column projection with optional output renames
	OpJoin                // inner hash equi-join on LeftCol = RightCol
	OpAggregate           // group-by aggregation
	OpSort                // stable multi-key sort
	OpLimit               // first-N rows
	OpDistinct            // duplicate-row elimination, first occurrence kept
	OpCompare             // per-item grouped filter union (NL comparison intent)
	// OpEmpty is a constant-empty leaf: the emptyfold pass proves a
	// filtered scan selects no rows and replaces the subtree with this
	// node, which executes as the table's schema with zero rows. New
	// operators append here — the fingerprint encodes Op ordinals, so
	// renumbering would silently split the plan cache.
	OpEmpty
)

// String names the operator.
func (o Op) String() string {
	switch o {
	case OpScan:
		return "Scan"
	case OpInput:
		return "Input"
	case OpFilter:
		return "Filter"
	case OpProject:
		return "Project"
	case OpJoin:
		return "Join"
	case OpAggregate:
		return "Aggregate"
	case OpSort:
		return "Sort"
	case OpLimit:
		return "Limit"
	case OpDistinct:
		return "Distinct"
	case OpCompare:
		return "Compare"
	case OpEmpty:
		return "Empty"
	default:
		return "?"
	}
}

// Sentinel errors.
var (
	// ErrEmptyPlan is returned when executing a nil tree.
	ErrEmptyPlan = errors.New("logical: empty plan")
	// ErrEmptyCompare is returned when a Compare node has no items.
	ErrEmptyCompare = errors.New("logical: comparison with no items")
)

// Node is one operator of a logical plan tree. Only the fields of the
// node's Op are meaningful; everything else is zero.
type Node struct {
	Op Op
	In []*Node // inputs: none for Scan/Input, one for unary ops, two for Join

	// Scan / Input
	Table string   // base table (Scan) or display name (Input)
	Index int      // fragment index (Input)
	Cols  []string // Scan: pruned column set in schema order (nil = all)
	// Scan row range [RowStart, RowEnd): the physical-row slice the
	// scan reads (the SQL dialect's ROWS a TO b clause — how the
	// federated SQL backend expresses fragment-ranged scans as text).
	// RowEnd == 0 means the whole table.
	RowStart, RowEnd int

	// Filter, and the common predicates of Compare
	Preds []table.Pred

	// Project
	Proj    []string // projected columns, output order
	Aliases []string // optional output renames, parallel to Proj ("" keeps)

	// Join
	LeftCol, RightCol string

	// Aggregate, and the per-branch aggregates of Compare
	GroupBy []string
	Aggs    []table.Agg

	// Sort
	Keys []table.SortKey

	// Limit
	N int

	// Compare
	CompareCol string
	Items      []string
}

// Child returns the node's driving input, nil for leaves.
func (n *Node) Child() *Node {
	if len(n.In) == 0 {
		return nil
	}
	return n.In[0]
}

// Clone deep-copies the tree. Optimizer passes mutate in place, so
// callers that keep the original must clone first.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := *n
	c.In = make([]*Node, len(n.In))
	for i, in := range n.In {
		c.In[i] = in.Clone()
	}
	c.Cols = append([]string(nil), n.Cols...)
	c.Preds = append([]table.Pred(nil), n.Preds...)
	c.Proj = append([]string(nil), n.Proj...)
	c.Aliases = append([]string(nil), n.Aliases...)
	c.GroupBy = append([]string(nil), n.GroupBy...)
	c.Aggs = append([]table.Agg(nil), n.Aggs...)
	c.Keys = append([]table.SortKey(nil), n.Keys...)
	c.Items = append([]string(nil), n.Items...)
	return &c
}

// String renders the tree as a readable operator pipeline — the
// "logical:" line of EXPLAIN. The driving chain renders left to right;
// a join's right side renders inline inside the Join operator.
func (n *Node) String() string {
	if n == nil {
		return "<empty>"
	}
	var b strings.Builder
	n.render(&b)
	return b.String()
}

func (n *Node) render(b *strings.Builder) {
	if c := n.Child(); c != nil {
		c.render(b)
		b.WriteString(" -> ")
	}
	switch n.Op {
	case OpScan:
		if len(n.Cols) > 0 {
			fmt.Fprintf(b, "Scan(%s[%s]", n.Table, strings.Join(n.Cols, ","))
		} else {
			fmt.Fprintf(b, "Scan(%s", n.Table)
		}
		if n.RowEnd > 0 {
			fmt.Fprintf(b, " rows[%d:%d]", n.RowStart, n.RowEnd)
		}
		b.WriteByte(')')
	case OpInput:
		fmt.Fprintf(b, "Input[%d](%s)", n.Index, n.Table)
	case OpEmpty:
		fmt.Fprintf(b, "Empty(%s)", n.Table)
	case OpFilter:
		fmt.Fprintf(b, "Filter(%s)", predList(n.Preds, " AND "))
	case OpProject:
		fmt.Fprintf(b, "Project(%s)", strings.Join(n.Proj, ","))
	case OpJoin:
		fmt.Fprintf(b, "Join(%s on %s=%s)", n.In[1].String(), n.LeftCol, n.RightCol)
	case OpAggregate:
		fmt.Fprintf(b, "Aggregate(group=%v, %s)", n.GroupBy, aggList(n.Aggs))
	case OpSort:
		parts := make([]string, len(n.Keys))
		for i, k := range n.Keys {
			parts[i] = k.Col
			if k.Desc {
				parts[i] += " desc"
			}
		}
		fmt.Fprintf(b, "Sort(%s)", strings.Join(parts, ","))
	case OpLimit:
		fmt.Fprintf(b, "Limit(%d)", n.N)
	case OpDistinct:
		b.WriteString("Distinct")
	case OpCompare:
		fmt.Fprintf(b, "Compare(%s in [%s]", n.CompareCol, strings.Join(sortedItems(n.Items), ","))
		if len(n.Preds) > 0 {
			fmt.Fprintf(b, " filter=[%s]", predList(n.Preds, " AND "))
		}
		fmt.Fprintf(b, " -> group=[%s] %s)", n.CompareCol, aggList(n.Aggs))
	default:
		b.WriteString(n.Op.String())
	}
}

func predList(preds []table.Pred, sep string) string {
	parts := make([]string, len(preds))
	for i, p := range preds {
		parts[i] = p.String()
	}
	return strings.Join(parts, sep)
}

func aggList(aggs []table.Agg) string {
	parts := make([]string, len(aggs))
	for i, a := range aggs {
		parts[i] = fmt.Sprintf("%s(%s)", a.Func, a.Col)
	}
	return strings.Join(parts, ",")
}

func sortedItems(items []string) []string {
	out := append([]string(nil), items...)
	sort.Strings(out)
	return out
}

// CompareBranch is one arm of the compare-to-grouped-filter rewrite: a
// filtered grouped aggregate over one compared item.
type CompareBranch struct {
	Item    string
	Preds   []table.Pred // common predicates plus the per-item match
	GroupBy []string
}

// CompareBranches materializes the compare-to-grouped-filter rewrite
// for a Compare node: one branch per item in sorted order, each
// carrying the node's common predicates plus a case-insensitive match
// on the compare column. The executor, the federated planner and
// semop's text→SQL renderer all consume this single function, so the
// three lowerings of a comparison cannot drift.
func CompareBranches(n *Node) []CompareBranch {
	items := sortedItems(n.Items)
	out := make([]CompareBranch, 0, len(items))
	for _, item := range items {
		preds := append(append([]table.Pred(nil), n.Preds...),
			table.Pred{Col: n.CompareCol, Op: table.OpContains, Val: table.S(item)})
		out = append(out, CompareBranch{
			Item:    item,
			Preds:   preds,
			GroupBy: []string{n.CompareCol},
		})
	}
	return out
}
