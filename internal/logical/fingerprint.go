package logical

import (
	"sort"
	"strings"

	"repro/internal/table"
)

// Fingerprint serializes the canonicalized tree: every field that
// affects execution, with predicate conjunctions sorted (evaluation
// order inside a conjunction cannot change results) and compare items
// sorted. Plans that fingerprint equally execute identically, so the
// NL and SQL compilations of the same question share one physical-plan
// cache slot. Every number, name and literal is written through
// table.AppendKey, which escapes and ends it, so no field can run into
// the next and two trees fingerprint equally only when their fields
// are equal. The encoding avoids fmt and allocates little beyond the
// output string — it runs on every federated execution.
func Fingerprint(n *Node) string {
	var b strings.Builder
	b.Grow(192)
	fingerprintNode(&b, n)
	return b.String()
}

// fpWriter writes fingerprint fields to b through a scratch buffer.
type fpWriter struct {
	b   *strings.Builder
	buf [64]byte
}

func (w *fpWriter) val(v table.Value) { w.b.Write(table.AppendKey(w.buf[:0], v)) }
func (w *fpWriter) num(i int)         { w.val(table.I(int64(i))) }
func (w *fpWriter) str(s string)      { w.val(table.S(s)) }

// strs writes a list of names, then the list's end.
func (w *fpWriter) strs(xs []string) {
	for _, s := range xs {
		w.str(s)
	}
	w.b.WriteByte('\x1d')
}

func fingerprintNode(b *strings.Builder, n *Node) {
	if n == nil {
		b.WriteByte('_')
		return
	}
	w := &fpWriter{b: b}
	w.num(int(n.Op))
	switch n.Op {
	case OpScan, OpInput, OpEmpty:
		w.str(strings.ToLower(n.Table))
		if n.RowEnd > 0 {
			b.WriteByte('@')
			w.num(n.RowStart)
			w.num(n.RowEnd)
		}
		w.strs(n.Cols)
	case OpFilter:
		fingerprintPreds(b, n.Preds)
	case OpProject:
		w.strs(n.Proj)
		w.strs(n.Aliases)
	case OpJoin:
		w.str(strings.ToLower(n.LeftCol))
		w.str(strings.ToLower(n.RightCol))
	case OpAggregate:
		w.strs(n.GroupBy)
		fingerprintAggs(w, n.Aggs)
	case OpSort:
		for _, k := range n.Keys {
			w.str(k.Col)
			if k.Desc {
				b.WriteByte('-')
			}
		}
		b.WriteByte('\x1d')
	case OpLimit:
		w.num(n.N)
	case OpCompare:
		w.str(strings.ToLower(n.CompareCol))
		w.strs(sortedItems(n.Items))
		fingerprintPreds(b, n.Preds)
		fingerprintAggs(w, n.Aggs)
	}
	for _, in := range n.In {
		fingerprintNode(b, in)
	}
	b.WriteByte('\x1c')
}

// fingerprintPreds encodes a conjunction order-insensitively: the
// predicate keys are sorted before writing, since conjunctive
// evaluation order never changes which rows pass.
func fingerprintPreds(b *strings.Builder, preds []table.Pred) {
	keys := make([]string, len(preds))
	for i, p := range preds {
		keys[i] = predKey(p)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.WriteString(k)
	}
	b.WriteByte('\x1d')
}

func fingerprintAggs(w *fpWriter, aggs []table.Agg) {
	for _, a := range aggs {
		w.num(int(a.Func))
		w.str(strings.ToLower(a.Col))
		w.str(a.As)
	}
	w.b.WriteByte('\x1d')
}
