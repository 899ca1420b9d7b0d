package graph

import (
	"slices"
	"sort"
	"strconv"
	"strings"
)

// View is an immutable index-space snapshot of a Graph: node i is the
// i-th id in sorted order, and both adjacencies are CSR arrays of node
// indices in the graph's own list order. PageRank and Expand run over it
// without hashing a string.
//
// Edge weights are not copied: they are read through the listed
// vertex, whose lists only ever grow at the end, and whose halves that
// name a range's row are renamed in place, weight kept, when the range
// is expanded; a range's row has only weight-1 mentions. A view taken
// before a mutation therefore stays
// valid and blind to it — nodes and edges added afterwards do not exist
// for the view — until the caller takes a new one. A view is rebuilt,
// not patched, because PageRank's sequential sums need the nodes in
// sorted-id order; the next view takes the listed vertices' order from
// the previous one (Graph.View).
type View struct {
	verts  []*vertex   // the graph's listed vertices, by number
	ranges []viewRange // the graph's ranges, by range number
	ntypes []NodeType  // the graph's node-type table, as far as verts use it
	// at is each node: a listed vertex's number, or ^j for the j-th row
	// of all ranges numbered end to end.
	at     []int32
	outOff []int32 // out-edges of i: dst[outOff[i]:outOff[i+1]]
	dst    []int32 // target index per out-edge
	typ    []uint8 // edgeCode per out-edge: the half-edge's code if declared, else 0
	inOff  []int32 // in-edges of i: src[inOff[i]:inOff[i+1]]
	src    []int32 // source index per in-edge
}

// viewRange is a range as a view sees it: its rows are numbered from
// first among all ranges' rows. An expanded range has no rows, and its
// first is the next range's.
type viewRange struct {
	prefix string
	text   []string
	first  int32
}

// View builds the index-space snapshot of the graph's current state
// from prev, an earlier view of g, or from nothing when prev is nil.
// Vertices are numbered in insertion order and never removed, so prev
// holds exactly the first len(prev.verts) of them, already in id order:
// only the vertices added since are sorted, and each is put into prev's
// order by a binary search. A range's rows come in id order as they are
// (appendDecimalOrder) and are merged in. The adjacency arrays are built over
// every node either way, since old ones may have gained edges. The
// result is array for array the view a nil prev gives, and prev stays
// valid and unchanged.
func (g *Graph) View(prev *View) *View {
	var old []int32
	if prev != nil {
		if len(prev.verts) > len(g.verts) || len(prev.verts) > 0 && g.verts[0] != prev.verts[0] {
			panic("graph: View from a view of another graph")
		}
		old = make([]int32, 0, len(prev.verts))
		for _, x := range prev.at {
			if x >= 0 {
				old = append(old, x)
			}
		}
	}
	v := &View{verts: g.verts, ntypes: g.ntypes, ranges: make([]viewRange, len(g.ranges))}
	added := make([]int32, 0, len(g.verts)-len(old))
	for num := len(old); num < len(g.verts); num++ {
		added = append(added, int32(num))
	}
	slices.SortFunc(added, func(a, b int32) int { return strings.Compare(g.verts[a].id, g.verts[b].id) })
	listed := make([]int32, 0, len(g.verts))
	for _, num := range added {
		j, _ := slices.BinarySearchFunc(old, g.verts[num].id, func(o int32, id string) int { return strings.Compare(g.verts[o].id, id) })
		listed = append(append(listed, old[:j]...), num)
		old = old[j:]
	}
	listed = append(listed, old...)

	sources := make([][]int32, 1, 1+len(g.ranges))
	sources[0] = listed
	rows := int32(0)
	for _, rg := range g.ranges {
		if rg != nil {
			rows += int32(len(rg.text))
		}
	}
	orders := make([]int32, 0, rows) // each range's rows in id order
	rows = 0
	for r, rg := range g.ranges {
		v.ranges[r].first = rows
		if rg == nil {
			continue
		}
		v.ranges[r] = viewRange{prefix: rg.prefix, text: rg.text[:len(rg.text):len(rg.text)], first: rows}
		order := appendDecimalOrder(orders, len(rg.text))[len(orders):]
		for i, k := range order {
			order[i] = ^(rows + k)
		}
		orders = orders[:len(orders)+len(order)]
		sources = append(sources, order)
		rows += int32(len(rg.text))
	}
	v.at = mergeByID(sources, v.key)

	n := len(v.at)
	rank := make([]int32, len(g.verts)) // view index by vertex number
	rowRank := make([]int32, rows)      // view index by row
	for i, x := range v.at {
		if x >= 0 {
			rank[x] = int32(i)
		} else {
			rowRank[^x] = int32(i)
		}
	}
	// rankOf is the view index of the node at the other end of h.
	rankOf := func(h half) int32 {
		if h.rng == 0 {
			return rank[h.nb]
		}
		return rowRank[v.ranges[h.rng-1].first+h.nb]
	}
	v.outOff = make([]int32, n+1)
	v.inOff = make([]int32, n+1)
	for i, x := range v.at {
		out, in := 0, 0
		if x >= 0 {
			out, in = len(g.verts[x].out), len(g.verts[x].in)
		} else {
			r, k := v.row(x)
			out = len(g.ranges[r].mentions(k))
			in = out
		}
		v.outOff[i+1] = v.outOff[i] + int32(out)
		v.inOff[i+1] = v.inOff[i] + int32(in)
	}
	v.dst = make([]int32, v.outOff[n])
	v.typ = make([]uint8, v.outOff[n])
	v.src = make([]int32, v.inOff[n])
	for i, x := range v.at {
		dst, typ := v.dst[v.outOff[i]:v.outOff[i+1]], v.typ[v.outOff[i]:v.outOff[i+1]]
		src := v.src[v.inOff[i]:v.inOff[i+1]]
		if x < 0 {
			r, k := v.row(x)
			for j, m := range g.ranges[r].mentions(k) {
				dst[j], typ[j], src[j] = rank[m], mentionsCode, rank[m]
			}
			continue
		}
		vx := g.verts[x]
		for j, h := range vx.out[:len(dst)] {
			dst[j] = rankOf(h)
			if h.typ < edgeCodes {
				typ[j] = h.typ
			}
		}
		for j, h := range vx.in[:len(src)] {
			src[j] = rankOf(h)
		}
	}
	return v
}

// row returns the range and the row number of the row a view's node
// stands for, given its entry in at: the last range whose rows start at
// or before it, which is never an expanded one.
func (v *View) row(x int32) (r int, k int) {
	j := ^x
	r = sort.Search(len(v.ranges), func(r int) bool { return v.ranges[r].first > j }) - 1
	return r, int(j - v.ranges[r].first)
}

// key spells the id of the node whose entry in at is x, for comparing.
func (v *View) key(x int32) idKey {
	if x >= 0 {
		return idKey{s: v.verts[x].id}
	}
	r, k := v.row(x)
	return rowKey(v.ranges[r].prefix, k)
}

// lists returns the out and in lists of the listed vertex at index i,
// nil for a range's row, whose mentions all weigh 1. Of each the view
// reads only as many edges as it holds for the node.
func (v *View) lists(i int) (out, in []half) {
	if x := v.at[i]; x >= 0 {
		return v.verts[x].out, v.verts[x].in
	}
	return nil, nil
}

// Len returns the number of nodes in the view.
func (v *View) Len() int { return len(v.at) }

// ID returns the id of the node at index i. ID, Type and Text are what
// retrieval reads of a node; Graph.Node assembles a whole one. A row of
// a range has its id built for the call.
func (v *View) ID(i int) string {
	x := v.at[i]
	if x >= 0 {
		return v.verts[x].id
	}
	r, k := v.row(x)
	return rowIDPrefix + v.ranges[r].prefix + strconv.Itoa(k)
}

// Type returns the type of the node at index i.
func (v *View) Type(i int) NodeType {
	if x := v.at[i]; x >= 0 {
		return v.ntypes[v.verts[x].typ]
	}
	return NodeRow
}

// Text returns the text of the node at index i: a chunk's or a row's.
func (v *View) Text(i int) string {
	x := v.at[i]
	if x >= 0 {
		return v.verts[x].text
	}
	r, k := v.row(x)
	return v.ranges[r].text[k]
}

// Index returns the view index of the node with the given id, or false
// if the view has no such node. It builds no id.
func (v *View) Index(id string) (int, bool) {
	want := idKey{s: id}
	i := sort.Search(len(v.at), func(i int) bool { k := v.key(v.at[i]); return k.compare(&want) >= 0 })
	if i == len(v.at) {
		return i, false
	}
	k := v.key(v.at[i])
	return i, k.compare(&want) == 0
}

// idKey is a node id to compare, spelled without building it: pre and
// s end to end, then for a range's row its number's digits,
// num[len(num)-digits:].
type idKey struct {
	pre, s string
	num    [9]byte
	digits int
}

// rowKey is the key of the id rowIDPrefix+prefix+k.
func rowKey(prefix string, k int) idKey {
	key := idKey{pre: rowIDPrefix, s: prefix}
	for {
		key.digits++
		key.num[len(key.num)-key.digits] = byte('0' + k%10)
		if k /= 10; k == 0 {
			return key
		}
	}
}

func (x *idKey) len() int { return len(x.pre) + len(x.s) + x.digits }

func (x *idKey) at(i int) byte {
	if i < len(x.pre) {
		return x.pre[i]
	}
	if i -= len(x.pre); i < len(x.s) {
		return x.s[i]
	}
	return x.num[len(x.num)-x.digits+i-len(x.s)]
}

// compare orders two keys as the ids they spell.
func (x *idKey) compare(y *idKey) int {
	i := 0
	if x.pre == y.pre {
		n := min(len(x.s), len(y.s))
		// Not strings.Compare: its arguments escape, and with them an id
		// a caller built to look up.
		if a, b := x.s[:n], y.s[:n]; a != b {
			if a < b {
				return -1
			}
			return 1
		}
		i = len(x.pre) + n
	}
	for ; i < x.len() && i < y.len(); i++ {
		if a, b := x.at(i), y.at(i); a != b {
			if a < b {
				return -1
			}
			return 1
		}
	}
	return x.len() - y.len()
}
