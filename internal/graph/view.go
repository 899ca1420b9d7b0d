package graph

import (
	"slices"
	"sort"
	"strings"
)

// View is an immutable index-space snapshot of a Graph: node i is the
// i-th id in sorted order, and both adjacencies are CSR arrays of node
// indices in the graph's own list order. PageRank and Expand run over
// it without hashing a string.
//
// Edge weights are not copied: they are read through the vertex, whose
// half-edge lists only ever grow at the end. A view taken before a
// mutation therefore stays valid and blind to it — nodes and edges
// added afterwards do not exist for the view — until the caller takes a
// new one. A view is rebuilt, not patched, because PageRank's
// sequential sums need the nodes in sorted-id order; the next view
// takes that order from the previous one (Graph.View).
type View struct {
	verts  []*vertex
	ntypes []NodeType // the graph's node-type table, as far as verts use it
	outOff []int32    // out-edges of i: verts[i].out[:outOff[i+1]-outOff[i]]
	dst    []int32    // target index per out-edge
	typ    []uint8    // edgeCode per out-edge: the half-edge's code if declared, else 0
	inOff  []int32    // in-edges of i: verts[i].in[:inOff[i+1]-inOff[i]]
	src    []int32    // source index per in-edge
}

// View builds the index-space snapshot of the graph's current state
// from prev, an earlier view of g, or from nothing when prev is nil.
// Vertices are numbered in insertion order and never removed, so prev
// holds exactly the first prev.Len() of them, already in id order: only
// the vertices added since are sorted, and each is put into prev's
// order by a binary search. The adjacency arrays are built over every
// vertex either way, since old vertices may have gained edges. The
// result is array for array the view a nil prev gives, and prev stays
// valid and unchanged.
func (g *Graph) View(prev *View) *View {
	var old []*vertex
	if prev != nil {
		old = prev.verts
		if len(old) > len(g.verts) || len(old) > 0 && g.verts[old[0].num] != old[0] {
			panic("graph: View from a view of another graph")
		}
	}
	added := slices.Clone(g.verts[len(old):])
	slices.SortFunc(added, func(a, b *vertex) int { return strings.Compare(a.id, b.id) })
	n := len(g.verts)
	v := &View{
		verts:  make([]*vertex, 0, n),
		ntypes: g.ntypes,
		outOff: make([]int32, n+1),
		inOff:  make([]int32, n+1),
	}
	for _, vx := range added {
		j, _ := slices.BinarySearchFunc(old, vx.id, func(o *vertex, id string) int { return strings.Compare(o.id, id) })
		v.verts = append(append(v.verts, old[:j]...), vx)
		old = old[j:]
	}
	v.verts = append(v.verts, old...)
	rank := make([]int32, n) // view index by vertex number
	for i, vx := range v.verts {
		rank[vx.num] = int32(i)
		v.outOff[i+1] = v.outOff[i] + int32(len(vx.out))
		v.inOff[i+1] = v.inOff[i] + int32(len(vx.in))
	}
	v.dst = make([]int32, v.outOff[n])
	v.typ = make([]uint8, v.outOff[n])
	v.src = make([]int32, v.inOff[n])
	for i, vx := range v.verts {
		dst, typ := v.dst[v.outOff[i]:v.outOff[i+1]], v.typ[v.outOff[i]:v.outOff[i+1]]
		for j, h := range vx.out[:len(dst)] {
			dst[j] = rank[h.nb]
			if h.typ < edgeCodes {
				typ[j] = h.typ
			}
		}
		src := v.src[v.inOff[i]:v.inOff[i+1]]
		for j, h := range vx.in[:len(src)] {
			src[j] = rank[h.nb]
		}
	}
	return v
}

// Len returns the number of nodes in the view.
func (v *View) Len() int { return len(v.verts) }

// ID returns the id of the node at index i. ID, Type and Text are what
// retrieval reads of a node; Graph.Node assembles a whole one.
func (v *View) ID(i int) string { return v.verts[i].id }

// Type returns the type of the node at index i.
func (v *View) Type(i int) NodeType { return v.ntypes[v.verts[i].typ] }

// Text returns the text of the node at index i: a chunk's or a row's.
func (v *View) Text(i int) string { return v.verts[i].text }

// Index returns the view index of the node with the given id, or false
// if the view has no such node.
func (v *View) Index(id string) (int, bool) {
	i := sort.Search(len(v.verts), func(i int) bool { return v.verts[i].id >= id })
	return i, i < len(v.verts) && v.verts[i].id == id
}
