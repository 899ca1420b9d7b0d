package graph

import "sort"

// View is an immutable index-space snapshot of a Graph: node i is the
// i-th id in sorted order, and both adjacencies are CSR arrays of node
// indices in the graph's own list order. PageRank and Expand run over
// it without hashing a string.
//
// Edge weights are not copied: they are read through the vertex, whose
// adjacency lists only ever grow at the end. A view taken before a
// mutation therefore stays valid and blind to it — nodes and edges
// added afterwards do not exist for the view — until the caller takes a
// new one. A view is rebuilt, not patched, because PageRank's
// sequential sums need the nodes in sorted-id order.
type View struct {
	verts  []*vertex
	outOff []int32 // out-edges of i: verts[i].out[:outOff[i+1]-outOff[i]]
	dst    []int32 // target index per out-edge
	typ    []uint8 // edgeCode per out-edge
	inOff  []int32 // in-edges of i: verts[i].in[:inOff[i+1]-inOff[i]]
	src    []int32 // source index per in-edge
}

// edgeCodes is the number of edge-type codes: one per edge type this
// package declares, and code 0 for any other type.
const edgeCodes = 7

func edgeCode(t EdgeType) uint8 {
	switch t {
	case EdgeMentions:
		return 1
	case EdgeRelates:
		return 2
	case EdgeCueArg:
		return 3
	case EdgeCueIn:
		return 4
	case EdgeNextTo:
		return 5
	case EdgePartOf:
		return 6
	}
	return 0
}

// View builds the index-space snapshot of the graph's current state.
func (g *Graph) View() *View {
	ids := g.NodeIDs()
	n := len(ids)
	v := &View{
		verts:  make([]*vertex, n),
		outOff: make([]int32, n+1),
		inOff:  make([]int32, n+1),
	}
	idx := make(map[string]int32, n)
	for i, id := range ids {
		vx := g.vs[id]
		v.verts[i] = vx
		idx[id] = int32(i)
		v.outOff[i+1] = v.outOff[i] + int32(len(vx.out))
		v.inOff[i+1] = v.inOff[i] + int32(len(vx.in))
	}
	v.dst = make([]int32, v.outOff[n])
	v.typ = make([]uint8, v.outOff[n])
	v.src = make([]int32, v.inOff[n])
	for i, vx := range v.verts {
		dst, typ := v.dst[v.outOff[i]:v.outOff[i+1]], v.typ[v.outOff[i]:v.outOff[i+1]]
		for j := range dst {
			e := &vx.out[j]
			dst[j] = idx[e.To]
			typ[j] = edgeCode(e.Type)
		}
		src := v.src[v.inOff[i]:v.inOff[i+1]]
		for j := range src {
			src[j] = idx[vx.in[j].From]
		}
	}
	return v
}

// Len returns the number of nodes in the view.
func (v *View) Len() int { return len(v.verts) }

// Node returns the node at index i.
func (v *View) Node(i int) *Node { return v.verts[i].node }

// Index returns the view index of the node with the given id, or false
// if the view has no such node.
func (v *View) Index(id string) (int, bool) {
	i := sort.Search(len(v.verts), func(i int) bool { return v.verts[i].node.ID >= id })
	return i, i < len(v.verts) && v.verts[i].node.ID == id
}
