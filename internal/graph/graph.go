// Package graph implements the semantic-aware heterogeneous graph index
// of paper Section III.A: a single topological structure whose nodes
// are text chunks, named entities, relational cues, and structured
// records, and whose typed weighted edges encode relationships such as
// "Patient X received Drug Y on Date Z".
//
// The graph is the system's index: retrieval is sparse, topology-guided
// traversal over it (Section III.B) instead of dense vector search.
package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// NodeType classifies a heterogeneous graph node.
type NodeType string

// Node types in the unified index.
const (
	NodeChunk  NodeType = "chunk"  // raw document segment
	NodeEntity NodeType = "entity" // named entity (canonical)
	NodeCue    NodeType = "cue"    // inferred relational cue
	NodeRow    NodeType = "row"    // structured table row
	NodeDoc    NodeType = "doc"    // source document
)

// EdgeType classifies a relationship between nodes.
type EdgeType string

// Edge types in the unified index.
const (
	EdgeMentions EdgeType = "mentions" // chunk or row <-> entity
	EdgeRelates  EdgeType = "relates"  // entity <-> entity via a cue
	EdgeCueArg   EdgeType = "cue_arg"  // cue -> entity argument
	EdgeCueIn    EdgeType = "cue_in"   // cue -> supporting chunk
	EdgeNextTo   EdgeType = "next"     // chunk -> following chunk
	EdgePartOf   EdgeType = "part_of"  // chunk -> doc
)

// declared is the one table of the edge types above: a type's position
// is its code, in every graph's type table and in a View. Code 0 is the
// empty type; a View also gives it to every type that is not here.
var declared = [...]EdgeType{"", EdgeMentions, EdgeRelates, EdgeCueArg, EdgeCueIn, EdgeNextTo, EdgePartOf}

// edgeCodes is the number of edge-type codes a View tells apart.
const edgeCodes = uint8(len(declared))

// edgeCode returns t's position in declared, 0 for any other type.
func edgeCode(t EdgeType) uint8 {
	for c := uint8(1); c < edgeCodes; c++ {
		if declared[c] == t {
			return c
		}
	}
	return 0
}

// declaredNodes is to node types what declared is to edge types: a
// type's position is its code in every graph's node-type table, and code
// 0 is the empty type.
var declaredNodes = [...]NodeType{"", NodeChunk, NodeEntity, NodeCue, NodeRow, NodeDoc}

// Node is a graph vertex. The fields after Label are its payload, each
// set on the node types that have it and empty on the rest: a chunk has
// Text and Doc, a row Text, an entity EType, a cue Verb, Arg1 and Arg2.
// The graph stores no Node: it keeps a node's strings in its vertex and
// assembles a Node for whoever asks for one.
type Node struct {
	ID    string
	Type  NodeType
	Label string

	Text  string // chunk text, or a row rendered as text
	Doc   string // id of the document a chunk is part of
	EType string // entity type, as the recognizer names it
	Verb  string // a cue's relation
	Arg1  string // a cue's canonical entities, Arg1 < Arg2
	Arg2  string
}

// Edge is a typed, weighted, directed connection. Undirected semantics
// are represented by a reverse twin edge (see AddUndirected).
type Edge struct {
	From   string   `json:"from"`
	To     string   `json:"to"`
	Type   EdgeType `json:"type"`
	Weight float64  `json:"weight"`
}

// Sentinel errors returned by graph operations.
var (
	ErrNodeExists   = errors.New("graph: node already exists")
	ErrNodeNotFound = errors.New("graph: node not found")
	ErrBadEdge      = errors.New("graph: edge endpoint missing")
	// ErrEdgeTypes is returned for an edge whose type would be the 257th
	// distinct one in its graph: a half-edge has one byte for the type.
	ErrEdgeTypes = errors.New("graph: too many distinct edge types")
	// ErrNodeTypes is ErrEdgeTypes for nodes: a vertex has one byte for
	// its type.
	ErrNodeTypes = errors.New("graph: too many distinct node types")
)

// half is one end of an edge as the vertex at that end stores it: the
// vertex at the other end by number and the type as a code into the
// graph's type table. An Edge spells both endpoints and the type as
// strings, 56 bytes against these 16, and every edge is stored twice.
type half struct {
	w   float64
	nb  int32
	typ uint8
}

// vertex is a node and its adjacency in one record, so that one map
// lookup reaches both and edge insertion — the hottest build operation —
// touches exactly two vertices. It holds the node's strings, not a Node:
// the type is a code into the graph's node-type table; the label shares
// the id's bytes when it is a suffix of the id, as the label of every
// row, chunk, entity and doc the index builder makes is; and the payload
// that only chunks, entities and cues have is behind more, nil on the
// rest.
type vertex struct {
	id, label, text string
	more            *extra
	out             []half // adjacency by source: nb is the target
	in              []half // reverse adjacency by target: nb is the source
	num             int32  // position in Graph.verts
	typ             uint8  // position in Graph.ntypes
}

// extra is the payload a row and a doc never have.
type extra struct{ doc, etype, verb, arg1, arg2 string }

// slabSize is the number of vertices allocated at once. A slab is never
// grown, so a vertex never moves: a View's pointers stay good while the
// graph grows.
const slabSize = 1024

// Graph is an in-memory heterogeneous property graph. It is not safe
// for concurrent mutation; build once, then read from any goroutine.
type Graph struct {
	vs    map[string]*vertex
	verts []*vertex // by vertex number: insertion order
	slab  []vertex  // the next vertices, up to its capacity
	// types is the edge type of each half-edge code: declared, then any
	// other type in the order edges first used it. ntypes is the same
	// for vertices, from declaredNodes.
	types  []EdgeType
	ntypes []NodeType
	edges  int
	// Running index statistics, kept by every insertion so that reading
	// them never walks the graph. Nodes are immutable once inserted.
	byType [math.MaxUint8 + 1]int // vertices per node-type code
	size   int64
}

// New returns an empty graph.
func New() *Graph {
	// The type tables have no spare capacity, so the first append copies
	// them and declared and declaredNodes themselves are never written.
	return &Graph{vs: make(map[string]*vertex), types: declared[:], ntypes: declaredNodes[:]}
}

// add stores n in a new vertex, numbered next and accounted for, and
// returns it; the caller puts it into vs. On an error the graph is as it
// was.
func (g *Graph) add(n *Node) (*vertex, error) {
	typ, err := code(&g.ntypes, n.Type, ErrNodeTypes)
	if err != nil {
		return nil, err
	}
	if len(g.slab) == cap(g.slab) {
		g.slab = make([]vertex, 0, slabSize)
	}
	g.slab = g.slab[:len(g.slab)+1]
	v := &g.slab[len(g.slab)-1]
	v.id, v.label, v.text, v.num, v.typ = n.ID, n.Label, n.Text, int32(len(g.verts)), typ
	if strings.HasSuffix(n.ID, n.Label) {
		v.label = n.ID[len(n.ID)-len(n.Label):]
	}
	if x := (extra{doc: n.Doc, etype: n.EType, verb: n.Verb, arg1: n.Arg1, arg2: n.Arg2}); x != (extra{}) {
		v.more = new(extra) // not &x: x would go to the heap for every vertex
		*v.more = x
	}
	g.verts = append(g.verts, v)
	g.byType[typ]++
	g.size += int64(len(n.ID) + len(n.Label) + 16)
	for _, p := range n.payload() {
		if *p != "" {
			g.size += int64(len(*p) + 16)
		}
	}
	return v, nil
}

// node assembles the Node v stores; types is its graph's ntypes.
func (v *vertex) node(types []NodeType) Node {
	n := Node{ID: v.id, Type: types[v.typ], Label: v.label, Text: v.text}
	if x := v.more; x != nil {
		n.Doc, n.EType, n.Verb, n.Arg1, n.Arg2 = x.doc, x.etype, x.verb, x.arg1, x.arg2
	}
	return n
}

// edgeSize is an edge record's share of SizeBytes.
func edgeSize(from, to string, t EdgeType) int64 { return int64(len(from) + len(to) + len(t) + 8) }

// code returns t's position in the type table *types, giving a type the
// table does not hold the next free one; a 257th type is tooMany.
func code[T ~string](types *[]T, t T, tooMany error) (uint8, error) {
	for c, known := range *types {
		if known == t {
			return uint8(c), nil
		}
	}
	if len(*types) > math.MaxUint8 {
		return 0, fmt.Errorf("%w: %q", tooMany, t)
	}
	*types = append(*types, t)
	return uint8(len(*types) - 1), nil
}

// EnsureNode inserts the node if absent. An existing node is left as it
// is (first write wins), which is the behaviour the index builder needs
// for entity unification, and costs no allocation.
func (g *Graph) EnsureNode(n Node) error {
	if _, ok := g.vs[n.ID]; ok {
		return nil
	}
	v, err := g.add(&n)
	if err != nil {
		return err
	}
	g.vs[n.ID] = v
	return nil
}

// Node returns the node with id, or nil if absent. The node is
// assembled for the caller, who may keep and change it.
func (g *Graph) Node(id string) *Node {
	v, ok := g.vs[id]
	if !ok {
		return nil
	}
	n := v.node(g.ntypes)
	return &n
}

// HasNode reports whether id is present.
func (g *Graph) HasNode(id string) bool { _, ok := g.vs[id]; return ok }

// resolve looks up what an insertion of e needs — both endpoints, which
// must exist, and the type's code — and makes the default weight
// explicit. On an error the graph is as it was.
func (g *Graph) resolve(e *Edge) (from, to *vertex, typ uint8, err error) {
	from, to = g.vs[e.From], g.vs[e.To]
	if from == nil || to == nil {
		return nil, nil, 0, fmt.Errorf("%w: %s -> %s", ErrBadEdge, e.From, e.To)
	}
	if typ, err = code(&g.types, e.Type, ErrEdgeTypes); err != nil {
		return nil, nil, 0, err
	}
	if e.Weight == 0 {
		e.Weight = 1
	}
	return from, to, typ, nil
}

// AddEdge inserts a directed edge. Both endpoints must exist.
func (g *Graph) AddEdge(e Edge) error {
	from, to, typ, err := g.resolve(&e)
	if err != nil {
		return err
	}
	from.out = append(from.out, half{w: e.Weight, nb: to.num, typ: typ})
	to.in = append(to.in, half{w: e.Weight, nb: from.num, typ: typ})
	g.edges++
	g.size += edgeSize(e.From, e.To, e.Type)
	return nil
}

// AddUndirected inserts the edge and its reverse twin. It resolves each
// endpoint once, not once per direction — this is the hottest write in
// index construction.
func (g *Graph) AddUndirected(e Edge) error {
	from, to, typ, err := g.resolve(&e)
	if err != nil {
		return err
	}
	fwd, rev := half{w: e.Weight, nb: to.num, typ: typ}, half{w: e.Weight, nb: from.num, typ: typ}
	from.out = append(from.out, fwd)
	to.in = append(to.in, rev)
	to.out = append(to.out, rev)
	from.in = append(from.in, fwd)
	g.edges += 2
	g.size += 2 * edgeSize(e.From, e.To, e.Type)
	return nil
}

// Reserve grows id's adjacency capacity ahead of a known burst of edge
// insertions, avoiding repeated reallocation for high-degree nodes. It
// is a no-op for unknown ids.
func (g *Graph) Reserve(id string, out, in int) {
	v, ok := g.vs[id]
	if !ok {
		return
	}
	if need := len(v.out) + out; need > cap(v.out) {
		ns := make([]half, len(v.out), need)
		copy(ns, v.out)
		v.out = ns
	}
	if need := len(v.in) + in; need > cap(v.in) {
		ns := make([]half, len(v.in), need)
		copy(ns, v.in)
		v.in = ns
	}
}

// Out returns the outgoing edges of id in insertion order. The slice is
// built for the caller, who may keep and change it: the graph stores no
// Edge. Out and In are the graph's read accessor: no production path
// calls them, the reference implementations in this package's,
// retrieval's and index's tests read adjacency order through them.
func (g *Graph) Out(id string) []Edge {
	v, ok := g.vs[id]
	if !ok || len(v.out) == 0 {
		return nil
	}
	es := make([]Edge, len(v.out))
	for i, h := range v.out {
		es[i] = Edge{From: id, To: g.verts[h.nb].id, Type: g.types[h.typ], Weight: h.w}
	}
	return es
}

// In returns the incoming edges of id in insertion order; like Out's,
// the slice is the caller's own.
func (g *Graph) In(id string) []Edge {
	v, ok := g.vs[id]
	if !ok || len(v.in) == 0 {
		return nil
	}
	es := make([]Edge, len(v.in))
	for i, h := range v.in {
		es[i] = Edge{From: g.verts[h.nb].id, To: id, Type: g.types[h.typ], Weight: h.w}
	}
	return es
}

// HasEdge reports whether an edge of type t runs from one node to the
// other.
func (g *Graph) HasEdge(from, to string, t EdgeType) bool {
	src, dst := g.vs[from], g.vs[to]
	if src == nil || dst == nil {
		return false
	}
	for _, h := range src.out {
		if h.nb == dst.num && g.types[h.typ] == t {
			return true
		}
	}
	return false
}

// Neighbors returns the distinct node ids reachable over one outgoing
// edge, optionally filtered to the given edge types (nil = all).
func (g *Graph) Neighbors(id string, types ...EdgeType) []string {
	v, ok := g.vs[id]
	if !ok {
		return nil
	}
	var out []string
	for _, h := range v.out {
		if len(types) == 0 || slices.Contains(types, g.types[h.typ]) {
			out = append(out, g.verts[h.nb].id)
		}
	}
	sort.Strings(out)
	return slices.Compact(out)
}

// Degree returns the out-degree of id.
func (g *Graph) Degree(id string) int {
	v, ok := g.vs[id]
	if !ok {
		return 0
	}
	return len(v.out)
}

// NodeCount returns the number of nodes.
func (g *Graph) NodeCount() int { return len(g.vs) }

// EdgeCount returns the number of directed edges (an undirected edge
// counts twice).
func (g *Graph) EdgeCount() int { return g.edges }

// NodeIDs returns all node ids in sorted order.
func (g *Graph) NodeIDs() []string {
	ids := make([]string, 0, len(g.vs))
	for id := range g.vs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// NodesOfType returns all nodes of the given type, sorted by id.
func (g *Graph) NodesOfType(t NodeType) []Node {
	c := slices.Index(g.ntypes, t)
	if c < 0 {
		return nil
	}
	out := make([]Node, 0, g.byType[c])
	for _, v := range g.verts {
		if v.typ == uint8(c) {
			out = append(out, v.node(g.ntypes))
		}
	}
	slices.SortFunc(out, func(a, b Node) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// CountByType returns node counts per type, for index statistics.
func (g *Graph) CountByType() map[NodeType]int {
	out := make(map[NodeType]int)
	for c, t := range g.ntypes {
		if g.byType[c] > 0 {
			out[t] = g.byType[c]
		}
	}
	return out
}

// SizeBytes is the logical size of the index, the figure experiment E1
// reports: the bytes of each node's id, label and payload strings plus
// 16 per node and per payload field, and of each edge's endpoint ids and
// type plus 8 for the weight. It says how much the index holds, not how
// many bytes of heap hold it.
func (g *Graph) SizeBytes() int64 { return g.size }
