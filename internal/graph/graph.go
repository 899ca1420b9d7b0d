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
	"strconv"
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
// node at the other end by number and the type as a code into the
// graph's type table. An Edge spells both endpoints and the type as
// strings, 56 bytes against these 16, and every edge is stored twice.
//
// The other end is listed vertex nb when rng is 0, and row nb of range
// rng−1 otherwise: a mention of a range's row (rowRange). rng sits in
// what would be padding, so it costs no byte.
type half struct {
	w   float64
	nb  int32
	typ uint8
	rng uint16
}

// maxRanges is the number of ranges a half's rng can name.
const maxRanges = math.MaxUint16

// vertex is a listed node and its adjacency in one record, so that one
// map lookup reaches both and edge insertion touches exactly two
// vertices. It holds the node's strings, not a Node: the type is a code
// into the graph's node-type table; the label shares the id's bytes when
// it is a suffix of the id, as the label of every chunk, entity and doc
// the index builder makes is; and the payload that only chunks, entities
// and cues have is behind more, nil on the rest. A table row is a vertex
// only when no range can hold it (rowRange).
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

// rowRange holds the rows of one table that the index adds in order: row
// k is the node "row:"+prefix+k (k in decimal, without leading zeros),
// of type row, labelled prefix+k, with text text[k] and no other
// payload, and its edges are the weight-1 mentions twins between it and
// each listed vertex of mentions(k), in that order. A vertex it mentions
// holds a half per mention that names the row (half.rng), so the
// vertex's lists keep the order of insertion. The prefix never ends in a
// digit, so an id names at most one row of one range.
//
// A range takes a row only as its next one, and a mention only from its
// last row; any other insertion that touches a row of it first makes
// every row of it a listed vertex (Graph.expand), so the graph accepts
// what it would accept without ranges.
type rowRange struct {
	prefix string
	text   []string
	off    []int32 // mentions of row k: ments[off[k]:off[k+1]]
	ments  []int32 // listed vertex numbers
}

// mentions returns the listed vertices row k mentions, in its adjacency
// order.
func (r *rowRange) mentions(k int) []int32 { return r.ments[r.off[k]:r.off[k+1]] }

// rowIDPrefix starts the id of every row a range holds; the rest of the
// id is its label.
const rowIDPrefix = "row:"

// The codes of NodeRow and EdgeMentions, which every graph's type tables
// give them.
var (
	rowCode      = uint8(slices.Index(declaredNodes[:], NodeRow))
	mentionsCode = edgeCode(EdgeMentions)
)

// splitRow returns the prefix and the row number a range would hold a
// node with this id under: the id is rowIDPrefix, the prefix, and a
// decimal number of at most nine digits without leading zeros.
func splitRow(id string) (prefix string, k int, ok bool) {
	if len(id) <= len(rowIDPrefix) || id[:len(rowIDPrefix)] != rowIDPrefix {
		return "", 0, false
	}
	i := len(id)
	for i > len(rowIDPrefix) && '0' <= id[i-1] && id[i-1] <= '9' {
		i--
	}
	if digits := len(id) - i; digits == 0 || digits > 9 || digits > 1 && id[i] == '0' {
		return "", 0, false
	}
	for _, c := range id[i:] {
		k = 10*k + int(c-'0')
	}
	return id[len(rowIDPrefix):i], k, true
}

// slabSize is the number of vertices allocated at once. A slab is never
// grown, so a vertex never moves: a View's pointers stay good while the
// graph grows.
const slabSize = 1024

// Graph is an in-memory heterogeneous property graph. It is not safe
// for concurrent mutation; build once, then read from any goroutine.
//
// A node is either a listed vertex or a row of a range: the rows of a
// table, which are most of an index's nodes, cost a text, an offset and
// their mentions each instead of a vertex, a map entry, an id and two
// adjacency lists.
type Graph struct {
	vs     map[string]*vertex
	verts  []*vertex   // by vertex number: insertion order
	slab   []vertex    // the next vertices, up to its capacity
	ranges []*rowRange // by range number, nil once expanded
	// byPrefix is the number of each live range, by prefix.
	byPrefix map[string]int32
	rows     int // rows the ranges hold
	// types is the edge type of each half-edge code: declared, then any
	// other type in the order edges first used it. ntypes is the same
	// for vertices, from declaredNodes.
	types  []EdgeType
	ntypes []NodeType
	edges  int
	// Running index statistics, kept by every insertion so that reading
	// them never walks the graph. Nodes are immutable once inserted.
	byType [math.MaxUint8 + 1]int // nodes per node-type code
	size   int64
}

// New returns an empty graph.
func New() *Graph {
	// The type tables have no spare capacity, so the first append copies
	// them and declared and declaredNodes themselves are never written.
	return &Graph{vs: make(map[string]*vertex), types: declared[:], ntypes: declaredNodes[:]}
}

// newVertex returns the next vertex of the slab, numbered next.
func (g *Graph) newVertex() *vertex {
	if len(g.slab) == cap(g.slab) {
		g.slab = make([]vertex, 0, slabSize)
	}
	g.slab = g.slab[:len(g.slab)+1]
	v := &g.slab[len(g.slab)-1]
	v.num = int32(len(g.verts))
	g.verts = append(g.verts, v)
	return v
}

// add stores n in a new vertex, numbered next and accounted for, and
// returns it; the caller puts it into vs. On an error the graph is as it
// was.
func (g *Graph) add(n *Node) (*vertex, error) {
	typ, err := code(&g.ntypes, n.Type, ErrNodeTypes)
	if err != nil {
		return nil, err
	}
	v := g.newVertex()
	v.id, v.label, v.text, v.typ = n.ID, n.Label, n.Text, typ
	if strings.HasSuffix(n.ID, n.Label) {
		v.label = n.ID[len(n.ID)-len(n.Label):]
	}
	if x := (extra{doc: n.Doc, etype: n.EType, verb: n.Verb, arg1: n.Arg1, arg2: n.Arg2}); x != (extra{}) {
		v.more = new(extra) // not &x: x would go to the heap for every vertex
		*v.more = x
	}
	g.account(typ, n)
	return v, nil
}

// account adds a node of type code typ to the running statistics.
func (g *Graph) account(typ uint8, n *Node) {
	g.byType[typ]++
	g.size += int64(len(n.ID) + len(n.Label) + 16)
	for _, p := range n.payload() {
		if *p != "" {
			g.size += int64(len(*p) + 16)
		}
	}
}

// node assembles the Node v stores; types is its graph's ntypes.
func (v *vertex) node(types []NodeType) Node {
	n := Node{ID: v.id, Type: types[v.typ], Label: v.label, Text: v.text}
	if x := v.more; x != nil {
		n.Doc, n.EType, n.Verb, n.Arg1, n.Arg2 = x.doc, x.etype, x.verb, x.arg1, x.arg2
	}
	return n
}

// ref is a node as the graph holds it: a listed vertex v, or, when v is
// nil, row k of range r.
type ref struct {
	v    *vertex
	r, k int32
}

// find returns the node with the given id. A row of a live range is
// found by parsing the id and looking up its prefix, not the id: no
// listed vertex has a range row's id.
func (g *Graph) find(id string) (ref, bool) {
	if prefix, k, ok := splitRow(id); ok {
		if r := g.rangeOf(prefix); r >= 0 && k < len(g.ranges[r].text) {
			return ref{r: r, k: int32(k)}, true
		}
	}
	v, ok := g.vs[id]
	return ref{v: v}, ok
}

// rangeOf returns the number of the live range with the given prefix,
// or -1.
func (g *Graph) rangeOf(prefix string) int32 {
	if r, ok := g.byPrefix[prefix]; ok {
		return r
	}
	return -1
}

// addRange makes rg the graph's next range.
func (g *Graph) addRange(rg *rowRange) {
	if g.byPrefix == nil {
		g.byPrefix = make(map[string]int32)
	}
	g.byPrefix[rg.prefix] = int32(len(g.ranges))
	g.ranges = append(g.ranges, rg)
}

// rowOnly reports whether n is what a range can hold: a row whose id is
// rowIDPrefix and its label, with no payload but text.
func rowOnly(n *Node) bool {
	return n.Type == NodeRow && len(n.ID) == len(rowIDPrefix)+len(n.Label) && n.ID[len(rowIDPrefix):] == n.Label &&
		n.Doc == "" && n.EType == "" && n.Verb == "" && n.Arg1 == "" && n.Arg2 == ""
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
// for entity unification, and costs no allocation. A row the range of
// its prefix can take as its next row goes there, and a first row 0
// starts a range; a node that names a row of a range it cannot join
// first expands that range.
func (g *Graph) EnsureNode(n Node) error {
	if _, ok := g.find(n.ID); ok {
		return nil
	}
	if prefix, k, ok := splitRow(n.ID); ok {
		r := g.rangeOf(prefix)
		switch {
		case r >= 0 && k == len(g.ranges[r].text) && rowOnly(&n):
			g.appendRow(g.ranges[r], &n)
			return nil
		case r >= 0:
			g.expand(r)
		case k == 0 && rowOnly(&n) && len(g.ranges) < maxRanges:
			rg := &rowRange{prefix: prefix, off: []int32{0}}
			g.addRange(rg)
			g.appendRow(rg, &n)
			return nil
		}
	}
	v, err := g.add(&n)
	if err != nil {
		return err
	}
	g.vs[n.ID] = v
	return nil
}

// appendRow makes n the next row of rg.
func (g *Graph) appendRow(rg *rowRange, n *Node) {
	rg.text = append(rg.text, n.Text)
	rg.off = append(rg.off, rg.off[len(rg.off)-1])
	g.rows++
	g.account(rowCode, n)
}

// Node returns the node with id, or nil if absent. The node is
// assembled for the caller, who may keep and change it.
func (g *Graph) Node(id string) *Node {
	at, ok := g.find(id)
	if !ok {
		return nil
	}
	if at.v == nil {
		return &Node{ID: id, Type: NodeRow, Label: id[len(rowIDPrefix):], Text: g.ranges[at.r].text[at.k]}
	}
	n := at.v.node(g.ntypes)
	return &n
}

// HasNode reports whether id is present.
func (g *Graph) HasNode(id string) bool { _, ok := g.find(id); return ok }

// resolve looks up what an insertion of e needs — both endpoints, which
// must exist, and the type's code — and makes the default weight
// explicit. On an error the graph is as it was.
func (g *Graph) resolve(e *Edge) (from, to ref, typ uint8, err error) {
	from, okFrom := g.find(e.From)
	to, okTo := g.find(e.To)
	if !okFrom || !okTo {
		return from, to, 0, fmt.Errorf("%w: %s -> %s", ErrBadEdge, e.From, e.To)
	}
	if typ, err = code(&g.types, e.Type, ErrEdgeTypes); err != nil {
		return from, to, 0, err
	}
	if e.Weight == 0 {
		e.Weight = 1
	}
	return from, to, typ, nil
}

// listed returns the vertices of from and to, first expanding the range
// of whichever is a range's row.
func (g *Graph) listed(e *Edge, from, to ref) (*vertex, *vertex) {
	for _, at := range [2]ref{from, to} {
		if at.v == nil && g.ranges[at.r] != nil {
			g.expand(at.r)
		}
	}
	return g.vs[e.From], g.vs[e.To]
}

// AddEdge inserts a directed edge. Both endpoints must exist.
func (g *Graph) AddEdge(e Edge) error {
	f, t, typ, err := g.resolve(&e)
	if err != nil {
		return err
	}
	from, to := g.listed(&e, f, t)
	from.out = append(from.out, half{w: e.Weight, nb: to.num, typ: typ})
	to.in = append(to.in, half{w: e.Weight, nb: from.num, typ: typ})
	g.edges++
	g.size += edgeSize(e.From, e.To, e.Type)
	return nil
}

// AddUndirected inserts the edge and its reverse twin. It resolves each
// endpoint once, not once per direction — this is the hottest write in
// index construction. A weight-1 mention between the last row of a
// range and a listed vertex goes into the range.
func (g *Graph) AddUndirected(e Edge) error {
	f, t, typ, err := g.resolve(&e)
	if err != nil {
		return err
	}
	g.edges += 2
	g.size += 2 * edgeSize(e.From, e.To, e.Type)
	if row, other := f, t; typ == mentionsCode && e.Weight == 1 && (f.v == nil) != (t.v == nil) {
		if row.v != nil {
			row, other = t, f
		}
		if rg := g.ranges[row.r]; int(row.k) == len(rg.text)-1 {
			rg.ments = append(rg.ments, other.v.num)
			rg.off[len(rg.off)-1]++
			h := half{w: 1, nb: row.k, typ: mentionsCode, rng: uint16(row.r) + 1}
			other.v.out = append(other.v.out, h)
			other.v.in = append(other.v.in, h)
			return nil
		}
	}
	from, to := g.listed(&e, f, t)
	fwd, rev := half{w: e.Weight, nb: to.num, typ: typ}, half{w: e.Weight, nb: from.num, typ: typ}
	from.out = append(from.out, fwd)
	to.in = append(to.in, rev)
	to.out = append(to.out, rev)
	from.in = append(from.in, fwd)
	return nil
}

// expand makes every row of range r a listed vertex, with the same
// adjacency in the same order: the rows' lists from their mentions, and
// each half of a mentioned vertex that names a row of the range renamed
// in place. It is the one way back from a range, taken when an insertion
// touches a row in a way the range cannot spell.
func (g *Graph) expand(r int32) {
	rg := g.ranges[r]
	g.ranges[r] = nil
	delete(g.byPrefix, rg.prefix)
	g.rows -= len(rg.text)
	first := int32(len(g.verts))
	for k, text := range rg.text {
		v := g.newVertex()
		v.id = rowIDPrefix + rg.prefix + strconv.Itoa(k)
		v.label, v.text, v.typ = v.id[len(rowIDPrefix):], text, rowCode
		ms := rg.mentions(k)
		hs := make([]half, 2*len(ms))
		for i, m := range ms {
			hs[i] = half{w: 1, nb: m, typ: mentionsCode}
		}
		copy(hs[len(ms):], hs)
		v.out, v.in = hs[:len(ms):len(ms)], hs[len(ms):]
		g.vs[v.id] = v
	}
	renamed := make([]bool, first)
	for _, m := range rg.ments {
		if renamed[m] {
			continue
		}
		renamed[m] = true
		v := g.verts[m]
		for _, hs := range [2][]half{v.out, v.in} {
			for i := range hs {
				if h := &hs[i]; h.rng == uint16(r)+1 {
					h.nb, h.rng = first+h.nb, 0
				}
			}
		}
	}
}

// idOf returns the id of the node at the other end of h.
func (g *Graph) idOf(h half) string {
	if h.rng == 0 {
		return g.verts[h.nb].id
	}
	return rowIDPrefix + g.ranges[h.rng-1].prefix + strconv.Itoa(int(h.nb))
}

// edgesOf returns the out or in edges of the node at, as Out and In do.
func (g *Graph) edgesOf(id string, at ref, out bool) []Edge {
	var es []Edge
	add := func(other string, typ uint8, w float64) {
		e := Edge{From: id, To: other, Type: g.types[typ], Weight: w}
		if !out {
			e.From, e.To = other, id
		}
		es = append(es, e)
	}
	switch {
	case at.v == nil:
		for _, m := range g.ranges[at.r].mentions(int(at.k)) {
			add(g.verts[m].id, mentionsCode, 1)
		}
	case out:
		for _, h := range at.v.out {
			add(g.idOf(h), h.typ, h.w)
		}
	default:
		for _, h := range at.v.in {
			add(g.idOf(h), h.typ, h.w)
		}
	}
	return es
}

// Reserve grows id's adjacency capacity ahead of a known burst of edge
// insertions, avoiding repeated reallocation for high-degree nodes. It
// is a no-op for unknown ids and for a range's rows.
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
	at, ok := g.find(id)
	if !ok {
		return nil
	}
	return g.edgesOf(id, at, true)
}

// In returns the incoming edges of id in insertion order; like Out's,
// the slice is the caller's own.
func (g *Graph) In(id string) []Edge {
	at, ok := g.find(id)
	if !ok {
		return nil
	}
	return g.edgesOf(id, at, false)
}

// HasEdge reports whether an edge of type t runs from one node to the
// other.
func (g *Graph) HasEdge(from, to string, t EdgeType) bool {
	src, ok := g.find(from)
	dst, ok2 := g.find(to)
	if !ok || !ok2 {
		return false
	}
	switch {
	case src.v != nil && dst.v != nil:
		for _, h := range src.v.out {
			if h.rng == 0 && h.nb == dst.v.num && g.types[h.typ] == t {
				return true
			}
		}
		return false
	case src.v == nil && dst.v == nil:
		return false
	case src.v == nil:
		src, dst = dst, src
	}
	// A range's row and a listed vertex: the mentions twins both ways.
	return t == EdgeMentions && slices.Contains(g.ranges[dst.r].mentions(int(dst.k)), src.v.num)
}

// Neighbors returns the distinct node ids reachable over one outgoing
// edge, optionally filtered to the given edge types (nil = all).
func (g *Graph) Neighbors(id string, types ...EdgeType) []string {
	var out []string
	for _, e := range g.Out(id) {
		if len(types) == 0 || slices.Contains(types, e.Type) {
			out = append(out, e.To)
		}
	}
	sort.Strings(out)
	return slices.Compact(out)
}

// Degree returns the out-degree of id.
func (g *Graph) Degree(id string) int {
	at, ok := g.find(id)
	switch {
	case !ok:
		return 0
	case at.v == nil:
		return len(g.ranges[at.r].mentions(int(at.k)))
	}
	return len(at.v.out)
}

// NodeCount returns the number of nodes.
func (g *Graph) NodeCount() int { return len(g.vs) + g.rows }

// EdgeCount returns the number of directed edges (an undirected edge
// counts twice).
func (g *Graph) EdgeCount() int { return g.edges }

// NodeIDs returns all node ids in sorted order.
func (g *Graph) NodeIDs() []string {
	ids := make([]string, 0, g.NodeCount())
	for id := range g.vs {
		ids = append(ids, id)
	}
	for _, rg := range g.ranges {
		if rg != nil {
			for k := range rg.text {
				ids = append(ids, rowIDPrefix+rg.prefix+strconv.Itoa(k))
			}
		}
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
	if t == NodeRow {
		for _, rg := range g.ranges {
			if rg != nil {
				for k, text := range rg.text {
					id := rowIDPrefix + rg.prefix + strconv.Itoa(k)
					out = append(out, Node{ID: id, Type: NodeRow, Label: id[len(rowIDPrefix):], Text: text})
				}
			}
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
