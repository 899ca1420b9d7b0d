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
	"maps"
	"sort"
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

// Node is a graph vertex. The fields after Label are its payload, each
// set on the node types that have it and empty on the rest: a chunk has
// Text and Doc, a row Text, an entity EType, a cue Verb, Arg1 and Arg2.
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
)

// vertex packs a node with its adjacency so one map lookup reaches
// both; edge insertion — the hottest build operation — touches exactly
// two vertices instead of six map slots.
type vertex struct {
	node *Node
	out  []Edge // adjacency by source
	in   []Edge // reverse adjacency by target
}

// Graph is an in-memory heterogeneous property graph. It is not safe
// for concurrent mutation; build once, then read from any goroutine.
type Graph struct {
	vs    map[string]*vertex
	edges int
	// Running index statistics, kept by every insertion so that reading
	// them never walks the graph. Nodes are immutable once inserted.
	byType map[NodeType]int
	size   int64
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{vs: make(map[string]*vertex), byType: make(map[NodeType]int)}
}

// insert stores a new vertex for a copy of n, accounts for it and
// returns the copy. Taking n by value keeps the allocation here, off the
// path where EnsureNode finds the node present.
func (g *Graph) insert(n Node) *Node {
	g.vs[n.ID] = &vertex{node: &n}
	g.account(&n)
	return &n
}

// account adds n to the running statistics.
func (g *Graph) account(n *Node) {
	g.byType[n.Type]++
	g.size += int64(len(n.ID) + len(n.Label) + 16)
	for _, p := range n.payload() {
		if *p != "" {
			g.size += int64(len(*p) + 16)
		}
	}
}

// edgeSize is an edge record's share of SizeBytes.
func edgeSize(e Edge) int64 { return int64(len(e.From) + len(e.To) + len(e.Type) + 8) }

// AddNode inserts a node. It returns ErrNodeExists if the id is taken.
func (g *Graph) AddNode(n Node) error {
	if n.ID == "" {
		return fmt.Errorf("graph: empty node id: %w", ErrNodeNotFound)
	}
	if _, ok := g.vs[n.ID]; ok {
		return fmt.Errorf("%w: %s", ErrNodeExists, n.ID)
	}
	g.insert(n)
	return nil
}

// EnsureNode inserts the node if absent and returns the stored node.
// Existing nodes are returned unchanged (first write wins), which is
// the behaviour the index builder needs for entity unification.
func (g *Graph) EnsureNode(n Node) *Node {
	if existing, ok := g.vs[n.ID]; ok {
		return existing.node
	}
	return g.insert(n)
}

// Node returns the node with id, or nil if absent.
func (g *Graph) Node(id string) *Node {
	v, ok := g.vs[id]
	if !ok {
		return nil
	}
	return v.node
}

// HasNode reports whether id is present.
func (g *Graph) HasNode(id string) bool { _, ok := g.vs[id]; return ok }

// AddEdge inserts a directed edge. Both endpoints must exist.
func (g *Graph) AddEdge(e Edge) error {
	from, ok := g.vs[e.From]
	if !ok {
		return fmt.Errorf("%w: %s -> %s", ErrBadEdge, e.From, e.To)
	}
	to, ok := g.vs[e.To]
	if !ok {
		return fmt.Errorf("%w: %s -> %s", ErrBadEdge, e.From, e.To)
	}
	if e.Weight == 0 {
		e.Weight = 1
	}
	from.out = appendEdge(from.out, e)
	to.in = appendEdge(to.in, e)
	g.edges++
	g.size += edgeSize(e)
	return nil
}

// AddUndirected inserts the edge and its reverse twin. It resolves each
// endpoint once, not once per direction — this is the hottest write in
// index construction.
func (g *Graph) AddUndirected(e Edge) error {
	from, ok := g.vs[e.From]
	if !ok {
		return fmt.Errorf("%w: %s -> %s", ErrBadEdge, e.From, e.To)
	}
	to, ok := g.vs[e.To]
	if !ok {
		return fmt.Errorf("%w: %s -> %s", ErrBadEdge, e.From, e.To)
	}
	if e.Weight == 0 {
		e.Weight = 1
	}
	rev := Edge{From: e.To, To: e.From, Type: e.Type, Weight: e.Weight}
	from.out = appendEdge(from.out, e)
	to.in = appendEdge(to.in, e)
	to.out = appendEdge(to.out, rev)
	from.in = appendEdge(from.in, rev)
	g.edges += 2
	g.size += 2 * edgeSize(e)
	return nil
}

// appendEdge grows an adjacency list, seeding fresh lists with room for
// a typical node's degree so the first few inserts do not reallocate.
func appendEdge(es []Edge, e Edge) []Edge {
	if es == nil {
		es = make([]Edge, 0, 4)
	}
	return append(es, e)
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
		ns := make([]Edge, len(v.out), need)
		copy(ns, v.out)
		v.out = ns
	}
	if need := len(v.in) + in; need > cap(v.in) {
		ns := make([]Edge, len(v.in), need)
		copy(ns, v.in)
		v.in = ns
	}
}

// Out returns the outgoing edges of id (shared slice; do not mutate).
func (g *Graph) Out(id string) []Edge {
	v, ok := g.vs[id]
	if !ok {
		return nil
	}
	return v.out
}

// In returns the incoming edges of id (shared slice; do not mutate).
func (g *Graph) In(id string) []Edge {
	v, ok := g.vs[id]
	if !ok {
		return nil
	}
	return v.in
}

// Neighbors returns the distinct node ids reachable over one outgoing
// edge, optionally filtered to the given edge types (nil = all).
func (g *Graph) Neighbors(id string, types ...EdgeType) []string {
	var filter map[EdgeType]bool
	if len(types) > 0 {
		filter = make(map[EdgeType]bool, len(types))
		for _, t := range types {
			filter[t] = true
		}
	}
	seen := make(map[string]bool)
	var out []string
	for _, e := range g.Out(id) {
		if filter != nil && !filter[e.Type] {
			continue
		}
		if !seen[e.To] {
			seen[e.To] = true
			out = append(out, e.To)
		}
	}
	sort.Strings(out)
	return out
}

// Degree returns the out-degree of id.
func (g *Graph) Degree(id string) int { return len(g.Out(id)) }

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
func (g *Graph) NodesOfType(t NodeType) []*Node {
	var out []*Node
	for _, v := range g.vs {
		if v.node.Type == t {
			out = append(out, v.node)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CountByType returns node counts per type, for index statistics.
func (g *Graph) CountByType() map[NodeType]int {
	return maps.Clone(g.byType)
}

// SizeBytes estimates the resident size of the index: node labels and
// payload plus edge records. Used by experiment E1 (index size).
func (g *Graph) SizeBytes() int64 { return g.size }
