package graph

// The encoding/json codec serialize.go replaced, kept as the oracle the
// hand-written one is tested against. Nothing outside the tests calls it.

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"sort"
)

// refSerialized is the on-disk form of a graph.
type refSerialized struct {
	Nodes []refNode `json:"nodes"`
	Edges []Edge    `json:"edges"`
}

// refNode is the on-disk form of a node: its payload is an open object,
// of which a Node keeps six keys.
type refNode struct {
	ID      string            `json:"id"`
	Type    NodeType          `json:"type"`
	Label   string            `json:"label"`
	Payload map[string]string `json:"attrs,omitempty"`
}

func refNodeOf(n *Node) refNode {
	r := refNode{ID: n.ID, Type: n.Type, Label: n.Label, Payload: map[string]string{
		"text": n.Text, "doc": n.Doc, "etype": n.EType, "verb": n.Verb, "arg1": n.Arg1, "arg2": n.Arg2}}
	maps.DeleteFunc(r.Payload, func(_, v string) bool { return v == "" })
	return r
}

func (r refNode) node() Node {
	p := r.Payload
	return Node{ID: r.ID, Type: r.Type, Label: r.Label,
		Text: p["text"], Doc: p["doc"], EType: p["etype"], Verb: p["verb"], Arg1: p["arg1"], Arg2: p["arg2"]}
}

// refWriteJSON is WriteJSON through encoding/json: nodes by id, edges by
// (from, to, type), ties in adjacency order.
func refWriteJSON(g *Graph, w io.Writer) error {
	s := refSerialized{Nodes: make([]refNode, 0, len(g.vs))}
	for _, id := range g.NodeIDs() {
		s.Nodes = append(s.Nodes, refNodeOf(g.Node(id)))
	}
	for _, id := range g.NodeIDs() {
		s.Edges = append(s.Edges, g.Out(id)...)
	}
	sort.SliceStable(s.Edges, func(i, j int) bool {
		a, b := s.Edges[i], s.Edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Type < b.Type
	})
	return json.NewEncoder(w).Encode(s)
}

// refReadJSON is ReadJSON through encoding/json and one checked insert
// per record.
func refReadJSON(r io.Reader) (*Graph, error) {
	var s refSerialized
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("graph: decode: %w", err)
	}
	g := New()
	for _, n := range s.Nodes {
		if n.ID == "" {
			return nil, fmt.Errorf("graph: empty node id: %w", ErrNodeNotFound)
		}
		if g.HasNode(n.ID) {
			return nil, fmt.Errorf("%w: %s", ErrNodeExists, n.ID)
		}
		if err := g.EnsureNode(n.node()); err != nil {
			return nil, err
		}
	}
	for _, e := range s.Edges {
		if err := g.AddEdge(e); err != nil {
			return nil, err
		}
	}
	return g, nil
}
