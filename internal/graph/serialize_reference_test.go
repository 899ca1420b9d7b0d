package graph

// The encoding/json codec serialize.go replaced, kept as the oracle the
// hand-written one is tested against. Nothing outside the tests calls it.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// refSerialized is the on-disk form of a graph.
type refSerialized struct {
	Nodes []Node `json:"nodes"`
	Edges []Edge `json:"edges"`
}

// refWriteJSON is WriteJSON through encoding/json: nodes by id, edges by
// (from, to, type), ties in adjacency order.
func refWriteJSON(g *Graph, w io.Writer) error {
	s := refSerialized{Nodes: make([]Node, 0, len(g.vs))}
	for _, id := range g.NodeIDs() {
		s.Nodes = append(s.Nodes, *g.vs[id].node)
	}
	for _, id := range g.NodeIDs() {
		s.Edges = append(s.Edges, g.vs[id].out...)
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

// refReadJSON is ReadJSON through encoding/json and one AddNode/AddEdge
// per record.
func refReadJSON(r io.Reader) (*Graph, error) {
	var s refSerialized
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("graph: decode: %w", err)
	}
	g := New()
	for _, n := range s.Nodes {
		if err := g.AddNode(n); err != nil {
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
