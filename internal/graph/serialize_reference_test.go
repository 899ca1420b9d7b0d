package graph

// The encoding/json codec serialize.go replaced, kept as the oracle the
// hand-written one is tested against, and the expansion of a rows section
// into the full form, written from the format's description. Nothing
// outside the tests calls them.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"sort"
	"strconv"
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

// refFile is a file as it may be written: the full form and the ranges
// that abbreviate more of it.
type refFile struct {
	Nodes []refNode  `json:"nodes"`
	Rows  []refRange `json:"rows"`
	Edges []Edge     `json:"edges"`
}

// refRange is one range of the rows section.
type refRange struct {
	Prefix   string   `json:"prefix"`
	N        int      `json:"n"`
	Text     []string `json:"text"`
	Mentions [][]int  `json:"mentions"`
}

// refExpand decodes a file and returns its full form, and whether a range
// added any row to it: for each range row k, the node "row:"+prefix+k
// with its text and the weight-1 mentions edges both ways between it and
// each node it mentions, merged into the listed nodes by id and the
// listed edges by (from, to, type).
func refExpand(data []byte) (s refSerialized, rows bool, err error) {
	var f refFile
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&f); err != nil {
		return s, false, fmt.Errorf("graph: decode: %w", err)
	}
	s = refSerialized{Nodes: f.Nodes, Edges: f.Edges}
	listed := len(s.Nodes)
	for _, r := range f.Rows {
		if len(r.Text) != r.N || len(r.Mentions) != r.N {
			return s, false, fmt.Errorf("graph: decode: range of %d rows with %d texts and %d mention lists", r.N, len(r.Text), len(r.Mentions))
		}
		for k := range r.N {
			label := r.Prefix + strconv.Itoa(k)
			row := refNode{ID: "row:" + label, Type: NodeRow, Label: label}
			if r.Text[k] != "" {
				row.Payload = map[string]string{"text": r.Text[k]}
			}
			s.Nodes = append(s.Nodes, row)
			for _, i := range r.Mentions[k] {
				if i < 0 || i >= listed {
					return s, false, fmt.Errorf("graph: decode: mention of node %d of %d", i, listed)
				}
				to := f.Nodes[i].ID
				s.Edges = append(s.Edges, Edge{From: row.ID, To: to, Type: EdgeMentions, Weight: 1}, Edge{From: to, To: row.ID, Type: EdgeMentions, Weight: 1})
			}
		}
	}
	if len(s.Nodes) == listed {
		return s, false, nil
	}
	sort.SliceStable(s.Nodes, func(i, j int) bool { return s.Nodes[i].ID < s.Nodes[j].ID })
	sortEdges(s.Edges)
	return s, true, nil
}

// refExpandJSON is the full form of data as the reference writes it: data
// itself when it has no rows (re-encoded, invalid UTF-8 written as
// "\ufffd" would read back as U+FFFD and be written as itself).
func refExpandJSON(data []byte) ([]byte, error) {
	s, rows, err := refExpand(data)
	if err != nil {
		return nil, err
	}
	if !rows {
		return data, nil
	}
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(s)
	return buf.Bytes(), err
}

// sortEdges puts edges in (from, to, type) order, ties as they stand.
func sortEdges(es []Edge) {
	sort.SliceStable(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Type < b.Type
	})
}

// refWriteJSON is WriteJSON through encoding/json: nodes by id, edges by
// (from, to, type), ties in adjacency order.
func refWriteJSON(g refReader, w io.Writer) error {
	s := refSerialized{Nodes: make([]refNode, 0, g.NodeCount())}
	for _, id := range g.NodeIDs() {
		s.Nodes = append(s.Nodes, refNodeOf(g.Node(id)))
	}
	for _, id := range g.NodeIDs() {
		s.Edges = append(s.Edges, g.Out(id)...)
	}
	sortEdges(s.Edges)
	return json.NewEncoder(w).Encode(s)
}

// refReadJSON is ReadJSON through encoding/json, the rows section
// expanded, and one checked insert per record of the full form.
func refReadJSON(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("graph: decode: %w", err)
	}
	s, _, err := refExpand(data)
	if err != nil {
		return nil, err
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
