package graph

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// The heap the adjacency takes is 16 bytes per half-edge; a field added
// to half would give it back without failing anything else.
func TestHalfEdgeSize(t *testing.T) {
	if s := unsafe.Sizeof(half{}); s != 16 {
		t.Errorf("half is %d bytes, want 16", s)
	}
}

// A vertex is 112 bytes: three string headers, the payload pointer, two
// adjacency slices, its number and its type code. A field added to it
// — a Node pointer, the type as a string — would give back what storing
// the node in its vertex saved without failing anything else. Table rows
// held in ranges have no vertex; every other node has one.
func TestVertexLayout(t *testing.T) {
	if s := unsafe.Sizeof(vertex{}); s != 112 {
		t.Errorf("vertex is %d bytes, want 112", s)
	}
}

// Out and In hand the caller a slice of its own: writing to it changes
// neither the snapshot nor what the next call returns.
func TestOutInAreCopies(t *testing.T) {
	g := chainGraph(t)
	before := encode(t, g.WriteJSON)
	out, in := g.Out("hub"), g.In("hub")
	wantOut, wantIn := append([]Edge(nil), out...), append([]Edge(nil), in...)
	for i := range out {
		out[i] = Edge{From: "x", To: "y", Type: "z", Weight: -1}
	}
	for i := range in {
		in[i] = Edge{From: "x", To: "y", Type: "z", Weight: -1}
	}
	if got := g.Out("hub"); !reflect.DeepEqual(got, wantOut) {
		t.Errorf("Out after the caller wrote to its slice: %v, want %v", got, wantOut)
	}
	if got := g.In("hub"); !reflect.DeepEqual(got, wantIn) {
		t.Errorf("In after the caller wrote to its slice: %v, want %v", got, wantIn)
	}
	if after := encode(t, g.WriteJSON); !bytes.Equal(before, after) {
		t.Errorf("snapshot moved:\n%s\n%s", before, after)
	}
}

func TestHasEdge(t *testing.T) {
	g := chainGraph(t)
	g.AddEdge(Edge{From: "a", To: "c", Type: "custom"})
	for _, c := range []struct {
		from, to string
		typ      EdgeType
		want     bool
	}{
		{"a", "b", EdgeNextTo, true},
		{"b", "a", EdgeNextTo, false}, // directed
		{"a", "b", EdgeMentions, false},
		{"hub", "d", EdgeMentions, true},
		{"d", "hub", EdgeMentions, true}, // the undirected twin
		{"a", "c", "custom", true},
		{"a", "c", "never used", false},
		{"a", "missing", EdgeNextTo, false},
		{"missing", "a", EdgeNextTo, false},
	} {
		if got := g.HasEdge(c.from, c.to, c.typ); got != c.want {
			t.Errorf("HasEdge(%q, %q, %q) = %v", c.from, c.to, c.typ, got)
		}
	}
}

// A graph holds the declared edge types and 249 others: all of them
// round-trip through the snapshot, all the others are code 0 to a view,
// and one type more is a typed error that changes nothing.
func TestEdgeTypeLimit(t *testing.T) {
	g := New()
	g.EnsureNode(Node{ID: "a", Type: NodeChunk})
	g.EnsureNode(Node{ID: "b", Type: NodeChunk})
	for _, et := range declared {
		if err := g.AddEdge(Edge{From: "a", To: "b", Type: et}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 256-len(declared); i++ {
		e := Edge{From: "b", To: "a", Type: EdgeType(fmt.Sprintf("other%03d", i)), Weight: float64(i + 2)}
		add := g.AddEdge
		if i%2 == 0 {
			add = g.AddUndirected
		}
		if err := add(e); err != nil {
			t.Fatalf("undeclared type %d: %v", i, err)
		}
	}
	snap := encode(t, g.WriteJSON)
	back, err := ReadJSON(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if back.EdgeCount() != g.EdgeCount() || back.SizeBytes() != g.SizeBytes() {
		t.Errorf("read back %d edges of size %d, want %d of %d", back.EdgeCount(), back.SizeBytes(), g.EdgeCount(), g.SizeBytes())
	}
	if again := encode(t, back.WriteJSON); !bytes.Equal(snap, again) {
		t.Error("snapshot of the graph read back differs")
	}
	for _, g := range []*Graph{g, back} {
		v := g.View(nil)
		for i := 0; i < v.Len(); i++ {
			for j, e := range g.Out(v.ID(i)) {
				if c := v.typ[int(v.outOff[i])+j]; c != edgeCode(e.Type) {
					t.Errorf("view code %d for an edge of type %q", c, e.Type)
				}
			}
		}
	}

	nodes, edges, size := g.NodeCount(), g.EdgeCount(), g.SizeBytes()
	one := Edge{From: "a", To: "b", Type: "one too many"}
	if err := g.AddEdge(one); !errors.Is(err, ErrEdgeTypes) {
		t.Errorf("AddEdge: %v", err)
	}
	if err := g.AddUndirected(one); !errors.Is(err, ErrEdgeTypes) {
		t.Errorf("AddUndirected: %v", err)
	}
	if g.NodeCount() != nodes || g.EdgeCount() != edges || g.SizeBytes() != size {
		t.Errorf("nodes/edges/size %d/%d/%d after the refused edge, were %d/%d/%d",
			g.NodeCount(), g.EdgeCount(), g.SizeBytes(), nodes, edges, size)
	}
	if after := encode(t, g.WriteJSON); !bytes.Equal(snap, after) {
		t.Error("the refused edge changed the snapshot")
	}
	// A type the graph knows is still accepted.
	if err := g.AddEdge(Edge{From: "a", To: "b", Type: "other000"}); err != nil {
		t.Error(err)
	}

	doc := strings.TrimSuffix(string(snap), "]}\n") + `,{"from":"b","to":"b","type":"one too many","weight":1}]}`
	if _, err := ReadJSON(strings.NewReader(doc)); !errors.Is(err, ErrEdgeTypes) {
		t.Errorf("ReadJSON: %v", err)
	}
	nodesAt := strings.Index(doc, `"nodes"`)
	edgesAt := strings.Index(doc, `,"edges"`)
	edgesFirst := "{" + doc[edgesAt+1:len(doc)-1] + "," + doc[nodesAt:edgesAt] + "}"
	if _, err := ReadJSON(strings.NewReader(edgesFirst)); !errors.Is(err, ErrEdgeTypes) {
		t.Errorf("ReadJSON, edges first: %v", err)
	}
}

// A snapshot whose "edges" come before its "nodes" reads as the same
// graph, types this package does not declare included.
func TestReadJSONEdgesFirst(t *testing.T) {
	nodes := `"nodes":[{"id":"a","type":"chunk","label":""},{"id":"b","type":"entity","label":"B","attrs":{"etype":"drug"}}]`
	edges := `"edges":[{"from":"a","to":"b","type":"custom","weight":2},{"from":"a","to":"b","type":"mentions","weight":1},` +
		`{"from":"b","to":"a","type":"same_as","weight":0.5},{"from":"b","to":"a","type":"custom","weight":1}]`
	usual := readBoth(t, "nodes first", []byte("{"+nodes+","+edges+"}"))
	sameGraph(t, readBoth(t, "edges first", []byte("{"+edges+","+nodes+"}")), usual)
	if usual.EdgeCount() != 4 || !usual.HasEdge("b", "a", "same_as") {
		t.Errorf("edges lost: %v %v", usual.Out("a"), usual.Out("b"))
	}
}
