package graph

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// chainGraph builds a -> b -> c -> d with an entity hub linked to all.
func chainGraph(t *testing.T) *Graph {
	t.Helper()
	g := New()
	for _, id := range []string{"a", "b", "c", "d", "hub"} {
		g.EnsureNode(Node{ID: id, Type: NodeChunk, Label: id})
	}
	for _, pair := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}} {
		if err := g.AddEdge(Edge{From: pair[0], To: pair[1], Type: EdgeNextTo}); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"a", "b", "c", "d"} {
		if err := g.AddUndirected(Edge{From: "hub", To: id, Type: EdgeMentions}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// A taken id is not inserted again: the graph and its running
// statistics stay as the first insertion left them.
func TestAddNodeDuplicate(t *testing.T) {
	g := New()
	g.EnsureNode(Node{ID: "x", Type: NodeChunk})
	size := g.SizeBytes()
	if err := g.EnsureNode(Node{ID: "x", Type: NodeEntity, Label: "again"}); err != nil {
		t.Fatal(err)
	}
	if n := g.Node("x"); n.Type != NodeChunk {
		t.Errorf("duplicate add replaced the node: %+v", *n)
	}
	if g.NodeCount() != 1 || g.SizeBytes() != size || g.CountByType()[NodeEntity] != 0 {
		t.Errorf("duplicate add counted: %d nodes, %d bytes, %v", g.NodeCount(), g.SizeBytes(), g.CountByType())
	}
}

// A node without an id comes only from a file, and ReadJSON refuses it.
func TestAddNodeEmptyID(t *testing.T) {
	_, err := ReadJSON(strings.NewReader(`{"nodes":[{"id":"","type":"chunk"}]}`))
	if !errors.Is(err, ErrNodeNotFound) {
		t.Errorf("empty id: %v", err)
	}
}

func TestAddEdgeMissingEndpoint(t *testing.T) {
	g := New()
	g.EnsureNode(Node{ID: "x", Type: NodeChunk})
	err := g.AddEdge(Edge{From: "x", To: "missing", Type: EdgeNextTo})
	if !errors.Is(err, ErrBadEdge) {
		t.Errorf("missing endpoint: %v", err)
	}
}

func TestEnsureNodeFirstWriteWins(t *testing.T) {
	g := New()
	g.EnsureNode(Node{ID: "e", Type: NodeEntity, Label: "first"})
	g.EnsureNode(Node{ID: "e", Type: NodeEntity, Label: "second"})
	if n := g.Node("e"); n.Label != "first" {
		t.Errorf("label = %q, want first", n.Label)
	}
}

func TestDefaultEdgeWeight(t *testing.T) {
	g := New()
	g.EnsureNode(Node{ID: "a", Type: NodeChunk})
	g.EnsureNode(Node{ID: "b", Type: NodeChunk})
	g.AddEdge(Edge{From: "a", To: "b", Type: EdgeNextTo})
	if w := g.Out("a")[0].Weight; w != 1 {
		t.Errorf("default weight = %v", w)
	}
}

func TestNeighborsFiltered(t *testing.T) {
	g := chainGraph(t)
	all := g.Neighbors("hub")
	if len(all) != 4 {
		t.Errorf("hub neighbors = %v", all)
	}
	next := g.Neighbors("a", EdgeNextTo)
	if len(next) != 1 || next[0] != "b" {
		t.Errorf("filtered = %v", next)
	}
}

func TestCounts(t *testing.T) {
	g := chainGraph(t)
	if g.NodeCount() != 5 {
		t.Errorf("nodes = %d", g.NodeCount())
	}
	if g.EdgeCount() != 3+8 {
		t.Errorf("edges = %d", g.EdgeCount())
	}
	byType := g.CountByType()
	if byType[NodeChunk] != 5 {
		t.Errorf("byType = %v", byType)
	}
}

func TestBFSDepths(t *testing.T) {
	g := chainGraph(t)
	visits := g.BFS([]string{"a"}, 2, EdgeNextTo)
	want := map[string]int{"a": 0, "b": 1, "c": 2}
	if len(visits) != len(want) {
		t.Fatalf("visits = %v", visits)
	}
	for _, v := range visits {
		if want[v.ID] != v.Depth {
			t.Errorf("%s at depth %d, want %d", v.ID, v.Depth, want[v.ID])
		}
	}
}

func TestBFSUnknownAnchor(t *testing.T) {
	g := chainGraph(t)
	if got := g.BFS([]string{"nope"}, 3); len(got) != 0 {
		t.Errorf("unknown anchor: %v", got)
	}
}

func TestBFSVisitOnceProperty(t *testing.T) {
	// Random small graphs: BFS never reports a node twice and depths
	// are within the limit.
	f := func(edges []uint8, maxDepth uint8) bool {
		g := New()
		const n = 10
		for i := 0; i < n; i++ {
			g.EnsureNode(Node{ID: fmt.Sprintf("n%d", i), Type: NodeChunk})
		}
		for i := 0; i+1 < len(edges); i += 2 {
			from := fmt.Sprintf("n%d", int(edges[i])%n)
			to := fmt.Sprintf("n%d", int(edges[i+1])%n)
			if from != to {
				g.AddEdge(Edge{From: from, To: to, Type: EdgeNextTo})
			}
		}
		d := int(maxDepth % 5)
		visits := g.BFS([]string{"n0"}, d)
		seen := map[string]bool{}
		for _, v := range visits {
			if seen[v.ID] || v.Depth > d {
				return false
			}
			seen[v.ID] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWeightedExpandPrefersStrongEdges(t *testing.T) {
	g := New()
	for _, id := range []string{"q", "strong", "weak"} {
		g.EnsureNode(Node{ID: id, Type: NodeChunk})
	}
	g.AddEdge(Edge{From: "q", To: "strong", Type: EdgeMentions, Weight: 1.0})
	g.AddEdge(Edge{From: "q", To: "weak", Type: EdgeMentions, Weight: 0.1})
	visits := expandByID(g, "q", ExpandOptions{MaxDepth: 1})
	if visits[0].ID != "q" || visits[1].ID != "strong" || visits[2].ID != "weak" {
		t.Errorf("order = %v", visits)
	}
}

func TestWeightedExpandBudget(t *testing.T) {
	g := chainGraph(t)
	visits := expandByID(g, "hub", ExpandOptions{MaxDepth: 3, Budget: 2})
	if len(visits) != 2 {
		t.Errorf("budgeted visits = %v", visits)
	}
}

func TestWeightedExpandEdgeTypeGate(t *testing.T) {
	g := chainGraph(t)
	visits := expandByID(g, "a", ExpandOptions{
		MaxDepth:  3,
		EdgeTypes: map[EdgeType]float64{EdgeNextTo: 1},
	})
	for _, v := range visits {
		if v.ID == "hub" {
			t.Error("gated edge type was traversed")
		}
	}
}

func TestWeightedExpandNodePrior(t *testing.T) {
	g := New()
	for _, id := range []string{"q", "x", "y"} {
		g.EnsureNode(Node{ID: id, Type: NodeChunk})
	}
	g.AddEdge(Edge{From: "q", To: "x", Type: EdgeMentions})
	g.AddEdge(Edge{From: "q", To: "y", Type: EdgeMentions})
	visits := expandByID(g, "q", ExpandOptions{
		MaxDepth: 1,
		Prior:    []float64{1, 1, 2}, // view order: q, x, y
	})
	pos := map[string]int{}
	for i, v := range visits {
		pos[v.ID] = i
	}
	if pos["y"] >= pos["x"] {
		t.Errorf("prior ignored: %v", visits)
	}
}

// shortestPath is View.ShortestPath between two ids, as ids.
func shortestPath(g *Graph, from, to string) []string {
	v := g.View(nil)
	src, ok := v.Index(from)
	dst, ok2 := v.Index(to)
	if !ok || !ok2 {
		return nil
	}
	var ids []string
	for _, i := range v.ShortestPath(src, dst) {
		ids = append(ids, v.ID(i))
	}
	return ids
}

func TestShortestPath(t *testing.T) {
	g := chainGraph(t)
	path := shortestPath(g, "a", "d")
	// a->b->c->d is 4 hops; a->hub? hub edges are undirected so
	// a has no edge to hub (only hub->a and a->hub via AddUndirected
	// twin), so a -> hub -> d has length 3.
	if len(path) != 3 || path[0] != "a" || path[1] != "hub" || path[2] != "d" {
		t.Errorf("path = %v", path)
	}
}

func TestShortestPathSelf(t *testing.T) {
	g := chainGraph(t)
	if p := shortestPath(g, "a", "a"); len(p) != 1 {
		t.Errorf("self path = %v", p)
	}
}

func TestShortestPathDisconnected(t *testing.T) {
	g := New()
	g.EnsureNode(Node{ID: "a", Type: NodeChunk})
	g.EnsureNode(Node{ID: "b", Type: NodeChunk})
	if p := shortestPath(g, "a", "b"); p != nil {
		t.Errorf("disconnected path = %v", p)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New()
	for _, id := range []string{"a", "b", "c", "x", "y"} {
		g.EnsureNode(Node{ID: id, Type: NodeChunk})
	}
	g.AddEdge(Edge{From: "a", To: "b", Type: EdgeNextTo})
	g.AddEdge(Edge{From: "b", To: "c", Type: EdgeNextTo})
	g.AddEdge(Edge{From: "x", To: "y", Type: EdgeNextTo})
	comps := g.ConnectedComponents()
	if len(comps) != 2 || len(comps[0]) != 3 || len(comps[1]) != 2 {
		t.Errorf("components = %v", comps)
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	g := chainGraph(t)
	pr := g.View(nil).PageRank(0)
	var sum float64
	for _, v := range pr {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("pagerank sum = %v", sum)
	}
}

func TestPageRankHubWins(t *testing.T) {
	g := chainGraph(t)
	v := g.View(nil)
	pr := v.PageRank(0)
	hub, _ := v.Index("hub")
	a, _ := v.Index("a")
	if pr[hub] <= pr[a] {
		t.Errorf("hub rank %v <= a rank %v", pr[hub], pr[a])
	}
}

func TestPageRankEmptyGraph(t *testing.T) {
	if pr := New().View(nil).PageRank(0); len(pr) != 0 {
		t.Errorf("empty graph pagerank = %v", pr)
	}
}

func TestPageRankPropertyNonNegative(t *testing.T) {
	f := func(edges []uint8) bool {
		g := New()
		const n = 8
		for i := 0; i < n; i++ {
			g.EnsureNode(Node{ID: fmt.Sprintf("n%d", i), Type: NodeChunk})
		}
		for i := 0; i+1 < len(edges); i += 2 {
			from := fmt.Sprintf("n%d", int(edges[i])%n)
			to := fmt.Sprintf("n%d", int(edges[i+1])%n)
			if from != to {
				g.AddEdge(Edge{From: from, To: to, Type: EdgeNextTo})
			}
		}
		pr := g.View(nil).PageRank(0)
		var sum float64
		for _, v := range pr {
			if v < 0 {
				return false
			}
			sum += v
		}
		return sum > 0.99 && sum < 1.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	g := chainGraph(t)
	g.EnsureNode(Node{ID: "e", Type: NodeChunk, Text: "hello"})
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NodeCount() != g.NodeCount() || g2.EdgeCount() != g.EdgeCount() {
		t.Errorf("round trip: %d/%d nodes, %d/%d edges",
			g2.NodeCount(), g.NodeCount(), g2.EdgeCount(), g.EdgeCount())
	}
	if g2.Node("e").Text != "hello" {
		t.Error("payload lost in round trip")
	}
}

func TestSerializationDeterministic(t *testing.T) {
	g := chainGraph(t)
	var a, b bytes.Buffer
	g.WriteJSON(&a)
	g.WriteJSON(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("serialization not deterministic")
	}
}

func TestReadJSONCorrupt(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString("{not json")); err == nil {
		t.Error("corrupt input accepted")
	}
}

func TestSizeBytesPositive(t *testing.T) {
	g := chainGraph(t)
	if g.SizeBytes() <= 0 {
		t.Error("SizeBytes must be positive for a nonempty graph")
	}
	// The running total is what a full walk adds up: 4 one-letter nodes
	// and "hub" with their labels, 3 "next" and 8 "mentions" edge records.
	want := int64(4*(1+1+16) + (3 + 3 + 16) + 3*(1+1+4+8) + 8*(3+1+8+8))
	if g.SizeBytes() != want {
		t.Errorf("SizeBytes = %d, want %d", g.SizeBytes(), want)
	}
}

func TestNodesOfTypeSorted(t *testing.T) {
	g := New()
	g.EnsureNode(Node{ID: "z", Type: NodeEntity})
	g.EnsureNode(Node{ID: "a", Type: NodeEntity})
	g.EnsureNode(Node{ID: "m", Type: NodeChunk})
	ents := g.NodesOfType(NodeEntity)
	if len(ents) != 2 || ents[0].ID != "a" || ents[1].ID != "z" {
		t.Errorf("NodesOfType = %v", ents)
	}
}

// Every Node given to EnsureNode comes back field for field from
// Graph.Node and NodesOfType, and its id, type and text from a View's
// accessors, whatever its type, label and payload; SizeBytes counts it
// as the Node it was given; a label that is a suffix of the id is stored
// in the id's bytes, by EnsureNode and by ReadJSON; and an insert of an
// id the graph holds changes nothing and allocates nothing.
func TestNodeRoundTrip(t *testing.T) {
	var nodes []Node
	for _, typ := range declaredNodes {
		nodes = append(nodes, Node{ID: string(typ) + ":x", Type: typ, Label: "x", Text: "text of " + string(typ)})
	}
	nodes = append(nodes,
		Node{ID: "cue:a|rated|b", Type: NodeCue, Label: "rated", Verb: "rated", Arg1: "a", Arg2: "b"}, // label not a suffix
		Node{ID: "every", Type: NodeChunk, Label: "every", Text: "t", Doc: "d", EType: "e", Verb: "v", Arg1: "1", Arg2: "2"},
		Node{ID: "no label", Type: NodeRow, Text: "row text"},
	)
	nodes = append(nodes, hostileNodes()...) // "plain" and other types no graph declares
	g := New()
	var size int64
	for _, n := range nodes {
		if err := g.EnsureNode(n); err != nil {
			t.Fatal(err)
		}
		size += int64(len(n.ID) + len(n.Label) + 16)
		for _, p := range n.payload() {
			if *p != "" {
				size += int64(len(*p) + 16)
			}
		}
	}
	if g.SizeBytes() != size {
		t.Errorf("SizeBytes = %d, want %d", g.SizeBytes(), size)
	}
	back, err := ReadJSON(bytes.NewReader(encode(t, g.WriteJSON)))
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Graph{"built": g, "read back": back} {
		for _, vx := range g.verts {
			if vx.label != "" && strings.HasSuffix(vx.id, vx.label) &&
				unsafe.StringData(vx.label) != unsafe.StringData(vx.id[len(vx.id)-len(vx.label):]) {
				t.Errorf("%s: %q: label %q not stored in the id's bytes", name, vx.id, vx.label)
			}
		}
	}
	v := g.View(nil)
	byType := map[NodeType][]Node{}
	for _, n := range nodes {
		if got := g.Node(n.ID); *got != n {
			t.Errorf("Graph.Node(%q) = %#v, want %#v", n.ID, *got, n)
		}
		i, ok := v.Index(n.ID)
		if !ok {
			t.Fatalf("%q not in the view", n.ID)
		}
		if v.ID(i) != n.ID || v.Type(i) != n.Type || v.Text(i) != n.Text {
			t.Errorf("view index %d: %q, %q, %q, want %q, %q, %q", i, v.ID(i), v.Type(i), v.Text(i), n.ID, n.Type, n.Text)
		}
		if g.vs[n.ID].more != nil && n.Doc+n.EType+n.Verb+n.Arg1+n.Arg2 == "" {
			t.Errorf("%q: payload record for a node with none", n.ID)
		}
		byType[n.Type] = append(byType[n.Type], n)
	}
	counts := map[NodeType]int{}
	for typ, want := range byType {
		counts[typ] = len(want)
		got := g.NodesOfType(typ)
		if len(got) != len(want) {
			t.Fatalf("NodesOfType(%q): %d nodes, want %d", typ, len(got), len(want))
		}
		for _, n := range want {
			found := false
			for _, m := range got {
				found = found || m == n
			}
			if !found {
				t.Errorf("NodesOfType(%q) lacks %#v", typ, n)
			}
		}
	}
	if !maps.Equal(g.CountByType(), counts) {
		t.Errorf("CountByType = %v, want %v", g.CountByType(), counts)
	}
	if got := g.NodesOfType("never used"); got != nil {
		t.Errorf("NodesOfType of an unknown type: %v", got)
	}

	again := Node{ID: nodes[0].ID, Type: "other", Label: "other", Text: "other", Doc: "other"}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := g.EnsureNode(again); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("EnsureNode of a present node: %v allocations", allocs)
	}
	if *g.Node(again.ID) != nodes[0] || g.SizeBytes() != size || g.NodeCount() != len(nodes) || !maps.Equal(g.CountByType(), counts) {
		t.Error("EnsureNode of a present node changed the graph")
	}
}

// A graph holds the declared node types and 250 others; one type more
// is a typed error, from EnsureNode and from ReadJSON, that changes
// nothing — never a code that wraps around onto another type.
func TestNodeTypeLimit(t *testing.T) {
	g := New()
	for c := 0; c < 256; c++ {
		typ := NodeType(fmt.Sprintf("other%03d", c))
		if c < len(declaredNodes) {
			typ = declaredNodes[c]
		}
		if err := g.EnsureNode(Node{ID: fmt.Sprintf("n%03d", c), Type: typ, Label: string(typ)}); err != nil {
			t.Fatalf("type %d: %v", c, err)
		}
	}
	snap := encode(t, g.WriteJSON)
	back, err := ReadJSON(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, back, g)

	nodes, size, counts := g.NodeCount(), g.SizeBytes(), g.CountByType()
	if err := g.EnsureNode(Node{ID: "one more", Type: "one too many"}); !errors.Is(err, ErrNodeTypes) {
		t.Errorf("EnsureNode: %v", err)
	}
	if g.HasNode("one more") || g.NodeCount() != nodes || g.SizeBytes() != size || !maps.Equal(g.CountByType(), counts) {
		t.Errorf("nodes/size %d/%d, %v after the refused node, were %d/%d, %v",
			g.NodeCount(), g.SizeBytes(), g.CountByType(), nodes, size, counts)
	}
	if after := encode(t, g.WriteJSON); !bytes.Equal(snap, after) {
		t.Error("the refused node changed the snapshot")
	}
	// A type the graph knows is still accepted.
	if err := g.EnsureNode(Node{ID: "one more", Type: "other255"}); err != nil {
		t.Error(err)
	}

	doc := strings.Replace(string(snap), `{"nodes":[`, `{"nodes":[{"id":"~","type":"one too many","label":""},`, 1)
	if _, err := ReadJSON(strings.NewReader(doc)); !errors.Is(err, ErrNodeTypes) {
		t.Errorf("ReadJSON: %v", err)
	}
}
