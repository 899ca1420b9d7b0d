package graph

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// both applies every insertion to a Graph and to the naive refGraph.
type both struct {
	t testing.TB
	g *Graph
	r *refGraph
}

func newBoth(t testing.TB) *both { return &both{t: t, g: New(), r: newRefGraph()} }

func (b *both) node(n Node) {
	b.t.Helper()
	if err := b.g.EnsureNode(n); err != nil {
		b.t.Fatal(err)
	}
	b.r.EnsureNode(n)
}

func (b *both) row(label, text string) string {
	b.t.Helper()
	b.node(Node{ID: rowIDPrefix + label, Type: NodeRow, Label: label, Text: text})
	return rowIDPrefix + label
}

func (b *both) edge(e Edge, undirected bool) {
	b.t.Helper()
	add, ref := b.g.AddEdge, b.r.AddEdge
	if undirected {
		add, ref = b.g.AddUndirected, b.r.AddUndirected
	}
	err, want := add(e), ref(e)
	if (err == nil) != (want == nil) {
		b.t.Fatalf("%v: %v, the reference %v", e, err, want)
	}
}

func (b *both) mention(from, to string) {
	b.t.Helper()
	b.edge(Edge{From: from, To: to, Type: EdgeMentions}, true)
}

// sameAsRef fails unless g shows what the naive graph r shows: every
// node and both its lists in order, the counts, the view's order and
// index, PageRank's bits, an expansion's visits and the snapshot's full
// form.
func sameAsRef(t testing.TB, g *Graph, r *refGraph) {
	t.Helper()
	ids := r.NodeIDs()
	if got := g.NodeIDs(); !slices.Equal(got, ids) {
		t.Fatalf("node ids %q, want %q", got, ids)
	}
	edges := 0
	for _, id := range ids {
		if got, want := g.Node(id), r.Node(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("node %q: %#v, want %#v", id, got, want)
		}
		out := r.Out(id)
		if got := g.Out(id); !reflect.DeepEqual(got, out) {
			t.Fatalf("out of %q: %v, want %v", id, got, out)
		}
		if got, want := g.In(id), r.In(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("in of %q: %v, want %v", id, got, want)
		}
		if g.Degree(id) != len(out) {
			t.Fatalf("degree of %q: %d, want %d", id, g.Degree(id), len(out))
		}
		for _, e := range out {
			if !g.HasEdge(e.From, e.To, e.Type) {
				t.Fatalf("HasEdge(%q, %q, %q) = false", e.From, e.To, e.Type)
			}
		}
		if !g.HasNode(id) {
			t.Fatalf("HasNode(%q) = false", id)
		}
		edges += len(out)
	}
	if g.NodeCount() != len(ids) || g.EdgeCount() != edges {
		t.Fatalf("%d nodes, %d edges; want %d, %d", g.NodeCount(), g.EdgeCount(), len(ids), edges)
	}
	v := g.View(nil)
	for i, id := range ids {
		if v.ID(i) != id {
			t.Fatalf("view index %d is %q, want %q", i, v.ID(i), id)
		}
		if j, ok := v.Index(id); !ok || j != i {
			t.Fatalf("Index(%q) = %d, %v; want %d", id, j, ok, i)
		}
		if n := r.Node(id); v.Type(i) != n.Type || v.Text(i) != n.Text {
			t.Fatalf("view index %d: %q, %q; want %q, %q", i, v.Type(i), v.Text(i), n.Type, n.Text)
		}
	}
	want := referencePageRank(r)
	for i, rank := range v.PageRank(2) {
		if math.Float64bits(rank) != math.Float64bits(want[ids[i]]) {
			t.Fatalf("rank of %q: %v, want %v", ids[i], rank, want[ids[i]])
		}
	}
	opts := ExpandOptions{MaxDepth: 3, Decay: 0.7, Prior: v.PageRank(1)}
	ref := refExpandOptions{MaxDepth: 3, Decay: 0.7, NodeWeight: func(n *Node) float64 { i, _ := v.Index(n.ID); return opts.Prior[i] }}
	for _, id := range ids {
		if got, want := expandView(v, &Expander{}, id, opts), weightedExpand(r, []string{id}, ref); !sameVisits(got, want) {
			t.Fatalf("expansion from %q: %v, want %v", id, got, want)
		}
	}
	if got, want := expanded(t, encode(t, g.WriteJSON)), encode(t, func(w io.Writer) error { return refWriteJSON(r, w) }); !bytes.Equal(got, want) {
		t.Fatalf("snapshot:\n%s\nthe reference's:\n%s", got, want)
	}
}

// roundTrip holds g, its snapshot read back, and the snapshot read back
// again to the naive graph and the one it loads.
func roundTrip(t testing.TB, g *Graph, r *refGraph) {
	t.Helper()
	sameAsRef(t, g, r)
	data := encode(t, g.WriteJSON)
	back, err := ReadJSON(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := refGraphOf(data)
	if err != nil {
		t.Fatal(err)
	}
	sameAsRef(t, back, loaded)
	if again := encode(t, back.WriteJSON); !bytes.Equal(again, data) {
		t.Fatalf("read back, the graph writes another snapshot")
	}
}

// rangeCases build graphs whose rows are ranges, beside ids no range
// takes and insertions that expand one, each with the ranges it leaves.
var rangeCases = []struct {
	name   string
	build  func(b *both)
	ranges map[string]int
}{
	{"index-like", func(b *both) {
		for _, e := range []string{"ent:a", "ent:b", "ent:c"} {
			b.node(Node{ID: e, Type: NodeEntity, Label: e[4:], EType: "ID"})
		}
		b.node(Node{ID: "chunk:1", Type: NodeChunk, Label: "1", Text: "a and b"})
		b.mention("chunk:1", "ent:a")
		for k := range 25 {
			id := b.row(fmt.Sprintf("db/t/%d", k), fmt.Sprint("row ", k))
			for j := range k % 3 {
				b.mention(id, []string{"ent:a", "ent:b", "ent:c"}[(k+j)%3])
			}
			if k%7 == 0 {
				b.mention("ent:c", id) // the twin made from the entity's side
				b.mention(id, "ent:c") // and a second mention of it
			}
		}
		b.mention("chunk:1", "ent:b")
		b.edge(Edge{From: "ent:a", To: "ent:b", Type: EdgeRelates, Weight: 0.5}, false)
		b.mention(b.row("db/u/0", ""), "ent:a")
	}, map[string]int{"db/t/": 25, "db/u/": 1}},
	{"ids no range takes", func(b *both) {
		b.node(Node{ID: "ent:a", Type: NodeEntity, Label: "a"})
		b.mention(b.row("P0", "zero"), "ent:a")
		b.row("P01", "leading zero")
		b.row("P1234567890", "ten digits")
		b.row("Px", "no digits")
		b.mention(b.row("P1", "one"), "ent:a")
		b.mention("row:P01", "ent:a")
	}, map[string]int{"P": 2}},
	{"a non-mentions edge on a ranged row", func(b *both) {
		b.node(Node{ID: "ent:a", Type: NodeEntity, Label: "a"})
		for k := range 12 {
			b.mention(b.row(fmt.Sprint("q/", k), "q"), "ent:a")
		}
		b.edge(Edge{From: "row:q/3", To: "ent:a", Type: EdgeRelates}, false)
		b.mention(b.row("q/12", "after"), "ent:a")
	}, map[string]int{}},
	{"a row out of order", func(b *both) {
		b.node(Node{ID: "ent:a", Type: NodeEntity, Label: "a"})
		for _, k := range []int{0, 1, 2, 3, 5, 4, 10} {
			b.mention(b.row(fmt.Sprint("q/", k), "q"), "ent:a")
		}
	}, map[string]int{}},
	{"edges a range cannot spell", func(b *both) {
		b.node(Node{ID: "ent:a", Type: NodeEntity, Label: "a"})
		b.mention(b.row("w/0", "w"), "ent:a")
		b.edge(Edge{From: "row:w/0", To: "ent:a", Type: EdgeMentions, Weight: 0.5}, true)
		b.mention(b.row("m/0", "m"), "ent:a")
		b.mention(b.row("m/1", "m"), "ent:a")
		b.mention("row:m/0", "ent:a") // a row that is not the last
		b.row("s/0", "s")
		b.mention("row:s/0", "row:s/0") // a row that mentions itself
		b.mention(b.row("d/0", "d"), "ent:a")
		b.edge(Edge{From: "ent:a", To: "row:d/0", Type: EdgeMentions}, false) // one way only
		b.node(Node{ID: "row:p/0", Type: NodeRow, Label: "p/0", Doc: "doc"})
		b.row("p/1", "p")
		b.mention(b.row("k/0", "k"), "ent:a")
		b.node(Node{ID: "row:k/1", Type: NodeEntity, Label: "k/1"}) // the next row's id, not a row
		b.mention(b.row("k/2", "k"), "ent:a")
		b.mention(b.row("live/0", "live"), "ent:a")
	}, map[string]int{"live/": 1}},
	{"lookups", func(b *both) {
		b.node(Node{ID: "ent:a", Type: NodeEntity, Label: "a"})
		for k := range 3 {
			b.mention(b.row(fmt.Sprint("t/", k), "t"), "ent:a")
		}
		for _, id := range []string{"row:t/3", "row:t/30", "row:u/0", "row:t/", "row:", "row:t/-1"} {
			if b.g.HasNode(id) || b.g.Node(id) != nil || b.g.Out(id) != nil || b.g.Degree(id) != 0 {
				b.t.Errorf("%q found", id)
			}
			if _, ok := b.g.View(nil).Index(id); ok {
				b.t.Errorf("view indexes %q", id)
			}
		}
	}, map[string]int{"t/": 3}},
}

// Each case holds the graph API, the view's order, PageRank's bits, the
// expansion and the snapshot's full form to the naive graph, built and
// read back; and the ranges are the ones the case leaves.
func TestRangeRowsMatchReference(t *testing.T) {
	for _, c := range rangeCases {
		t.Run(c.name, func(t *testing.T) {
			b := newBoth(t)
			c.build(b)
			roundTrip(t, b.g, b.r)
			if got := rangesOf(t, encode(t, b.g.WriteJSON)); !reflect.DeepEqual(got, c.ranges) {
				t.Errorf("ranges %v, want %v", got, c.ranges)
			}
		})
	}
}

// A view taken before a range grows or expands stays what it was.
func TestViewBlindToRangeChanges(t *testing.T) {
	b := newBoth(t)
	b.node(Node{ID: "ent:a", Type: NodeEntity, Label: "a"})
	b.node(Node{ID: "ent:b", Type: NodeEntity, Label: "b"})
	for k := range 5 {
		b.mention(b.row(fmt.Sprint("t/", k), "t"), "ent:a")
	}
	old := b.g.View(nil)
	before, rank := arraysOf(old), old.PageRank(1)
	visits := expandView(old, &Expander{}, "ent:a", ExpandOptions{MaxDepth: 2})
	b.mention("row:t/4", "ent:a") // one more half in ent:a's lists
	b.mention(b.row("t/5", "t"), "ent:b")
	b.edge(Edge{From: "row:t/2", To: "ent:b", Type: EdgeRelates}, false) // expands t/
	if !arraysOf(old).equal(before) {
		t.Error("the old view's arrays moved")
	}
	for i, r := range old.PageRank(1) {
		if math.Float64bits(r) != math.Float64bits(rank[i]) {
			t.Fatalf("the old view's rank[%d] moved: %v -> %v", i, rank[i], r)
		}
	}
	if got := expandView(old, &Expander{}, "ent:a", ExpandOptions{MaxDepth: 2}); !sameVisits(got, visits) {
		t.Errorf("the old view's expansion moved:\n%v\n%v", visits, got)
	}
	roundTrip(t, b.g, b.r)
}

// randomRanges grows a graph the way an index does, with now and then
// an insertion that expands a range, on both graphs.
func randomRanges(b *both, rng *rand.Rand, steps int, next map[string]int) {
	ents := []string{"ent:a", "ent:b", "ent:c", "chunk:x"}
	for _, e := range ents {
		b.node(Node{ID: e, Type: NodeEntity, Label: e})
	}
	for range steps {
		prefix := []string{"p/", "q/", "p/1x"}[rng.Intn(3)]
		k := next[prefix]
		if rng.Intn(20) == 0 {
			k += 1 + rng.Intn(3) // out of order
		}
		id := b.row(fmt.Sprint(prefix, k), fmt.Sprint("text ", k))
		next[prefix] = max(next[prefix], k+1)
		for n := rng.Intn(3); n > 0; n-- {
			b.mention(id, ents[rng.Intn(len(ents))])
		}
		switch rng.Intn(30) {
		case 0:
			b.edge(Edge{From: ents[rng.Intn(len(ents))], To: id, Type: EdgeRelates, Weight: 2}, false)
		case 1:
			b.edge(Edge{From: ents[0], To: ents[rng.Intn(len(ents))], Type: EdgeNextTo, Weight: 0.25}, rng.Intn(2) == 0)
		}
	}
}

func TestRandomRangesMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := newBoth(t)
		randomRanges(b, rng, 60, map[string]int{})
		roundTrip(t, b.g, b.r)
	}
}

// A half names at most maxRanges ranges: the rows of a table past them
// are listed vertices, whether built, loaded from a snapshot or found in
// a full form.
func TestRangesPastMax(t *testing.T) {
	g := New()
	g.EnsureNode(Node{ID: "ent:a", Type: NodeEntity, Label: "a"})
	for i := range maxRanges + 1 {
		label := fmt.Sprintf("t%dx/0", i)
		g.EnsureNode(Node{ID: rowIDPrefix + label, Type: NodeRow, Label: label})
		g.AddUndirected(Edge{From: rowIDPrefix + label, To: "ent:a", Type: EdgeMentions})
	}
	if last := fmt.Sprintf("row:t%dx/0", maxRanges); len(g.ranges) != maxRanges || g.vs[last] == nil || !g.HasEdge("ent:a", last, EdgeMentions) {
		t.Fatalf("%d ranges; %s listed: %v", len(g.ranges), last, g.vs[last] != nil)
	}
	// Each form read back and written in it is what it was.
	for name, write := range map[string]func(*Graph, io.Writer) error{
		"snapshot":  (*Graph).WriteJSON,
		"full form": func(g *Graph, w io.Writer) error { return refWriteJSON(g, w) },
	} {
		data := encode(t, func(w io.Writer) error { return write(g, w) })
		h, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := encode(t, func(w io.Writer) error { return write(h, w) }); !bytes.Equal(got, data) {
			t.Errorf("%s: read back and written, it moved", name)
		}
	}
	// A rows section of more ranges, which no writer makes, is refused.
	var rows bytes.Buffer
	for i := range maxRanges + 1 {
		if i > 0 {
			rows.WriteByte(',')
		}
		fmt.Fprintf(&rows, `{"prefix":"t%dx/","n":1,"text":[""],"mentions":[[]]}`, i)
	}
	if _, err := ReadJSON(bytes.NewReader(fmt.Appendf(nil, `{"nodes":[],"rows":[%s],"edges":null}`, rows.Bytes()))); err == nil {
		t.Errorf("%d ranges read", maxRanges+1)
	}
}
