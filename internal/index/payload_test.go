package index

import (
	"bytes"
	"maps"
	"os"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/slm"
	"repro/internal/workload"
)

// Each node type carries exactly the payload fields something reads: a
// field the builder fills and nobody looks at is paid for per node, in
// memory and in every snapshot, so a new one has to be added here too.
func TestPayloadByNodeType(t *testing.T) {
	type set struct{ text, doc, etype, verb, arg1, arg2 bool }
	want := map[graph.NodeType]set{
		graph.NodeChunk:  {text: true, doc: true},
		graph.NodeRow:    {text: true},
		graph.NodeEntity: {etype: true},
		graph.NodeCue:    {verb: true, arg1: true, arg2: true},
		graph.NodeDoc:    {},
	}
	for name, c := range map[string]*workload.Corpus{
		"ecommerce":  workload.ECommerce(workload.DefaultECommerceOptions()),
		"healthcare": workload.Healthcare(workload.DefaultHealthcareOptions()),
	} {
		ner := slm.NewNER()
		c.Register(ner)
		g, _, err := NewBuilder(ner, DefaultOptions()).Build(c.Sources)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[graph.NodeType]bool{}
		for _, id := range g.NodeIDs() {
			n := g.Node(id)
			seen[n.Type] = true
			w, ok := want[n.Type]
			got := set{n.Text != "", n.Doc != "", n.EType != "", n.Verb != "", n.Arg1 != "", n.Arg2 != ""}
			if !ok || got != w {
				t.Fatalf("%s: %s node %s has payload %+v, want %+v", name, n.Type, id, got, w)
			}
		}
		if len(seen) != len(want) {
			t.Errorf("%s: node types %v, want all of %v", name, slices.Collect(maps.Keys(seen)), slices.Collect(maps.Keys(want)))
		}
	}
}

// testdata/parent_graph.json is the graph of testSources as the commit
// before the typed payload wrote it — doc, chunk and row nodes carry
// "source", rows "kind" and one "f:<column>" per cell — edited in three
// places: one node's attrs is null, one's is {}, and one has a key no
// version wrote, twice. It loads as the graph built here, and what is
// then written is what the built graph writes.
func TestParentSnapshotLoads(t *testing.T) {
	data, err := os.ReadFile("testdata/parent_graph.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"source":`, `"kind":`, `"f:product":`, `"note":`, `"attrs":null`, `"attrs":{}`} {
		if !bytes.Contains(data, []byte(key)) {
			t.Fatalf("the fixture has no %s", key)
		}
	}
	got, err := graph.ReadJSON(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := NewBuilder(testNER(), DefaultOptions()).Build(testSources())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.NodeIDs(), want.NodeIDs()) {
		t.Fatalf("node ids %q, built %q", got.NodeIDs(), want.NodeIDs())
	}
	for _, id := range want.NodeIDs() {
		if g, w := got.Node(id), want.Node(id); *g != *w {
			t.Errorf("node %s: %+v, built %+v", id, *g, *w)
		}
		// Adjacency after a load is in file order, not insertion order.
		if g, w := got.Neighbors(id), want.Neighbors(id); !slices.Equal(g, w) || len(got.Out(id)) != len(want.Out(id)) || len(got.In(id)) != len(want.In(id)) {
			t.Errorf("node %s: neighbours %q, built %q", id, g, w)
		}
	}
	if got.SizeBytes() != want.SizeBytes() || got.EdgeCount() != want.EdgeCount() || !maps.Equal(got.CountByType(), want.CountByType()) {
		t.Errorf("statistics %d/%d %v, built %d/%d %v", got.EdgeCount(), got.SizeBytes(), got.CountByType(),
			want.EdgeCount(), want.SizeBytes(), want.CountByType())
	}
	if !reflect.DeepEqual(Triples(got), Triples(want)) {
		t.Error("triples differ from the built graph's")
	}

	write := func(g *graph.Graph) []byte {
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := write(got)
	if !bytes.Equal(first, write(want)) {
		t.Error("the loaded graph writes another snapshot than the built one")
	}
	if len(first) >= len(data) || bytes.Contains(first, []byte(`"source"`)) || bytes.Contains(first, []byte(`"f:`)) {
		t.Errorf("%d bytes written from %d: the dropped keys are still there", len(first), len(data))
	}
	back, err := graph.ReadJSON(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(write(back), first) {
		t.Error("write, read, write is not a fixed point")
	}
}
