package retrieval

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/slm"
	"repro/internal/store"
	"repro/internal/table"
)

// snapshotRecords is graph.json as encoding/json reads and writes it:
// the codec internal/graph had before its hand-written one, rebuilt here
// from the package's exported API because that package's own tests
// cannot import the index builder.
type snapshotRecords struct {
	Nodes []snapshotNode `json:"nodes"`
	Edges []graph.Edge   `json:"edges"`
}

// snapshotNode is a node as graph.json holds it: the payload fields are
// the members of an object, under these six keys, the empty ones left
// out and the object with them when all are.
type snapshotNode struct {
	ID      string            `json:"id"`
	Type    graph.NodeType    `json:"type"`
	Label   string            `json:"label"`
	Payload map[string]string `json:"attrs,omitempty"`
}

func referenceSnapshot(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	s := snapshotRecords{Nodes: []snapshotNode{}}
	for _, id := range g.NodeIDs() {
		n := g.Node(id)
		payload := map[string]string{"text": n.Text, "doc": n.Doc, "etype": n.EType, "verb": n.Verb, "arg1": n.Arg1, "arg2": n.Arg2}
		maps.DeleteFunc(payload, func(_, v string) bool { return v == "" })
		s.Nodes = append(s.Nodes, snapshotNode{ID: n.ID, Type: n.Type, Label: n.Label, Payload: payload})
		s.Edges = append(s.Edges, g.Out(id)...)
	}
	sortEdges(s.Edges)
	return encodeSnapshot(t, s)
}

// snapshotRange is one range of graph.json's rows section: rows
// "row:"+Prefix+k for k = 0…N−1, each with its text and its mentions,
// positions in the nodes array.
type snapshotRange struct {
	Prefix   string   `json:"prefix"`
	N        int      `json:"n"`
	Text     []string `json:"text"`
	Mentions [][]int  `json:"mentions"`
}

// expandSnapshot returns the full form of graph.json, as the format
// describes it: each range row becomes a row node and, for each node it
// mentions, a weight-1 mentions edge each way, merged into the listed
// nodes by id and the listed edges by (from, to, type).
func expandSnapshot(t *testing.T, data []byte) snapshotRecords {
	t.Helper()
	var s struct {
		snapshotRecords
		Rows []snapshotRange `json:"rows"`
	}
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	full := s.snapshotRecords
	for _, r := range s.Rows {
		if len(r.Text) != r.N || len(r.Mentions) != r.N {
			t.Fatalf("range %q of %d rows has %d texts and %d mention lists", r.Prefix, r.N, len(r.Text), len(r.Mentions))
		}
		for k := range r.N {
			label := r.Prefix + fmt.Sprint(k)
			row := snapshotNode{ID: "row:" + label, Type: graph.NodeRow, Label: label}
			if r.Text[k] != "" {
				row.Payload = map[string]string{"text": r.Text[k]}
			}
			full.Nodes = append(full.Nodes, row)
			for _, i := range r.Mentions[k] {
				to := s.Nodes[i].ID
				full.Edges = append(full.Edges, graph.Edge{From: row.ID, To: to, Type: graph.EdgeMentions, Weight: 1},
					graph.Edge{From: to, To: row.ID, Type: graph.EdgeMentions, Weight: 1})
			}
		}
	}
	sort.SliceStable(full.Nodes, func(i, j int) bool { return full.Nodes[i].ID < full.Nodes[j].ID })
	sortEdges(full.Edges)
	return full
}

// sortEdges puts edges in (from, to, type) order, ties as they stand.
func sortEdges(es []graph.Edge) {
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

// encodeSnapshot writes records as encoding/json does.
func encodeSnapshot(t *testing.T, s snapshotRecords) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func referenceLoad(t *testing.T, data []byte) *graph.Graph {
	t.Helper()
	s := expandSnapshot(t, data)
	g := graph.New()
	for _, n := range s.Nodes {
		p := n.Payload
		g.EnsureNode(graph.Node{ID: n.ID, Type: n.Type, Label: n.Label,
			Text: p["text"], Doc: p["doc"], EType: p["etype"], Verb: p["verb"], Arg1: p["arg1"], Arg2: p["arg2"]})
	}
	for _, e := range s.Edges {
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// evidenceChecksum is FNV-64a over (node id, score bits) of the evidence
// for every generator query at k = 8 and k < 0, with the evidence count.
func evidenceChecksum(r *Topology, queries []string) (uint64, int) {
	h := fnv.New64a()
	n := 0
	var b [8]byte
	for _, q := range queries {
		for _, k := range []int{8, -1} {
			for _, ev := range r.Retrieve(q, k) {
				n++
				h.Write([]byte(ev.NodeID))
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(ev.Score))
				h.Write(b[:])
			}
		}
	}
	return h.Sum64(), n
}

// TestSnapshotOnCorpora holds the graph codec to the encoding/json one
// on the graphs the repository benchmark saves: the full form of the
// bytes written is the reference's, the graph read back is the one the reference builds
// (nodes, both adjacency orders, statistics, PageRank bits), and
// retrieval over it gives the evidence it gave at the commit before the
// codec changed.
func TestSnapshotOnCorpora(t *testing.T) {
	type corpus struct {
		g       *graph.Graph
		ner     *slm.NER
		queries []string
	}
	corpora := map[string]corpus{}
	for _, name := range []string{"ecommerce", "healthcare"} {
		c, g, ner := benchCorpus(t, name, 42)
		var queries []string
		for _, q := range c.Queries {
			queries = append(queries, q.Text)
		}
		corpora[name] = corpus{g, ner, queries}
	}
	{
		// The restart workload's shape: row nodes of a facts table beside
		// the e-commerce corpus.
		c, _, ner := benchCorpus(t, "ecommerce", 7)
		facts := table.New("facts", table.Schema{{Name: "region", Type: table.TypeString}, {Name: "sku", Type: table.TypeString},
			{Name: "units", Type: table.TypeInt}, {Name: "revenue", Type: table.TypeFloat}})
		for i := 0; i < 2048; i++ {
			rev := table.F(float64(i%1009) * 0.75)
			if i%67 == 66 {
				rev = table.Null(table.TypeFloat)
			}
			facts.MustAppend([]table.Value{table.S(fmt.Sprint("region-", i%8)), table.S(fmt.Sprintf("SKU-%04d", i/64)), table.I(int64(1 + i%100)), rev})
		}
		cat := table.NewCatalog()
		cat.Put(facts)
		c.Sources.Add(store.NewRelationalStore("warehouse", cat))
		g, _, err := index.NewBuilder(ner, index.DefaultOptions()).Build(c.Sources)
		if err != nil {
			t.Fatal(err)
		}
		corpora["facts"] = corpus{g: g, ner: ner}
	}

	for name, c := range corpora {
		var buf bytes.Buffer
		if err := c.g.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		if full, want := encodeSnapshot(t, expandSnapshot(t, data)), referenceSnapshot(t, c.g); !bytes.Equal(full, want) {
			t.Errorf("%s: WriteJSON wrote %d bytes whose full form, %d bytes, is not the reference's %d", name, len(data), len(full), len(want))
		}
		if name == "facts" && !bytes.Contains(data, []byte(`{"prefix":"warehouse/facts/","n":2048,`)) {
			t.Errorf("%s: the facts table's rows are not one range", name)
		}
		got, err := graph.ReadJSON(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := referenceLoad(t, data)
		if !slices.Equal(got.NodeIDs(), want.NodeIDs()) {
			t.Fatalf("%s: node ids differ", name)
		}
		for _, id := range want.NodeIDs() {
			if !reflect.DeepEqual(got.Node(id), want.Node(id)) || !reflect.DeepEqual(got.Out(id), want.Out(id)) || !reflect.DeepEqual(got.In(id), want.In(id)) {
				t.Fatalf("%s: node %s or its adjacency differs from the reference's", name, id)
			}
		}
		if got.NodeCount() != want.NodeCount() || got.EdgeCount() != want.EdgeCount() || got.SizeBytes() != want.SizeBytes() ||
			!maps.Equal(got.CountByType(), want.CountByType()) {
			t.Errorf("%s: statistics %d/%d/%d %v, the reference's %d/%d/%d %v", name, got.NodeCount(), got.EdgeCount(), got.SizeBytes(),
				got.CountByType(), want.NodeCount(), want.EdgeCount(), want.SizeBytes(), want.CountByType())
		}
		if got.SizeBytes() != c.g.SizeBytes() || got.EdgeCount() != c.g.EdgeCount() {
			t.Errorf("%s: %d edges, %d bytes read back from %d and %d", name, got.EdgeCount(), got.SizeBytes(), c.g.EdgeCount(), c.g.SizeBytes())
		}
		gr, wr := got.View(nil).PageRank(0), want.View(nil).PageRank(0)
		if !slices.EqualFunc(gr, wr, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Errorf("%s: PageRank over the graph read back differs from the reference's", name)
		}
		var again bytes.Buffer
		if err := got.WriteJSON(&again); err != nil || !bytes.Equal(again.Bytes(), data) {
			t.Errorf("%s: the graph read back writes another snapshot (err %v)", name, err)
		}
		if name != "ecommerce" {
			continue
		}
		// Recorded at the commit before the codec changed, on the built
		// graph (as in the changelog of PR 13) and on the graph its
		// encoding/json reader built from its own snapshot: adjacency
		// order after a load is file order, so the path sums differ in
		// their last bits from the built graph's, and must not move.
		for _, at := range []struct {
			what string
			g    *graph.Graph
			want uint64
		}{{"built", c.g, 0x935b7b64682af50a}, {"loaded", got, 0xd456596598423a6d}} {
			sum, n := evidenceChecksum(NewTopology(at.g, c.ner, TopologyOptions{}), c.queries)
			if sum != at.want || n != 4361 {
				t.Errorf("%s graph: evidence checksum %#x over %d items, recorded %#x over 4361", at.what, sum, n, at.want)
			}
		}
	}
}
