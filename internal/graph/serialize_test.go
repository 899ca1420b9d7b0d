package graph

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"unicode/utf8"
)

// hostile are strings that exercise every branch of the string codec:
// each escape class, multi-byte runes, and invalid UTF-8.
var hostile = []string{
	"", "plain", `quote"back\slash/`, "ctl\x00\x01\b\f\n\r\t\x1f\x7f", "<script>&amp;</script>",
	"sep\u2028\u2029", "é世界😀", "bad\xff\xfeutf8\xc3", "trunc\xe2\x80", "\ufffd", `\u0041 is not an escape here`,
}

// setWeight overwrites the weight of edge i of from's out list and of
// its twin in the target's in list, to values AddEdge would not store.
func setWeight(g *Graph, from string, i int, w float64) {
	src := g.vs[from]
	h := &src.out[i]
	twin := half{w: h.w, nb: src.num, typ: h.typ}
	for j := range g.verts[h.nb].in {
		if in := &g.verts[h.nb].in[j]; *in == twin {
			in.w = w
			break
		}
	}
	h.w = w
}

// hostileNodes have every hostile string as an id, a label, a type and
// in each payload field.
func hostileNodes() []Node {
	var out []Node
	for i, s := range hostile {
		n := Node{Type: NodeType(s), Label: s}
		for j, p := range n.payload() {
			*p = hostile[(i+j)%len(hostile)]
		}
		// One id only may be invalid UTF-8: two would read back as one.
		n.ID = fmt.Sprintf("n%d:%s", i, strings.ToValidUTF8(s, "?"))
		if i == 7 {
			n.ID = s
		}
		out = append(out, n)
	}
	return out
}

// hostileGraph has the hostile nodes, and edges of every hostile type
// with the weights whose text form is special.
func hostileGraph(t testing.TB) *Graph {
	g := New()
	for _, n := range hostileNodes() {
		if err := g.EnsureNode(n); err != nil {
			t.Fatal(err)
		}
	}
	ids := g.NodeIDs()
	weights := []float64{1, 0.5, 1e-7, 1e-6, 1e21, 1e20, -2.5, 123456789.125, 5e-324, math.MaxFloat64, 3, math.Nextafter(0.3, 1)}
	for i, w := range weights {
		from, to := ids[i%len(ids)], ids[(i*7+3)%len(ids)]
		if err := g.AddEdge(Edge{From: from, To: to, Type: EdgeType(hostile[i%len(hostile)]), Weight: w}); err != nil {
			t.Fatal(err)
		}
	}
	// Weights AddEdge turns into 1, as a graph built some other way may
	// hold them.
	g.AddEdge(Edge{From: ids[0], To: ids[1], Type: "zero"})
	setWeight(g, ids[0], len(g.vs[ids[0]].out)-1, 0)
	g.AddEdge(Edge{From: ids[0], To: ids[2], Type: "negzero"})
	setWeight(g, ids[0], len(g.vs[ids[0]].out)-1, math.Copysign(0, -1))
	return g
}

// parallelGraph has edges that differ only in weight, inserted in an
// order no sort key explains, and out lists that are not in (to, type)
// order.
func parallelGraph(t testing.TB) *Graph {
	g := New()
	for _, id := range []string{"c", "a", "b"} {
		g.EnsureNode(Node{ID: id, Type: NodeEntity, Label: strings.ToUpper(id)})
	}
	for _, e := range []Edge{
		{"a", "c", EdgeRelates, 3}, {"a", "b", EdgeRelates, 0.25}, {"a", "b", EdgeRelates, 9},
		{"a", "b", EdgeMentions, 2}, {"a", "b", EdgeRelates, 0.5}, {"c", "a", EdgeNextTo, 7},
		{"a", "b", EdgeRelates, 0.25}, {"a", "a", "same_as", 1}, {"c", "a", EdgeNextTo, 4},
	} {
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// indexLikeGraph is a seeded graph shaped like an index: typed nodes,
// some of the payload fields, skewed degrees.
func indexLikeGraph(seed int64, nodes, edges int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New()
	types := []NodeType{NodeChunk, NodeEntity, NodeCue, NodeRow, "table", NodeDoc, "value", "custom"}
	etypes := []EdgeType{EdgeMentions, EdgeRelates, EdgeCueArg, EdgeCueIn, EdgeNextTo, EdgePartOf, "value", "same_as", "other"}
	for i := 0; i < nodes; i++ {
		n := Node{ID: fmt.Sprintf("%s:%d", types[i%len(types)], rng.Intn(1<<20)*nodes+i), Type: types[i%len(types)], Label: fmt.Sprint("label ", i)}
		fields := n.payload()
		for _, p := range fields[:rng.Intn(len(fields)+1)] {
			*p = fmt.Sprintf("%s of %d", strings.ToValidUTF8(hostile[rng.Intn(len(hostile))], "?"), rng.Intn(100))
		}
		g.EnsureNode(n)
	}
	ids := g.NodeIDs()
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for i := 0; i < edges; i++ {
		from, to := ids[rng.Intn(1+rng.Intn(len(ids)))], ids[rng.Intn(len(ids))]
		e := Edge{From: from, To: to, Type: etypes[rng.Intn(len(etypes))], Weight: float64(rng.Intn(4))}
		if rng.Intn(3) == 0 {
			e.Weight = rng.ExpFloat64()
		}
		if rng.Intn(2) == 0 {
			g.AddUndirected(e)
		} else {
			g.AddEdge(e)
		}
	}
	return g
}

// rangeGraph is shaped like an index over tables, its vertices and
// edges inserted out of id order: runs of row vertices the rows section
// holds, beside rows it cannot hold, each for one reason.
func rangeGraph(t testing.TB) *Graph {
	g := New()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mention := func(from, to string) { check(g.AddUndirected(Edge{From: from, To: to, Type: EdgeMentions})) }
	row := func(label, text string) string {
		id := "row:" + label
		check(g.EnsureNode(Node{ID: id, Type: NodeRow, Label: label, Text: text}))
		return id
	}
	ents := []string{"entity:sku-2", "entity:north", "entity:sku-1", "entity:south"}
	for _, e := range ents {
		check(g.EnsureNode(Node{ID: e, Type: NodeEntity, Label: strings.TrimPrefix(e, "entity:"), EType: "ID"}))
	}
	check(g.EnsureNode(Node{ID: "chunk:1", Type: NodeChunk, Label: "1", Text: "north sells sku-1", Doc: "doc:1"}))
	mention("chunk:1", "entity:north")
	// A run of 0…119 whose lexicographic order is not its numeric one,
	// rows with no mention, one, two, one whose twin was made from the
	// entity's side, and one a chunk mentions; one row has no text.
	for k := 0; k < 120; k++ {
		text := fmt.Sprintf("region: %s; units: %d", ents[k%4], k)
		if k == 7 {
			text = ""
		}
		id := row(fmt.Sprintf("db/facts/%d", k), text)
		switch k % 4 {
		case 1:
			mention(id, ents[k%3])
		case 2:
			mention(id, ents[2])
			mention(id, ents[0])
		case 3:
			mention(ents[3], id)
		}
		if k == 5 {
			mention("chunk:1", id)
		}
	}
	// A listed node whose id sorts inside that run, with edges among the
	// run's.
	check(g.EnsureNode(Node{ID: "row:db/facts/1x", Type: NodeEntity, Label: "1x"}))
	check(g.AddEdge(Edge{From: "row:db/facts/1x", To: "entity:north", Type: EdgeRelates, Weight: 2}))
	check(g.AddEdge(Edge{From: "entity:north", To: "row:db/facts/1x", Type: EdgeRelates}))
	check(g.AddEdge(Edge{From: "entity:north", To: "entity:south", Type: EdgeRelates, Weight: 3}))
	check(g.AddEdge(Edge{From: "entity:north", To: "entity:south", Type: EdgeRelates, Weight: 0.5}))
	// A prefix that ends in a letter, whose rows come out of order after
	// six in order; a run of one; two runs whose ids interleave ("a/1x0"
	// sorts between "a/11" and "a/2").
	for _, k := range []int{0, 1, 2, 3, 4, 5, 11, 10, 9, 8, 7, 6} {
		mention(row(fmt.Sprintf("events/o%d", k), "event"), ents[k%4])
	}
	mention(row("db/one/0", "only"), "entity:north")
	for k := 0; k < 12; k++ {
		row(fmt.Sprintf("a/%d", k), "a")
	}
	row("a/1x0", "c")
	mention(row("a/1x1", "b"), "entity:south")
	// A run whose middle row gains an edge no range spells.
	for k := 0; k < 4; k++ {
		mention(row(fmt.Sprintf("db/late/%d", k), "late"), ents[k%4])
	}
	check(g.AddEdge(Edge{From: "row:db/late/1", To: "entity:north", Type: EdgeRelates}))
	// Rows no range holds: a hole; a number with leading zeros alone; a
	// label that is not the id's rest; a payload besides text; a mention
	// of weight 0.5; a mention without its twin; an edge of another type;
	// and two rows that mention each other.
	row("db/hole/0", "h")
	row("db/hole/2", "h")
	row("x/007", "z")
	check(g.EnsureNode(Node{ID: "row:db/label/0", Type: NodeRow, Label: "db/other/0"}))
	row("db/label/1", "l")
	check(g.EnsureNode(Node{ID: "row:db/doc/0", Type: NodeRow, Label: "db/doc/0", Text: "d", Doc: "doc:1"}))
	check(g.AddUndirected(Edge{From: row("db/w/0", "w"), To: "entity:north", Type: EdgeMentions, Weight: 0.5}))
	check(g.AddEdge(Edge{From: row("db/oneway/0", "o"), To: "entity:north", Type: EdgeMentions}))
	check(g.AddUndirected(Edge{From: row("db/type/0", "t"), To: "entity:north", Type: EdgeRelates}))
	mention(row("db/r2r/0", "r"), row("db/r2s/0", "s"))
	return g
}

// rangedPrefixes are the runs WriteJSON writes as ranges for each codec
// graph that has one: prefix and row count.
var rangedPrefixes = map[string]map[string]int{
	"ranges":     {"db/facts/": 120, "db/one/": 1, "a/": 12, "a/1x": 2},
	"tiny-range": {"t/": 2},
	"one-row":    {"o": 1},
}

func codecGraphs(t testing.TB) map[string]*Graph {
	lone := New()
	lone.EnsureNode(Node{ID: "only", Type: NodeDoc, Label: "no edges"})
	chain := New()
	for _, id := range []string{"a", "b", "c"} {
		chain.EnsureNode(Node{ID: id, Type: NodeChunk, Label: id, Text: "chunk " + id})
	}
	chain.AddEdge(Edge{From: "a", To: "b", Type: EdgeNextTo})
	chain.AddUndirected(Edge{From: "c", To: "a", Type: EdgeMentions, Weight: 0.5})
	// One node and a self-loop, each escape class somewhere.
	small := New()
	small.EnsureNode(Node{ID: hostile[2], Type: NodeCue, Label: hostile[3], Verb: hostile[5], Arg1: hostile[6], Arg2: hostile[7], Text: hostile[4]})
	small.AddEdge(Edge{From: hostile[2], To: hostile[2], Type: EdgeType(hostile[4]), Weight: 1e-7})
	// Ranges small enough to cut at every byte: one beside a listed id
	// inside it; one of a single row beside a self-loop.
	tiny := New()
	tiny.EnsureNode(Node{ID: "e", Type: NodeEntity, Label: "e"})
	tiny.EnsureNode(Node{ID: "row:t/0", Type: NodeRow, Label: "t/0", Text: "a \"quoted\" <row>"})
	tiny.AddUndirected(Edge{From: "row:t/0", To: "e", Type: EdgeMentions})
	tiny.EnsureNode(Node{ID: "row:t/1", Type: NodeRow, Label: "t/1"})
	tiny.EnsureNode(Node{ID: "row:t/0x", Type: NodeDoc, Label: "0x"})
	tiny.AddEdge(Edge{From: "row:t/0x", To: "e", Type: EdgeNextTo})
	one := New()
	one.EnsureNode(Node{ID: "row:o0", Type: NodeRow, Label: "o0", Text: "one"})
	one.EnsureNode(Node{ID: "x", Type: NodeEntity, Label: "x"})
	one.AddUndirected(Edge{From: "x", To: "row:o0", Type: EdgeMentions})
	one.AddEdge(Edge{From: "x", To: "x", Type: EdgeRelates})
	return map[string]*Graph{
		"ranges":     rangeGraph(t),
		"tiny-range": tiny,
		"one-row":    one,
		"empty":      New(),
		"lone":       lone,
		"chain":      chain,
		"small":      small,
		"hostile":    hostileGraph(t),
		"parallel":   parallelGraph(t),
		"random":     indexLikeGraph(1, 300, 1500),
		"dense":      indexLikeGraph(2, 12, 400),
	}
}

// sameGraph fails unless got is want in everything a caller can see:
// nodes, both adjacency lists of every vertex in order, the running
// statistics, and the index-space view.
func sameGraph(t testing.TB, got, want *Graph) {
	t.Helper()
	if !slices.Equal(got.NodeIDs(), want.NodeIDs()) {
		t.Fatalf("node ids %q, want %q", got.NodeIDs(), want.NodeIDs())
	}
	for _, id := range want.NodeIDs() {
		if g, w := got.Node(id), want.Node(id); !reflect.DeepEqual(g, w) {
			t.Fatalf("node %q: %#v, want %#v", id, g, w)
		}
		if g, w := got.Out(id), want.Out(id); !reflect.DeepEqual(g, w) {
			t.Fatalf("out of %q: %v, want %v", id, g, w)
		}
		if g, w := got.In(id), want.In(id); !reflect.DeepEqual(g, w) {
			t.Fatalf("in of %q: %v, want %v", id, g, w)
		}
	}
	if got.NodeCount() != want.NodeCount() || got.EdgeCount() != want.EdgeCount() || got.SizeBytes() != want.SizeBytes() {
		t.Fatalf("nodes/edges/size %d/%d/%d, want %d/%d/%d", got.NodeCount(), got.EdgeCount(), got.SizeBytes(),
			want.NodeCount(), want.EdgeCount(), want.SizeBytes())
	}
	if !maps.Equal(got.CountByType(), want.CountByType()) {
		t.Fatalf("by type %v, want %v", got.CountByType(), want.CountByType())
	}
	gv, wv := got.View(nil), want.View(nil)
	if !slices.Equal(gv.outOff, wv.outOff) || !slices.Equal(gv.dst, wv.dst) || !slices.Equal(gv.typ, wv.typ) ||
		!slices.Equal(gv.inOff, wv.inOff) || !slices.Equal(gv.src, wv.src) {
		t.Fatal("views differ")
	}
}

func encode(t testing.TB, write func(io.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// expanded is the full form of a snapshot, as the reference expands it.
func expanded(t testing.TB, data []byte) []byte {
	t.Helper()
	full, err := refExpandJSON(data)
	if err != nil {
		t.Fatalf("%v\n%s", err, data)
	}
	return full
}

// rangesOf returns the prefix and row count of each range of a snapshot.
func rangesOf(t testing.TB, data []byte) map[string]int {
	var f refFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	out := map[string]int{}
	for _, r := range f.Rows {
		out[r.Prefix] = r.N
	}
	return out
}

// TestWriteJSONMatchesReference holds the full form of what WriteJSON
// writes to the reference's bytes, and the ranges it writes to the runs
// the format lets it spell.
func TestWriteJSONMatchesReference(t *testing.T) {
	for name, g := range codecGraphs(t) {
		got := encode(t, g.WriteJSON)
		want := encode(t, func(w io.Writer) error { return refWriteJSON(g, w) })
		if full := expanded(t, got); !bytes.Equal(full, want) {
			t.Errorf("%s:\n got %s\nfull %s\nwant %s", name, got, full, want)
		}
		if ranges := rangesOf(t, got); !maps.Equal(ranges, rangedPrefixes[name]) && len(ranges)+len(rangedPrefixes[name]) > 0 {
			t.Errorf("%s: ranges %v, want %v", name, ranges, rangedPrefixes[name])
		}
		if _, ok := rangedPrefixes[name]; !ok && !bytes.Equal(got, want) {
			t.Errorf("%s: a snapshot without ranges is not the full form", name)
		}
	}
	// The text forms the number codec special-cases, spelled out.
	g := hostileGraph(t)
	out := string(encode(t, g.WriteJSON))
	for _, lit := range []string{`"weight":0}`, `"weight":-0}`, `"weight":1e-7}`, `"weight":0.000001}`, `"weight":1e+21}`,
		`"weight":100000000000000000000}`, `"weight":5e-324}`, `"weight":0.30000000000000004}`} {
		if !strings.Contains(out, lit) {
			t.Errorf("no %s in the hostile snapshot", lit)
		}
	}
}

// TestWriteJSONRejectsNonFinite pins that a weight JSON cannot spell is
// an error, as it is for the reference, and never invalid output.
func TestWriteJSONRejectsNonFinite(t *testing.T) {
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		g := parallelGraph(t)
		setWeight(g, "c", 0, w)
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err == nil {
			t.Errorf("weight %v written as %s", w, buf.Bytes())
		}
		if err := refWriteJSON(g, io.Discard); err == nil {
			t.Errorf("weight %v: the reference has no error", w)
		}
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct {
	n   int
	err error
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n < len(p) {
		n := f.n
		f.n = 0
		return n, f.err
	}
	f.n -= len(p)
	return len(p), nil
}

// TestWriteJSONReportsWriterError fails the writer at every distance
// into a snapshot larger than the codec's buffer, the final flush
// included.
func TestWriteJSONReportsWriterError(t *testing.T) {
	g := indexLikeGraph(3, 600, 3000)
	size := len(encode(t, g.WriteJSON))
	if size < 128<<10 {
		t.Fatalf("snapshot of %d bytes does not overflow the buffer twice", size)
	}
	boom := errors.New("disk full")
	for n := 0; n < size; n += size / 23 {
		if err := g.WriteJSON(&failAfter{n, boom}); !errors.Is(err, boom) {
			t.Errorf("writer failing after %d of %d bytes: err = %v", n, size, err)
		}
	}
	if err := g.WriteJSON(&failAfter{size - 1, boom}); !errors.Is(err, boom) {
		t.Errorf("writer failing on the last byte: err = %v", err)
	}
	if err := g.WriteJSON(&failAfter{size, boom}); err != nil {
		t.Errorf("writer with room for everything: err = %v", err)
	}
}

// TestSnapshotFixedPoint pins the tie rule — edges equal in (from, to,
// type) keep adjacency order — and that write, read, write reproduces
// the bytes, for parallel edges and for the empty graph's null edges.
func TestSnapshotFixedPoint(t *testing.T) {
	first := encode(t, parallelGraph(t).WriteJSON)
	want := `{"nodes":[{"id":"a","type":"entity","label":"A"},{"id":"b","type":"entity","label":"B"},{"id":"c","type":"entity","label":"C"}],` +
		`"edges":[{"from":"a","to":"a","type":"same_as","weight":1},{"from":"a","to":"b","type":"mentions","weight":2},` +
		`{"from":"a","to":"b","type":"relates","weight":0.25},{"from":"a","to":"b","type":"relates","weight":9},` +
		`{"from":"a","to":"b","type":"relates","weight":0.5},{"from":"a","to":"b","type":"relates","weight":0.25},` +
		`{"from":"a","to":"c","type":"relates","weight":3},{"from":"c","to":"a","type":"next","weight":7},{"from":"c","to":"a","type":"next","weight":4}]}` + "\n"
	if string(first) != want {
		t.Errorf("parallel edges:\n got %s\nwant %s", first, want)
	}
	if got := string(encode(t, New().WriteJSON)); got != `{"nodes":[],"edges":null}`+"\n" {
		t.Errorf("empty graph: %s", got)
	}
	for name, g := range codecGraphs(t) {
		if name == "hostile" || name == "small" {
			continue // invalid UTF-8 is written as U+FFFD, which reads as itself
		}
		first := encode(t, g.WriteJSON)
		back, err := ReadJSON(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if second := encode(t, back.WriteJSON); !bytes.Equal(first, second) {
			t.Errorf("%s: second snapshot differs:\n%s\n%s", name, first, second)
		}
	}
}

// variant spells the snapshot of g another way: keys in reverse order,
// whitespace wherever JSON allows it, every string character as a \u
// escape, null for empty arrays and attrs, {} for empty attrs, or with
// the attrs keys that are no payload field, as earlier versions wrote
// them — one of them twice.
type variant struct{ rekey, space, escape, nulls, emptyObject, legacy bool }

func (v variant) snapshot(t testing.TB, g *Graph) []byte {
	var s refSerialized
	if err := json.Unmarshal(encode(t, func(w io.Writer) error { return refWriteJSON(g, w) }), &s); err != nil {
		t.Fatal(err)
	}
	sp := func() string {
		if v.space {
			return " \t\r\n"
		}
		return ""
	}
	str := func(s string) string {
		if !v.escape || !utf8.ValidString(s) {
			b, _ := json.Marshal(s)
			return string(b)
		}
		var b strings.Builder
		b.WriteByte('"')
		for _, r := range s {
			if r >= 0x10000 {
				r -= 0x10000
				fmt.Fprintf(&b, `\u%04x\u%04X`, 0xD800+r>>10, 0xDC00+r&0x3FF)
			} else {
				fmt.Fprintf(&b, `\u%04x`, r)
			}
		}
		b.WriteByte('"')
		return b.String()
	}
	object := func(members [][2]string) string {
		if v.rekey {
			slices.Reverse(members)
		}
		parts := make([]string, len(members))
		for i, m := range members {
			parts[i] = sp() + str(m[0]) + sp() + ":" + sp() + m[1] + sp()
		}
		return "{" + sp() + strings.Join(parts, ",") + "}"
	}
	array := func(items []string) string {
		if len(items) == 0 && v.nulls {
			return "null"
		}
		return "[" + sp() + strings.Join(items, sp()+","+sp()) + sp() + "]"
	}
	var nodes, edges []string
	for _, n := range s.Nodes {
		members := [][2]string{{"id", str(n.ID)}, {"type", str(string(n.Type))}, {"label", str(n.Label)}}
		var attrs [][2]string
		if v.legacy {
			if n.Payload == nil {
				n.Payload = map[string]string{}
			}
			for i, k := range append(hostile[:4:4], "source", "kind", "f:region", "Text", "text ") {
				n.Payload[k] = hostile[(i+len(n.ID))%len(hostile)]
			}
		}
		for _, k := range slices.Sorted(maps.Keys(n.Payload)) {
			attrs = append(attrs, [2]string{k, str(n.Payload[k])})
		}
		if v.legacy {
			attrs = append(attrs, [2]string{"kind", `""`})
		}
		switch {
		case len(attrs) > 0 || v.emptyObject:
			members = append(members, [2]string{"attrs", object(attrs)})
		case v.nulls:
			members = append(members, [2]string{"attrs", "null"})
		}
		nodes = append(nodes, object(members))
	}
	for _, e := range s.Edges {
		edges = append(edges, object([][2]string{{"from", str(e.From)}, {"to", str(e.To)}, {"type", str(string(e.Type))},
			{"weight", string(must(json.Marshal(e.Weight)))}}))
	}
	return []byte(sp() + object([][2]string{{"nodes", array(nodes)}, {"edges", array(edges)}}) + sp())
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

var variants = map[string]variant{
	"rekeyed":   {rekey: true},
	"respaced":  {space: true},
	"escaped":   {escape: true},
	"nulls":     {nulls: true},
	"empty":     {emptyObject: true},
	"legacy":    {legacy: true},
	"all":       {rekey: true, space: true, escape: true, nulls: true},
	"all-empty": {rekey: true, space: true, escape: true, emptyObject: true, legacy: true},
}

// readBoth reads data with the codec and with the reference and fails
// unless both accept it and build the same graph.
func readBoth(t testing.TB, name string, data []byte) *Graph {
	t.Helper()
	got, err := ReadJSON(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, data)
	}
	want, err := refReadJSON(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	sameGraph(t, got, want)
	return got
}

func TestReadJSONMatchesReference(t *testing.T) {
	for name, g := range codecGraphs(t) {
		loaded := readBoth(t, name, encode(t, g.WriteJSON))
		for vname, v := range variants {
			data := v.snapshot(t, g)
			if v.rekey && g.EdgeCount() > 0 && bytes.Index(data, []byte("edges")) > bytes.Index(data, []byte("nodes")) {
				t.Fatalf("%s/%s: edges do not come first", name, vname)
			}
			sameGraph(t, readBoth(t, name+"/"+vname, data), loaded)
		}
	}
	// A reader that says nothing of its length, one byte at a time.
	data := encode(t, indexLikeGraph(4, 50, 200).WriteJSON)
	got, err := ReadJSON(iotest.OneByteReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, got, readBoth(t, "one byte", data))
	boom := errors.New("read failed")
	if _, err := ReadJSON(io.MultiReader(bytes.NewReader(data[:100]), iotest.ErrReader(boom))); !errors.Is(err, boom) {
		t.Errorf("failing reader: err = %v", err)
	}
}

// TestReadJSONRejects lists what the codec refuses. The reference lets
// some of it pass (it matches keys in any case, keeps the last of
// repeated keys, ignores unknown ones and whatever follows the object,
// replaces invalid UTF-8): the codec accepts only what it would write,
// spelled any valid way, and in attrs the keys it would not.
func TestReadJSONRejects(t *testing.T) {
	node := func(id string) string { return `{"id":"` + id + `","type":"doc","label":""}` }
	doc := func(nodes, edges string) string { return `{"nodes":[` + nodes + `],"edges":[` + edges + `]}` }
	edge := `{"from":"a","to":"b","type":"next","weight":1}`
	ab := node("a") + "," + node("b")
	rows := func(ranges string) string { return `{"nodes":[` + ab + `],"rows":[` + ranges + `],"edges":null}` }
	for name, in := range map[string]string{
		"empty input":           "",
		"only whitespace":       " \n",
		"top-level null":        "null",
		"top-level array":       "[]",
		"unknown top key":       `{"nodes":[],"edges":null,"version":2}`,
		"key in another case":   `{"Nodes":[],"edges":null}`,
		"repeated nodes":        `{"nodes":[],"nodes":[],"edges":null}`,
		"repeated edges":        `{"edges":null,"nodes":[],"edges":null}`,
		"trailing bytes":        doc(ab, edge) + "{}",
		"trailing garbage":      doc(ab, edge) + "\n x",
		"second document":       doc(ab, edge) + doc(ab, edge),
		"unknown node key":      doc(`{"id":"a","type":"doc","label":"","extra":"x"}`, ""),
		"repeated node key":     doc(`{"id":"a","type":"doc","label":"","id":"b"}`, ""),
		"repeated attrs":        doc(`{"id":"a","attrs":{},"attrs":{}}`, ""),
		"repeated attr key":     doc(`{"id":"a","attrs":{"text":"1","k":"","text":"2"}}`, ""),
		"repeated as empty":     doc(`{"id":"a","attrs":{"doc":"","doc":""}}`, ""),
		"null id":               doc(`{"id":null}`, ""),
		"null attr value":       doc(`{"id":"a","attrs":{"etype":null}}`, ""),
		"null unknown attr":     doc(`{"id":"a","attrs":{"k":null}}`, ""),
		"number for an attr":    doc(`{"id":"a","attrs":{"k":7}}`, ""),
		"object for an attr":    doc(`{"id":"a","attrs":{"k":{}}}`, ""),
		"bad escape in attr":    doc(`{"id":"a","attrs":{"k":"\x"}}`, ""),
		"number for a string":   doc(`{"id":7}`, ""),
		"nodes not an array":    `{"nodes":{},"edges":null}`,
		"node not an object":    doc(`"a"`, ""),
		"attrs not an object":   doc(`{"id":"a","attrs":[]}`, ""),
		"unknown edge key":      doc(ab, `{"from":"a","to":"b","type":"next","weight":1,"label":"x"}`),
		"repeated edge key":     doc(ab, `{"from":"a","to":"b","type":"next","weight":1,"to":"a"}`),
		"null weight":           doc(ab, `{"from":"a","to":"b","type":"next","weight":null}`),
		"string weight":         doc(ab, `{"from":"a","to":"b","type":"next","weight":"1"}`),
		"leading zero":          doc(ab, `{"from":"a","to":"b","type":"next","weight":01}`),
		"leading plus":          doc(ab, `{"from":"a","to":"b","type":"next","weight":+1}`),
		"bare point":            doc(ab, `{"from":"a","to":"b","type":"next","weight":1.}`),
		"no integer part":       doc(ab, `{"from":"a","to":"b","type":"next","weight":.5}`),
		"bare exponent":         doc(ab, `{"from":"a","to":"b","type":"next","weight":1e}`),
		"hex weight":            doc(ab, `{"from":"a","to":"b","type":"next","weight":0x10}`),
		"NaN weight":            doc(ab, `{"from":"a","to":"b","type":"next","weight":NaN}`),
		"weight out of range":   doc(ab, `{"from":"a","to":"b","type":"next","weight":1e999}`),
		"minus alone":           doc(ab, `{"from":"a","to":"b","type":"next","weight":-}`),
		"raw control byte":      doc(node("a\x01"), ""),
		"raw newline":           doc(node("a\nb"), ""),
		"invalid UTF-8":         doc(node("a\xff"), ""),
		"truncated rune":        doc(node("a\xe2\x80"), ""),
		"invalid UTF-8 in key":  doc(`{"id":"a","attrs":{"k\xff":"v"}}`, ""),
		"escape then bad UTF8":  doc(node(`a\n`+"\xff"), ""),
		"unknown escape":        doc(node(`a\x41`), ""),
		"short \\u":             doc(node(`a\u12`), ""),
		"non-hex \\u":           doc(node(`a\u12g4`), ""),
		"lone high surrogate":   doc(node(`a\ud83d`), ""),
		"lone low surrogate":    doc(node(`a\ude00`), ""),
		"high then non-low":     doc(node(`a\ud83d\u0041`), ""),
		"high then high":        doc(node(`a\ud83d\ud83d`), ""),
		"unterminated string":   `{"nodes":[{"id":"a`,
		"escape at the end":     `{"nodes":[{"id":"a\`,
		"missing comma":         doc(node("a")+node("b"), ""),
		"trailing comma":        doc(node("a")+",", ""),
		"trailing member":       `{"nodes":[],}`,
		"single quotes":         `{'nodes':[]}`,
		"missing colon":         `{"nodes" []}`,
		"unclosed":              `{"nodes":[],"edges":null`,
		"nul":                   "null",
		"nulls":                 `{"nodes":nulls}`,
		"repeated rows":         `{"nodes":[],"rows":[],"edges":null,"rows":[]}`,
		"rows not an array":     `{"nodes":[],"rows":{}}`,
		"unknown range key":     rows(`{"prefix":"t/","n":1,"text":["x"],"mentions":[[0]],"first":0}`),
		"repeated range key":    rows(`{"prefix":"t/","n":1,"text":["x"],"mentions":[[0]],"prefix":"u/"}`),
		"null prefix":           rows(`{"prefix":null,"n":1,"text":["x"],"mentions":[[0]]}`),
		"fractional n":          rows(`{"prefix":"t/","n":1.0,"text":["x"],"mentions":[[0]]}`),
		"n over the texts":      rows(`{"prefix":"t/","n":2,"text":["x"],"mentions":[[0],[0]]}`),
		"n under the texts":     rows(`{"prefix":"t/","n":1,"text":["x","y"],"mentions":[[0]]}`),
		"n over the mentions":   rows(`{"prefix":"t/","n":2,"text":["x","y"],"mentions":[[0]]}`),
		"negative n":            rows(`{"prefix":"t/","n":-1,"text":[],"mentions":[]}`),
		"no n":                  rows(`{"prefix":"t/","text":["x"],"mentions":[[0]]}`),
		"null text":             rows(`{"prefix":"t/","n":1,"text":[null],"mentions":[[0]]}`),
		"mention past nodes":    rows(`{"prefix":"t/","n":1,"text":["x"],"mentions":[[2]]}`),
		"negative mention":      rows(`{"prefix":"t/","n":1,"text":["x"],"mentions":[[-1]]}`),
		"fractional mention":    rows(`{"prefix":"t/","n":1,"text":["x"],"mentions":[[0.5]]}`),
		"mention too large":     rows(`{"prefix":"t/","n":1,"text":["x"],"mentions":[[2147483648]]}`),
		"mentions out of order": rows(`{"prefix":"t/","n":1,"text":["x"],"mentions":[[1,0]]}`),
		"nodes out of order":    `{"nodes":[` + node("b") + "," + node("a") + `],"rows":[{"prefix":"t/","n":1,"text":["x"],"mentions":[[0]]}]}`,
		"edges out of order": `{"nodes":[` + ab + `],"rows":[{"prefix":"t/","n":1,"text":["x"],"mentions":[[0]]}],"edges":[` +
			`{"from":"b","to":"a","type":"next","weight":1},` + edge + `]}`,
		"edge types out of order": `{"nodes":[` + ab + `],"rows":[{"prefix":"t/","n":1,"text":["x"],"mentions":[[0]]}],"edges":[` +
			`{"from":"a","to":"b","type":"x","weight":1},` + edge + `]}`,
	} {
		if g, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q as %d nodes, %d edges", name, in, g.NodeCount(), g.EdgeCount())
		} else if !strings.HasPrefix(err.Error(), "graph: decode: ") {
			t.Errorf("%s: err = %v", name, err)
		}
	}
	// The checks on a node and on an edge, wherever the array stands.
	for name, c := range map[string]struct {
		in   string
		want error
	}{
		"empty id":           {doc(`{"id":"","type":"doc"}`, ""), ErrNodeNotFound},
		"no id":              {doc(`{"type":"doc"}`, ""), ErrNodeNotFound},
		"duplicate node":     {doc(ab+","+node("a"), ""), ErrNodeExists},
		"duplicate by \\u":   {doc(ab+","+node(`\u0061`), ""), ErrNodeExists},
		"missing target":     {doc(ab, `{"from":"a","to":"zz","type":"next","weight":1}`), ErrBadEdge},
		"missing source":     {doc(ab, `{"from":"zz","to":"a","type":"next","weight":1}`), ErrBadEdge},
		"no target":          {doc(ab, `{"from":"a","type":"next","weight":1}`), ErrBadEdge},
		"edges without node": {`{"edges":[` + edge + `]}`, ErrBadEdge},
		"edges first":        {`{"edges":[{"from":"a","to":"zz","type":"next","weight":1}],"nodes":[` + ab + `]}`, ErrBadEdge},
		"range id taken":     {`{"nodes":[` + node("row:t/0") + `],"rows":[{"prefix":"t/","n":1,"text":["x"],"mentions":[[]]}]}`, ErrNodeExists},
		"range id listed after": {`{"rows":[{"prefix":"t/","n":2,"text":["x","y"],"mentions":[[0],[]]}],"nodes":[` + node("a") + "," +
			node("row:t/1") + `]}`, ErrNodeExists},
		"ranges overlap": {rows(`{"prefix":"t/","n":11,"text":["","","","","","","","","","",""],"mentions":[[],[],[],[],[],[],[],[],[],[],[]]},` +
			`{"prefix":"t/1","n":1,"text":["x"],"mentions":[[]]}`), ErrNodeExists},
		"digit prefix over a listed id": {`{"nodes":[` + node("row:t/05") + `],"rows":[{"prefix":"t/0","n":10,"text":["","","","","","","","","",""],"mentions":[[],[],[],[],[],[],[],[],[],[]]}]}`, ErrNodeExists},
		"range twice":                   {rows(`{"prefix":"t/","n":1,"text":[""],"mentions":[[]]},{"prefix":"t/","n":1,"text":["x"],"mentions":[[]]}`), ErrNodeExists},
	} {
		_, err := ReadJSON(strings.NewReader(c.in))
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", name, err, c.want)
		}
		if _, rerr := refReadJSON(strings.NewReader(c.in)); !errors.Is(rerr, c.want) || rerr.Error() != err.Error() {
			t.Errorf("%s: err = %v, the reference's %v", name, err, rerr)
		}
	}
	// A listed edge names listed nodes only: a range row's edges are its
	// mentions. The reference, which expands before it inserts, lets
	// this pass.
	for _, in := range []string{
		`{"nodes":[` + ab + `],"rows":[{"prefix":"t/","n":1,"text":["x"],"mentions":[[0]]}],"edges":[{"from":"a","to":"row:t/0","type":"next"}]}`,
		`{"edges":[{"from":"row:t/0","to":"a","type":"next"}],"nodes":[` + ab + `],"rows":[{"prefix":"t/","n":1,"text":["x"],"mentions":[[]]}]}`,
	} {
		if _, err := ReadJSON(strings.NewReader(in)); !errors.Is(err, ErrBadEdge) {
			t.Errorf("listed edge of a range row: err = %v", err)
		}
	}
	// What a missing key or a missing weight means.
	g := readBoth(t, "defaults", []byte(`{"nodes":[{"id":"a"},{"id":"b","attrs":null}],"edges":[{"from":"a","to":"b"},{"to":"a","from":"b","weight":-0.0}]}`))
	if e := g.Out("a")[0]; e != (Edge{From: "a", To: "b", Weight: 1}) || g.Out("b")[0].Weight != 1 {
		t.Errorf("defaults: %v %v", g.Out("a"), g.Out("b"))
	}
	// An attrs key that is no payload field is checked and dropped, even
	// a repeated one; an empty value is an absent one.
	g = readBoth(t, "other attrs", []byte(`{"nodes":[{"id":"a","attrs":{"source":"s","text":"t","f:x":"1","doc":"","f:x":"2"}}]}`))
	if n := g.Node("a"); *n != (Node{ID: "a", Text: "t"}) || g.SizeBytes() != int64(len("a")+16+len("t")+16) {
		t.Errorf("other attrs: %#v, %d bytes", n, g.SizeBytes())
	}
	if out := string(encode(t, g.WriteJSON)); out != `{"nodes":[{"id":"a","type":"","label":"","attrs":{"text":"t"}}],"edges":null}`+"\n" {
		t.Errorf("other attrs: written as %s", out)
	}
	readBoth(t, "no keys", []byte(`{}`))
	readBoth(t, "nodes only", []byte(`{"nodes":[{"id":"a"}]}`))
}

// TestReadJSONTruncated cuts a small snapshot at every byte: only the
// cut that drops nothing but the final newline is a snapshot.
func TestReadJSONTruncated(t *testing.T) {
	for name, g := range codecGraphs(t) {
		if g.NodeCount() > 5 {
			continue
		}
		for _, data := range [][]byte{encode(t, g.WriteJSON), variants["all"].snapshot(t, g)} {
			end := len(bytes.TrimRight(data, " \t\r\n"))
			for n := 0; n < end; n++ {
				if _, err := ReadJSON(bytes.NewReader(data[:n])); err == nil {
					t.Fatalf("%s: accepted the first %d of %d bytes: %s", name, n, len(data), data[:n])
				}
			}
			readBoth(t, name, data[:end])
		}
	}
}

// FuzzGraphJSON: the codec never panics; what it accepts the reference
// accepts, as the same graph; and what it then writes is what the
// reference writes.
func FuzzGraphJSON(f *testing.F) {
	// Small seeds: the engine slows to a crawl on the larger snapshots.
	for _, g := range codecGraphs(f) {
		if g.NodeCount() > 5 {
			continue
		}
		f.Add(encode(f, g.WriteJSON))
		for _, v := range variants {
			f.Add(v.snapshot(f, g))
		}
	}
	f.Add([]byte(`{"edges":[{"from":"a","to":"a","weight":1e-7,"type":"x"}],"nodes":[{"label":"A","attrs":{"":""},"id":"a"}]}`))
	f.Add([]byte(`{"nodes":[{"id":"a"},{"id":"a"}]}`))
	f.Add([]byte(`{"nodes":null,"edges":[{"from":"a","to":"b"}]} x`))
	f.Add([]byte(`{"rows":[{"mentions":[[0,0],[]],"text":["a\u0041",""],"n":2,"prefix":"p/1"}],"edges":[{"from":"e","to":"e"}],"nodes":[{"id":"e"},{"id":"row:p/1"}]}`))
	f.Add([]byte(`{"nodes":[{"id":"a"},{"id":"row:x1"}],"rows":[{"prefix":"x","n":1,"text":["t"],"mentions":[[1]]},{"prefix":"x1","n":2,"text":["",""],"mentions":[[0],[0,1]]}],"edges":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		want, err := refReadJSON(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("the reference rejects what the codec accepts: %v", err)
		}
		sameGraph(t, got, want)
		if out, ref := expanded(t, encode(t, got.WriteJSON)), encode(t, func(w io.Writer) error { return refWriteJSON(want, w) }); !bytes.Equal(out, ref) {
			t.Fatalf("written back:\n%s\nthe reference:\n%s", out, ref)
		}
	})
}

// TestReadJSONRowsSpelledAnyWay reads each snapshot with ranges with its
// keys in other orders, indented, and with null for an empty mention
// list: the same graph as the one WriteJSON's spelling gives.
// A range whose prefix ends in a digit, as an earlier writer made for
// rows labelled t/00…t/09, loads as the listed rows of the full form, and
// is written so.
func TestReadJSONDigitPrefix(t *testing.T) {
	in := `{"nodes":[{"id":"a","type":"doc","label":""}],"rows":[{"prefix":"t/0","n":10,` +
		`"text":["r0","r1","r2","r3","r4","r5","r6","r7","r8","r9"],"mentions":[[0],[],[0],[],[],[],[],[],[],[0]]}],"edges":null}`
	g := readBoth(t, "digit prefix", []byte(in))
	if n := g.Node("row:t/09"); n == nil || n.Text != "r9" || n.Label != "t/09" {
		t.Errorf("row:t/09 = %+v", n)
	}
	if !g.HasEdge("a", "row:t/02", EdgeMentions) || !g.HasEdge("row:t/02", "a", EdgeMentions) || g.HasEdge("a", "row:t/01", EdgeMentions) {
		t.Errorf("mentions: %v", g.Out("a"))
	}
	if out := encode(t, g.WriteJSON); bytes.Contains(out, []byte(`"rows"`)) {
		t.Errorf("rows still ranged: %s", out)
	}
}

func TestReadJSONRowsSpelledAnyWay(t *testing.T) {
	type rangeReversed struct {
		Mentions [][]int  `json:"mentions"`
		Text     []string `json:"text"`
		N        int      `json:"n"`
		Prefix   string   `json:"prefix"`
	}
	type rowsFirst struct {
		Rows  []rangeReversed `json:"rows"`
		Nodes []refNode       `json:"nodes"`
		Edges []Edge          `json:"edges"`
	}
	type edgesFirst struct {
		Edges []Edge          `json:"edges"`
		Rows  []rangeReversed `json:"rows"`
		Nodes []refNode       `json:"nodes"`
	}
	graphs := codecGraphs(t)
	for name := range rangedPrefixes {
		data := encode(t, graphs[name].WriteJSON)
		loaded := readBoth(t, name, data)
		var f refFile
		if err := json.Unmarshal(data, &f); err != nil {
			t.Fatal(err)
		}
		var ranges []rangeReversed
		for _, r := range f.Rows {
			for i, m := range r.Mentions {
				if len(m) == 0 {
					r.Mentions[i] = nil
				}
			}
			ranges = append(ranges, rangeReversed{Mentions: r.Mentions, Text: r.Text, N: r.N, Prefix: r.Prefix})
		}
		for i, v := range []any{rowsFirst{ranges, f.Nodes, f.Edges}, edgesFirst{f.Edges, ranges, f.Nodes}} {
			spelled := must(json.MarshalIndent(v, " ", "\t"))
			if i == 0 && name == "ranges" && !bytes.Contains(spelled, []byte("null,")) {
				t.Fatalf("%s: no empty mention list spelled null", name)
			}
			sameGraph(t, readBoth(t, name, spelled), loaded)
		}
	}
}

func TestDecimalOrder(t *testing.T) {
	const most = 1200
	var spelled [most]string
	for k := range spelled {
		spelled[k] = fmt.Sprint(k)
	}
	for n := range most {
		want := make([]int32, n)
		for k := range want {
			want[k] = int32(k)
		}
		slices.SortFunc(want, func(a, b int32) int { return strings.Compare(spelled[a], spelled[b]) })
		if got := appendDecimalOrder(nil, n); !slices.Equal(got, want) {
			t.Fatalf("appendDecimalOrder(nil, %d) = %v, want %v", n, got, want)
		}
	}
}
