package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// expandByID runs View.Expand from the named anchor over a fresh view
// and reports the visits the way the reference does: by id, best score
// first, ties by id.
func expandByID(g *Graph, anchor string, opts ExpandOptions) []refVisit {
	return expandView(g.View(nil), &Expander{}, anchor, opts)
}

func expandView(v *View, x *Expander, anchor string, opts ExpandOptions) []refVisit {
	a, ok := v.Index(anchor)
	if !ok {
		return nil
	}
	var out []refVisit
	for _, vis := range v.Expand(x, a, opts) {
		out = append(out, refVisit{ID: v.ID(int(vis.Node)), Depth: int(vis.Depth), Score: vis.Score})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// tiedGraph builds a random 12-node graph whose weights come from at
// most `levels` values and whose edges mix declared and undeclared
// types, so equal scores — the case where heap order decides what a
// budget keeps — are common.
func tiedGraph(edges []uint8, levels int) *Graph {
	g := New()
	const n = 12
	types := []EdgeType{EdgeMentions, EdgeNextTo, EdgeRelates, "custom"}
	for i := 0; i < n; i++ {
		g.EnsureNode(Node{ID: fmt.Sprintf("n%d", i), Type: NodeChunk})
	}
	for i := 0; i+2 < len(edges); i += 3 {
		from, to := int(edges[i])%n, int(edges[i+1])%n
		if from == to {
			continue
		}
		e := Edge{From: fmt.Sprintf("n%d", from), To: fmt.Sprintf("n%d", to),
			Type: types[int(edges[i+2]/10)%len(types)], Weight: 0.1 + float64(int(edges[i+2])%levels)/10}
		if edges[i+2]%2 == 0 {
			g.AddUndirected(e)
		} else {
			g.AddEdge(e)
		}
	}
	return g
}

func sameVisits(a, b []refVisit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Depth != b[i].Depth || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// View.Expand settles the same nodes at the same depths with the same
// score bits as the string-keyed reference, under every option, with
// one Expander reused across all of them.
func TestExpandMatchesReference(t *testing.T) {
	x := &Expander{}
	gates := []map[EdgeType]float64{
		nil,
		{EdgeMentions: 1, EdgeNextTo: 0.4},
		{EdgeMentions: 1, EdgeNextTo: 0.4, EdgeRelates: 0.5, "custom": 0.9},
	}
	f := func(edges []uint8, depth, budget, gate, anchor, levels uint8, withPrior bool) bool {
		g := tiedGraph(edges, []int{1, 2, 10}[levels%3])
		v := g.View(nil)
		opts := ExpandOptions{MaxDepth: int(depth % 5), Budget: int(budget % 14), Decay: 0.7, EdgeTypes: gates[int(gate)%len(gates)]}
		ref := refExpandOptions{MaxDepth: opts.MaxDepth, Budget: opts.Budget, Decay: opts.Decay, EdgeTypes: gates[int(gate)%len(gates)]}
		if ref.EdgeTypes != nil {
			// An undeclared type cannot be listed for the view; the
			// reference must not traverse it either.
			ref.EdgeTypes = map[EdgeType]float64{}
			for k, m := range opts.EdgeTypes {
				if k != "custom" {
					ref.EdgeTypes[k] = m
				}
			}
		}
		if withPrior {
			opts.Prior = make([]float64, v.Len())
			for i := range opts.Prior {
				opts.Prior[i] = 0.5 + float64((i*7+int(gate))%5)/4
			}
			ref.NodeWeight = func(n *Node) float64 {
				i, _ := v.Index(n.ID)
				return opts.Prior[i]
			}
		}
		start := fmt.Sprintf("n%d", anchor%12)
		return sameVisits(expandView(v, x, start, opts), weightedExpand(g, []string{start}, ref))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// View.PageRank returns, index by index, the bits the map-returning
// reference computes, at any worker count.
func TestPageRankMatchesReference(t *testing.T) {
	f := func(edges []uint8, workers uint8) bool {
		g := tiedGraph(edges, 10)
		v := g.View(nil)
		got, want := v.PageRank(int(workers%4)+1), referencePageRank(g)
		if len(got) != len(want) {
			return false
		}
		for i, r := range got {
			if math.Float64bits(r) != math.Float64bits(want[v.ID(i)]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Every declared edge type has its own code below edgeCodes; anything
// else shares code 0.
func TestEdgeCodes(t *testing.T) {
	seen := map[uint8]EdgeType{}
	for _, et := range []EdgeType{EdgeMentions, EdgeRelates, EdgeCueArg, EdgeCueIn, EdgeNextTo, EdgePartOf} {
		c := edgeCode(et)
		if c == 0 || c >= edgeCodes || seen[c] != "" {
			t.Errorf("edgeCode(%q) = %d (taken by %q)", et, c, seen[c])
		}
		seen[c] = et
	}
	// "value" and "same_as" had codes of their own once, and no writer.
	for _, et := range []EdgeType{"custom", "value", "same_as", ""} {
		if edgeCode(et) != 0 {
			t.Errorf("undeclared type %q must map to code 0", et)
		}
	}
}

func TestViewIndex(t *testing.T) {
	v := chainGraph(t).View(nil)
	if v.Len() != 5 {
		t.Fatalf("len = %d", v.Len())
	}
	for i := 0; i < v.Len(); i++ {
		if j, ok := v.Index(v.ID(i)); !ok || j != i {
			t.Errorf("Index(%q) = %d, %v; want %d", v.ID(i), j, ok, i)
		}
		if i > 0 && v.ID(i-1) >= v.ID(i) {
			t.Errorf("view not in id order at %d", i)
		}
	}
	for _, id := range []string{"", "aa", "zzz"} {
		if _, ok := v.Index(id); ok {
			t.Errorf("Index(%q) found", id)
		}
	}
}

// A view taken before a mutation is blind to it and stays in range: the
// node and edges added afterwards exist only for the next view, even
// when an adjacency list the view reads through was reallocated.
func TestViewBlindToLaterMutation(t *testing.T) {
	g := chainGraph(t)
	old := g.View(nil)
	opts := ExpandOptions{MaxDepth: 3}
	before := expandView(old, &Expander{}, "hub", opts)
	wantRank := old.PageRank(0)

	g.EnsureNode(Node{ID: "aa", Type: NodeChunk}) // sorts between a and b
	g.Reserve("hub", 64, 64)
	// d's one out-edge sits in a list with room for just it, and nothing
	// reserves more: these appends move the list the old view reads
	// through several times.
	if c := cap(g.vs["d"].out); c != 1 {
		t.Fatalf("d's out list has capacity %d, want 1", c)
	}
	for i := 0; i < 20; i++ {
		for _, from := range []string{"hub", "d"} {
			if err := g.AddUndirected(Edge{From: from, To: "aa", Type: EdgeMentions}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if after := expandView(old, &Expander{}, "hub", opts); !sameVisits(before, after) {
		t.Errorf("old view saw the mutation:\n before %v\n after  %v", before, after)
	}
	for i, r := range old.PageRank(0) {
		if math.Float64bits(r) != math.Float64bits(wantRank[i]) {
			t.Errorf("old view's rank[%d] moved: %v -> %v", i, wantRank[i], r)
		}
	}
	if _, ok := old.Index("aa"); ok {
		t.Error("old view indexes the new node")
	}
	fresh := expandByID(g, "hub", opts)
	if len(fresh) != len(before)+1 || fresh[2].ID != "aa" { // hub, a, aa, b, c, d
		t.Errorf("fresh view misses the new node: %v", fresh)
	}
}

// viewArrays are the arrays a view is made of, copied out.
type viewArrays struct {
	at, outOff, dst, inOff, src []int32
	typ                         []uint8
}

func arraysOf(v *View) viewArrays {
	return viewArrays{slices.Clone(v.at), slices.Clone(v.outOff), slices.Clone(v.dst),
		slices.Clone(v.inOff), slices.Clone(v.src), slices.Clone(v.typ)}
}

func (a viewArrays) equal(b viewArrays) bool {
	return slices.Equal(a.at, b.at) && slices.Equal(a.outOff, b.outOff) && slices.Equal(a.dst, b.dst) &&
		slices.Equal(a.inOff, b.inOff) && slices.Equal(a.src, b.src) && slices.Equal(a.typ, b.typ)
}

// A view built from the previous one is, array for array, the view a
// full build gives, and PageRank over it has the same bits. Each round
// of a random insertion sequence adds nodes whose ids sort before,
// between and after the existing ones, and edges of declared and
// undeclared types between old and new nodes alike; the previous view
// must come out of the round unchanged. Rows join ranges that grow
// between two views, and now and then one comes out of order or gains an
// edge no range spells, which expands its range.
func TestViewFromPreviousMatchesFullBuild(t *testing.T) {
	types := []EdgeType{EdgeMentions, EdgeNextTo, EdgeRelates, "custom", "other"}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		var ids []string
		rows := map[string]int{}
		prev := g.View(nil)
		for round := 0; round < 12; round++ {
			for n := rng.Intn(6); n > 0; n-- {
				id := fmt.Sprintf("%c%d", 'a'+rng.Intn(26), rng.Intn(100))
				if !g.HasNode(id) {
					ids = append(ids, id)
				}
				g.EnsureNode(Node{ID: id, Type: NodeChunk})
			}
			for n := rng.Intn(3 * (len(ids) + 1)); n > 0 && len(ids) > 1; n-- {
				e := Edge{From: ids[rng.Intn(len(ids))], To: ids[rng.Intn(len(ids))],
					Type: types[rng.Intn(len(types))], Weight: float64(1+rng.Intn(4)) / 4}
				var err error
				if rng.Intn(2) == 0 {
					err = g.AddEdge(e)
				} else {
					err = g.AddUndirected(e)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			for n := rng.Intn(8); n > 0 && len(ids) > 0; n-- {
				prefix := []string{"r/", "r/1x", "s"}[rng.Intn(3)]
				k := rows[prefix]
				if rng.Intn(25) == 0 {
					k++
				}
				id := fmt.Sprint("row:", prefix, k)
				g.EnsureNode(Node{ID: id, Type: NodeRow, Label: id[4:], Text: "t"})
				rows[prefix] = max(rows[prefix], k+1)
				for m := rng.Intn(3); m > 0; m-- {
					g.AddUndirected(Edge{From: id, To: ids[rng.Intn(len(ids))], Type: EdgeMentions})
				}
				if rng.Intn(40) == 0 {
					g.AddEdge(Edge{From: ids[rng.Intn(len(ids))], To: id, Type: EdgeRelates})
				}
			}
			before := arraysOf(prev)
			next, full := g.View(prev), g.View(nil)
			if !arraysOf(next).equal(arraysOf(full)) {
				t.Fatalf("seed %d round %d: view from the previous one differs from a full build", seed, round)
			}
			if !arraysOf(prev).equal(before) {
				t.Fatalf("seed %d round %d: taking the next view changed the previous one", seed, round)
			}
			got, want := next.PageRank(1), full.PageRank(1)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("seed %d round %d: rank[%d] %v, full build %v", seed, round, i, got[i], want[i])
				}
			}
			prev = next
		}
		if prev.Len() != g.NodeCount() {
			t.Fatalf("seed %d: view has %d nodes, graph %d", seed, prev.Len(), g.NodeCount())
		}
	}
}

// A view of one graph cannot seed the view of another.
func TestViewFromAnotherGraphPanics(t *testing.T) {
	other := chainGraph(t).View(nil)
	g := chainGraph(t)
	defer func() {
		if recover() == nil {
			t.Error("View took another graph's view")
		}
	}()
	g.View(other)
}
