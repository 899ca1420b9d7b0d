package graph

import (
	"fmt"
	"testing"
	"testing/quick"
)

// randomGraph builds a graph from fuzz bytes: n nodes and edges(i,j)
// pairs with weights derived from the bytes.
func randomGraph(edges []uint8) *Graph {
	g := New()
	const n = 12
	for i := 0; i < n; i++ {
		g.EnsureNode(Node{ID: fmt.Sprintf("n%d", i), Type: NodeChunk})
	}
	for i := 0; i+2 < len(edges); i += 3 {
		from := fmt.Sprintf("n%d", int(edges[i])%n)
		to := fmt.Sprintf("n%d", int(edges[i+1])%n)
		if from == to {
			continue
		}
		w := 0.1 + float64(edges[i+2]%10)/10
		g.AddEdge(Edge{From: from, To: to, Type: EdgeMentions, Weight: w})
	}
	return g
}

// Expand invariants: scores are in (0, 1], anchors score 1, every
// settled node is reachable within MaxDepth (no shallower than the BFS
// oracle finds it), budget is obeyed.
func TestWeightedExpandInvariantsProperty(t *testing.T) {
	f := func(edges []uint8, depth, budget uint8) bool {
		g := randomGraph(edges)
		d := int(depth%4) + 1
		b := int(budget%20) + 1
		visits := expandByID(g, "n0", ExpandOptions{
			MaxDepth: d, Budget: b, Decay: 0.7,
		})
		if len(visits) > b {
			return false
		}
		minDepth := map[string]int{}
		for _, v := range g.BFS([]string{"n0"}, d) {
			minDepth[v.ID] = v.Depth
		}
		for _, v := range visits {
			if md, ok := minDepth[v.ID]; !ok || v.Depth < md {
				return false
			}
			if v.Score <= 0 || v.Score > 1.0000001 {
				return false
			}
			if v.Depth > d {
				return false
			}
			if v.ID == "n0" && v.Score != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// ShortestPath returns a genuine path: consecutive elements are
// connected and endpoints match.
func TestShortestPathValidityProperty(t *testing.T) {
	f := func(edges []uint8, toIdx uint8) bool {
		g := randomGraph(edges)
		to := fmt.Sprintf("n%d", int(toIdx)%12)
		path := shortestPath(g, "n0", to)
		if path == nil {
			return true // disconnected is fine
		}
		if path[0] != "n0" || path[len(path)-1] != to {
			return false
		}
		for i := 1; i < len(path); i++ {
			connected := false
			for _, e := range g.Out(path[i-1]) {
				if e.To == path[i] {
					connected = true
					break
				}
			}
			if !connected {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// BFS depth is minimal: no edge can connect a depth-d node to a node
// recorded at depth > d+1.
func TestBFSMinimalityProperty(t *testing.T) {
	f := func(edges []uint8) bool {
		g := randomGraph(edges)
		visits := g.BFS([]string{"n0"}, 12)
		depth := map[string]int{}
		for _, v := range visits {
			depth[v.ID] = v.Depth
		}
		for id, d := range depth {
			for _, e := range g.Out(id) {
				if dd, ok := depth[e.To]; ok && dd > d+1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
