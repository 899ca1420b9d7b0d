package graph

import (
	"fmt"
	"io"
	"strings"
)

// WriteDOT renders the graph in Graphviz DOT format for visual
// inspection of the heterogeneous index (fig. 1 of the paper, live).
// Node shapes encode types: chunks are boxes, entities ellipses, cues
// diamonds, rows folders, docs notes. maxNodes caps output for large
// graphs (0 = no cap); nodes are emitted in sorted id order so output
// is deterministic.
func (g *Graph) WriteDOT(w io.Writer, maxNodes int) error {
	if _, err := fmt.Fprintln(w, "digraph unisem {"); err != nil {
		return err
	}
	fmt.Fprintln(w, `  rankdir=LR; node [fontsize=10];`)
	ids := g.NodeIDs()
	if maxNodes > 0 && len(ids) > maxNodes {
		ids = ids[:maxNodes]
	}
	included := make([]bool, len(g.verts)) // by vertex number
	for _, id := range ids {
		v := g.vs[id]
		n := v.node
		shape := "ellipse"
		switch n.Type {
		case NodeChunk:
			shape = "box"
		case NodeCue:
			shape = "diamond"
		case NodeRow:
			shape = "folder"
		case NodeDoc:
			shape = "note"
		}
		label := n.Label
		if len(label) > 32 {
			label = label[:32] + "…"
		}
		fmt.Fprintf(w, "  %q [shape=%s,label=%q];\n", id, shape, label)
		included[v.num] = true
	}
	for _, id := range ids {
		for _, h := range g.vs[id].out {
			if !included[h.nb] {
				continue
			}
			fmt.Fprintf(w, "  %q -> %q [label=%q,fontsize=8];\n", id, g.verts[h.nb].node.ID, string(g.types[h.typ]))
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// DOTString renders the graph (capped at maxNodes) as a DOT string.
func (g *Graph) DOTString(maxNodes int) string {
	var b strings.Builder
	_ = g.WriteDOT(&b, maxNodes)
	return b.String()
}
