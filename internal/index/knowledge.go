package index

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/graph"
)

// Triple is one exported knowledge fact: a verb-mediated relation
// between two canonical entities, with the source documents that
// support it. This is the "knowledge database construction" output of
// the paper's future-work section: the cue layer of the graph index,
// externalized as subject–predicate–object facts.
type Triple struct {
	Subject   string   `json:"subject"`
	Predicate string   `json:"predicate"`
	Object    string   `json:"object"`
	Sources   []string `json:"sources,omitempty"`
}

// Triples extracts all cue relations from the graph, sorted by
// (subject, predicate, object) for deterministic output.
func Triples(g *graph.Graph) []Triple {
	var out []Triple
	for _, cue := range g.NodesOfType(graph.NodeCue) {
		t := Triple{
			Subject:   cue.Arg1,
			Predicate: cue.Verb,
			Object:    cue.Arg2,
		}
		seen := map[string]bool{}
		for _, nb := range g.Neighbors(cue.ID, graph.EdgeCueIn) {
			n := g.Node(nb)
			if n == nil || n.Type != graph.NodeChunk {
				continue
			}
			doc := n.Doc
			if doc == "" {
				doc = n.Label
			}
			if !seen[doc] {
				seen[doc] = true
				t.Sources = append(t.Sources, doc)
			}
		}
		sort.Strings(t.Sources)
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Subject != b.Subject {
			return a.Subject < b.Subject
		}
		if a.Predicate != b.Predicate {
			return a.Predicate < b.Predicate
		}
		return a.Object < b.Object
	})
	return out
}

// WriteTriplesTSV writes triples as subject<TAB>predicate<TAB>object
// <TAB>comma-joined-sources lines.
func WriteTriplesTSV(w io.Writer, triples []Triple) error {
	for _, t := range triples {
		if _, err := fmt.Fprintf(w, "%s\t%s\t%s\t%s\n",
			t.Subject, t.Predicate, t.Object, strings.Join(t.Sources, ",")); err != nil {
			return fmt.Errorf("index: write triples: %w", err)
		}
	}
	return nil
}

// WriteTriplesJSON writes triples as a JSON array.
func WriteTriplesJSON(w io.Writer, triples []Triple) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(triples); err != nil {
		return fmt.Errorf("index: write triples: %w", err)
	}
	return nil
}
