package index

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/slm"
	"repro/internal/store"
	"repro/internal/table"
	"repro/internal/workload"
)

// factsSources is a table of the repository benchmark's facts shape:
// two low-cardinality string columns (one of them an id the ID pattern
// tags), an int, and a float that is NULL on every 67th row.
func factsSources(t *testing.T, rows int) *store.Multi {
	return store.NewMulti().Add(store.NewRelationalStore("db", factsCatalog(t, rows)))
}

// factsCatalog is factsSources' catalog.
func factsCatalog(t *testing.T, rows int) *table.Catalog {
	t.Helper()
	regions := []string{"north", "south", "east", "west", "central", "coastal", "alpine", "island"}
	var b strings.Builder
	b.WriteString("region,sku,units,revenue\n")
	x := uint32(42)
	for i := 0; i < rows; i++ {
		x = x*1664525 + 1013904223
		units := 1 + int(x>>16)%100
		rev := ""
		if i%67 != 66 {
			rev = fmt.Sprintf("%d.00", units*(5+i/64%95))
		}
		fmt.Fprintf(&b, "%s,SKU-%04d,%d,%s\n", regions[int(x>>8)%len(regions)], i/64, units, rev)
	}
	facts, err := table.ReadCSV("facts", strings.NewReader(b.String()), nil)
	if err != nil {
		t.Fatal(err)
	}
	cat := table.NewCatalog()
	cat.Put(facts)
	return cat
}

// TestGraphBytesPinned pins the built index byte for byte: an FNV-64a of
// graph.json's full form, recorded at PR 21 (e69bf06) before Build's row
// rendering and the recognizer's gazetteer pass were rewritten, and of
// the file WriteJSON writes, whose rows section abbreviates the row
// vertices. Node and edge counts cannot see a changed row text,
// canonical form, entity type or adjacency order; this can. A deliberate
// change to what the index holds re-records the full-form numbers and
// says why; a change to the file format alone re-records only the
// written ones.
func TestGraphBytesPinned(t *testing.T) {
	ecommerce := workload.ECommerce(workload.DefaultECommerceOptions())
	healthcare := workload.Healthcare(workload.DefaultHealthcareOptions())
	for _, tc := range []struct {
		name          string
		vocab         *workload.Corpus
		sources       *store.Multi
		full, written uint64
	}{
		{"ecommerce", ecommerce, ecommerce.Sources, 0xde18b21964dc421, 0xf436a29cac355c32},
		{"healthcare", healthcare, healthcare.Sources, 0xef0befb1dfd986db, 0xc2570db5b0907667},
		{"facts", ecommerce, factsSources(t, 1000), 0x4e11ecc4a85970e9, 0x79d900ca1fb7b581},
	} {
		ner := slm.NewNER()
		tc.vocab.Register(ner)
		g, _, err := NewBuilder(ner, DefaultOptions()).Build(tc.sources)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h := fnv.New64a()
		h.Write(fullForm(t, g))
		if got := h.Sum64(); got != tc.full {
			t.Errorf("%s: graph.json's full form FNV-64a = %#x, pinned %#x", tc.name, got, tc.full)
		}
		h.Reset()
		if err := g.WriteJSON(h); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := h.Sum64(); got != tc.written {
			t.Errorf("%s: graph.json FNV-64a = %#x, pinned %#x", tc.name, got, tc.written)
		}
	}
}

// fullForm is graph.json without a rows section, every node and edge
// spelled out, written through encoding/json from the graph's exported
// API: nodes by id, payload under the six attrs keys, edges by (from, to,
// type) with ties in adjacency order.
func fullForm(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	type node struct {
		ID      string            `json:"id"`
		Type    graph.NodeType    `json:"type"`
		Label   string            `json:"label"`
		Payload map[string]string `json:"attrs,omitempty"`
	}
	var s struct {
		Nodes []node       `json:"nodes"`
		Edges []graph.Edge `json:"edges"`
	}
	for _, id := range g.NodeIDs() {
		n := g.Node(id)
		payload := map[string]string{"text": n.Text, "doc": n.Doc, "etype": n.EType, "verb": n.Verb, "arg1": n.Arg1, "arg2": n.Arg2}
		maps.DeleteFunc(payload, func(_, v string) bool { return v == "" })
		s.Nodes = append(s.Nodes, node{n.ID, n.Type, n.Label, payload})
		s.Edges = append(s.Edges, g.Out(id)...)
	}
	slices.SortStableFunc(s.Edges, func(a, b graph.Edge) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To), cmp.Compare(a.Type, b.Type))
	})
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCatalogBytesPinned pins catalog.json byte for byte the way
// TestGraphBytesPinned pins graph.json: an FNV-64a of each catalog's
// snapshot, recorded from the encoding/json writer the append-based one
// replaced. The facts case also holds a zero-row table ("rows":null)
// and a rollup whose aggregates leave out "col", "as" or both. (A
// rollup without a group key or an aggregate, which would be written
// "group_by":null or "aggs":null, cannot be registered.) A deliberate
// change to the file format re-records the numbers and says why.
func TestCatalogBytesPinned(t *testing.T) {
	facts := factsCatalog(t, 1000)
	facts.Put(table.New("empty", table.Schema{{Name: "note", Type: table.TypeString}, {Name: "day", Type: table.TypeDate}}))
	if err := facts.AddRollup(table.RollupDef{Name: "facts_by_region", Base: "facts", GroupBy: []string{"region"},
		Aggs: []table.Agg{{Func: table.AggCount}, {Func: table.AggSum, Col: "units", As: "total_units"}, {Func: table.AggMax, Col: "revenue"}}}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cat  *table.Catalog
		want uint64
	}{
		{"ecommerce", workload.ECommerce(workload.DefaultECommerceOptions()).NativeCatalog(), 0x756ebd9a0fe26f5a},
		{"healthcare", workload.Healthcare(workload.DefaultHealthcareOptions()).NativeCatalog(), 0x43855303ff9ccd16},
		{"facts", facts, 0x7e40e7a091165cef},
	} {
		h := fnv.New64a()
		if err := tc.cat.WriteJSON(h); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s: catalog.json FNV-64a = %#x, pinned %#x", tc.name, got, tc.want)
		}
	}
}
