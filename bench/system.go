package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	unisem "repro"
	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/retrieval"
	"repro/internal/slm"
	"repro/internal/store"
	"repro/internal/table"
)

// configure registers the input's vocabulary; it is also Load's
// configure callback, since vocabulary is not persisted.
func (in *sysInput) configure(sys *unisem.System) {
	for kind, phrases := range in.vocab {
		sys.Vocabulary(unisem.VocabKind(kind), phrases...)
	}
}

// buildSystem takes an empty System to ready through the public API:
// every Add* call, Build, then the rollups. This is what setup_s times.
func buildSystem(in *sysInput) (*unisem.System, error) {
	sys := unisem.New() // DefaultOptions: answer cache off, Workers 0
	in.configure(sys)
	for _, d := range in.docs {
		if err := sys.AddDocument(d.source, d.id, d.text); err != nil {
			return nil, err
		}
	}
	for _, j := range in.jsonl {
		if err := sys.AddJSONLines(j.source, bytes.NewReader(j.line)); err != nil {
			return nil, err
		}
	}
	for _, c := range in.csvs {
		if err := sys.AddCSV(c.name, strings.NewReader(c.data)); err != nil {
			return nil, err
		}
	}
	if err := sys.Build(); err != nil {
		return nil, err
	}
	for _, r := range in.rollups {
		if err := sys.AddRollup(r); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

var vocabEntity = map[string]slm.EntityType{
	"product":      slm.EntProduct,
	"drug":         slm.EntDrug,
	"side_effect":  slm.EntSideEffect,
	"manufacturer": slm.EntManufacturer,
}

func (in *sysInput) recognizer() *slm.NER {
	ner := slm.NewNER()
	for kind, phrases := range in.vocab {
		ner.AddGazetteer(vocabEntity[kind], phrases...)
	}
	return ner
}

// hybridOptions are the options System.Build passes for
// unisem.DefaultOptions().
func hybridOptions() core.HybridOptions {
	o := core.DefaultHybridOptions()
	o.EvidenceK, o.EntropyM, o.Seed = 8, 5, 1
	return o
}

// layers is one system as the traced run sees it: the core.Hybrid built
// directly from the same inputs, plus the layer objects the harness
// needs to call each layer's exported functions itself.
type layers struct {
	h         *core.Hybrid
	ner       *slm.NER
	builder   *index.Builder
	extractor *extract.Engine
}

func newLayers(h *core.Hybrid, ner *slm.NER) *layers {
	return &layers{h: h, ner: ner,
		builder:   index.NewBuilder(ner, hybridOptions().Index),
		extractor: extract.NewEngine(ner, extract.Rules()...)}
}

// buildLayers builds a core.Hybrid from the inputs the way System.Build
// does, recording spans around the calls NewHybrid composes — made here
// a second time, on throwaway state — and around NewHybrid itself.
func buildLayers(in *sysInput, rec *recorder) (*layers, error) {
	ner := in.recognizer()
	opts := hybridOptions()
	multi := store.NewMulti()
	if len(in.csvs) > 0 {
		cat := table.NewCatalog()
		for _, c := range in.csvs {
			var t *table.Table
			var err error
			rec.span("table.read_csv", func() { t, err = table.ReadCSV(c.name, strings.NewReader(c.data), nil) })
			if err != nil {
				return nil, err
			}
			rec.span("table.catalog_put", func() { cat.Put(t) })
		}
		multi.Add(store.NewRelationalStore("db", cat))
	}
	texts := map[string]*store.TextStore{}
	var names []string
	var docs []extract.Doc
	for _, d := range in.docs {
		if texts[d.source] == nil {
			texts[d.source] = store.NewTextStore(d.source)
			names = append(names, d.source)
		}
		texts[d.source].Add(d.id, d.text)
		docs = append(docs, extract.Doc{ID: d.id, Text: d.text})
	}
	sort.Strings(names)
	for _, n := range names {
		multi.Add(texts[n])
	}
	jsons := map[string]*store.JSONStore{}
	names = names[:0]
	for _, j := range in.jsonl {
		if jsons[j.source] == nil {
			jsons[j.source] = store.NewJSONStore(j.source)
			names = append(names, j.source)
		}
		if err := jsons[j.source].LoadLines(bytes.NewReader(j.line)); err != nil {
			return nil, err
		}
	}
	sort.Strings(names)
	for _, n := range names {
		multi.Add(jsons[n])
	}

	// The layer calls, on state that is dropped afterwards.
	var err error
	var extractions []extract.Extraction
	rec.span("extract.extract_docs", func() {
		extractions = extract.NewEngine(ner, extract.Rules()...).ExtractDocs(docs, opts.Workers)
	})
	var g *graph.Graph
	rec.span("index.build", func() { g, _, err = index.NewBuilder(ner, opts.Index).Build(multi) })
	if err != nil {
		return nil, err
	}
	rec.span("retrieval.new_topology", func() { retrieval.NewTopology(g, ner, opts.Topology) })
	scratch := table.NewCatalog()
	for _, n := range names {
		rec.span("store.to_table", func() {
			var t *table.Table
			if t, err = store.ToTable(n, jsons[n].Records()); err == nil && t.Len() > 0 {
				scratch.Put(t)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	rec.span("extract.merge_build", func() { err = extract.Merge(scratch, extractions) })
	if err != nil {
		return nil, err
	}

	var h *core.Hybrid
	rec.span("core.new_hybrid", func() { h, err = core.NewHybrid(multi, ner, opts) })
	if err != nil {
		return nil, err
	}
	for _, r := range in.rollups {
		if err := h.AddRollup(r); err != nil {
			return nil, fmt.Errorf("rollup %s: %w", r.Name, err)
		}
	}
	return newLayers(h, ner), nil
}
