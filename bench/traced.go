package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/entropy"
	"repro/internal/extract"
	"repro/internal/federate"
	"repro/internal/graph"
	"repro/internal/logical"
	"repro/internal/retrieval"
	"repro/internal/semop"
	"repro/internal/slm"
	"repro/internal/sql"
	"repro/internal/store"
	"repro/internal/table"
)

// tracer replays operations through each layer's exported functions on
// core.Hybrid systems built beside the public-API ones, recording a span
// around every call. The calls and their order are those of
// Hybrid.Answer, Hybrid.Query, Hybrid.Ingest, System.Save and
// unisem.Load; what those do between the calls (locks, the RNG fork,
// answer synthesis) has no exported entry and shows as unattributed.
//
// The whole each operation's stages are held against is the public-API
// call of the same operation, made just before on the other system (span
// api.<kind>): both sides then pay their own cold costs after an Ingest
// or a Load. The traced system's own Hybrid.Answer / Hybrid.Query runs
// last, warmed by the stages, and only to check that both sides answer
// alike (span check.<kind>).
type tracer struct {
	rec       *recorder
	in        []sysInput
	sys       []*layers
	dir       string
	gen       *slm.Generator
	clusterer *entropy.Clusterer
	rng       *slm.RNG

	// exact counts over the staged federate.ExecuteIR calls
	runs, vecRuns, hits, misses     int
	rowsScanned, fragments, retries int
	evidence                        int
	graphBytes, catalogBytes        int64
	coldScanUS                      float64 // first facts statement after the latest load
	coldPending                     bool
	firstAskUS, laterAskUS          []float64
	// ingestUS is the public-API Ingest's time by operation: the whole the
	// staged ingest calls are attributed against, since after them the
	// traced system cannot ingest the same document again.
	ingestUS map[int]float64
	err      error // first failure of a replayed call
}

func (t *tracer) fail(err error) {
	if err != nil && t.err == nil {
		t.err = err
	}
}

// execute is the staged federate.ExecuteIR call with its counters.
func (t *tracer) execute(l *layers, opt *logical.Optimized) (*table.Table, *federate.Run) {
	fed := l.h.Federation()
	h0, m0, _ := fed.PlanCacheStats()
	var res *table.Table
	var run *federate.Run
	var err error
	t.rec.span("federate.execute", func() { res, run, err = fed.ExecuteIR(opt) })
	t.fail(err)
	h1, m1, _ := fed.PlanCacheStats()
	t.hits += int(h1 - h0)
	t.misses += int(m1 - m0)
	if run == nil {
		return nil, nil
	}
	t.runs++
	if run.Plan.VecResidual {
		t.vecRuns++
	}
	for _, f := range run.Fragments {
		t.fragments++
		t.rowsScanned += f.ActScanned
		t.retries += f.Retries
	}
	t.rec.span("federate.explain", func() { federate.Explain(run) })
	return res, run
}

// ask replays Hybrid.answerWith's calls, then returns Hybrid.Answer's
// text.
func (t *tracer) ask(l *layers, o *op, want string) string {
	rec, h := t.rec, l.h
	rec.span("slm.recognize", func() { l.ner.Recognize(o.text) })
	rec.span("replay.answer", func() {
		var ev []retrieval.Evidence
		rec.span("retrieval.retrieve", func() { ev = h.Retriever().Retrieve(o.text, 8) })
		t.evidence += len(ev)
		var q semop.Query
		rec.span("semop.parse", func() { q = semop.Parse(o.text, l.ner) })
		var plan *semop.Plan
		var err error
		statsCat := h.Catalog()
		rec.span("semop.bind", func() {
			plan, err = semop.Bind(q, h.Catalog())
			if errors.Is(err, semop.ErrNoBinding) {
				if p, ferr := semop.Bind(q, h.Federation().BindingCatalog()); ferr == nil {
					plan, err, statsCat = p, nil, h.Federation().BindingCatalog()
				}
			}
		})
		if err == nil {
			var node *logical.Node
			rec.span("semop.compile", func() { node = semop.Compile(plan) })
			var opt *logical.Optimized
			rec.span("logical.optimize", func() { opt = logical.Optimize(node, logical.CatalogStats(statsCat)) })
			t.execute(l, opt)
		}
		// assessUncertainty's calls, with the answer the program gave.
		var cands []slm.Candidate
		rec.span("slm.derive_candidates", func() { cands = slm.DeriveCandidates(o.text, retrieval.Texts(ev), l.ner) })
		if len(cands) > 3 {
			cands = cands[:3]
		}
		boosted := []slm.Candidate{{Text: want, Weight: 3}}
		for _, c := range cands {
			if c.Text != want {
				boosted = append(boosted, slm.Candidate{Text: c.Text, Weight: c.Weight * 0.5})
			}
		}
		var gens []slm.Generation
		rec.span("slm.sample", func() { gens = t.gen.Sample(boosted, 5, t.rng.Fork()) })
		rec.span("entropy.assess", func() { entropy.Assess(gens, t.clusterer) })
	})
	var ans core.Answer
	rec.span("check.ask", func() { ans = h.Answer(o.text) })
	t.fail(ans.Err)
	return ans.Text
}

// query replays Hybrid.Query's calls and System.Query's rendering, runs
// the optimised tree through both executors directly, then returns
// Hybrid.Query's rendered table.
func (t *tracer) query(l *layers, o *op) string {
	rec, h := t.rec, l.h
	rec.span("replay.query", func() {
		var stmt *sql.Stmt
		var err error
		rec.span("sql.parse", func() { stmt, err = sql.Parse(o.text) })
		if err != nil {
			t.fail(err)
			return
		}
		var node *logical.Node
		rec.span("sql.compile", func() { node, err = sql.Compile(stmt, h.Catalog()) })
		if err != nil {
			t.fail(err)
			return
		}
		var opt *logical.Optimized
		rec.span("logical.optimize", func() { opt = logical.Optimize(node, logical.CatalogStats(h.Catalog())) })
		res, _ := t.execute(l, opt)
		if res != nil {
			rec.span("unisem.render", func() {
				_ = res.String()
				for _, row := range res.Rows {
					for _, v := range row {
						_ = v.String()
					}
				}
			})
		}
		rec.span("logical.execvec", func() { _, err = logical.ExecVec(opt.Root, h.Catalog(), 0) })
		t.fail(err)
		rec.span("logical.execrow", func() { _, err = logical.Exec(opt.Root, h.Catalog()) })
		t.fail(err)
	})
	var res core.QueryResult
	var err error
	rec.span("check.query", func() { res, err = h.Query(o.text) })
	if err != nil {
		t.fail(err)
		return ""
	}
	return res.Table.String()
}

// ingest makes the four calls Hybrid.Ingest makes, in its order. They
// mutate the traced system exactly as Ingest would, which the asks that
// follow verify.
func (t *tracer) ingest(l *layers, o *op) {
	rec, h := t.rec, l.h
	rec.span("replay.ingest", func() {
		var err error
		r := store.Record{ID: o.id, Source: o.source, Kind: store.KindText, Text: o.text}
		rec.span("index.index_record", func() { _, err = l.builder.IndexRecord(h.Graph(), r) })
		t.fail(err)
		var xs []extract.Extraction
		rec.span("extract.extract_doc", func() { xs = l.extractor.ExtractDoc(o.id, o.text) })
		rec.span("extract.merge", func() { err = extract.Merge(h.Catalog(), xs) })
		t.fail(err)
		rec.span("retrieval.refresh", func() { h.Retriever().Refresh() })
	})
}

// save makes System.Save's two serialiser calls.
func (t *tracer) save(l *layers) {
	write := func(span, name string, f func(*os.File) error) int64 {
		file, err := os.Create(filepath.Join(t.dir, name))
		if err != nil {
			t.fail(err)
			return 0
		}
		t.rec.span(span, func() { err = f(file) })
		t.fail(err)
		st, _ := file.Stat()
		t.fail(file.Close())
		return st.Size()
	}
	t.rec.span("replay.save", func() {
		t.graphBytes = write("graph.write_json", "graph.json", func(f *os.File) error { return l.h.Graph().WriteJSON(f) })
		t.catalogBytes = write("table.write_json", "catalog.json", func(f *os.File) error { return l.h.Catalog().WriteJSON(f) })
	})
}

// load makes unisem.Load's three calls and replaces the traced system.
func (t *tracer) load(i int) {
	open := func(name string) *os.File {
		f, err := os.Open(filepath.Join(t.dir, name))
		t.fail(err)
		return f
	}
	t.rec.span("replay.load", func() {
		gf, cf := open("graph.json"), open("catalog.json")
		if gf == nil || cf == nil {
			return
		}
		defer gf.Close()
		defer cf.Close()
		var g *graph.Graph
		var cat *table.Catalog
		var err error
		t.rec.span("graph.read_json", func() { g, err = graph.ReadJSON(gf) })
		t.fail(err)
		t.rec.span("table.read_catalog_json", func() { cat, err = table.ReadCatalogJSON(cf) })
		t.fail(err)
		if g == nil || cat == nil {
			return
		}
		ner := t.in[i].recognizer()
		var h *core.Hybrid
		t.rec.span("core.new_from_state", func() { h = core.NewHybridFromState(g, cat, ner, hybridOptions()) })
		t.sys[i] = newLayers(h, ner)
		t.coldPending = true
	})
}

// replay runs one operation on the traced system and checks that it
// answers as the public-API system just did, in the time api.
func (t *tracer) replay(id int, o *op, want output, t0 time.Time, api time.Duration, ck *checker) {
	t.rec.op = id
	t.rec.add("api."+kindNames[o.kind], t0, api)
	apiUS := float64(api) / 1e3
	l := t.sys[o.sys]
	var got string
	switch o.kind {
	case opAsk:
		got = t.ask(l, o, want.text)
		if o.first {
			t.firstAskUS = append(t.firstAskUS, apiUS)
		} else {
			t.laterAskUS = append(t.laterAskUS, apiUS)
		}
	case opQuery:
		got = t.query(l, o)
		if t.coldPending && strings.Contains(o.text, "FROM facts") {
			t.coldPending = false
			t.coldScanUS = apiUS
		}
	case opIngest:
		t.ingest(l, o)
	case opSave:
		t.save(l)
	case opLoad:
		t.load(o.sys)
	}
	if got != want.text {
		// Both runs must measure one program.
		ck.check(&op{kind: opAsk, text: "traced " + kindNames[o.kind] + ": " + o.text, gold: want.text}, output{text: got}, nil)
	}
}

func runTraced(res *result, p *plan, c *client, ck *checker, traceOut string) error {
	if err := c.build(); err != nil {
		return err
	}
	rec := newRecorder()
	t := &tracer{rec: rec, in: p.inputs, dir: filepath.Join(c.dir, "traced"),
		gen:       slm.NewGenerator(),
		clusterer: entropy.NewClusterer(slm.NewEmbedder(slm.DefaultEmbeddingDim)),
		rng:       slm.NewRNG(1)}
	if err := os.MkdirAll(t.dir, 0o755); err != nil {
		return err
	}
	for i := range p.inputs {
		l, err := buildLayers(&p.inputs[i], rec)
		if err != nil {
			return fmt.Errorf("traced set-up: %w", err)
		}
		t.sys = append(t.sys, l)
	}
	setupSpans := len(rec.spans)

	// Warm both sides the same way, outside the spans that are summarised.
	warmUp(c, ck, p.warm)
	for i := range p.warm {
		o := &p.warm[i]
		if o.kind == opAsk {
			t.sys[o.sys].h.Answer(o.text)
		} else if _, err := t.sys[o.sys].h.Query(o.text); err != nil {
			return err
		}
	}

	h := &host{asMeasured: true}
	s, err := section(c, ck, p, p.traceReps, h, func(i int, o *op, out output, t0 time.Time, d time.Duration) {
		t.replay(i+1, o, out, t0, d, ck)
	})
	if err != nil {
		return err
	}
	if t.err != nil {
		return fmt.Errorf("traced replay: %w", t.err)
	}
	res.apiMetrics(s, p, h)
	t.summarise(res, setupSpans, s.rawS)

	if traceOut == "" {
		traceOut = filepath.Join(workDir, "trace-"+res.Workload+".jsonl")
	}
	res.TraceFile = traceOut
	return rec.write(traceOut)
}

// wholes maps each public-API span to its metric, to the metric of its
// unattributed time, and to the stage spans it is made of; unattributed
// time is the whole's duration minus its stages' self times in the same
// operation.
var wholes = []struct {
	span, metric, rest string
	stages             []string
}{
	{"api.ask", "core.answer_us", "core.unattributed_us", []string{"retrieval.retrieve", "semop.parse", "semop.bind", "semop.compile",
		"logical.optimize", "federate.execute", "federate.explain", "slm.derive_candidates", "slm.sample", "entropy.assess"}},
	{"api.query", "core.query_us", "core.query_unattributed_us", []string{"sql.parse", "sql.compile", "logical.optimize",
		"federate.execute", "federate.explain", "unisem.render"}},
	{"api.ingest", "core.ingest_us", "core.ingest_unattributed_us", []string{"index.index_record", "extract.extract_doc",
		"extract.merge", "retrieval.refresh"}},
}

// summarise turns spans and counters into the per-layer metrics.
func (t *tracer) summarise(res *result, setupSpans int, untracedS float64) {
	self := t.rec.selfTimes()
	for name, byOp := range self {
		prefix, _, _ := strings.Cut(name, ".")
		if prefix == "replay" || prefix == "check" || prefix == "api" {
			continue
		}
		if us, setup := byOp[0]; setup {
			res.set(name+"_us", us) // set-up spans: one build, summed
		} else {
			res.set(name+"_us", median(values(byOp)))
		}
	}
	res.Shares = map[string]string{}
	for _, w := range wholes {
		wholeUS := self[w.span]
		if len(wholeUS) == 0 {
			continue
		}
		rest, share := map[int]float64{}, map[int]float64{}
		for id, us := range wholeUS {
			staged := 0.0
			for _, st := range w.stages {
				staged += self[st][id]
			}
			rest[id], share[id] = us-staged, (us-staged)/us
		}
		res.set(w.metric, median(values(wholeUS)))
		res.set(w.rest, median(values(rest)))
		res.Shares[w.metric+" unattributed (median per op)"] = fmt.Sprintf("%.1f%%", 100*median(values(share)))
		total := sum(values(wholeUS))
		for _, st := range w.stages {
			// Only the operations that have the whole: logical.optimize
			// and federate.* are stages of asks and of queries.
			staged := 0.0
			for id := range wholeUS {
				staged += self[st][id]
			}
			res.Shares[w.metric+" "+st] = fmt.Sprintf("%.1f%%", 100*staged/total)
		}
	}

	if t.evidence > 0 {
		res.set("retrieval.evidence_n", float64(t.evidence))
	}
	res.set("federate.rows_scanned", float64(t.rowsScanned))
	res.set("federate.fragments_n", float64(t.fragments))
	res.set("federate.retries_n", float64(t.retries))
	if t.hits+t.misses > 0 {
		res.set("federate.plan_cache_hit_ratio", float64(t.hits)/float64(t.hits+t.misses))
	}
	if t.runs > 0 {
		res.set("federate.vec_plan_ratio", float64(t.vecRuns)/float64(t.runs))
	}
	if len(t.firstAskUS) > 0 {
		res.set("core.first_ask_after_ingest_us", median(t.firstAskUS))
		res.set("core.later_ask_after_ingest_us", median(t.laterAskUS))
	}
	if t.graphBytes > 0 {
		res.set("graph.snapshot_bytes", float64(t.graphBytes))
		res.set("table.snapshot_bytes", float64(t.catalogBytes))
		res.set("table.cold_first_scan_us", t.coldScanUS)
	}
	tracedS := 0.0
	for _, s := range t.rec.spans[setupSpans:] {
		if s.Parent == 0 && !strings.HasPrefix(s.Name, "api.") {
			tracedS += float64(s.End-s.Start) / 1e9
		}
	}
	res.set("trace.overhead_ratio", tracedS/untracedS)
}
