package main

import (
	"math/rand"

	"repro/internal/table"
)

// sizes fixes corpus sizes and repetition counts. A timed section is one
// pass of operations repeated a fixed number of times, not timed out, so
// exact counts repeat; the repetitions scale with -seconds at rates
// measured on the reference box (2 cores).
type sizes struct {
	products, reviews int // ask_mixed / ingest_live / restart e-commerce corpus
	drugs, patients   int // ask_mixed healthcare corpus
	factRows          int // sql_analytic / restart facts table
	setups            int // set-ups per run; setup_s is their median
	askReps           int // ask_mixed: passes over the distinct questions
	passes            int // sql_analytic: passes over the statement mix
	liveReps          int // ingest_live: replays of the cycles, each on a system built anew
	cycles            int // ingest_live: cycles of 1 Ingest + asksPerCycle Asks in one replay
	asksPerCycle      int
	restarts          int // restart: cycles of Save, Load, cold pass
	coldProducts      int // restart: products whose question templates the cold pass asks
	traceDiv          int // the traced run replays 1/traceDiv of the repetitions
}

// refSizes are the reference sizes: the corpus sizes are fixed, only
// repetition counts follow seconds.
func refSizes(seconds int) sizes {
	return sizes{
		products: 48, reviews: 12, drugs: 24, patients: 20, factRows: 65536,
		setups: 5, cycles: 44, asksPerCycle: 8, traceDiv: 10, coldProducts: 16,
		askReps:  max(2, 4*seconds/5),
		passes:   10 * seconds,
		liveReps: max(2, seconds/2),
		restarts: max(3, 4*seconds/5),
	}
}

// plan is one workload's generated inputs and operations.
type plan struct {
	inputs    []sysInput
	warm      []op // run once, untimed, on every system built
	pass      []op // the timed section is this, reps times over
	reps      int
	fresh     bool // the pass changes the systems: every repetition starts on systems built and warmed anew
	units     int  // what ops_per_s counts in one pass
	traceReps int  // repetitions the traced run replays
}

// traced is the share of reps the traced run replays. A pass that
// changes the systems is replayed once: the traced systems beside the
// public-API ones are built once.
func (sz sizes) traced(reps int, fresh bool) int {
	if fresh {
		return 1
	}
	return max(1, reps/sz.traceDiv)
}

type workloadDef struct {
	name, why string
	plan      func(seed uint64, sz sizes) (*plan, error)
}

var workloads = []workloadDef{
	{"ask_mixed",
		"The paper's headline path: NL questions over two corpora, more distinct plans than the plan cache holds; retrieval, NER and uncertainty do the work, the query engine (row executor side) almost none.",
		planAskMixed},
	{"sql_analytic",
		"SQL over a 65 536-row table bypasses retrieval, NER and entropy: sql, logical, federate and table do all the work on the vectorised side; 12 statements fit the plan cache.",
		planSQLAnalytic},
	{"ingest_live",
		"Writes beside reads on the same layers: each Ingest re-indexes, re-extracts, maintains a rollup and recomputes PageRank, and invalidates the plan cache the next Asks rebuild.",
		planIngestLive},
	{"restart",
		"The same graph and table data used as bytes: Save, Load, then a cold pass whose answers must equal the pre-Save answers; serialise, parse, re-derive and first-touch costs live here.",
		planRestart},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Seeds of the generators within one run are spread from -seed.
func planAskMixed(seed uint64, sz sizes) (*plan, error) {
	ec, hc := ecommerce(seed, sz.products, sz.reviews), healthcare(seed+1, sz.drugs, sz.patients)
	ecIn, err := corpusInput(ec)
	if err != nil {
		return nil, err
	}
	hcIn, err := corpusInput(hc)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	base := interleave(rng, ecommerceAsks(ec, 0, sz.products), healthcareAsks(hc, 1))
	return &plan{
		inputs: []sysInput{ecIn, hcIn},
		warm:   base,
		pass:   base,
		reps:   sz.askReps,
		units:  len(base), traceReps: sz.traced(sz.askReps, false),
	}, nil
}

// factsInput is an e-commerce corpus plus the generated facts table, with
// the statement mix over them and the questions of a cold pass.
func factsInput(seed uint64, sz sizes, products, reviews int) (sysInput, []op, []op, error) {
	ec := ecommerce(seed, products, reviews)
	in, err := corpusInput(ec)
	if err != nil {
		return in, nil, nil, err
	}
	rows := genFacts(rand.New(rand.NewSource(int64(seed))), sz.factRows)
	in.csvs = append(in.csvs, csvTable{"facts", factsCSV(rows)})
	return in, sqlMix(rows, ec), ecommerceAsks(ec, 0, sz.coldProducts), nil
}

func planSQLAnalytic(seed uint64, sz sizes) (*plan, error) {
	// The default e-commerce corpus (8 products × 4 reviews) keeps the
	// join statements under the 32-row dispatch threshold.
	in, mix, _, err := factsInput(seed, sz, 8, 4)
	if err != nil {
		return nil, err
	}
	return &plan{
		inputs: []sysInput{in},
		warm:   mix,
		pass:   mix,
		reps:   sz.passes,
		units:  len(mix), traceReps: sz.traced(sz.passes, false),
	}, nil
}

func planIngestLive(seed uint64, sz sizes) (*plan, error) {
	ec := ecommerce(seed, sz.products, sz.reviews)
	in, err := corpusInput(ec)
	if err != nil {
		return nil, err
	}
	in.rollups = []table.RollupDef{{
		Name: "ratings_by_product", Base: "ratings", GroupBy: []string{"product"},
		Aggs: []table.Agg{{Func: table.AggAvg, Col: "stars"}},
	}}
	rng := rand.New(rand.NewSource(int64(seed)))
	ops := ingestOps(rng, ec, sz.cycles, sz.asksPerCycle)
	return &plan{
		inputs: []sysInput{in},
		warm:   ownAsks(ec, 0).ops,
		pass:   ops,
		reps:   sz.liveReps,
		fresh:  true,
		units:  len(ops), traceReps: sz.traced(sz.liveReps, true),
	}, nil
}

func planRestart(seed uint64, sz sizes) (*plan, error) {
	in, mix, asks, err := factsInput(seed, sz, sz.products, sz.reviews)
	if err != nil {
		return nil, err
	}
	// One cold pass: the generator's questions and its templates for the
	// first products, then the statement mix. About a hundred questions
	// put the pass's p50 and p90 where latencies are dense; with the
	// generator's 15 alone they fell between two unlike operations.
	reads := append(append([]op(nil), asks...), mix...)
	pass := []op{{kind: opSave}, {kind: opLoad}}
	for _, o := range reads {
		o.again = true
		pass = append(pass, o)
	}
	return &plan{
		inputs: []sysInput{in},
		warm:   reads, // the pre-Save answers
		pass:   pass,
		reps:   sz.restarts,
		units:  1, traceReps: sz.traced(sz.restarts, false),
	}, nil
}
