package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/store"
	"repro/internal/table"
	"repro/internal/workload"
)

// This file makes every input the benchmark feeds the program, and the
// gold each output is checked against. Gold comes from the generators'
// own records (workload gold, GoldFacts, the native catalog's cells) and
// from plain Go over the rows written here — never from the engine.

// sysInput is everything one system is built from, rendered up front so
// that set-up time measures Add* + Build and not input rendering.
type sysInput struct {
	vocab   map[string][]string // vocabulary kind → phrases
	docs    []doc
	jsonl   []jsonLine
	csvs    []csvTable
	rollups []table.RollupDef
}

type doc struct{ source, id, text string }

type jsonLine struct {
	source string
	line   []byte
}

type csvTable struct{ name, data string }

// corpusInput renders a generated corpus the way cmd/uniquery's
// demoSystem feeds one to the public API: text through AddDocument,
// JSON records as JSON lines, native tables as CSV (XML is not loaded
// there, so it is not loaded here).
func corpusInput(c *workload.Corpus) (sysInput, error) {
	in := sysInput{vocab: c.Vocab()}
	for _, rec := range c.Sources.Records() {
		switch rec.Kind {
		case store.KindText:
			in.docs = append(in.docs, doc{rec.Source, rec.ID, rec.Text})
		case store.KindJSON:
			line, err := json.Marshal(rec.Fields)
			if err != nil {
				return in, fmt.Errorf("render %s: %w", rec.ID, err)
			}
			in.jsonl = append(in.jsonl, jsonLine{rec.Source, line})
		}
	}
	cat := c.NativeCatalog()
	for _, name := range cat.Names() {
		tbl, err := cat.Get(name)
		if err != nil {
			return in, err
		}
		var buf bytes.Buffer
		if err := tbl.WriteCSV(&buf); err != nil {
			return in, err
		}
		in.csvs = append(in.csvs, csvTable{name, buf.String()})
	}
	return in, nil
}

func ecommerce(seed uint64, products, reviews int) *workload.Corpus {
	return workload.ECommerce(workload.ECommerceOptions{
		Products: products, ReviewsPerProduct: reviews, Quarters: 4, Noise: 0.3, Seed: seed})
}

func healthcare(seed uint64, drugs, patients int) *workload.Corpus {
	return workload.Healthcare(workload.HealthcareOptions{Drugs: drugs, PatientsPerDrug: patients, Seed: seed})
}

// opKind names the public-API call an operation makes.
type opKind int

const (
	opAsk opKind = iota
	opQuery
	opIngest
	opSave
	opLoad
)

var kindNames = [...]string{"ask", "query", "ingest", "save", "load"}

// op is one operation of a workload with the output it must produce.
type op struct {
	kind    opKind
	sys     int        // index of the system the call goes to
	text    string     // question, statement, or document text
	gold    string     // opAsk: expected answer text
	rows    [][]string // opQuery: expected rendered cells
	ordered bool       // opQuery: rows compare in order (statement has ORDER BY)
	source  string     // opIngest
	id      string     // opIngest
	first   bool       // opAsk: first ask after an ingest
	again   bool       // output must also equal the warm pass's output, byte for byte
}

// fmtNum is the answer contract for numbers: two decimals at most,
// trailing zeros dropped.
func fmtNum(f float64) string {
	return strconv.FormatFloat(math.Round(f*100)/100, 'f', -1, 64)
}

// fmtCell is how a result cell of a float column renders: Go's shortest
// 'g' form.
func fmtCell(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func goldFacts(c *workload.Corpus, tbl string) []map[string]string {
	var out []map[string]string
	for _, g := range c.GoldFacts {
		if g.Table == tbl {
			out = append(out, g.Cells)
		}
	}
	return out
}

// nativeRows returns a native table's cells as strings.
func nativeRows(c *workload.Corpus, name string) [][]string {
	tbl, err := c.NativeCatalog().Get(name)
	if err != nil {
		return nil
	}
	out := make([][]string, len(tbl.Rows))
	for i, row := range tbl.Rows {
		out[i] = make([]string, len(row))
		for j, v := range row {
			out[i][j] = v.String()
		}
	}
	return out
}

func parseF(s string) float64 {
	f, _ := strconv.ParseFloat(s, 64) // cells written by the generator as numbers
	return f
}

// askSet collects distinct questions in first-seen order.
type askSet struct {
	sys  int
	seen map[string]bool
	ops  []op
}

// ownAsks starts a set with the generator's own workload.
func ownAsks(c *workload.Corpus, sys int) *askSet {
	s := &askSet{sys: sys, seen: map[string]bool{}}
	for _, q := range c.Queries {
		s.add(q.Text, q.Gold)
	}
	return s
}

func (s *askSet) add(text, gold string) {
	if s.seen[text] {
		return
	}
	s.seen[text] = true
	s.ops = append(s.ops, op{kind: opAsk, sys: s.sys, text: text, gold: gold})
}

// ratings tracks per-product star totals, so rating gold can follow
// reviews ingested during a run.
type ratings struct {
	sum, n map[string]float64
	risers map[string]bool // products whose last-quarter sales rose > 15 %
}

func newRatings(c *workload.Corpus) *ratings {
	r := &ratings{sum: map[string]float64{}, n: map[string]float64{}, risers: map[string]bool{}}
	for _, f := range goldFacts(c, "ratings") {
		r.add(f["product"], parseF(f["stars"]))
	}
	for _, f := range goldFacts(c, "metric_changes") {
		if f["quarter"] == "Q4" && parseF(f["change_pct"]) > 15 {
			r.risers[f["product"]] = true
		}
	}
	return r
}

func (r *ratings) add(product string, stars float64) {
	r.sum[product] += stars
	r.n[product]++
}

func (r *ratings) avg(product string) string { return fmtNum(r.sum[product] / r.n[product]) }

func (r *ratings) riserAvg() string {
	var sum, n float64
	for p := range r.risers {
		sum += r.sum[p]
		n += r.n[p]
	}
	return fmtNum(sum / n)
}

const (
	ratingQ = "What is the average rating of %s?"
	riserQ  = "What is the average rating of products with a sales increase of more than 15% in Q4?"
)

// ecommerceAsks is the generator's own workload plus its per-entity
// templates expanded to the first n products (and, for revenue, every
// quarter and every adjacent pair). Over all 48 products that makes more
// distinct plans than the federated plan cache holds.
func ecommerceAsks(c *workload.Corpus, sys, n int) []op {
	s := ownAsks(c, sys)
	products := c.Vocab()["product"]
	products = products[:min(n, len(products))]
	rev := map[string]float64{} // product|quarter → revenue
	total := map[string]float64{}
	for _, row := range nativeRows(c, "sales") {
		rev[row[0]+"|"+row[1]] = parseF(row[2])
		total[row[1]] += parseF(row[2])
	}
	quarters := []string{"Q1", "Q2", "Q3", "Q4"}
	r := newRatings(c)
	for i, p := range products {
		for _, q := range quarters {
			s.add(fmt.Sprintf("What was the revenue of %s in %s?", p, q), fmtNum(rev[p+"|"+q]))
		}
		s.add(fmt.Sprintf(ratingQ, p), r.avg(p))
		if i+1 < len(products) {
			a, b := p, products[i+1]
			lo, hi := a, b
			if lo > hi {
				lo, hi = hi, lo
			}
			s.add(fmt.Sprintf("Compare total revenue for %s and %s in Q4", a, b),
				fmt.Sprintf("%s: %s, %s: %s", lo, fmtNum(rev[lo+"|Q4"]), hi, fmtNum(rev[hi+"|Q4"])))
		}
	}
	for _, q := range quarters {
		s.add("Find the total revenue of all products in "+q, fmtNum(total[q]))
	}
	return s.ops
}

// healthcareAsks is the generator's own workload plus its three
// per-drug templates expanded to every drug.
func healthcareAsks(c *workload.Corpus, sys int) []op {
	s := ownAsks(c, sys)
	drugOf := map[string]string{} // patient → drug
	received := map[string]int{}
	for _, f := range goldFacts(c, "treatments") {
		drugOf[f["patient"]] = f["drug"]
		received[f["drug"]]++
	}
	effects := map[string]map[string]bool{}
	for _, f := range goldFacts(c, "side_effects") {
		d := f["drug"]
		if d == "" {
			d = drugOf[f["patient"]]
		}
		if effects[d] == nil {
			effects[d] = map[string]bool{}
		}
		effects[d][f["effect"]] = true
	}
	for _, row := range nativeRows(c, "trial_results") {
		d := row[0]
		s.add(fmt.Sprintf("What is the efficacy of %s?", d), fmtNum(parseF(row[1])))
		var es []string
		for e := range effects[d] {
			es = append(es, e)
		}
		sort.Strings(es)
		s.add(fmt.Sprintf("Which side effects were reported for %s?", d), strings.Join(es, ", "))
		s.add(fmt.Sprintf("How many patients received %s?", d), strconv.Itoa(received[d]))
	}
	return s.ops
}

// interleave joins the question lists and shuffles the result, so
// consecutive asks rarely share a plan or a system.
func interleave(rng *rand.Rand, lists ...[]op) []op {
	var all []op
	for _, l := range lists {
		all = append(all, l...)
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all
}

// ---- the facts table and the SQL mix over it ----

var regions = []string{"north", "south", "east", "west", "central", "coastal", "alpine", "island"}

// skuRows is the run length of one sku: rows are clustered by sku, so
// a sku predicate prunes by zone map and GROUP BY sku makes n/64 groups.
const skuRows = 64

type fact struct {
	region, sku string
	units       int64
	revenue     float64
	null        bool // revenue is NULL
}

func genFacts(rng *rand.Rand, n int) []fact {
	rows := make([]fact, n)
	price := 0
	for i := range rows {
		if i%skuRows == 0 {
			price = 5 + rng.Intn(95)
		}
		units := int64(1 + rng.Intn(100))
		rows[i] = fact{
			region:  regions[rng.Intn(len(regions))],
			sku:     fmt.Sprintf("SKU-%04d", i/skuRows),
			units:   units,
			revenue: float64(units * int64(price)), // whole numbers, so sums are exact in any order
			null:    i%67 == 66,
		}
	}
	return rows
}

func factsCSV(rows []fact) string {
	var b strings.Builder
	b.WriteString("region,sku,units,revenue\n")
	for _, r := range rows {
		rev := ""
		if !r.null {
			rev = strconv.FormatFloat(r.revenue, 'f', 2, 64) // the decimals make the column infer as float
		}
		fmt.Fprintf(&b, "%s,%s,%d,%s\n", r.region, r.sku, r.units, rev)
	}
	return b.String()
}

// sqlMix is the fixed statement mix over facts and the e-commerce
// native tables: four light, four medium and four heavy statements, each
// with its result computed here in plain Go.
func sqlMix(rows []fact, c *workload.Corpus) []op {
	n := len(rows)
	skuAt := func(i int) string { return rows[i].sku }
	eqSku, loSku, hiSku, cntSku := skuAt(n/2), skuAt(n/8), skuAt(n/8+3*skuRows), skuAt(n/128)
	pickRegion := regions[3]
	sliceLo, sliceHi := n/4, 3*n/4

	var (
		rangeUnits, cntN, fullN, sliceUnits int64
		eqRev                               float64
		skuUnits                            = map[string]int64{}
		regionRev                           = map[string]float64{}
		regionSeen                          = map[string]bool{}
		skuOrder, regionOrder               []string
	)
	for i, r := range rows {
		if r.sku == eqSku && !r.null {
			eqRev += r.revenue
		}
		if r.sku >= loSku && r.sku <= hiSku {
			rangeUnits += r.units
		}
		if r.sku == cntSku && r.units > 50 {
			cntN++
		}
		if r.units > 90 {
			fullN++
		}
		if _, ok := skuUnits[r.sku]; !ok {
			skuOrder = append(skuOrder, r.sku)
		}
		skuUnits[r.sku] += r.units
		if !regionSeen[r.region] {
			regionSeen[r.region] = true
			regionOrder = append(regionOrder, r.region)
		}
		if r.units > 10 && !r.null {
			regionRev[r.region] += r.revenue
		}
		if i >= sliceLo && i < sliceHi && r.region == pickRegion {
			sliceUnits += r.units
		}
	}

	one := func(s string) [][]string { return [][]string{{s}} }
	itoa := func(v int64) string { return strconv.FormatInt(v, 10) }

	// Native e-commerce tables: products(product, manufacturer, price),
	// sales(product, quarter, revenue).
	maker := map[string]string{}
	for _, p := range nativeRows(c, "products") {
		maker[p[0]] = p[1]
	}
	var joinRows [][]string
	makerRev := map[string]float64{}
	for _, s := range nativeRows(c, "sales") {
		if s[1] == "Q4" {
			joinRows = append(joinRows, []string{maker[s[0]], s[2]})
		}
		makerRev[maker[s[0]]] += parseF(s[2])
	}
	var makerRows [][]string
	for m, v := range makerRev {
		makerRows = append(makerRows, []string{m, fmtCell(v)})
	}
	sort.Slice(makerRows, func(i, j int) bool { return makerRows[i][0] < makerRows[j][0] })

	var skuRowsOut, distinctRows, regionRows [][]string
	for _, s := range skuOrder {
		skuRowsOut = append(skuRowsOut, []string{s, itoa(skuUnits[s])})
	}
	for _, r := range regionOrder {
		distinctRows = append(distinctRows, []string{r})
		regionRows = append(regionRows, []string{r, fmtCell(regionRev[r])})
	}

	// ORDER BY revenue DESC LIMIT 100: stable, NULLs last under DESC.
	byRev := make([]int, n)
	for i := range byRev {
		byRev[i] = i
	}
	sort.SliceStable(byRev, func(a, b int) bool {
		ra, rb := rows[byRev[a]], rows[byRev[b]]
		if ra.null != rb.null {
			return rb.null
		}
		return !ra.null && ra.revenue > rb.revenue
	})
	var topRows [][]string
	for _, i := range byRev[:min(100, n)] {
		topRows = append(topRows, []string{rows[i].sku, fmtCell(rows[i].revenue)})
	}

	// WHERE units > 95 ORDER BY region, units DESC LIMIT 200: stable.
	var hot []int
	for i, r := range rows {
		if r.units > 95 {
			hot = append(hot, i)
		}
	}
	sort.SliceStable(hot, func(a, b int) bool {
		ra, rb := rows[hot[a]], rows[hot[b]]
		if ra.region != rb.region {
			return ra.region < rb.region
		}
		return ra.units > rb.units
	})
	var hotRows [][]string
	for _, i := range hot[:min(200, len(hot))] {
		hotRows = append(hotRows, []string{rows[i].region, rows[i].sku, itoa(rows[i].units)})
	}

	const join = "FROM sales JOIN products ON sales.product = products.product"
	q := func(text string, rows [][]string, ordered bool) op {
		return op{kind: opQuery, text: text, rows: rows, ordered: ordered}
	}
	return []op{
		// light
		q(fmt.Sprintf("SELECT SUM(revenue) AS result FROM facts WHERE sku = '%s'", eqSku), one(fmtCell(eqRev)), false),
		q(fmt.Sprintf("SELECT SUM(units) AS result FROM facts WHERE sku >= '%s' AND sku <= '%s'", loSku, hiSku), one(itoa(rangeUnits)), false),
		q(fmt.Sprintf("SELECT COUNT(*) AS n FROM facts WHERE sku = '%s' AND units > 50", cntSku), one(itoa(cntN)), false),
		q("SELECT products.manufacturer, sales.revenue "+join+" WHERE quarter = 'Q4'", joinRows, false),
		// medium
		q("SELECT COUNT(*) AS n FROM facts WHERE units > 90", one(itoa(fullN)), false),
		q("SELECT sku, SUM(units) AS result FROM facts GROUP BY sku", skuRowsOut, false),
		q("SELECT DISTINCT region FROM facts", distinctRows, false),
		q("SELECT manufacturer, SUM(revenue) AS result "+join+" GROUP BY manufacturer", makerRows, false),
		// heavy
		q("SELECT region, SUM(revenue) AS result FROM facts WHERE units > 10 GROUP BY region", regionRows, false),
		q("SELECT sku, revenue FROM facts ORDER BY revenue DESC LIMIT 100", topRows, true),
		q("SELECT region, sku, units FROM facts WHERE units > 95 ORDER BY region, units DESC LIMIT 200", hotRows, true),
		q(fmt.Sprintf("SELECT SUM(units) AS result FROM facts ROWS %d TO %d WHERE region = '%s'", sliceLo, sliceHi, pickRegion), one(itoa(sliceUnits)), false),
	}
}

// ingestOps makes the ingest_live operation list: each cycle ingests
// one review for a rotating product and asks the generator's next eight
// questions, with rating gold following the reviews ingested so far.
func ingestOps(rng *rand.Rand, c *workload.Corpus, cycles, asksPerCycle int) []op {
	products := c.Vocab()["product"]
	r := newRatings(c)
	ratingOf := map[string]string{} // question → product
	for _, p := range products {
		ratingOf[fmt.Sprintf(ratingQ, p)] = p
	}
	var ops []op
	next := 0
	for k := 0; k < cycles; k++ {
		p := products[k%len(products)]
		stars := 1 + rng.Intn(5)
		r.add(p, float64(stars))
		ops = append(ops, op{
			kind: opIngest, source: "reviews", id: fmt.Sprintf("live-%d", k),
			text: fmt.Sprintf("Customer C-%d rated %s %d stars.", 100000+k, p, stars),
		})
		for a := 0; a < asksPerCycle; a++ {
			q := c.Queries[next%len(c.Queries)]
			next++
			o := op{kind: opAsk, text: q.Text, gold: q.Gold, first: a == 0}
			if p, ok := ratingOf[q.Text]; ok {
				o.gold = r.avg(p)
			} else if q.Text == riserQ {
				o.gold = r.riserAvg()
			}
			ops = append(ops, o)
		}
	}
	return ops
}
