package workload

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/slm"
	"repro/internal/store"
	"repro/internal/table"
)

// ECommerceOptions sizes the e-commerce corpus (paper Section III.C's
// "large-scale e-commerce data lake with unstructured customer
// reviews, product descriptions, and sales records").
type ECommerceOptions struct {
	Products          int     // number of products (>= 2)
	ReviewsPerProduct int     // review documents per product (>= 1)
	Quarters          int     // quarters of sales history, 2..4
	Noise             float64 // [0,1] fraction of distractor content
	LongDocs          bool    // one long document per product instead of one per report/review
	Seed              uint64
}

// DefaultECommerceOptions returns a laptop-scale corpus.
func DefaultECommerceOptions() ECommerceOptions {
	return ECommerceOptions{Products: 8, ReviewsPerProduct: 4, Quarters: 4, Noise: 0.3, Seed: 42}
}

// ECommerce generates the e-commerce corpus: a native relational
// catalog (products, sales), unstructured sales reports and customer
// reviews, JSON order-event logs, and a query workload with gold.
func ECommerce(opts ECommerceOptions) *Corpus {
	if opts.Products < 2 {
		opts.Products = 2
	}
	if opts.ReviewsPerProduct < 1 {
		opts.ReviewsPerProduct = 1
	}
	if opts.Quarters < 2 {
		opts.Quarters = 2
	}
	if opts.Quarters > 4 {
		opts.Quarters = 4
	}
	rng := slm.NewRNG(opts.Seed)
	c := &Corpus{Name: "ecommerce"}

	type product struct {
		name     string
		maker    string
		price    int64
		revenue  []float64 // per quarter
		pct      []int     // change vs previous quarter (index aligns with revenue; pct[0] unused)
		stars    []int64   // review stars
		saleRow  []int     // row index in sales table per quarter
		firstRev int       // first review index (for doc ids)
	}
	products := make([]*product, opts.Products)

	cat := table.NewCatalog()
	productsTbl := table.New("products", table.Schema{
		{Name: "product", Type: table.TypeString},
		{Name: "manufacturer", Type: table.TypeString},
		{Name: "price", Type: table.TypeFloat},
	})
	salesTbl := table.New("sales", table.Schema{
		{Name: "product", Type: table.TypeString},
		{Name: "quarter", Type: table.TypeString},
		{Name: "revenue", Type: table.TypeFloat},
	})

	reports := store.NewTextStore("reports")
	reviews := store.NewTextStore("reviews")
	logs := store.NewJSONStore("events")

	// In LongDocs mode, each product's report and review sentences
	// accumulate into one document ("pdoc-<i>") so the chunker has
	// something to split — the chunk-size ablation corpus.
	longDoc := make([]string, opts.Products)
	reportDocID := func(i int, q string) string {
		if opts.LongDocs {
			return fmt.Sprintf("pdoc-%d", i)
		}
		return fmt.Sprintf("report-%d-%s", i, q)
	}
	reviewDocID := func(i, k int) string {
		if opts.LongDocs {
			return fmt.Sprintf("pdoc-%d", i)
		}
		return fmt.Sprintf("review-%d-%d", i, k)
	}

	salesRow := 0
	for i := range products {
		p := &product{
			name:  productName(i),
			maker: manufacturerName(i % len(manufacturerNames)),
			price: int64(10 + rng.Intn(90)),
		}
		products[i] = p
		c.products = append(c.products, p.name)
		productsTbl.MustAppend([]table.Value{table.S(p.name), table.S(p.maker), table.F(float64(p.price))})

		// Quarterly revenue: integer-valued floats so sums are exact.
		units := int64(20 + rng.Intn(80))
		for q := 0; q < opts.Quarters; q++ {
			if q > 0 {
				delta := int64(rng.Intn(41)) - 18 // -18..+22 units drift
				units += delta
				if units < 5 {
					units = 5
				}
			}
			rev := float64(units * p.price)
			p.revenue = append(p.revenue, rev)
			p.saleRow = append(p.saleRow, salesRow)
			salesRow++
			salesTbl.MustAppend([]table.Value{
				table.S(p.name), table.S(quarterName(q)), table.F(rev),
			})
		}

		// Sales report docs: one per quarter transition with a nonzero
		// change, phrased exactly as the paper's example.
		p.pct = make([]int, opts.Quarters)
		for q := 1; q < opts.Quarters; q++ {
			prev, cur := p.revenue[q-1], p.revenue[q]
			pct := int(math.Round((cur - prev) / prev * 100))
			p.pct[q] = pct
			if pct == 0 {
				continue
			}
			verb := "increased"
			if pct < 0 {
				verb = "decreased"
			}
			sentence := fmt.Sprintf("%s sales %s %d%% in %s.", p.name, verb, abs(pct), quarterName(q))
			doc := sentence
			if rng.Float64() < opts.Noise {
				doc += " " + noiseSentences[rng.Intn(len(noiseSentences))] + "."
			}
			if opts.LongDocs {
				longDoc[i] += doc + " "
			} else {
				reports.Add(reportDocID(i, quarterName(q)), doc)
			}
			dir := "up"
			if pct < 0 {
				dir = "down"
			}
			c.GoldFacts = append(c.GoldFacts, GoldFact{
				Table: "metric_changes",
				Cells: map[string]string{
					"product":    p.name,
					"quarter":    quarterName(q),
					"metric":     "sales",
					"direction":  dir,
					"change_pct": fmt.Sprintf("%d", pct), // signed
				},
			})
		}

		// Review docs.
		p.firstRev = i * opts.ReviewsPerProduct
		for k := 0; k < opts.ReviewsPerProduct; k++ {
			stars := int64(1 + rng.Intn(5))
			p.stars = append(p.stars, stars)
			sentence := fmt.Sprintf("Customer C-%d rated %s %d stars.", p.firstRev+k+1, p.name, stars)
			doc := sentence + " " + reviewAspects[rng.Intn(len(reviewAspects))] + "."
			if rng.Float64() < opts.Noise {
				doc += " " + noiseSentences[rng.Intn(len(noiseSentences))] + "."
			}
			if opts.LongDocs {
				longDoc[i] += doc + " "
			} else {
				reviews.Add(reviewDocID(i, k), doc)
			}
			c.GoldFacts = append(c.GoldFacts, GoldFact{
				Table: "ratings",
				Cells: map[string]string{
					"product": p.name,
					"stars":   fmt.Sprintf("%d", stars),
				},
			})
		}

		if opts.LongDocs && longDoc[i] != "" {
			reports.Add(fmt.Sprintf("pdoc-%d", i), strings.TrimSpace(longDoc[i]))
		}

		// JSON order events.
		logs.AddObject(map[string]interface{}{
			"id": fmt.Sprintf("o%d", i), "product": p.name,
			"event": "order", "latency_ms": float64(50 + rng.Intn(200)),
		})
	}

	// Pure-noise documents.
	for k := 0; k < int(opts.Noise*float64(opts.Products)); k++ {
		reports.Add(fmt.Sprintf("noise-%d", k),
			noiseSentences[k%len(noiseSentences)]+". "+noiseSentences[(k+1)%len(noiseSentences)]+".")
	}
	// Extraction traps: speculative claims that surface-pattern rules
	// wrongly extract (they are NOT gold facts), so extraction
	// precision degrades as noise rises — the realistic failure mode
	// of rule-driven table generation. Traps carry no product or
	// quarter, so they cannot corrupt the QA gold answers.
	for k := 0; k < int(opts.Noise*float64(opts.Products)); k++ {
		reports.Add(fmt.Sprintf("trap-%d", k),
			fmt.Sprintf("Rumors claimed sales rose %d%% last year.", 5+k))
	}

	// Register the tables once they are fully populated: a table is
	// read-only to its builder after Put, and statistics must describe
	// the final data — refutation proofs (emptyfold, zone pruning) act
	// on them, not just estimates.
	cat.Put(productsTbl)
	cat.Put(salesTbl)

	c.Sources = store.NewMulti().
		Add(store.NewRelationalStore("shop", cat)).
		Add(reports).
		Add(reviews).
		Add(logs)

	c.manufacturers = append(c.manufacturers, manufacturerNames...)

	// --- queries with gold ---
	qn := 0
	addQuery := func(class Class, text, gold string, evidence []string) {
		qn++
		c.Queries = append(c.Queries, Query{
			ID: fmt.Sprintf("ec-%02d", qn), Text: text, Class: class,
			Gold: gold, GoldEvidence: evidence,
		})
	}

	lastQ := quarterName(opts.Quarters - 1)
	for i, p := range products {
		if i >= 6 { // bound workload size; corpus can be larger
			break
		}
		q := opts.Quarters - 1
		// Single lookup.
		addQuery(ClassSingleLookup,
			fmt.Sprintf("What was the revenue of %s in %s?", p.name, lastQ),
			table.FormatNumber(p.revenue[q]),
			[]string{fmt.Sprintf("shop/sales/%d", p.saleRow[q])})
		// Cross-modal rating.
		var starSum int64
		evidence := make([]string, 0, len(p.stars))
		for k, s := range p.stars {
			starSum += s
			evidence = appendUnique(evidence, reviewDocID(i, k))
		}
		avg := float64(starSum) / float64(len(p.stars))
		addQuery(ClassCrossModal,
			fmt.Sprintf("What is the average rating of %s?", p.name),
			table.FormatNumber(avg), evidence)
	}

	// Aggregate: total revenue in the last quarter.
	var total float64
	aggEvidence := make([]string, 0, len(products))
	for _, p := range products {
		total += p.revenue[opts.Quarters-1]
		aggEvidence = append(aggEvidence, fmt.Sprintf("shop/sales/%d", p.saleRow[opts.Quarters-1]))
	}
	addQuery(ClassAggregate,
		fmt.Sprintf("Find the total revenue of all products in %s", lastQ),
		table.FormatNumber(total), aggEvidence)

	// Comparative: first two products, last quarter.
	a, b := products[0], products[1]
	q := opts.Quarters - 1
	pair := []*struct {
		name string
		rev  float64
	}{{a.name, a.revenue[q]}, {b.name, b.revenue[q]}}
	if pair[0].name > pair[1].name {
		pair[0], pair[1] = pair[1], pair[0]
	}
	addQuery(ClassComparative,
		fmt.Sprintf("Compare total revenue for %s and %s in %s", a.name, b.name, lastQ),
		fmt.Sprintf("%s: %s, %s: %s",
			pair[0].name, table.FormatNumber(pair[0].rev),
			pair[1].name, table.FormatNumber(pair[1].rev)),
		[]string{
			fmt.Sprintf("shop/sales/%d", a.saleRow[q]),
			fmt.Sprintf("shop/sales/%d", b.saleRow[q]),
		})

	// Cross-modal join: average rating of products whose sales rose
	// more than 15% in the last quarter (the paper's flagship query).
	var joinStars []int64
	var joinEvidence []string
	for i, p := range products {
		if p.pct[q] <= 15 {
			continue
		}
		joinStars = append(joinStars, p.stars...)
		joinEvidence = appendUnique(joinEvidence, reportDocID(i, lastQ))
		for k := range p.stars {
			joinEvidence = appendUnique(joinEvidence, reviewDocID(i, k))
		}
	}
	if len(joinStars) > 0 {
		var sum int64
		for _, s := range joinStars {
			sum += s
		}
		addQuery(ClassCrossModalJoin,
			fmt.Sprintf("What is the average rating of products with a sales increase of more than 15%% in %s?", lastQ),
			table.FormatNumber(float64(sum)/float64(len(joinStars))),
			joinEvidence)
	}

	return c
}

func quarterName(q int) string { return fmt.Sprintf("Q%d", q+1) }

// appendUnique appends s unless already present (gold evidence lists
// collapse when LongDocs merges documents).
func appendUnique(xs []string, s string) []string {
	for _, x := range xs {
		if x == s {
			return xs
		}
	}
	return append(xs, s)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// NativeCatalog returns the corpus's native relational catalog (the
// tables that exist without extraction), for the Text-to-SQL baseline.
func (c *Corpus) NativeCatalog() *table.Catalog {
	for _, s := range c.Sources.Sources() {
		if rs, ok := s.(*store.RelationalStore); ok {
			return rs.Catalog()
		}
	}
	return table.NewCatalog()
}
