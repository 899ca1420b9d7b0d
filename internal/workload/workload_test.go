package workload

import (
	"strings"
	"testing"

	"repro/internal/slm"
	"repro/internal/store"
)

// queriesOf returns the corpus queries of one class.
func queriesOf(c *Corpus, class Class) []Query {
	var out []Query
	for _, q := range c.Queries {
		if q.Class == class {
			out = append(out, q)
		}
	}
	return out
}

// unstructuredDocs returns all unstructured document records.
func unstructuredDocs(c *Corpus) []store.Record {
	var out []store.Record
	for _, s := range c.Sources.Sources() {
		if s.Kind() == store.KindText {
			out = append(out, s.Records()...)
		}
	}
	return out
}

func TestECommerceDeterministic(t *testing.T) {
	a := ECommerce(DefaultECommerceOptions())
	b := ECommerce(DefaultECommerceOptions())
	if len(a.Queries) != len(b.Queries) {
		t.Fatal("query counts differ")
	}
	for i := range a.Queries {
		if a.Queries[i].Text != b.Queries[i].Text || a.Queries[i].Gold != b.Queries[i].Gold {
			t.Fatalf("query %d differs", i)
		}
	}
	if a.Sources.Len() != b.Sources.Len() {
		t.Error("source sizes differ")
	}
}

func TestECommerceShape(t *testing.T) {
	c := ECommerce(DefaultECommerceOptions())
	if c.Sources.Len() == 0 {
		t.Fatal("no records")
	}
	kinds := map[store.Kind]bool{}
	for _, s := range c.Sources.Sources() {
		kinds[s.Kind()] = true
	}
	for _, k := range []store.Kind{store.KindText, store.KindJSON, store.KindRelational} {
		if !kinds[k] {
			t.Errorf("missing source kind %s", k)
		}
	}
	classes := map[Class]int{}
	for _, q := range c.Queries {
		classes[q.Class]++
		if q.Gold == "" || q.Text == "" || len(q.GoldEvidence) == 0 {
			t.Errorf("incomplete query %+v", q)
		}
	}
	for _, cl := range []Class{ClassSingleLookup, ClassAggregate, ClassComparative, ClassCrossModal} {
		if classes[cl] == 0 {
			t.Errorf("no queries of class %s", cl)
		}
	}
	if len(c.GoldFacts) == 0 {
		t.Error("no gold facts")
	}
}

func TestECommerceGoldConsistency(t *testing.T) {
	c := ECommerce(DefaultECommerceOptions())
	// The native sales table must contain the revenue every
	// single-lookup query asks about.
	cat := c.NativeCatalog()
	sales, err := cat.Get("sales")
	if err != nil {
		t.Fatal(err)
	}
	if sales.Len() == 0 {
		t.Fatal("empty sales table")
	}
	for _, q := range queriesOf(c, ClassSingleLookup) {
		if !strings.Contains(q.Text, "revenue") {
			t.Errorf("unexpected lookup text %q", q.Text)
		}
	}
}

func TestECommerceMinimumSizes(t *testing.T) {
	c := ECommerce(ECommerceOptions{Products: 0, ReviewsPerProduct: 0, Quarters: 9, Seed: 1})
	if len(c.Queries) == 0 || c.Sources.Len() == 0 {
		t.Error("degenerate options not normalized")
	}
}

func TestECommerceLongDocs(t *testing.T) {
	opts := DefaultECommerceOptions()
	opts.LongDocs = true
	c := ECommerce(opts)
	// One combined document per product, named pdoc-<i>.
	pdocs := 0
	for _, rec := range unstructuredDocs(c) {
		if strings.HasPrefix(rec.ID, "pdoc-") {
			pdocs++
			if len(strings.Fields(rec.Text)) < 20 {
				t.Errorf("long doc %s too short: %q", rec.ID, rec.Text)
			}
		}
		if strings.HasPrefix(rec.ID, "review-") || strings.HasPrefix(rec.ID, "report-") {
			t.Errorf("per-item doc %s present in LongDocs mode", rec.ID)
		}
	}
	if pdocs != opts.Products {
		t.Errorf("pdocs = %d, want %d", pdocs, opts.Products)
	}
	// Gold evidence references the combined docs, deduplicated.
	for _, q := range queriesOf(c, ClassCrossModal) {
		seen := map[string]bool{}
		for _, e := range q.GoldEvidence {
			if seen[e] {
				t.Errorf("duplicate evidence %s in %s", e, q.ID)
			}
			seen[e] = true
			if !strings.HasPrefix(e, "pdoc-") {
				t.Errorf("evidence %s should be a pdoc", e)
			}
		}
	}
	// Gold answers are unchanged by document layout.
	plain := ECommerce(DefaultECommerceOptions())
	if len(plain.Queries) != len(c.Queries) {
		t.Fatal("query counts differ between layouts")
	}
	for i := range plain.Queries {
		if plain.Queries[i].Gold != c.Queries[i].Gold {
			t.Errorf("gold differs for %s: %q vs %q",
				plain.Queries[i].ID, plain.Queries[i].Gold, c.Queries[i].Gold)
		}
	}
}

func TestHealthcareShape(t *testing.T) {
	c := Healthcare(DefaultHealthcareOptions())
	classes := map[Class]int{}
	for _, q := range c.Queries {
		classes[q.Class]++
	}
	for _, cl := range []Class{ClassSingleLookup, ClassAggregate, ClassComparative, ClassCrossModal} {
		if classes[cl] == 0 {
			t.Errorf("no queries of class %s", cl)
		}
	}
	// Gold side-effect answers are sorted, comma-joined.
	for _, q := range queriesOf(c, ClassCrossModal) {
		parts := strings.Split(q.Gold, ", ")
		for i := 1; i < len(parts); i++ {
			if parts[i] < parts[i-1] {
				t.Errorf("gold not sorted: %q", q.Gold)
			}
		}
	}
}

func TestHealthcareGoldFactsCoverTreatments(t *testing.T) {
	c := Healthcare(DefaultHealthcareOptions())
	tables := map[string]int{}
	for _, f := range c.GoldFacts {
		tables[f.Table]++
	}
	if tables["treatments"] == 0 || tables["side_effects"] == 0 {
		t.Errorf("gold fact tables: %v", tables)
	}
}

func TestRegisterGazetteer(t *testing.T) {
	ner := slm.NewNER()
	ECommerce(DefaultECommerceOptions()).Register(ner)
	Healthcare(DefaultHealthcareOptions()).Register(ner)
	ents := ner.Recognize("Product Alpha and Drug A caused nausea")
	types := map[slm.EntityType]bool{}
	for _, e := range ents {
		types[e.Type] = true
	}
	if !types[slm.EntProduct] || !types[slm.EntDrug] || !types[slm.EntSideEffect] {
		t.Errorf("gazetteer incomplete: %v", ents)
	}
}

func TestDocOfAndNormalize(t *testing.T) {
	if DocOf("review-1-2#3") != "review-1-2" {
		t.Errorf("DocOf = %q", DocOf("review-1-2#3"))
	}
	if DocOf("shop/sales/4") != "shop/sales/4" {
		t.Errorf("DocOf row = %q", DocOf("shop/sales/4"))
	}
	got := NormalizeEvidence([]string{"a#0", "a#1", "b#0"})
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("NormalizeEvidence = %v", got)
	}
}

func TestCalibrationShape(t *testing.T) {
	items := Calibration(DefaultCalibrationOptions())
	if len(items) != DefaultCalibrationOptions().Items {
		t.Fatalf("items = %d", len(items))
	}
	nAmb := 0
	for _, it := range items {
		if len(it.Candidates) < 2 || it.Gold == "" {
			t.Errorf("bad item %+v", it)
		}
		if it.Candidates[0].Text != it.Gold {
			t.Errorf("gold must be candidate 0: %+v", it)
		}
		if it.Ambiguous {
			nAmb++
			// Flat support.
			for _, cd := range it.Candidates {
				if cd.Weight != 1 {
					t.Errorf("ambiguous item with non-flat weights: %+v", it)
				}
			}
		} else if it.Candidates[0].Weight <= it.Candidates[1].Weight {
			t.Errorf("easy item without dominant gold: %+v", it)
		}
	}
	frac := float64(nAmb) / float64(len(items))
	if frac < 0.2 || frac > 0.6 {
		t.Errorf("ambiguous fraction = %v", frac)
	}
}

func TestCalibrationDeterministic(t *testing.T) {
	a := Calibration(DefaultCalibrationOptions())
	b := Calibration(DefaultCalibrationOptions())
	for i := range a {
		if a[i].Gold != b[i].Gold || a[i].Ambiguous != b[i].Ambiguous {
			t.Fatal("calibration not deterministic")
		}
	}
}

func TestUnstructuredDocs(t *testing.T) {
	c := ECommerce(DefaultECommerceOptions())
	docs := unstructuredDocs(c)
	if len(docs) == 0 {
		t.Fatal("no unstructured docs")
	}
	for _, d := range docs {
		if d.Kind != store.KindText {
			t.Errorf("non-text doc %v", d.Kind)
		}
	}
}

// Pure-noise documents are named noise-<k>, and being distractors they
// are no query's gold evidence.
func TestHasNoiseDoc(t *testing.T) {
	c := ECommerce(DefaultECommerceOptions())
	noise := 0
	for _, d := range unstructuredDocs(c) {
		if strings.HasPrefix(d.ID, "noise-") {
			noise++
		}
	}
	if noise == 0 {
		t.Error("no noise document at Noise 0.3")
	}
	for _, q := range c.Queries {
		for _, e := range q.GoldEvidence {
			if strings.HasPrefix(e, "noise-") {
				t.Errorf("%s: gold evidence %s is a distractor", q.ID, e)
			}
		}
	}
}
