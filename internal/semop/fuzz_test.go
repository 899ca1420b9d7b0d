package semop

import (
	"strings"
	"testing"

	"repro/internal/extract"
	"repro/internal/logical"
	"repro/internal/slm"
	"repro/internal/store"
	"repro/internal/table"
	"repro/internal/workload"
)

// demo is one demo corpus as a question meets it: the recognizer with
// the corpus vocabulary and the catalog of its native tables plus the
// tables Relational Table Generation extracts from its documents.
type demo struct {
	ner *slm.NER
	cat *table.Catalog
}

func newDemo(tb testing.TB, c *workload.Corpus) demo {
	tb.Helper()
	ner := slm.NewNER()
	c.Register(ner)
	cat := table.NewCatalog()
	var docs []extract.Doc
	for _, s := range c.Sources.Sources() {
		if rs, ok := s.(*store.RelationalStore); ok {
			for _, t := range rs.Tables() {
				cat.Put(t)
			}
		}
		if s.Kind() == store.KindText {
			for _, rec := range s.Records() {
				docs = append(docs, extract.Doc{ID: rec.ID, Text: rec.Text})
			}
		}
	}
	if err := extract.Merge(cat, extract.NewEngine(ner, extract.Rules()...).ExtractDocs(docs, 1)); err != nil {
		tb.Fatal(err)
	}
	return demo{ner, cat}
}

// FuzzParseBindCompile drives arbitrary input through the
// natural-language entry path — parse → bind → compile-to-IR → optimize
// — against both demo catalogs, and checks what must hold for any
// question:
//
//   - nothing panics, whatever the bytes;
//   - a question that binds compiles to a tree the optimizer accepts;
//   - the path is deterministic: taken twice, it gives the same
//     optimized fingerprint.
//
// CI runs it as a short -fuzztime smoke; the seed corpus is both
// workloads' question sets plus the degenerate inputs.
func FuzzParseBindCompile(f *testing.F) {
	ecommerce := workload.ECommerce(workload.DefaultECommerceOptions())
	healthcare := workload.Healthcare(workload.DefaultHealthcareOptions())
	demos := []demo{newDemo(f, ecommerce), newDemo(f, healthcare)}
	for _, c := range []*workload.Corpus{ecommerce, healthcare} {
		for _, q := range c.Queries {
			f.Add(q.Text)
		}
	}
	for _, s := range []string{
		"",
		"?!.,;:-()[]{}'\"",
		strings.Repeat("What was the revenue of Product Alpha in Q2 compared to Product Beta? ", 150), // ≈ 10 kB
		"revenue of \xff\xfe Product \xc3\x28 in Q\x80",
		"2024 17 3.5 0 99999999999999999999",
	} {
		f.Add(s)
	}

	fingerprint := func(t *testing.T, d demo, question string) (string, bool) {
		p, err := Bind(Parse(question, d.ner), d.cat)
		if err != nil {
			return "", false // an unbindable question is fine; a panic is not
		}
		opt := logical.Optimize(Compile(p), logical.CatalogStats(d.cat))
		if opt == nil || opt.Root == nil {
			t.Fatalf("%q bound to %s but optimized to no tree", question, p)
		}
		return logical.Fingerprint(opt.Root), true
	}
	f.Fuzz(func(t *testing.T, question string) {
		for i, d := range demos {
			first, ok := fingerprint(t, d, question)
			if again, ok2 := fingerprint(t, d, question); ok != ok2 || first != again {
				t.Fatalf("demo %d, %q: fingerprint %q (bound %v), then %q (bound %v)", i, question, first, ok, again, ok2)
			}
			if ok && first == "" {
				t.Fatalf("demo %d, %q: empty fingerprint for a bound plan", i, question)
			}
		}
	})
}
