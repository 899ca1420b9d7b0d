package retrieval

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/slm"
	"repro/internal/workload"
)

// checkOverlap asserts the halves of "scanner ≡ tokenizer": the spans
// slm.NextWord yields, lower-cased, are Words(Tokenize(text)), and
// termSet.overlap is the reference set intersection over them, and so
// is the interned path — the text's word ids as Topology's memo records
// them, in a vocabulary the query's text has already grown.
func checkOverlap(t *testing.T, query, text string) {
	t.Helper()
	var words []string
	for start, end := slm.NextWord(text, 0); start >= 0; start, end = slm.NextWord(text, end) {
		words = append(words, strings.ToLower(text[start:end]))
	}
	if want := slm.Words(slm.Tokenize(text)); !slices.Equal(words, want) {
		t.Fatalf("words of %q: scanner %q, tokenizer %q", text, words, want)
	}
	ts := newTermSet(query)
	for pass := 0; pass < 2; pass++ { // the second pass meets the marks of the first
		if got, want := ts.overlap(text), lexicalOverlap(queryTerms(query), text); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("overlap(%q, %q) pass %d = %v, reference %v", query, text, pass, got, want)
		}
	}

	r := &Topology{vocab: make(map[string]int32), words: make(map[*graph.Node][]int32)}
	n := &graph.Node{Text: text}
	r.mu.Lock()
	r.analyseLocked(&graph.Node{Text: query})
	r.analyseLocked(n)
	r.mu.Unlock()
	if got, want := memoWords(r)[n], distinctWords(text); !slices.Equal(got, want) {
		t.Fatalf("memo words of %q = %q, tokenizer %q", text, got, want)
	}
	if got, want := memoOverlap(r, query, n), lexicalOverlap(queryTerms(query), text); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("memo overlap(%q, %q) = %v, reference %v", query, text, got, want)
	}
}

func FuzzTermOverlap(f *testing.F) {
	ec := workload.ECommerce(workload.DefaultECommerceOptions())
	hc := workload.Healthcare(workload.DefaultHealthcareOptions())
	for _, c := range []*workload.Corpus{ec, hc} {
		recs := c.Sources.Records()
		for i, q := range c.Queries {
			f.Add(q.Text, recs[i*len(recs)/len(c.Queries)].Text)
		}
	}
	f.Add("patient-reported don't P-1042 outcomes", "Patient-Reported outcomes: DON'T stop p-1042 -x x- 'q'")
	f.Add("revenue 1,234.5% 20% 3.5", "Revenue rose 1,234.5% (from 20%), rated 3.5. 7, 8")
	f.Add("café naïve résumé İstanbul", "CAFÉ — Naïve RÉSUMÉ; i̇stanbul İSTANBUL a\xffb \xc3")
	f.Add("K k ſ s", "K K ſ S") // Kelvin sign and long s lower-case into ASCII
	// Latin-1 and UTF-8 lead bytes scan as the rune of the byte's value.
	f.Add("Ã naïve µg º", "\xc3 \xc3\x83 NAÏVE naïve µG µg º \xba ª")
	// Terms of 63 bytes and longer share the length mask's top bit; the
	// memo folds 63-, 64- and 65-byte words alike.
	long := strings.Repeat("x", 63)
	f.Add(long+" "+long+"y "+long+"yz", strings.ToUpper(long)+"yz "+long+"Y "+long+"q "+long[:62])
	f.Add("the of and", "the of and")
	f.Add(strings.Repeat("w1 w2 w3 w4 w5 w6 w7 w8 w9 ", 8)+"t70 t71", "W5 t71 w9 nothing")
	f.Fuzz(func(t *testing.T, query, text string) { checkOverlap(t, query, text) })
}

// More query terms than a machine word has bits, and words only
// strings.ToLower can fold, take no separate path.
func TestTermOverlapManyTermsAndNonASCII(t *testing.T) {
	var q []string
	for i := 0; i < 100; i++ {
		q = append(q, "term"+string(rune('a'+i%26))+string(rune('a'+i/26)))
	}
	query := strings.Join(q, " ")
	checkOverlap(t, query, "TERMAA termzd TermVD termaa nothing café")
	if got := newTermSet(query).overlap("TERMAA termzc TermVD termaa"); got != 3.0/100 {
		t.Errorf("overlap = %v, want 0.03", got)
	}
	checkOverlap(t, "CAFÉ Kelvin", "café kelvin KELVIN")
}
