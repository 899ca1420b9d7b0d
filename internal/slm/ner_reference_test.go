package slm

import (
	"reflect"
	"strings"
	"testing"
)

// refCanonicalTokens and refGazetteerPass are Recognize's pass 1 as it
// stood until PR 22: at every unclaimed token, for every window length
// from maxLen down, lower-case and join the window into a key and look
// it up. They stay as the definition gazetteerPass — which rejects a
// window by its first word, lower-cases each token once and builds keys
// in a scratch buffer — is tested against.
func refCanonicalTokens(tokens []Token) string {
	parts := make([]string, 0, len(tokens))
	for _, t := range tokens {
		if t.Kind == TokenPunct {
			continue
		}
		parts = append(parts, strings.ToLower(t.Text))
	}
	return strings.Join(parts, " ")
}

func refGazetteerPass(n *NER, text string, tokens []Token, claimed []bool) []Entity {
	var ents []Entity
	for i := 0; i < len(tokens); i++ {
		if claimed[i] {
			continue
		}
		limit := n.maxLen
		if i+limit > len(tokens) {
			limit = len(tokens) - i
		}
		for l := limit; l >= 1; l-- {
			if anyClaimed(claimed, i, i+l) {
				continue
			}
			key := refCanonicalTokens(tokens[i : i+l])
			if t, ok := n.gazetteer[key]; ok {
				claim(claimed, i, i+l)
				ents = append(ents, Entity{
					Type:      t,
					Text:      text[tokens[i].Start:tokens[i+l-1].End],
					Canonical: key,
					Start:     tokens[i].Start,
					End:       tokens[i+l-1].End,
				})
				i += l - 1
				break
			}
		}
	}
	return ents
}

// refRecognize is Recognize with the reference pass 1, on slices made
// fresh for the call and each token lower-cased on its own.
func refRecognize(n *NER, text string) []Entity {
	tokens := Tokenize(text)
	lower := make([]string, len(tokens))
	for i, t := range tokens {
		lower[i] = strings.ToLower(t.Text)
	}
	claimed := make([]bool, len(tokens))
	return surfacePasses(text, tokens, lower, claimed, refGazetteerPass(n, text, tokens, claimed))
}

var fuzzTypes = []EntityType{EntProduct, EntManufacturer, EntDrug, EntSideEffect}

// checkRecognize registers vocab (one phrase per line, types in
// rotation) and requires Recognize(text) to be the reference's entity
// list — type, surface text, canonical form, offsets, order — for one
// accounted model call over all of text's tokens.
func checkRecognize(t *testing.T, vocab, text string) {
	t.Helper()
	cost := NewCostModel(SLMProfile())
	n := NewNER().WithCost(cost)
	for i, phrase := range strings.Split(vocab, "\n") {
		n.AddGazetteer(fuzzTypes[i%len(fuzzTypes)], phrase)
	}
	got, want := n.Recognize(text), refRecognize(n, text)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("vocabulary %q (maxLen %d), text %q:\n got %+v\nwant %+v", vocab, n.maxLen, text, got, want)
	}
	if calls, tokens := cost.Calls(OpTag), cost.tokens[OpTag]; calls != 1 || tokens != int64(len(Tokenize(text))) {
		t.Fatalf("text %q accounted as %d calls over %d tokens, want 1 over %d", text, calls, tokens, len(Tokenize(text)))
	}
}

// The default e-commerce and healthcare corpora's vocabularies
// (internal/workload, which this package cannot import).
const (
	ecommerceVocab = "Product Alpha\nProduct Beta\nProduct Gamma\nProduct Delta\nProduct Epsilon\nProduct Zeta\nProduct Eta\nProduct Theta\n" +
		"Acme Corp\nGlobex\nInitech\nUmbrella Labs\nStark Industries\nWayne Enterprises\nTyrell Systems\nCyberdyne Works"
	healthcareVocab = "Drug A\nDrug B\nDrug C\nDrug D\nDrug E\nDrug F\nnausea\nheadache\nfatigue\ndizziness\ninsomnia\nrash\nfever\nanxiety\nAcme Corp\nGlobex"
)

func FuzzRecognize(f *testing.F) {
	// Rendered rows and documents of both workloads.
	f.Add(ecommerceVocab, "product is Product Alpha. quarter is Q2. revenue is 7719. units is 42.")
	f.Add(ecommerceVocab, "region is north. revenue is 1234. sku is SKU-0001. units is 13.")
	f.Add(ecommerceVocab, "Customer C-17 rated Product Gamma 4 stars. Umbrella Labs makes Product Gamma, and the Product Gamma sold 12 units in Q3 2024.")
	f.Add(healthcareVocab, "Patient P-1 received Drug A on 2024-05-01. Patient P-1 reported nausea, then Dizziness; 20% had a rash.")
	f.Add(healthcareVocab, "drug is Drug C. manufacturer is Acme Corp. approved is 2019-03-04. price is $1,234.50 million.")
	// Windows that open or close on punctuation, and a phrase whose
	// words sit on either side of a cell or sentence boundary.
	f.Add("Product Alpha", ". Product Alpha .")
	f.Add("Product Alpha", "\"Product Alpha\", (product alpha) — product, alpha; ...product... alpha.")
	f.Add("alpha beta\nbeta", "name is alpha. beta is 3. alpha. beta. gamma")
	f.Add("north units", "region is north. units is 13.")
	f.Add("is\nis north\nregion is north", "region is north. region is. north")
	// Determiners, case, NBSP and other multi-byte input.
	f.Add("the Product Alpha\nAn Apple\nall", "The Product Alpha, the product ALPHA, an apple, An Apple, all of it")
	f.Add("café crème\nİstanbul\nK", "CAFÉ CRÈME café crème i̇stanbul İSTANBUL K k product\u00a0alpha a\xffb \xc3 \x85")
	f.Add("product\u00a0alpha\nproduct alpha", "product\u00a0alpha Product\u00a0Alpha product alpha")
	// maxLen 1 to 4, with phrases that are prefixes of one another.
	f.Add("widget", "Widget widget WIDGETS widget-pro")
	f.Add("widget\nwidget pro", "Widget Pro, widget; pro. widget")
	f.Add("widget pro max\nwidget\npro max", "widget pro max widget pro, max pro max widget")
	f.Add("a b c d\nb c\nd", "a b c d a b c e b c d . a . b . c . d")
	f.Add("...\n. x\n\nthe\nx", "... . x the x")
	// Pattern words in mixed case, read from the lower-cased tokens.
	f.Add(ecommerceVocab, "Q2 2024 rose 5 Percent to $3 Million; the Second QUARTER, 4 STARS, 12 Units, 7 Dollars, $9 BN.")
	// Non-ASCII text, lower-cased a token at a time, and punctuation or
	// symbol bytes of 0x80 and above, whose token text is that rune.
	f.Add(healthcareVocab, "DRUG \xc4 \xa7 Drug A \xd7 5 PERCENT \xb7 $3 million\xbf 12 UNITS\xa0sold \xab Q2\x852024 caf\xe9 \xe2\x80\x94 Na\u00efve")
	f.Fuzz(checkRecognize)
}
