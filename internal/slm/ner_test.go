package slm

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func newTestNER() *NER {
	n := NewNER()
	n.AddGazetteer(EntProduct, "Product Alpha", "Product Beta", "Widget Pro")
	n.AddGazetteer(EntDrug, "Drug A", "Drug B", "Aspirin")
	n.AddGazetteer(EntSideEffect, "nausea", "headache", "fatigue", "dizziness")
	n.AddGazetteer(EntManufacturer, "Acme Corp", "Globex")
	return n
}

func findEntity(ents []Entity, typ EntityType) (Entity, bool) {
	for _, e := range ents {
		if e.Type == typ {
			return e, true
		}
	}
	return Entity{}, false
}

func TestNERGazetteer(t *testing.T) {
	n := newTestNER()
	ents := n.Recognize("Customers who bought Product Alpha reported nausea.")
	p, ok := findEntity(ents, EntProduct)
	if !ok || p.Canonical != "product alpha" {
		t.Fatalf("product not found: %v", ents)
	}
	s, ok := findEntity(ents, EntSideEffect)
	if !ok || s.Canonical != "nausea" {
		t.Fatalf("side effect not found: %v", ents)
	}
}

func TestNERLongestMatchWins(t *testing.T) {
	n := NewNER()
	n.AddGazetteer(EntProduct, "Widget")
	n.AddGazetteer(EntProduct, "Widget Pro Max")
	ents := n.Recognize("The Widget Pro Max is popular.")
	e, ok := findEntity(ents, EntProduct)
	if !ok {
		t.Fatal("no product entity")
	}
	if e.Canonical != "widget pro max" {
		t.Errorf("got %q, want longest match", e.Canonical)
	}
}

func TestNERQuarter(t *testing.T) {
	n := newTestNER()
	for _, text := range []string{"Sales rose in Q2.", "the second quarter was strong", "Q3 2024 results"} {
		ents := n.Recognize(text)
		if _, ok := findEntity(ents, EntQuarter); !ok {
			t.Errorf("no quarter in %q: %v", text, ents)
		}
	}
	for _, text := range []string{"the second quarter was strong", "the Second QUARTER was strong"} {
		q, _ := findEntity(n.Recognize(text), EntQuarter)
		if q.Canonical != "q2" {
			t.Errorf("%q: ordinal quarter canonical = %q, want q2", text, q.Canonical)
		}
	}
}

func TestNERPercentMoneyRating(t *testing.T) {
	n := newTestNER()
	ents := n.Recognize("Revenue grew 15% to $2.5 million and the item was rated 4.5 stars.")
	if p, ok := findEntity(ents, EntPercent); !ok || p.Canonical != "15%" {
		t.Errorf("percent: %v", ents)
	}
	if m, ok := findEntity(ents, EntMoney); !ok || m.Text != "$2.5 million" {
		t.Errorf("money: %v", ents)
	}
	if r, ok := findEntity(ents, EntRating); !ok || r.Canonical != "4.5" {
		t.Errorf("rating: %v", ents)
	}
}

func TestNERPercentWord(t *testing.T) {
	n := newTestNER()
	for _, text := range []string{"sales increased 20 percent", "sales increased 20 PerCent"} {
		ents := n.Recognize(text)
		p, ok := findEntity(ents, EntPercent)
		if !ok || p.Canonical != "20%" {
			t.Errorf("percent-word %q: %v", text, ents)
		}
	}
}

func TestNERDates(t *testing.T) {
	n := newTestNER()
	ents := n.Recognize("Enrolled on 2024-05-01 and discharged May 9, 2024.")
	var dates []Entity
	for _, e := range ents {
		if e.Type == EntDate {
			dates = append(dates, e)
		}
	}
	if len(dates) != 2 {
		t.Fatalf("got %d dates: %v", len(dates), ents)
	}
	if dates[0].Canonical != "2024-05-01" {
		t.Errorf("iso date canonical = %q", dates[0].Canonical)
	}
}

func TestNERIDs(t *testing.T) {
	n := newTestNER()
	ents := n.Recognize("Patient P-1042 enrolled in TRIAL_7.")
	count := 0
	for _, e := range ents {
		if e.Type == EntID {
			count++
		}
	}
	if count != 2 {
		t.Errorf("got %d IDs: %v", count, ents)
	}
}

func TestNERQuantity(t *testing.T) {
	n := newTestNER()
	ents := n.Recognize("shipped 12 units yesterday")
	q, ok := findEntity(ents, EntQuantity)
	if !ok || q.Text != "12 units" {
		t.Errorf("quantity: %v", ents)
	}
}

func TestNERProperNounFallback(t *testing.T) {
	n := newTestNER()
	ents := n.Recognize("Customers praised Zenith Deluxe for battery life.")
	m, ok := findEntity(ents, EntMisc)
	if !ok || m.Canonical != "zenith deluxe" {
		t.Errorf("misc proper noun: %v", ents)
	}
}

func TestNEREntitiesSorted(t *testing.T) {
	n := newTestNER()
	ents := n.Recognize("Drug A reduced headache by 30% in Q1 for patient P-9.")
	for i := 1; i < len(ents); i++ {
		if ents[i].Start < ents[i-1].Start {
			t.Fatalf("entities not sorted: %v", ents)
		}
	}
}

func TestNEREmptyAndNoEntities(t *testing.T) {
	n := newTestNER()
	if got := n.Recognize(""); len(got) != 0 {
		t.Errorf("empty text: %v", got)
	}
	if got := n.Recognize("nothing notable here"); len(got) != 0 {
		t.Errorf("plain text: %v", got)
	}
}

func TestNERCanonicalStripsDeterminer(t *testing.T) {
	if canonicalize("The Product Alpha") != "product alpha" {
		t.Errorf("canonicalize = %q", canonicalize("The Product Alpha"))
	}
}

func TestNERCostAccounting(t *testing.T) {
	cost := NewCostModel(SLMProfile())
	n := newTestNER().WithCost(cost)
	n.Recognize("Product Alpha sold well in Q2.")
	if cost.Calls(OpTag) != 1 {
		t.Errorf("tag calls = %d, want 1", cost.Calls(OpTag))
	}
	if cost.tokens[OpTag] == 0 {
		t.Error("tag tokens = 0")
	}
}

// RecognizeShared tags once and is accounted as the two Recognize calls
// it replaces: the same entities, twice the calls and tokens.
func TestRecognizeSharedAccountsTwoCalls(t *testing.T) {
	const text = "Product Alpha sold well in Q2."
	once, shared := NewCostModel(SLMProfile()), NewCostModel(SLMProfile())
	a := newTestNER().WithCost(once)
	want := a.Recognize(text)
	a.Recognize(text)
	got := newTestNER().WithCost(shared).RecognizeShared(text)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RecognizeShared = %+v, Recognize %+v", got, want)
	}
	if shared.Calls(OpTag) != 2 || shared.tokens[OpTag] != once.tokens[OpTag] {
		t.Errorf("RecognizeShared accounted %d calls, %d tokens; two Recognize calls %d, %d",
			shared.Calls(OpTag), shared.tokens[OpTag], once.Calls(OpTag), once.tokens[OpTag])
	}
}

func TestNEROffsetsValid(t *testing.T) {
	n := newTestNER()
	text := "Acme Corp launched Widget Pro at $99 with 4 stars in Q4 2023."
	for _, e := range n.Recognize(text) {
		if e.Start < 0 || e.End > len(text) || e.Start >= e.End {
			t.Fatalf("bad offsets: %+v", e)
		}
		if text[e.Start:e.End] != e.Text {
			t.Errorf("surface mismatch: %q vs %q", e.Text, text[e.Start:e.End])
		}
	}
}

// factsRow is a facts table row as the index build renders it.
const factsRow = "region is north. revenue is 5. sku is SKU-0000. units is 1."

// A call allocates what it returns — the entity slice and the one
// entity's canonical form — and the row's lower-cased copy; its tokens,
// lower-cased forms, claims and window keys come from the pool. (Under
// -race the pool drops a share of its buffers, so the count is not
// exact there.)
func TestRecognizeAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers under -race")
	}
	n := NewNER()
	for _, phrase := range strings.Split(ecommerceVocab, "\n") {
		n.AddGazetteer(EntProduct, phrase)
	}
	var ents []Entity
	if allocs := testing.AllocsPerRun(200, func() { ents = n.Recognize(factsRow) }); allocs > 3 {
		t.Errorf("Recognize of a facts row allocates %v times, want at most 3", allocs)
	}
	if len(ents) != 1 || ents[0].Type != EntID || ents[0].Canonical != "sku-0000" {
		t.Errorf("Recognize(%q) = %+v, want the sku as its one ID", factsRow, ents)
	}
}

// Every lower-cased form recognize builds is strings.ToLower of its
// token's text, whether the text is ASCII (one ToLower, sliced) or not
// (one ToLower per token).
func TestAppendLowerIsToLowerOfEachToken(t *testing.T) {
	check := func(raw []byte) bool {
		text := string(raw)
		tokens := Tokenize(text)
		lower := appendLower(nil, text, tokens)
		if len(lower) != len(tokens) {
			return false
		}
		for i, tok := range tokens {
			if lower[i] != strings.ToLower(tok.Text) {
				t.Logf("text %q token %d: %q, want %q", text, i, lower[i], strings.ToLower(tok.Text))
				return false
			}
		}
		return true
	}
	for _, text := range []string{"", factsRow, "Q2 2024: 5 Percent, $3 Million.", "CAFÉ crème \xc4\xa7 ÀB", "a\xffB \xc3"} {
		if !check([]byte(text)) {
			t.Errorf("appendLower over %q", text)
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// A pooled scratch left by a long text must not leak into a shorter
// one, nor a short one's into a long one: long, short, long again, with
// one NER, in sequence and from several goroutines at once, every
// result is the reference's. The longest text outgrows the pool's bound.
func TestRecognizeReusesScratchCleanly(t *testing.T) {
	n := NewNER()
	for i, phrase := range strings.Split(ecommerceVocab, "\n") {
		n.AddGazetteer(fuzzTypes[i%len(fuzzTypes)], phrase)
	}
	doc := "Customer C-17 rated Product Gamma 4 stars. Umbrella Labs makes Product Gamma, and the Product Gamma sold 12 units in Q3 2024. "
	texts := []string{
		strings.Repeat(doc, 20),
		"Product Alpha.",
		strings.Repeat(doc, 20),
		"",
		factsRow,
		strings.Repeat(doc+factsRow+" ", 200),
		"Q2",
	}
	want := make([][]Entity, len(texts))
	for i, text := range texts {
		want[i] = refRecognize(n, text)
	}
	run := func(report func(format string, args ...any)) {
		for i, text := range texts {
			if got := n.Recognize(text); !reflect.DeepEqual(got, want[i]) {
				report("text %d (%d bytes): got %d entities %+v, want %d", i, len(text), len(got), got, len(want[i]))
			}
		}
	}
	run(t.Fatalf)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				run(t.Errorf)
			}
		}()
	}
	wg.Wait()
}
