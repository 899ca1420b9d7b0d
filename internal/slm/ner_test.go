package slm

import (
	"reflect"
	"testing"
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
	ents := n.Recognize("the second quarter was strong")
	q, _ := findEntity(ents, EntQuarter)
	if q.Canonical != "q2" {
		t.Errorf("ordinal quarter canonical = %q, want q2", q.Canonical)
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
	ents := n.Recognize("sales increased 20 percent")
	p, ok := findEntity(ents, EntPercent)
	if !ok || p.Canonical != "20%" {
		t.Errorf("percent-word: %v", ents)
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
