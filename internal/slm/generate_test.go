package slm

import (
	"math"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

func TestGeneratorGreedy(t *testing.T) {
	g := &Generator{Temperature: 0}
	rng := NewRNG(1)
	cands := []Candidate{{Text: "weak", Weight: 1}, {Text: "strong", Weight: 10}}
	for i := 0; i < 20; i++ {
		got := g.Generate(cands, rng)
		if got.Canonical != "strong" {
			t.Fatalf("greedy picked %q", got.Canonical)
		}
		if got.Prob != 1 {
			t.Fatalf("greedy prob = %v", got.Prob)
		}
	}
}

func TestGeneratorEmptyCandidates(t *testing.T) {
	g := NewGenerator()
	if got := g.Generate(nil, NewRNG(1)); got.Text != "" {
		t.Errorf("empty candidates produced %+v", got)
	}
}

func TestGeneratorTemperatureSpreads(t *testing.T) {
	cands := []Candidate{{Text: "a", Weight: 1}, {Text: "b", Weight: 1}}
	g := &Generator{Temperature: 1.0}
	rng := NewRNG(7)
	seen := map[string]int{}
	for i := 0; i < 200; i++ {
		seen[g.Generate(cands, rng).Canonical]++
	}
	if seen["a"] == 0 || seen["b"] == 0 {
		t.Errorf("equal-weight candidates not both sampled: %v", seen)
	}
}

func TestGeneratorDeterministicUnderSeed(t *testing.T) {
	cands := []Candidate{{Text: "x", Weight: 2}, {Text: "y", Weight: 1}}
	g := NewGenerator()
	a := g.Sample(cands, 10, NewRNG(42))
	b := g.Sample(cands, 10, NewRNG(42))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sampling not deterministic under seed")
		}
	}
}

func TestGeneratorErrorRate(t *testing.T) {
	cands := []Candidate{{Text: "right", Weight: 100}, {Text: "wrong", Weight: 0.01}}
	g := &Generator{Temperature: 0.1, ErrorRate: 0.5}
	rng := NewRNG(3)
	wrong := 0
	for i := 0; i < 400; i++ {
		if g.Generate(cands, rng).Canonical == "wrong" {
			wrong++
		}
	}
	frac := float64(wrong) / 400
	if math.Abs(frac-0.5) > 0.1 {
		t.Errorf("error fraction = %v, want ~0.5", frac)
	}
}

func TestGeneratorParaphrasePreservesCanonical(t *testing.T) {
	cands := []Candidate{{Text: "42 units", Weight: 1}}
	g := NewGenerator()
	rng := NewRNG(5)
	for i := 0; i < 20; i++ {
		gen := g.Generate(cands, rng)
		if gen.Canonical != "42 units" {
			t.Fatalf("canonical changed: %+v", gen)
		}
		if !strings.Contains(gen.Text, "42 units") {
			t.Fatalf("paraphrase lost content: %q", gen.Text)
		}
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	cands := []Candidate{{Weight: 1}, {Weight: 3}, {Weight: 0.2}}
	probs := softmax(cands, 0.7)
	var sum float64
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("softmax sum = %v", sum)
	}
	if probs[1] <= probs[0] || probs[1] <= probs[2] {
		t.Errorf("softmax order wrong: %v", probs)
	}
}

func TestDeriveCandidates(t *testing.T) {
	ner := newTestNER()
	evidence := []string{
		"Product Alpha sales increased 20% in Q2.",
		"Weather was mild across the region.",
		"Product Alpha was rated 4.5 stars.",
	}
	cands := DeriveCandidates("How much did Product Alpha sales increase in Q2?", evidence, ner)
	if len(cands) == 0 {
		t.Fatal("no candidates derived")
	}
	if cands[0].Text != "20%" {
		t.Errorf("top candidate = %q, want 20%%", cands[0].Text)
	}
	for _, c := range cands {
		if strings.Contains(c.Text, "Weather") {
			t.Errorf("irrelevant evidence produced candidate %q", c.Text)
		}
	}
}

// tagCost is what the cost model has recorded for tagging.
func tagCost(c *CostModel) (calls, tokens int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[OpTag], c.tokens[OpTag]
}

// The salient-span memo changes no candidate and no cost: a warm
// DeriveCandidates returns the cold one's candidates and records the
// same tagging calls and tokens, and AddGazetteer drops the memo, so a
// phrase registered after a text was tagged changes that text's span.
func TestDeriveCandidatesSpanMemo(t *testing.T) {
	q := "How much did Product Alpha zephyr widgets sales increase in Q2?"
	evidence := []string{
		"Product Alpha sales increased 20% in Q2.",
		"Product Alpha was rated 4.5 stars.",
		"zephyr widgets sales were steady across every region this year",
		"Weather was mild across the region.",
	}
	cost := NewCostModel(SLMProfile())
	ner := newTestNER().WithCost(cost)
	cold := DeriveCandidates(q, evidence, ner)
	coldCalls, coldTokens := tagCost(cost)
	if coldCalls == 0 {
		t.Fatal("no tagging call recorded")
	}
	warm := DeriveCandidates(q, evidence, ner)
	if !slices.Equal(warm, cold) {
		t.Errorf("warm candidates %v, cold %v", warm, cold)
	}
	if calls, tokens := tagCost(cost); calls != 2*coldCalls || tokens != 2*coldTokens {
		t.Errorf("warm pass recorded %d calls / %d tokens, cold %d / %d", calls-coldCalls, tokens-coldTokens, coldCalls, coldTokens)
	}
	if !slices.ContainsFunc(cold, func(c Candidate) bool { return c.Text == evidence[2] }) {
		t.Fatalf("untagged evidence is not its own span: %v", cold)
	}

	ner.AddGazetteer(EntProduct, "zephyr widgets")
	after := DeriveCandidates(q, evidence, ner)
	fresh := newTestNER()
	fresh.AddGazetteer(EntProduct, "zephyr widgets")
	if want := DeriveCandidates(q, evidence, fresh); !slices.Equal(after, want) {
		t.Errorf("after AddGazetteer: %v, want %v", after, want)
	}
	if !slices.ContainsFunc(after, func(c Candidate) bool { return c.Text == "zephyr widgets" }) {
		t.Errorf("after AddGazetteer the new phrase is no span: %v", after)
	}
}

// The fallback span is cut at a rune start: an evidence text with no
// entity and a two-byte rune across byte 80 yields valid UTF-8.
func TestSalientSpanCutsAtRuneStart(t *testing.T) {
	sentence := strings.Repeat("x", 79) + "é and then some more plain words"
	span := salientSpan(sentence, NewNER())
	if !utf8.ValidString(span) {
		t.Fatalf("span %q is not valid UTF-8", span)
	}
	if want := strings.Repeat("x", 79); span != want {
		t.Errorf("span = %q, want %q", span, want)
	}
	cands := DeriveCandidates("plain words", []string{sentence}, NewNER())
	if len(cands) != 1 || !utf8.ValidString(cands[0].Text) {
		t.Errorf("candidates %+v", cands)
	}
}

func TestDeriveCandidatesEmptyEvidence(t *testing.T) {
	if got := DeriveCandidates("anything?", nil, newTestNER()); len(got) != 0 {
		t.Errorf("empty evidence: %v", got)
	}
}

func TestSampleCount(t *testing.T) {
	g := NewGenerator()
	gens := g.Sample([]Candidate{{Text: "a", Weight: 1}}, 7, NewRNG(1))
	if len(gens) != 7 {
		t.Errorf("got %d samples, want 7", len(gens))
	}
}

func TestGeneratorCostAccounting(t *testing.T) {
	cost := NewCostModel(SLMProfile())
	g := NewGenerator().WithCost(cost)
	g.Generate([]Candidate{{Text: "answer", Weight: 1}}, NewRNG(1))
	if cost.Calls(OpGenerate) != 1 {
		t.Errorf("generate calls = %d", cost.Calls(OpGenerate))
	}
}
