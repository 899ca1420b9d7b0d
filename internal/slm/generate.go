package slm

import (
	"math"
	"sort"
	"strings"
	"unicode/utf8"
)

// Candidate is a possible answer with an unnormalized support weight.
// Callers either supply candidates directly (the hybrid pipeline knows
// its TableQA result and its competitors) or let the generator derive
// them from evidence text.
type Candidate struct {
	Text   string  // canonical answer content
	Weight float64 // unnormalized support; higher = more likely
}

// Generation is one sampled answer together with the probability the
// generator assigned to its underlying candidate — the "sequence
// likelihood" used by the likelihood baseline in experiment E6.
type Generation struct {
	Text      string  // surface form (possibly paraphrased)
	Canonical string  // candidate content before paraphrasing
	Prob      float64 // softmax probability of the chosen candidate
}

// Generator is the simulated SLM decoder. Given candidates it samples
// an answer with temperature: at temperature→0 it is greedy (always the
// max-weight candidate); higher temperatures spread probability over
// competing candidates, which is what semantic entropy measures.
//
// ErrorRate injects model fallibility: with that probability the
// sampled candidate is replaced by a uniformly chosen competitor. This
// is the knob the calibration experiment sweeps — a real SLM's accuracy
// cannot be dialed, a simulated one's can.
type Generator struct {
	Temperature float64 // softmax temperature; <= 0 means greedy
	ErrorRate   float64 // probability of answering with a competitor
	Paraphrase  bool    // vary surface form across samples
	cost        *CostModel
}

// NewGenerator returns a generator with temperature 0.7 and
// paraphrasing on, matching the multi-sample setting of Section III.D.
func NewGenerator() *Generator {
	return &Generator{Temperature: 0.7, Paraphrase: true}
}

// WithCost attaches a cost model; each Generate call is accounted as a
// decode pass proportional to the answer length. It returns g.
func (g *Generator) WithCost(c *CostModel) *Generator {
	g.cost = c
	return g
}

// Generate samples one answer from candidates. It returns the zero
// Generation if candidates is empty.
func (g *Generator) Generate(candidates []Candidate, rng *RNG) Generation {
	if len(candidates) == 0 {
		return Generation{}
	}
	probs := softmax(candidates, g.Temperature)
	idx := sampleIndex(probs, rng, g.Temperature)
	if g.ErrorRate > 0 && len(candidates) > 1 && rng.Float64() < g.ErrorRate {
		// Answer with a uniformly chosen competitor.
		j := rng.Intn(len(candidates) - 1)
		if j >= idx {
			j++
		}
		idx = j
	}
	chosen := candidates[idx]
	text := chosen.Text
	if g.Paraphrase {
		text = paraphrase(chosen.Text, rng)
	}
	if g.cost != nil {
		g.cost.Record(OpGenerate, len(Tokenize(text))+len(candidates))
	}
	return Generation{Text: text, Canonical: chosen.Text, Prob: probs[idx]}
}

// Sample draws m independent generations, the input to semantic-entropy
// scoring.
func (g *Generator) Sample(candidates []Candidate, m int, rng *RNG) []Generation {
	out := make([]Generation, 0, m)
	for i := 0; i < m; i++ {
		out = append(out, g.Generate(candidates, rng))
	}
	return out
}

// DeriveCandidates builds answer candidates from evidence sentences by
// lexical affinity to the question: each evidence string contributes
// its most salient entity/value span, weighted by word overlap with the
// question. This mimics extractive QA with a reader SLM.
func DeriveCandidates(question string, evidence []string, ner *NER) []Candidate {
	qWords := contentWordSet(question)
	byText := make(map[string]float64)
	for _, ev := range evidence {
		overlap := overlapScore(qWords, ev)
		if overlap == 0 {
			continue
		}
		span := salientSpan(ev, ner)
		if span == "" {
			continue
		}
		byText[span] += overlap
	}
	cands := make([]Candidate, 0, len(byText))
	for t, w := range byText {
		cands = append(cands, Candidate{Text: t, Weight: w})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Weight != cands[j].Weight {
			return cands[i].Weight > cands[j].Weight
		}
		return cands[i].Text < cands[j].Text
	})
	return cands
}

// salientSpan picks the answer-bearing span of an evidence sentence:
// prefer value-like entities (percent, money, rating, quantity, date),
// then any entity, then the sentence itself, cut to at most 80 bytes
// at a rune start. It is memoised per sentence in ner.
func salientSpan(sentence string, ner *NER) string {
	ner.spanMu.RLock()
	m, ok := ner.spans[sentence]
	ner.spanMu.RUnlock()
	if ok {
		ner.cost.Record(OpTag, m.tokens) // the call the memo saved
		return m.span
	}
	ents, tokens := ner.recognize(sentence)
	m = salient{span: pickSpan(sentence, ents), tokens: tokens}
	ner.spanMu.Lock()
	if ner.spans == nil {
		ner.spans = make(map[string]salient)
	}
	ner.spans[sentence] = m
	ner.spanMu.Unlock()
	return m.span
}

// pickSpan is salientSpan's choice among the sentence's entities.
func pickSpan(sentence string, ents []Entity) string {
	var fallback string
	for _, e := range ents {
		switch e.Type {
		case EntPercent, EntMoney, EntRating, EntQuantity, EntDate, EntQuarter:
			return e.Text
		default:
			if fallback == "" {
				fallback = e.Text
			}
		}
	}
	if fallback != "" {
		return fallback
	}
	s := strings.TrimSpace(sentence)
	if len(s) > 80 {
		cut := 80
		for cut > 0 && !utf8.RuneStart(s[cut]) {
			cut--
		}
		s = s[:cut]
	}
	return s
}

func contentWordSet(s string) map[string]bool {
	set := make(map[string]bool)
	for _, w := range Words(Tokenize(s)) {
		if !stopwords[w] {
			set[stem(w)] = true
		}
	}
	return set
}

func overlapScore(qWords map[string]bool, evidence string) float64 {
	if len(qWords) == 0 {
		return 0
	}
	n := 0
	// NextWord spans, lower-cased, are Words(Tokenize(evidence)).
	for start, end := NextWord(evidence, 0); start >= 0; start, end = NextWord(evidence, end) {
		if qWords[stem(strings.ToLower(evidence[start:end]))] {
			n++
		}
	}
	return float64(n) / float64(len(qWords))
}

// softmax converts weights to probabilities at the given temperature.
// temperature <= 0 produces a one-hot distribution on the max weight.
func softmax(cands []Candidate, temperature float64) []float64 {
	probs := make([]float64, len(cands))
	if temperature <= 0 {
		best := 0
		for i, c := range cands {
			if c.Weight > cands[best].Weight {
				best = i
			}
		}
		probs[best] = 1
		return probs
	}
	maxW := cands[0].Weight
	for _, c := range cands[1:] {
		if c.Weight > maxW {
			maxW = c.Weight
		}
	}
	var sum float64
	for i, c := range cands {
		probs[i] = math.Exp((c.Weight - maxW) / temperature)
		sum += probs[i]
	}
	for i := range probs {
		probs[i] /= sum
	}
	return probs
}

func sampleIndex(probs []float64, rng *RNG, temperature float64) int {
	if temperature <= 0 {
		for i, p := range probs {
			if p == 1 {
				return i
			}
		}
	}
	x := rng.Float64()
	acc := 0.0
	for i, p := range probs {
		acc += p
		if x < acc {
			return i
		}
	}
	return len(probs) - 1
}

// paraphraseTemplates vary the surface form while preserving the
// canonical content, so semantically equivalent samples form one
// cluster (low entropy) even though their strings differ.
var paraphraseTemplates = []string{
	"%s",
	"The answer is %s.",
	"It is %s.",
	"%s, according to the records.",
	"Based on the data, %s.",
	"The records indicate %s.",
}

func paraphrase(answer string, rng *RNG) string {
	t := paraphraseTemplates[rng.Intn(len(paraphraseTemplates))]
	return strings.Replace(t, "%s", answer, 1)
}
