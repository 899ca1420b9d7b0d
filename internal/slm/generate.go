package slm

import (
	"cmp"
	"math"
	"slices"
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
		g.cost.Record(OpGenerate, countTokens(text)+len(candidates))
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
//
// The overlap is the share of the question's distinct content-word
// stems, counting every evidence word whose stem is one of them. Each
// evidence text is analysed once in ner's text memo (see Analyse), and
// the question's stems are looked up once all of them are, so a stem no
// analysed text holds matches nothing.
func DeriveCandidates(question string, evidence []string, ner *NER) []Candidate {
	var cands []Candidate
	if qStems := contentStems(question); len(qStems) > 0 {
		texts := ner.Analyse(make([]*TextWords, 0, len(evidence)), evidence...)
		q := ner.WordIDs(make([]int32, 0, len(qStems)), qStems)
		for i, ev := range evidence {
			overlap := stemOverlap(q, texts[i].stems, len(qStems))
			if overlap == 0 {
				continue
			}
			span := salientSpan(ev, ner)
			if span == "" {
				continue
			}
			// A span's weight is summed in evidence order.
			if j := slices.IndexFunc(cands, func(c Candidate) bool { return c.Text == span }); j >= 0 {
				cands[j].Weight += overlap
			} else {
				cands = append(cands, Candidate{Text: span, Weight: overlap})
			}
		}
	}
	// Spans are distinct, so this order is total.
	slices.SortFunc(cands, func(a, b Candidate) int {
		if c := cmp.Compare(b.Weight, a.Weight); c != 0 {
			return c
		}
		return strings.Compare(a.Text, b.Text)
	})
	return cands
}

// contentStems returns the distinct stems of the text's non-stopword
// words in the order they first occur.
func contentStems(text string) []string {
	var out []string
	for w := range WordsOf(text) {
		if stopwords[w] {
			continue
		}
		if s := stem(w); !slices.Contains(out, s) {
			out = append(out, s)
		}
	}
	return out
}

// stemFreq is one distinct stem of a text and the number of the text's
// words that have it.
type stemFreq struct {
	id, n int32
}

// TextWords is a text's entry in NER's text memo: the words of
// WordsOf(text), stopwords included, as distinct ids, and their stems as
// distinct ids with the number of words that have each, both ascending.
// mask has bit id%64 set for every word id, so Count searches the words
// only for an id the mask does not rule out. It is immutable once made.
type TextWords struct {
	words []int32
	stems []stemFreq
	mask  uint64
}

// Count returns how many of ids (distinct) are words of the text.
func (e *TextWords) Count(ids []int32) int {
	n := 0
	for _, id := range ids {
		if e.mask&(1<<(id&63)) != 0 && slices.Contains(e.words, id) {
			n++
		}
	}
	return n
}

// Analyse appends to dst the text memo's entry for each of texts, in
// order, and returns dst. A text no caller has met is read once, by one
// WordsOf pass, into a new entry.
func (n *NER) Analyse(dst []*TextWords, texts ...string) []*TextWords {
	from, missed := len(dst), false
	n.memoMu.RLock()
	for _, text := range texts {
		e := n.texts[text]
		dst = append(dst, e)
		missed = missed || e == nil
	}
	n.memoMu.RUnlock()
	if missed {
		n.memoMu.Lock()
		defer n.memoMu.Unlock()
		for i, text := range texts {
			if dst[from+i] == nil {
				dst[from+i] = n.analyseLocked(text)
			}
		}
	}
	return dst
}

// analyseLocked returns text's entry, making it if no caller has yet.
func (n *NER) analyseLocked(text string) *TextWords {
	if e, ok := n.texts[text]; ok {
		return e // a racing caller, or an earlier copy of text, made it
	}
	if n.texts == nil {
		n.texts, n.vocab = make(map[string]*TextWords), make(map[string]int32)
	}
	// The scratch holds the text's word ids, then their stems' ids.
	ids := n.scratch[:0]
	for w := range WordsOf(text) {
		id := n.internLocked(w)
		if n.stemOf[id] < 0 {
			s := n.internLocked(stem(w))
			n.stemOf[id] = s
		}
		ids = append(ids, id)
	}
	k := len(ids)
	for _, id := range ids[:k] {
		ids = append(ids, n.stemOf[id])
	}
	n.scratch = ids
	words, stems := ids[:k], ids[k:]
	slices.Sort(words)
	slices.Sort(stems)
	e := &TextWords{words: slices.Clone(slices.Compact(words))}
	for _, id := range e.words {
		e.mask |= 1 << (id & 63)
	}
	e.stems = make([]stemFreq, 0, len(e.words)) // a word has one stem
	for _, id := range stems {
		if k := len(e.stems) - 1; k >= 0 && e.stems[k].id == id {
			e.stems[k].n++
		} else {
			e.stems = append(e.stems, stemFreq{id: id, n: 1})
		}
	}
	n.texts[text] = e
	return e
}

// internLocked returns the vocabulary id of s, adding it if new.
func (n *NER) internLocked(s string) int32 {
	if id, ok := n.vocab[s]; ok {
		return id
	}
	id := int32(len(n.vocab))
	n.vocab[strings.Clone(s)] = id // s may pin a lower-cased copy of its text
	n.stemOf = append(n.stemOf, -1)
	return id
}

// WordIDs appends to dst the ids of the distinct strings in words that
// the vocabulary holds, ascending, and returns dst. The vocabulary holds
// every word and stem of every analysed text, so a caller that looks up
// after analysing its texts leaves out only strings none of them holds.
func (n *NER) WordIDs(dst []int32, words []string) []int32 {
	from := len(dst)
	n.memoMu.RLock()
	for _, w := range words {
		if id, ok := n.vocab[w]; ok {
			dst = append(dst, id)
		}
	}
	n.memoMu.RUnlock()
	slices.Sort(dst[from:])
	return dst
}

// stemOverlap is the evidence overlap DeriveCandidates weighs by: the
// number of the text's words whose stem is among q (distinct ids,
// ascending), over nq, the question's distinct stem count.
func stemOverlap(q []int32, text []stemFreq, nq int) float64 {
	n := 0
	for i, j := 0, 0; i < len(q) && j < len(text); {
		switch {
		case q[i] < text[j].id:
			i++
		case q[i] > text[j].id:
			j++
		default:
			n += int(text[j].n)
			i, j = i+1, j+1
		}
	}
	return float64(n) / float64(nq)
}

// salientSpan picks the answer-bearing span of an evidence sentence:
// prefer value-like entities (percent, money, rating, quantity, date),
// then any entity, then the sentence itself, cut to at most 80 bytes
// at a rune start. It is memoised per sentence in ner.
func salientSpan(sentence string, ner *NER) string {
	ner.memoMu.RLock()
	m, ok := ner.spans[sentence]
	ner.memoMu.RUnlock()
	if ok {
		ner.cost.Record(OpTag, m.tokens) // the call the memo saved
		return m.span
	}
	ents, tokens := ner.recognize(sentence)
	m = salient{span: pickSpan(sentence, ents), tokens: tokens}
	ner.memoMu.Lock()
	if ner.spans == nil {
		ner.spans = make(map[string]salient)
	}
	ner.spans[sentence] = m
	ner.memoMu.Unlock()
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

// templateWords are the words answer phrasing adds beyond stopwords,
// paraphraseTemplates' and their inflections: surface noise that must
// not affect an answer's identity.
var templateWords = map[string]bool{
	"answer": true, "records": true, "record": true, "data": true,
	"based": true, "according": true, "indicate": true, "indicates": true,
}

// IsTemplateWord reports whether the lower-cased word is answer-phrasing
// noise, which answer clustering and answer matching ignore.
func IsTemplateWord(w string) bool { return templateWords[w] }

func paraphrase(answer string, rng *RNG) string {
	t := paraphraseTemplates[rng.Intn(len(paraphraseTemplates))]
	return strings.Replace(t, "%s", answer, 1)
}
