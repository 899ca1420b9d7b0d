package slm

import (
	"strings"
	"sync"
)

// EntityType classifies a recognized named entity. The inventory covers
// the paper's running examples: products, drugs, patients, quarters,
// percentages, money, dates, ratings and generic identifiers.
type EntityType string

// Entity types recognized by the simulated SLM tagger.
const (
	EntProduct      EntityType = "PRODUCT"
	EntDrug         EntityType = "DRUG"
	EntPerson       EntityType = "PERSON"
	EntOrg          EntityType = "ORG"
	EntQuarter      EntityType = "QUARTER"
	EntDate         EntityType = "DATE"
	EntPercent      EntityType = "PERCENT"
	EntMoney        EntityType = "MONEY"
	EntRating       EntityType = "RATING"
	EntQuantity     EntityType = "QUANTITY"
	EntID           EntityType = "ID"
	EntSideEffect   EntityType = "SIDE_EFFECT"
	EntManufacturer EntityType = "MANUFACTURER"
	EntMisc         EntityType = "MISC"
)

// Entity is a recognized span with a canonical form used as the graph
// node key. Canonicalization lower-cases and strips determiners so that
// "the Product Alpha" and "Product Alpha" unify.
type Entity struct {
	Type      EntityType
	Text      string // surface form
	Canonical string // canonical key
	Start     int    // byte offset in source
	End       int
}

// NER recognizes entities with a gazetteer plus deterministic surface
// patterns — the "lightweight SLM-based tagging" of Section III.A.
//
// Recognize may run from any number of goroutines at once, but not
// beside AddGazetteer, which writes the maps Recognize reads: register
// the vocabulary before sharing the value, or order the two with a lock
// whose read half every Recognize caller holds.
//
// Two exact memos keyed by the caller's text, behind a lock of their own
// because retrieval and derivation run concurrently, hold what is read
// of an evidence text more than once. The text memo (see Analyse) holds
// its distinct word ids, which retrieval's lexical blend counts, and
// stem ids with counts, which DeriveCandidates weighs: it depends on the
// text alone and lives as long as n, one entry per distinct text (4
// bytes per distinct word, 8 per stem) and one vocabulary key per
// distinct word or stem. The span memo holds the salient span, which
// depends on the gazetteer too, so AddGazetteer drops it; a hit replays
// the tagging call it saves into the cost model, and copies nothing, as
// a span is a substring of its key.
type NER struct {
	gazetteer map[string]EntityType // canonical phrase -> type
	// first holds the first word of every gazetteer phrase. A window's
	// key is its non-punctuation tokens, lower-cased, joined by single
	// spaces, and no token contains a space, so a key can only equal a
	// phrase whose text up to its first space is the window's first such
	// token: a window whose first word is not here matches nothing, and
	// is rejected before its key is built. Exact, not a heuristic.
	first  map[string]struct{}
	maxLen int // longest gazetteer phrase, in tokens
	cost   *CostModel

	memoMu  sync.RWMutex
	spans   map[string]salient    // guarded by memoMu; by evidence text, see salientSpan
	texts   map[string]*TextWords // guarded by memoMu; by text, see Analyse
	vocab   map[string]int32      // guarded by memoMu; word or stem -> id
	stemOf  []int32               // guarded by memoMu; per id, its stem's id once met as a word, else -1
	scratch []int32               // guarded by memoMu; analyseLocked's
}

// salient is a text's salient span and the token count of the tagging
// call that found it.
type salient struct {
	span   string
	tokens int
}

// NewNER returns a recognizer with the built-in pattern rules and an
// empty gazetteer. Domain vocabularies are added with AddGazetteer.
func NewNER() *NER {
	return &NER{gazetteer: make(map[string]EntityType), first: make(map[string]struct{}), maxLen: 1}
}

// WithCost attaches a cost model: each Recognize call is accounted as
// one simulated SLM inference over the token length. It returns n.
func (n *NER) WithCost(c *CostModel) *NER {
	n.cost = c
	return n
}

// AddGazetteer registers canonical phrases of a given type. Phrases are
// matched case-insensitively and greedily (longest match first). It
// must not run beside Recognize.
func (n *NER) AddGazetteer(t EntityType, phrases ...string) {
	for _, p := range phrases {
		key := canonicalize(p)
		if key == "" {
			continue
		}
		n.gazetteer[key] = t
		head, _, _ := strings.Cut(key, " ")
		n.first[head] = struct{}{}
		if l := len(strings.Fields(key)); l > n.maxLen {
			n.maxLen = l
		}
	}
	n.memoMu.Lock()
	n.spans = nil // a new phrase may tag any text differently
	n.memoMu.Unlock()
}

// Recognize extracts entities from text. Matching order: gazetteer
// (longest-first), then surface patterns (quarters, percents, money,
// ratings, dates, IDs, quantities), then capitalized-sequence proper
// nouns. Overlapping matches are resolved in that priority order.
//
// The whole text is one model call: a gazetteer window skips
// punctuation, so a phrase may match across a sentence or cell
// boundary, and callers must not tag a text piecewise.
func (n *NER) Recognize(text string) []Entity {
	ents, _ := n.recognize(text)
	return ents
}

// RecognizeShared is Recognize for a text two callers read, such as a
// question that both retrieval and parsing tag: it tags once and
// accounts for the call twice, as the two Recognize calls it replaces
// would have been.
func (n *NER) RecognizeShared(text string) []Entity {
	ents, tokens := n.recognize(text)
	n.cost.Record(OpTag, tokens) // the call the sharing saved
	return ents
}

// recognize is Recognize, also returning the call's token count. Its
// working slices come from tagPool, so a call allocates only the
// entities it returns, their strings, and what appendLower folds.
func (n *NER) recognize(text string) ([]Entity, int) {
	s := tagPool.Get().(*tagScratch)
	s.tokens = AppendTokens(s.tokens[:0], text)
	tokens := s.tokens
	if n.cost != nil {
		n.cost.Record(OpTag, len(tokens))
	}
	// Lower-cased once, for the gazetteer and the pattern pass alike.
	s.lower = appendLower(s.lower[:0], text, tokens)
	s.claimed = append(s.claimed[:0], make([]bool, len(tokens))...)
	var ents []Entity
	ents, s.key = n.gazetteerPass(text, tokens, s.lower, s.claimed, s.key[:0])
	ents = surfacePasses(text, tokens, s.lower, s.claimed, ents)
	s.release()
	return ents, len(tokens)
}

// tagScratch is one recognize call's working storage.
type tagScratch struct {
	tokens  []Token
	lower   []string
	claimed []bool
	key     []byte
}

// tagPool holds recognize's scratch between calls. A pool, not a
// scratch per caller, because the index build, extraction and Ask all
// tag through recognize and none has a worker to hang one on.
var tagPool = sync.Pool{New: func() any { return new(tagScratch) }}

// maxPooledTokens bounds the scratch put back in the pool, so that one
// very long text does not keep its buffers alive for the calls after.
const maxPooledTokens = 1 << 12

// release clears the strings s holds, which point into the caller's
// text, and returns s to the pool.
func (s *tagScratch) release() {
	if cap(s.tokens) > maxPooledTokens {
		return
	}
	clear(s.tokens)
	clear(s.lower)
	tagPool.Put(s)
}

// appendLower appends the lower-cased text of each of text's tokens to
// dst. An ASCII text is lower-cased once, whole, and each token's form
// is a slice of that at the token's offsets; any other text a token at
// a time, since folding may change its length.
func appendLower(dst []string, text string, tokens []Token) []string {
	if !isASCII(text) {
		for _, t := range tokens {
			dst = append(dst, strings.ToLower(t.Text))
		}
		return dst
	}
	lower := strings.ToLower(text)
	for _, t := range tokens {
		dst = append(dst, lower[t.Start:t.End])
	}
	return dst
}

// claim marks tokens [from, to) as belonging to an entity.
func claim(claimed []bool, from, to int) {
	for i := from; i < to; i++ {
		claimed[i] = true
	}
}

// gazetteerPass is pass 1: at each unclaimed token, the longest window
// of at most maxLen tokens whose key is a gazetteer phrase. It claims
// the tokens of every match. Keys are built in key, which it returns
// grown for the next call.
func (n *NER) gazetteerPass(text string, tokens []Token, lower []string, claimed []bool, key []byte) ([]Entity, []byte) {
	var ents []Entity
	for i := 0; i < len(tokens); i++ {
		if claimed[i] {
			continue
		}
		limit := n.maxLen
		if i+limit > len(tokens) {
			limit = len(tokens) - i
		}
		// Every window at i opens with the same word: the first token
		// from i on that is not punctuation.
		w := i
		for w < i+limit && tokens[w].Kind == TokenPunct {
			w++
		}
		if w == i+limit {
			continue // punctuation only: every key is ""
		}
		if _, ok := n.first[lower[w]]; !ok {
			continue
		}
		for l := limit; l >= 1; l-- {
			if anyClaimed(claimed, i, i+l) {
				continue
			}
			key = appendWindowKey(key[:0], tokens[i:i+l], lower[i:i+l])
			if t, ok := n.gazetteer[string(key)]; ok {
				claim(claimed, i, i+l)
				ents = append(ents, Entity{
					Type:      t,
					Text:      text[tokens[i].Start:tokens[i+l-1].End],
					Canonical: string(key),
					Start:     tokens[i].Start,
					End:       tokens[i+l-1].End,
				})
				i += l - 1
				break
			}
		}
	}
	return ents, key
}

// surfacePasses runs passes 2 and 3 over the tokens pass 1 left
// unclaimed and returns all entities in text order.
func surfacePasses(text string, tokens []Token, lower []string, claimed []bool, ents []Entity) []Entity {
	// Pass 2: surface patterns.
	for i := 0; i < len(tokens); i++ {
		if claimed[i] {
			continue
		}
		if e, width, ok := matchPattern(text, tokens, lower, i, claimed); ok {
			claim(claimed, i, i+width)
			ents = append(ents, e)
			i += width - 1
		}
	}

	// Pass 3: capitalized sequences as generic proper nouns.
	for i := 0; i < len(tokens); i++ {
		if claimed[i] || tokens[i].Kind != TokenWord || !isUpperInitial(tokens[i].Text) {
			continue
		}
		if i == 0 && !looksProper(tokens, 0) {
			continue
		}
		j := i
		for j < len(tokens) && !claimed[j] && tokens[j].Kind == TokenWord && isUpperInitial(tokens[j].Text) {
			j++
		}
		surface := text[tokens[i].Start:tokens[j-1].End]
		claim(claimed, i, j)
		ents = append(ents, Entity{
			Type:      EntMisc,
			Text:      surface,
			Canonical: canonicalize(surface),
			Start:     tokens[i].Start,
			End:       tokens[j-1].End,
		})
		i = j - 1
	}

	sortEntities(ents)
	return ents
}

// matchPattern tries the built-in surface patterns at token i.
func matchPattern(text string, tokens []Token, lowered []string, i int, claimed []bool) (Entity, int, bool) {
	t := tokens[i]
	lower := lowered[i]

	// Quarter: "Q2", "Q2 2024", "second quarter".
	if len(lower) == 2 && lower[0] == 'q' && lower[1] >= '1' && lower[1] <= '4' {
		width := 1
		end := t.End
		if i+1 < len(tokens) && !claimed[i+1] && tokens[i+1].Kind == TokenNumber && isYear(tokens[i+1].Text) {
			width = 2
			end = tokens[i+1].End
		}
		return Entity{Type: EntQuarter, Text: text[t.Start:end], Canonical: canonicalize(text[t.Start:end]), Start: t.Start, End: end}, width, true
	}
	if ord, ok := ordinalQuarter(lower); ok && i+1 < len(tokens) && lowered[i+1] == "quarter" {
		end := tokens[i+1].End
		return Entity{Type: EntQuarter, Text: text[t.Start:end], Canonical: "q" + ord, Start: t.Start, End: end}, 2, true
	}

	// Percent: number token ending in '%' or "N percent".
	if t.Kind == TokenNumber && strings.HasSuffix(t.Text, "%") {
		return Entity{Type: EntPercent, Text: t.Text, Canonical: strings.TrimSuffix(t.Text, "%") + "%", Start: t.Start, End: t.End}, 1, true
	}
	if t.Kind == TokenNumber && i+1 < len(tokens) && lowered[i+1] == "percent" {
		end := tokens[i+1].End
		return Entity{Type: EntPercent, Text: text[t.Start:end], Canonical: t.Text + "%", Start: t.Start, End: end}, 2, true
	}

	// Money: "$1,234.56" — '$' tokenizes as a symbol before the number —
	// or "N dollars".
	if t.Kind == TokenSymbol && t.Text == "$" && i+1 < len(tokens) && tokens[i+1].Kind == TokenNumber {
		end := tokens[i+1].End
		unitWidth := 2
		if i+2 < len(tokens) && isMagnitudeWord(lowered[i+2]) {
			end = tokens[i+2].End
			unitWidth = 3
		}
		return Entity{Type: EntMoney, Text: text[t.Start:end], Canonical: canonicalize(text[t.Start:end]), Start: t.Start, End: end}, unitWidth, true
	}
	if t.Kind == TokenNumber && i+1 < len(tokens) && isCurrencyWord(lowered[i+1]) {
		end := tokens[i+1].End
		return Entity{Type: EntMoney, Text: text[t.Start:end], Canonical: canonicalize(text[t.Start:end]), Start: t.Start, End: end}, 2, true
	}

	// Rating: "4.5 stars", "rated 4 out of 5".
	if t.Kind == TokenNumber && i+1 < len(tokens) && isStarsWord(lowered[i+1]) {
		end := tokens[i+1].End
		return Entity{Type: EntRating, Text: text[t.Start:end], Canonical: t.Text, Start: t.Start, End: end}, 2, true
	}

	// Date: "2024-05-01", "May 5, 2024", "2024".
	if t.Kind == TokenNumber && isISODateStart(text, t) {
		end := t.Start + 10
		return Entity{Type: EntDate, Text: text[t.Start:end], Canonical: text[t.Start:end], Start: t.Start, End: end}, dateTokenWidth(tokens, i, end), true
	}
	if isMonthName(lower) && i+1 < len(tokens) && tokens[i+1].Kind == TokenNumber {
		end := tokens[i+1].End
		width := 2
		// Optional ", YYYY".
		j := i + 2
		if j < len(tokens) && tokens[j].Kind == TokenPunct && tokens[j].Text == "," && j+1 < len(tokens) && isYear(tokens[j+1].Text) {
			end = tokens[j+1].End
			width = 4
		}
		return Entity{Type: EntDate, Text: text[t.Start:end], Canonical: canonicalize(text[t.Start:end]), Start: t.Start, End: end}, width, true
	}

	// ID: "P-1042", "TRIAL_7", "#123" style mixed alphanumerics.
	if t.Kind == TokenWord && looksLikeID(t.Text) {
		return Entity{Type: EntID, Text: t.Text, Canonical: strings.ToLower(t.Text), Start: t.Start, End: t.End}, 1, true
	}

	// Quantity: "12 units", "3 tablets".
	if t.Kind == TokenNumber && i+1 < len(tokens) && isUnitWord(lowered[i+1]) {
		end := tokens[i+1].End
		return Entity{Type: EntQuantity, Text: text[t.Start:end], Canonical: canonicalize(text[t.Start:end]), Start: t.Start, End: end}, 2, true
	}

	return Entity{}, 0, false
}

func dateTokenWidth(tokens []Token, i int, end int) int {
	w := 1
	for j := i + 1; j < len(tokens) && tokens[j].Start < end; j++ {
		w++
	}
	return w
}

func anyClaimed(claimed []bool, from, to int) bool {
	for i := from; i < to; i++ {
		if claimed[i] {
			return true
		}
	}
	return false
}

func looksProper(tokens []Token, i int) bool {
	// A sentence-initial capitalized word counts as proper if the next
	// token is also capitalized ("Product Alpha ...").
	return i+1 < len(tokens) && tokens[i+1].Kind == TokenWord && isUpperInitial(tokens[i+1].Text)
}

func isUpperInitial(s string) bool {
	if s == "" {
		return false
	}
	c := s[0]
	return c >= 'A' && c <= 'Z'
}

func looksLikeID(s string) bool {
	hasLetter, hasDigit, hasSep := false, false, false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			hasDigit = true
		case c == '_' || c == '-':
			hasSep = true
		case isLetter(c):
			hasLetter = true
		}
	}
	if !hasLetter || !hasDigit {
		return false
	}
	// Require a separator or an upper-case prefix like "P1042".
	return hasSep || (s[0] >= 'A' && s[0] <= 'Z')
}

func isYear(s string) bool {
	if len(s) != 4 {
		return false
	}
	for i := 0; i < 4; i++ {
		if !isDigit(s[i]) {
			return false
		}
	}
	return s[0] == '1' || s[0] == '2'
}

func isISODateStart(text string, t Token) bool {
	if !isYear(t.Text) || t.Start+10 > len(text) {
		return false
	}
	s := text[t.Start : t.Start+10]
	return s[4] == '-' && s[7] == '-' &&
		isDigit(s[5]) && isDigit(s[6]) && isDigit(s[8]) && isDigit(s[9])
}

func ordinalQuarter(s string) (string, bool) {
	switch s {
	case "first":
		return "1", true
	case "second":
		return "2", true
	case "third":
		return "3", true
	case "fourth":
		return "4", true
	}
	return "", false
}

func isMonthName(s string) bool {
	switch s {
	case "january", "february", "march", "april", "may", "june", "july",
		"august", "september", "october", "november", "december",
		"jan", "feb", "mar", "apr", "jun", "jul", "aug", "sep", "sept",
		"oct", "nov", "dec":
		return true
	}
	return false
}

func isCurrencyWord(lower string) bool {
	switch lower {
	case "dollars", "dollar", "usd", "euros", "euro", "eur":
		return true
	}
	return false
}

func isMagnitudeWord(lower string) bool {
	switch lower {
	case "million", "billion", "thousand", "k", "m", "bn":
		return true
	}
	return false
}

func isStarsWord(lower string) bool {
	switch lower {
	case "stars", "star":
		return true
	}
	return false
}

func isUnitWord(lower string) bool {
	switch lower {
	case "units", "unit", "tablets", "tablet", "mg", "ml", "items", "item",
		"orders", "order", "doses", "dose", "patients", "reviews":
		return true
	}
	return false
}

var determiners = map[string]bool{
	"the": true, "a": true, "an": true, "this": true, "that": true,
	"these": true, "those": true, "all": true, "each": true, "every": true,
	"some": true, "any": true, "no": true,
}

// canonicalize lower-cases, collapses whitespace, and strips leading
// determiners so surface variants share a key.
func canonicalize(s string) string {
	fields := strings.Fields(strings.ToLower(s))
	for len(fields) > 0 && determiners[fields[0]] {
		fields = fields[1:]
	}
	for i, f := range fields {
		fields[i] = strings.Trim(f, ".,;:!?\"'()[]{}")
	}
	return strings.Join(fields, " ")
}

// appendWindowKey appends a token window's gazetteer key to dst: the
// lower-cased text of its non-punctuation tokens, joined by one space.
func appendWindowKey(dst []byte, tokens []Token, lower []string) []byte {
	for k, t := range tokens {
		if t.Kind == TokenPunct {
			continue
		}
		if len(dst) > 0 {
			dst = append(dst, ' ')
		}
		dst = append(dst, lower[k]...)
	}
	return dst
}

// sortEntities orders entities by start offset (stable, insertion sort —
// entity lists are short).
func sortEntities(ents []Entity) {
	for i := 1; i < len(ents); i++ {
		for j := i; j > 0 && ents[j].Start < ents[j-1].Start; j-- {
			ents[j], ents[j-1] = ents[j-1], ents[j]
		}
	}
}
