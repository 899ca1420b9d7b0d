// Package slm implements the simulated Small Language Model substrate
// that the rest of the system is built on.
//
// The paper assumes an on-device SLM that can (1) tag named entities in
// text, (2) embed text for similarity, and (3) generate answers with
// temperature sampling. Go has no mature SLM inference bindings, so this
// package provides a deterministic, rule-based stand-in that exposes the
// same interface surface: Tokenize, Tagger, NER, Embedder, Generator,
// plus a CostModel that accounts for simulated inference cost so the
// paper's SLM-vs-LLM efficiency comparisons remain meaningful. See
// DESIGN.md §2 for the substitution rationale.
package slm

import (
	"iter"
	"strings"
	"unicode"
	"unicode/utf8"
)

// TokenKind classifies a surface token.
type TokenKind int

// Token kinds produced by Tokenize.
const (
	TokenWord TokenKind = iota
	TokenNumber
	TokenPunct
	TokenSymbol
)

// String returns the kind name for diagnostics.
func (k TokenKind) String() string {
	switch k {
	case TokenWord:
		return "word"
	case TokenNumber:
		return "number"
	case TokenPunct:
		return "punct"
	case TokenSymbol:
		return "symbol"
	default:
		return "unknown"
	}
}

// Token is a surface token with its byte offsets in the source text.
type Token struct {
	Text  string
	Kind  TokenKind
	Start int // byte offset of first byte
	End   int // byte offset one past last byte
}

// Tokenize splits text into word, number, punctuation and symbol tokens.
// Numbers keep internal '.' , ',' and '%' attached ("1,234.5%", "20%"),
// and words keep internal hyphens and apostrophes ("patient-reported",
// "don't"), which the extraction rules depend on.
func Tokenize(text string) []Token { return AppendTokens(nil, text) }

// AppendTokens appends the tokens Tokenize returns for text to dst and
// returns the extended slice. A token's Text is a substring of text —
// except that of a punctuation or symbol byte of 0x80 or above, which is
// the rune of that value — so, given the capacity, tokenizing an ASCII
// text allocates nothing.
func AppendTokens(dst []Token, text string) []Token {
	i := 0
	n := len(text)
	for i < n {
		c := rune(text[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case isDigit(text[i]):
			start := i
			i = scanNumber(text, i)
			dst = append(dst, Token{Text: text[start:i], Kind: TokenNumber, Start: start, End: i})
		case byteClass[text[i]]&wordStart != 0:
			start := i
			i = scanWord(text, i)
			dst = append(dst, Token{Text: text[start:i], Kind: TokenWord, Start: start, End: i})
		case isPunct(c):
			dst = append(dst, Token{Text: byteText(text, i), Kind: TokenPunct, Start: i, End: i + 1})
			i++
		default:
			dst = append(dst, Token{Text: byteText(text, i), Kind: TokenSymbol, Start: i, End: i + 1})
			i++
		}
	}
	return dst
}

// countTokens is len(Tokenize(text)), tokenized into an array on the
// stack, which a generated answer's few tokens fit.
func countTokens(text string) int {
	var buf [32]Token
	return len(AppendTokens(buf[:0], text))
}

// byteText is the text of the one-byte token at text[i]: the byte
// itself, or for a byte of 0x80 or above the rune of the same value, as
// the scanners read it.
func byteText(text string, i int) string {
	if text[i] < utf8.RuneSelf {
		return text[i : i+1]
	}
	return string(rune(text[i]))
}

// scanNumber returns the end of the number token that starts at the
// digit text[i].
func scanNumber(text string, i int) int {
	n := len(text)
	i++
	for i < n && (isDigit(text[i]) || text[i] == '.' || text[i] == ',') {
		// A trailing '.' or ',' belongs to the sentence, not the number.
		if (text[i] == '.' || text[i] == ',') && (i+1 >= n || !isDigit(text[i+1])) {
			break
		}
		i++
	}
	if i < n && text[i] == '%' {
		i++
	}
	return i
}

// scanWord returns the end of the word token that starts at text[i].
func scanWord(text string, i int) int {
	n := len(text)
	i++
	for i < n {
		c := text[i]
		if byteClass[c]&wordPart != 0 {
			i++
			continue
		}
		// Keep internal hyphen/apostrophe when followed by a
		// letter or digit ("patient-reported", "P-1042").
		if (c == '-' || c == '\'') && i+1 < n && byteClass[text[i+1]]&wordPart != 0 {
			i += 2
			continue
		}
		break
	}
	return i
}

// NextWord returns the span [start, end) of the first word or number
// token of text at or after byte offset from — the tokens Words keeps,
// in the same order — or start = -1 when none is left. It allocates
// nothing: callers that only need to look at a text's words scan with
// it instead of materializing Words(Tokenize(text)).
func NextWord(text string, from int) (start, end int) {
	for i := from; i < len(text); i++ {
		// Every token that is neither number nor word is one byte long.
		switch {
		case isDigit(text[i]):
			return i, scanNumber(text, i)
		case byteClass[text[i]]&wordStart != 0:
			return i, scanWord(text, i)
		}
	}
	return -1, -1
}

// WordsOf yields the words of text as Words(Tokenize(text)) holds them,
// lower-cased, in order, without materializing either. An ASCII text,
// which strings.ToLower folds byte for byte, is lower-cased whole, once;
// any other text a word at a time, since folding may change its length.
func WordsOf(text string) iter.Seq[string] {
	return func(yield func(string) bool) {
		lower, ascii := text, isASCII(text)
		if ascii {
			lower = strings.ToLower(text)
		}
		for start, end := NextWord(text, 0); start >= 0; start, end = NextWord(text, end) {
			w := lower[start:end]
			if !ascii {
				w = strings.ToLower(w)
			}
			if !yield(w) {
				return
			}
		}
	}
}

// isASCII reports whether text is all ASCII, which strings.ToLower folds
// byte for byte: its lower-cased form has the same offsets.
func isASCII(text string) bool {
	for i := 0; i < len(text); i++ {
		if text[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// Words returns just the lower-cased word and number texts of tokens,
// which is the form the embedder and BM25 consume.
func Words(tokens []Token) []string {
	out := make([]string, 0, len(tokens))
	for _, t := range tokens {
		if t.Kind == TokenWord || t.Kind == TokenNumber {
			out = append(out, strings.ToLower(t.Text))
		}
	}
	return out
}

// SplitSentences splits text on sentence-final punctuation while keeping
// abbreviations ("Dr.", "e.g.") and decimal points intact. Offsets are
// preserved so chunks can cite source spans.
func SplitSentences(text string) []Span {
	var spans []Span
	start := 0
	i := 0
	n := len(text)
	for i < n {
		c := text[i]
		if c == '.' || c == '!' || c == '?' || c == '\n' {
			if c == '.' && isAbbreviationDot(text, i) {
				i++
				continue
			}
			end := i + 1
			if s := strings.TrimSpace(text[start:end]); s != "" {
				spans = append(spans, Span{Start: start, End: end, Text: s})
			}
			i = end
			for i < n && (text[i] == ' ' || text[i] == '\t' || text[i] == '\n' || text[i] == '\r') {
				i++
			}
			start = i
			continue
		}
		i++
	}
	if s := strings.TrimSpace(text[start:]); s != "" {
		spans = append(spans, Span{Start: start, End: n, Text: s})
	}
	return spans
}

// Span is a byte range of the source text with its trimmed content.
type Span struct {
	Start int
	End   int
	Text  string
}

// isAbbreviationDot reports whether the '.' at index i is part of an
// abbreviation or decimal rather than a sentence terminator.
func isAbbreviationDot(text string, i int) bool {
	// Decimal: digit on both sides.
	if i > 0 && i+1 < len(text) && isDigit(text[i-1]) && isDigit(text[i+1]) {
		return true
	}
	// Single-letter abbreviation like "A." mid-sentence followed by
	// lower-case continuation, or known short abbreviations.
	j := i - 1
	for j >= 0 && isLetter(text[j]) {
		j--
	}
	word := text[j+1 : i]
	switch strings.ToLower(word) {
	case "dr", "mr", "mrs", "ms", "prof", "st":
		// Title abbreviations precede capitalized names; always join.
		return true
	case "e.g", "i.e", "vs", "etc", "no", "fig", "al", "g", "e", "i":
		// Only treat as abbreviation when not at end of text and the
		// next non-space byte is lower case or a digit.
		k := i + 1
		for k < len(text) && text[k] == ' ' {
			k++
		}
		if k < len(text) && (isLower(text[k]) || isDigit(text[k])) {
			return true
		}
	}
	return false
}

func isDigit(b byte) bool  { return b >= '0' && b <= '9' }
func isLower(b byte) bool  { return b >= 'a' && b <= 'z' }
func isLetter(b byte) bool { return isLower(b) || (b >= 'A' && b <= 'Z') }

func isWordStart(r rune) bool { return unicode.IsLetter(r) || r == '_' }
func isWordPart(r rune) bool  { return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' }

// The scanners read text a byte at a time and classify each byte as the
// rune of the same value (so 0x80–0xFF classify as Latin-1, whatever
// UTF-8 sequence they belong to). byteClass holds that classification,
// taken from isWordStart and isWordPart themselves.
const (
	wordStart uint8 = 1 << iota
	wordPart
)

var byteClass = func() (class [256]uint8) {
	for b := range class {
		if isWordStart(rune(b)) {
			class[b] |= wordStart
		}
		if isWordPart(rune(b)) {
			class[b] |= wordPart
		}
	}
	return class
}()

func isPunct(r rune) bool {
	switch r {
	case '.', ',', ';', ':', '!', '?', '(', ')', '[', ']', '{', '}', '"', '\'', '-', '/', '–', '—':
		return true
	}
	return unicode.IsPunct(r)
}
