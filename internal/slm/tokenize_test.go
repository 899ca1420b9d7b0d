package slm

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeBasic(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"Q2 sales increased 20%", []string{"Q2", "sales", "increased", "20%"}},
		{"Hello, world!", []string{"Hello", ",", "world", "!"}},
		{"$1,234.56 revenue", []string{"$", "1,234.56", "revenue"}},
		{"patient-reported outcomes", []string{"patient-reported", "outcomes"}},
		{"don't stop", []string{"don't", "stop"}},
		{"", nil},
		{"   \t\n ", nil},
		{"3.5 stars", []string{"3.5", "stars"}},
		{"A/B test", []string{"A", "/", "B", "test"}},
	}
	for _, tc := range tests {
		got := Tokenize(tc.in)
		var texts []string
		for _, tok := range got {
			texts = append(texts, tok.Text)
		}
		if !equalStrings(texts, tc.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", tc.in, texts, tc.want)
		}
	}
}

func TestTokenizeOffsets(t *testing.T) {
	text := "Product Alpha sold 42 units."
	for _, tok := range Tokenize(text) {
		if tok.Start < 0 || tok.End > len(text) || tok.Start >= tok.End {
			t.Fatalf("bad offsets %+v for %q", tok, text)
		}
		if text[tok.Start:tok.End] != tok.Text {
			t.Errorf("offset mismatch: token %q but text slice %q", tok.Text, text[tok.Start:tok.End])
		}
	}
}

func TestTokenizeNumberEdgeCases(t *testing.T) {
	// Sentence-final period must not be swallowed by the number.
	toks := Tokenize("Sales were 1,200.")
	if len(toks) != 4 {
		t.Fatalf("got %d tokens %v, want 4", len(toks), toks)
	}
	if toks[2].Text != "1,200" || toks[2].Kind != TokenNumber {
		t.Errorf("number token = %+v, want 1,200", toks[2])
	}
	if toks[3].Text != "." {
		t.Errorf("final token = %+v, want '.'", toks[3])
	}
}

func TestTokenizeKinds(t *testing.T) {
	toks := Tokenize("rated 4.5 stars ($99)")
	kinds := map[string]TokenKind{}
	for _, tok := range toks {
		kinds[tok.Text] = tok.Kind
	}
	if kinds["4.5"] != TokenNumber {
		t.Errorf("4.5 kind = %v", kinds["4.5"])
	}
	if kinds["rated"] != TokenWord {
		t.Errorf("rated kind = %v", kinds["rated"])
	}
	if kinds["("] != TokenPunct {
		t.Errorf("( kind = %v", kinds["("])
	}
	if kinds["$"] != TokenSymbol {
		t.Errorf("$ kind = %v", kinds["$"])
	}
}

// Tokenizing into a slice with room allocates nothing, and counting a
// short text's tokens allocates nothing at all.
func TestAppendTokensAllocatesNothing(t *testing.T) {
	const text = "region is north. revenue is $1,234.5 (20%). sku is SKU-0000. units is 1."
	dst := make([]Token, 0, 64)
	if allocs := testing.AllocsPerRun(100, func() { dst = AppendTokens(dst[:0], text) }); allocs != 0 {
		t.Errorf("AppendTokens into a slice with room allocates %v times", allocs)
	}
	if got, want := dst, Tokenize(text); !reflect.DeepEqual(got, want) {
		t.Errorf("AppendTokens = %+v, Tokenize %+v", got, want)
	}
	var n int
	if allocs := testing.AllocsPerRun(100, func() { n = countTokens(text) }); allocs != 0 {
		t.Errorf("countTokens allocates %v times", allocs)
	}
	if n != len(dst) {
		t.Errorf("countTokens = %d, want %d", n, len(dst))
	}
}

// countTokens is len(Tokenize) for any bytes, however many tokens.
func TestCountTokensIsTokenizeLength(t *testing.T) {
	for _, text := range []string{"", "Q2", strings.Repeat("a, ", 50), "a\xffb \xa7\xd7"} {
		if got, want := countTokens(text), len(Tokenize(text)); got != want {
			t.Errorf("countTokens(%q) = %d, want %d", text, got, want)
		}
	}
	f := func(raw []byte) bool { return countTokens(string(raw)) == len(Tokenize(string(raw))) }
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// A punctuation or symbol token is one byte of the text. The scanners
// read a byte of 0x80 or above as the Latin-1 rune of that value, and
// that rune, not the byte, is the token's text.
func TestHighBytePunctuationText(t *testing.T) {
	seen := 0
	for b := 0x80; b <= 0xff; b++ {
		text := "x" + string([]byte{byte(b)}) + "y"
		toks := Tokenize(text)
		if len(toks) != 3 || (toks[1].Kind != TokenPunct && toks[1].Kind != TokenSymbol) {
			continue // a space, or part of a word
		}
		seen++
		if toks[1].Text != string(rune(b)) || toks[1].Start != 1 || toks[1].End != 2 {
			t.Errorf("byte %#x: token %+v, want text %q over [1,2)", b, toks[1], string(rune(b)))
		}
	}
	if seen == 0 {
		t.Fatal("no byte of 0x80 or above tokenized as punctuation or symbol")
	}
	if tok := Tokenize("a.b")[1]; tok.Text != "." || tok.Kind != TokenPunct {
		t.Errorf("ASCII punctuation token %+v", tok)
	}
}

func TestTokenKindString(t *testing.T) {
	for k, want := range map[TokenKind]string{
		TokenWord: "word", TokenNumber: "number", TokenPunct: "punct",
		TokenSymbol: "symbol", TokenKind(99): "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("TokenKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestWords(t *testing.T) {
	got := Words(Tokenize("Compare Sales for Q2, please!"))
	want := []string{"compare", "sales", "for", "q2", "please"}
	if !equalStrings(got, want) {
		t.Errorf("Words = %v, want %v", got, want)
	}
}

func TestSplitSentences(t *testing.T) {
	text := "Q2 sales increased 20%. Customer satisfaction fell. Dr. Smith approved the 3.5 mg dose on May 5, 2024."
	spans := SplitSentences(text)
	if len(spans) != 3 {
		t.Fatalf("got %d sentences: %#v", len(spans), spans)
	}
	if !strings.HasPrefix(spans[2].Text, "Dr. Smith") {
		t.Errorf("abbreviation split wrongly: %q", spans[2].Text)
	}
	if !strings.Contains(spans[2].Text, "3.5 mg") {
		t.Errorf("decimal split wrongly: %q", spans[2].Text)
	}
}

func TestSplitSentencesOffsets(t *testing.T) {
	text := "First sentence. Second one! Third?"
	for _, s := range SplitSentences(text) {
		sub := text[s.Start:s.End]
		if strings.TrimSpace(sub) != s.Text {
			t.Errorf("span text %q != slice %q", s.Text, sub)
		}
	}
}

func TestSplitSentencesEmpty(t *testing.T) {
	if got := SplitSentences(""); len(got) != 0 {
		t.Errorf("SplitSentences(\"\") = %v", got)
	}
	if got := SplitSentences("   "); len(got) != 0 {
		t.Errorf("SplitSentences(blank) = %v", got)
	}
	if got := SplitSentences("no terminator"); len(got) != 1 {
		t.Errorf("unterminated text: %v", got)
	}
}

// Property: tokenization covers every non-space byte of ASCII inputs
// exactly once, in order.
// nextWords collects the spans NextWord yields, lower-cased.
func nextWords(text string) []string {
	out := []string{}
	for start, end := NextWord(text, 0); start >= 0; start, end = NextWord(text, end) {
		out = append(out, strings.ToLower(text[start:end]))
	}
	return out
}

// NextWord walks exactly the tokens Words keeps, for any bytes.
func TestNextWordMatchesWords(t *testing.T) {
	for _, text := range []string{
		"", "   \t\n ", "Compare Sales for Q2, please!", "$1,234.56 revenue, up 20%.",
		"patient-reported P-1042 don't -x x- 'q'", "3.5 stars. 7, 8", "caf\u00e9 na\u00efve \u2014 r\u00e9sum\u00e9", "a\xffb \xc3",
	} {
		if got, want := nextWords(text), Words(Tokenize(text)); !equalStrings(got, want) {
			t.Errorf("NextWord over %q = %q, Words = %q", text, got, want)
		}
	}
	f := func(raw []byte) bool {
		return equalStrings(nextWords(string(raw)), Words(Tokenize(string(raw))))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if start, end := NextWord("ab cd", 5); start != -1 || end != -1 {
		t.Errorf("NextWord past the end = %d, %d", start, end)
	}
}

// The scanners' byte table is isWordStart/isWordPart of rune(b), for
// every byte.
func TestByteClassMatchesRuneClass(t *testing.T) {
	for b := 0; b < 256; b++ {
		c := byteClass[b]
		if got, want := c&wordStart != 0, isWordStart(rune(b)); got != want {
			t.Errorf("byte %#x: word start %v, isWordStart %v", b, got, want)
		}
		if got, want := c&wordPart != 0, isWordPart(rune(b)); got != want {
			t.Errorf("byte %#x: word part %v, isWordPart %v", b, got, want)
		}
	}
}

func TestTokenizeCoverageProperty(t *testing.T) {
	f := func(raw []byte) bool {
		// Restrict to printable ASCII to keep the property crisp.
		s := make([]byte, 0, len(raw))
		for _, b := range raw {
			if b >= 32 && b < 127 {
				s = append(s, b)
			}
		}
		text := string(s)
		toks := Tokenize(text)
		last := 0
		for _, tok := range toks {
			if tok.Start < last {
				return false // overlap or out of order
			}
			// Bytes skipped between tokens must all be spaces.
			for i := last; i < tok.Start; i++ {
				if text[i] != ' ' && text[i] != '\t' {
					return false
				}
			}
			if text[tok.Start:tok.End] != tok.Text {
				return false
			}
			last = tok.End
		}
		for i := last; i < len(text); i++ {
			if text[i] != ' ' && text[i] != '\t' {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
