package jsonx

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestSkipAgreesWithValid: Skip followed by End accepts a document
// exactly when encoding/json calls it valid, on every kind of value and
// on the malformed spellings of each, at every truncation.
func TestSkipAgreesWithValid(t *testing.T) {
	docs := []string{
		`null`, `true`, `false`, `0`, `-0`, `1.5e-3`, `-12E+4`, `""`, `"a\"\\\/\b\f\n\r\té😀"`,
		`[]`, `{}`, `[1,"x",null,{"a":[true,{"b":{}}]}]`, ` { "k" : [ 1 , 2 ] } `,
		`nul`, `tru`, `fals`, `01`, `1.`, `.5`, `1e`, `-`, `+1`, `"\x"`, `"\u12"`, "\"a\x01\"", `[1,]`,
		`{"a":1,}`, `{"a"}`, `{1:2}`, `[1 2]`, `{"a":1 "b":2}`, `[`, `{"a":`, `"abc`, `1 2`, `{} {}`,
	}
	for _, doc := range docs {
		for n := len(doc); n >= 0; n-- {
			in := doc[:n]
			d := NewDecoder([]byte(in), "test")
			err := d.Skip()
			if err == nil {
				err = d.End()
			}
			if got, want := err == nil, json.Valid([]byte(in)); got != want {
				t.Errorf("%q: Skip accepts %v, encoding/json %v (%v)", in, got, want, err)
			}
		}
	}
	deep := strings.Repeat("[", maxSkipDepth+1) + strings.Repeat("]", maxSkipDepth+1)
	if d := NewDecoder([]byte(deep), "test"); d.Skip() == nil {
		t.Errorf("a value nested %d deep skipped", maxSkipDepth+1)
	}
}
