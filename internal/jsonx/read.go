package jsonx

import (
	"fmt"
	"io"
	"io/fs"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ReadAll is io.ReadAll with the buffer sized from what the reader says
// it holds (a file's size, a bytes.Reader's length), so a snapshot is
// read into one allocation.
func ReadAll(r io.Reader) ([]byte, error) {
	var hint int64
	switch s := r.(type) {
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := s.Stat(); err == nil {
			hint = fi.Size()
		}
	case interface{ Len() int }:
		hint = int64(s.Len())
	}
	// A hint is not trusted beyond 1 GiB; a larger input grows the buffer.
	// The 512 bytes more are where a reader of the hinted size reports
	// EOF, and a first read's worth for one that gave no hint.
	hint = min(max(hint, 0), 1<<30)
	buf := make([]byte, 0, hint+512)
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// Decoder is a cursor over one JSON document held in memory. Its methods
// consume one token or value each, skipping the whitespace before it,
// and fail with the offset they stopped at. It accepts only what RFC
// 8259 allows, and of strings only valid UTF-8 without unpaired
// surrogate escapes.
type Decoder struct {
	Data []byte
	Pos  int

	what    string // the error prefix
	scratch []byte // the unescaped form of the last string that had escapes
}

// NewDecoder returns a decoder at the start of data whose errors begin
// with what, e.g. "graph: decode".
func NewDecoder(data []byte, what string) Decoder {
	return Decoder{Data: data, what: what}
}

// Fail returns the error msg at the current offset.
func (d *Decoder) Fail(msg string) error {
	return fmt.Errorf("%s: offset %d: %s", d.what, d.Pos, msg)
}

// ws skips whitespace and returns the byte at the new position, 0 at the
// end of the input.
func (d *Decoder) ws() byte {
	for d.Pos < len(d.Data) {
		switch c := d.Data[d.Pos]; c {
		case ' ', '\t', '\n', '\r':
			d.Pos++
		default:
			return c
		}
	}
	return 0
}

// expect skips whitespace and consumes c.
func (d *Decoder) expect(c byte) error {
	if d.ws() != c {
		return d.Fail("expected '" + string(c) + "'")
	}
	d.Pos++
	return nil
}

// End fails unless only whitespace is left: what follows the top-level
// value is an error, not ignored.
func (d *Decoder) End() error {
	if d.ws() != 0 || d.Pos != len(d.Data) {
		return d.Fail("data after the top-level object")
	}
	return nil
}

// Once records the key numbered k (below the width of a uint) in seen,
// and fails if it is there already: a key may appear once.
func (d *Decoder) Once(seen *uint, k int) error {
	if *seen&(1<<k) != 0 {
		return d.Fail("repeated key")
	}
	*seen |= 1 << k
	return nil
}

// Null consumes a null if one is next.
func (d *Decoder) Null() bool {
	return d.literal("null")
}

// literal consumes lit if it is next.
func (d *Decoder) literal(lit string) bool {
	if d.ws() == lit[0] && d.Pos+len(lit) <= len(d.Data) && string(d.Data[d.Pos:d.Pos+len(lit)]) == lit {
		d.Pos += len(lit)
		return true
	}
	return false
}

// Object calls member for each key of the object that is next; member
// consumes the key's value. The key is valid until member reads another
// string.
func (d *Decoder) Object(member func(key []byte) error) error {
	if err := d.expect('{'); err != nil {
		return err
	}
	if d.ws() == '}' {
		d.Pos++
		return nil
	}
	for {
		key, err := d.Str()
		if err != nil {
			return err
		}
		if err := d.expect(':'); err != nil {
			return err
		}
		if err := member(key); err != nil {
			return err
		}
		switch d.ws() {
		case ',':
			d.Pos++
		case '}':
			d.Pos++
			return nil
		default:
			return d.Fail("expected ',' or '}'")
		}
	}
}

// Array calls element for each element of the array that is next, or
// not at all for null.
func (d *Decoder) Array(element func() error) error {
	if d.Null() {
		return nil
	}
	if err := d.expect('['); err != nil {
		return err
	}
	if d.ws() == ']' {
		d.Pos++
		return nil
	}
	for {
		if err := element(); err != nil {
			return err
		}
		switch d.ws() {
		case ',':
			d.Pos++
		case ']':
			d.Pos++
			return nil
		default:
			return d.Fail("expected ',' or ']'")
		}
	}
}

// Str consumes the string that is next and returns its value: a view of
// the input when it has no escapes, else of a scratch buffer; either way
// valid until the next call.
func (d *Decoder) Str() ([]byte, error) {
	if err := d.expect('"'); err != nil {
		return nil, err
	}
	start := d.Pos
	data := d.Data
	i := start
	for i < len(data) && plain[data[i]] {
		i++
	}
	ascii := true
	for ; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			s := data[start:i]
			if !ascii && !utf8.Valid(s) {
				return nil, d.Fail("invalid UTF-8 in string")
			}
			d.Pos = i + 1
			return s, nil
		case c == '\\':
			d.Pos = i
			return d.escaped(start)
		case c < 0x20:
			d.Pos = i
			return nil, d.Fail("control character in string")
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, d.Fail("unterminated string")
}

// plain marks the bytes that stand for themselves in a JSON string and
// need no UTF-8 check: ASCII from the space up, less the quote and the
// backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// escaped finishes Str for a string that began at start and has its
// first backslash at d.Pos.
func (d *Decoder) escaped(start int) ([]byte, error) {
	out := append(d.scratch[:0], d.Data[start:d.Pos]...)
	for d.Pos < len(d.Data) {
		c := d.Data[d.Pos]
		d.Pos++
		switch {
		case c == '"':
			if !utf8.Valid(out) {
				d.Pos = start
				return nil, d.Fail("invalid UTF-8 in string")
			}
			d.scratch = out
			return out, nil
		case c < 0x20:
			return nil, d.Fail("control character in string")
		case c != '\\':
			out = append(out, c)
			continue
		}
		if d.Pos == len(d.Data) {
			break
		}
		d.Pos++
		switch e := d.Data[d.Pos-1]; e {
		case '"', '\\', '/':
			out = append(out, e)
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			r, ok := d.hex4()
			// A UTF-16 surrogate stands only as the first half of a pair.
			if ok && 0xD800 <= r && r < 0xDC00 && string(d.Data[d.Pos:min(d.Pos+2, len(d.Data))]) == `\u` {
				d.Pos += 2
				var lo rune
				if lo, ok = d.hex4(); ok && 0xDC00 <= lo && lo < 0xE000 {
					r = (r-0xD800)<<10 | (lo - 0xDC00) + 0x10000
				}
			}
			if !ok || !utf8.ValidRune(r) {
				return nil, d.Fail("invalid \\u escape in string")
			}
			out = utf8.AppendRune(out, r)
		default:
			return nil, d.Fail("invalid escape in string")
		}
	}
	return nil, d.Fail("unterminated string")
}

// hex4 consumes four hex digits.
func (d *Decoder) hex4() (rune, bool) {
	if d.Pos+4 > len(d.Data) {
		return 0, false
	}
	var r rune
	for _, c := range d.Data[d.Pos : d.Pos+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	d.Pos += 4
	return r, true
}

// numberLit consumes the JSON number that is next and returns its text.
func (d *Decoder) numberLit() ([]byte, error) {
	d.ws()
	start := d.Pos
	// next consumes the byte that is next if it is a or b.
	next := func(a, b byte) bool {
		if d.Pos < len(d.Data) && (d.Data[d.Pos] == a || d.Data[d.Pos] == b) {
			d.Pos++
			return true
		}
		return false
	}
	digits := func() bool {
		from := d.Pos
		for d.Pos < len(d.Data) && '0' <= d.Data[d.Pos] && d.Data[d.Pos] <= '9' {
			d.Pos++
		}
		return d.Pos > from
	}
	next('-', '-')
	if !next('0', '0') && !digits() {
		return nil, d.Fail("expected a number")
	}
	if next('.', '.') && !digits() {
		return nil, d.Fail("expected a digit after '.'")
	}
	if next('e', 'E') {
		next('+', '-')
		if !digits() {
			return nil, d.Fail("expected a digit in the exponent")
		}
	}
	return d.Data[start:d.Pos], nil
}

// Number consumes the JSON number that is next.
func (d *Decoder) Number() (float64, error) {
	lit, err := d.numberLit()
	if err != nil {
		return 0, err
	}
	if len(lit) == 1 { // the weight of nearly every graph edge is 1
		return float64(lit[0] - '0'), nil
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		d.Pos -= len(lit)
		return 0, d.Fail("number out of range")
	}
	return f, nil
}

// Int consumes the JSON number that is next, which must be an integer
// written without a fraction or an exponent, as encoding/json requires
// of an integer field.
func (d *Decoder) Int() (int64, error) {
	lit, err := d.numberLit()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil {
		d.Pos -= len(lit)
		return 0, d.Fail("expected an integer")
	}
	return n, nil
}

// maxSkipDepth bounds the nesting of a value Skip consumes, below
// encoding/json's own limit.
const maxSkipDepth = 1000

// Skip consumes the value that is next, whatever it is, checking its
// syntax as every other method does: a codec skips a key it does not
// know this way.
func (d *Decoder) Skip() error {
	return d.skip(0)
}

func (d *Decoder) skip(depth int) error {
	if depth == maxSkipDepth {
		return d.Fail("value nested too deeply")
	}
	switch d.ws() {
	case '{':
		return d.Object(func([]byte) error { return d.skip(depth + 1) })
	case '[':
		return d.Array(func() error { return d.skip(depth + 1) })
	case '"':
		_, err := d.Str()
		return err
	case 't':
		if d.literal("true") {
			return nil
		}
	case 'f':
		if d.literal("false") {
			return nil
		}
	case 'n':
		if d.Null() {
			return nil
		}
	default:
		_, err := d.numberLit()
		return err
	}
	return d.Fail("expected a value")
}

// Interner returns repeated text as one string: Intern allocates a
// string only when its text is not the last seen in its slot. Its
// memory is fixed, so a run of distinct text costs what not interning
// would.
type Interner struct {
	slots [256]string
}

// Intern returns s as a string, the one it returned last for the same
// text if that is still in s's slot.
func (in *Interner) Intern(s []byte) string {
	if len(s) == 0 {
		return ""
	}
	slot := &in.slots[fnv1a(s)%uint32(len(in.slots))]
	if *slot != string(s) {
		*slot = string(s)
	}
	return *slot
}

// InternString is Intern of text held in a string: the result never
// shares s's memory, so a cell cut from a longer line does not keep the
// line alive.
func (in *Interner) InternString(s string) string {
	if s == "" {
		return ""
	}
	slot := &in.slots[fnv1a(s)%uint32(len(in.slots))]
	if *slot != s {
		*slot = strings.Clone(s)
	}
	return *slot
}

// fnv1a is the 32-bit FNV-1a hash of s.
func fnv1a[T string | []byte](s T) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}
