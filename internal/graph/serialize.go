package graph

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"io/fs"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// The on-disk form of a graph is one JSON object,
//
//	{"nodes":[{"id":…,"type":…,"label":…,"attrs":{…}},…],
//	 "edges":[{"from":…,"to":…,"type":…,"weight":…},…]}
//
// followed by a newline: nodes in id order, attrs — the non-empty
// payload fields under payloadKeys, omitted when there are none — in
// key order, edges in (from, to, type) order with ties in
// adjacency order, "edges":null when there are none. The bytes are those
// encoding/json's Encoder produces for the same records, HTML escaping
// included; the codec below is written for this one schema, and the
// encoding/json pair it replaced is the oracle in
// serialize_reference_test.go.

// payloadKeys are the attrs keys of a node's payload fields, in the
// order WriteJSON writes them. No other code spells one.
var payloadKeys = [...]string{"arg1", "arg2", "doc", "etype", "text", "verb"}

// payload returns n's payload fields in payloadKeys' order.
func (n *Node) payload() [len(payloadKeys)]*string {
	return [...]*string{&n.Arg1, &n.Arg2, &n.Doc, &n.EType, &n.Text, &n.Verb}
}

// WriteJSON serializes the graph as deterministic JSON (nodes and edges
// sorted), suitable for persistence and for diffing index builds. The
// graph is only read: any number of WriteJSON calls and other readers
// may run at once.
func (g *Graph) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	ids := g.NodeIDs()
	var (
		buf []byte // one record, reused
		out []half // one vertex's edges when they need sorting, reused
	)
	bw.WriteString(`{"nodes":[`)
	for i, id := range ids {
		n := g.vs[id].node
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"id":`...)
		buf = appendString(buf, n.ID)
		buf = append(buf, `,"type":`...)
		buf = appendString(buf, string(n.Type))
		buf = append(buf, `,"label":`...)
		buf = appendString(buf, n.Label)
		sep := `,"attrs":{`
		for i, p := range n.payload() {
			if *p == "" {
				continue
			}
			buf = append(buf, sep...)
			sep = ","
			buf = appendString(buf, payloadKeys[i])
			buf = append(buf, ':')
			buf = appendString(buf, *p)
		}
		if sep == "," {
			buf = append(buf, '}')
		}
		buf = append(buf, '}')
		bw.Write(buf)
	}
	bw.WriteString(`],"edges":`)
	if g.edges == 0 {
		bw.WriteString("null")
	} else {
		sep := byte('[')
		for _, id := range ids {
			// Every edge of v.out runs from id, so visiting vertices in
			// id order and each one's edges in (to, type) order is the
			// global (from, to, type) order.
			hs := g.vs[id].out
			if !slices.IsSortedFunc(hs, g.compareTarget) {
				out = append(out[:0], hs...)
				slices.SortStableFunc(out, g.compareTarget)
				hs = out
			}
			for _, h := range hs {
				to := g.verts[h.nb].node.ID
				if math.IsNaN(h.w) || math.IsInf(h.w, 0) {
					return fmt.Errorf("graph: encode: edge %s -> %s: unsupported weight %v", id, to, h.w)
				}
				buf = append(buf[:0], sep)
				sep = ','
				buf = append(buf, `{"from":`...)
				buf = appendString(buf, id)
				buf = append(buf, `,"to":`...)
				buf = appendString(buf, to)
				buf = append(buf, `,"type":`...)
				buf = appendString(buf, string(g.types[h.typ]))
				buf = append(buf, `,"weight":`...)
				buf = appendFloat(buf, h.w)
				buf = append(buf, '}')
				bw.Write(buf)
			}
		}
		bw.WriteByte(']')
	}
	bw.WriteString("}\n")
	// A bufio.Writer keeps its first write error and returns it here.
	return bw.Flush()
}

// compareTarget orders one vertex's outgoing edges by (to, type), both
// as the strings the file spells.
func (g *Graph) compareTarget(a, b half) int {
	if a.nb != b.nb {
		return cmp.Compare(g.verts[a.nb].node.ID, g.verts[b.nb].node.ID)
	}
	return cmp.Compare(g.types[a.typ], g.types[b.typ])
}

const hexDigits = "0123456789abcdef"

// verbatim marks the bytes appendString copies as they are: ASCII from
// the space up, less the two JSON escapes and the three HTML escapes.
var verbatim = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendString appends s as a JSON string the way encoding/json does
// with HTML escaping on: ", \ and the control bytes escaped (short forms
// for \b \f \n \r \t), <, > and & as \u00XX, U+2028/U+2029 escaped, and
// each byte of invalid UTF-8 replaced by the escape of U+FFFD.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if verbatim[b] {
			i++
			continue
		}
		if b < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == 0x2028 || c == 0x2029: // LINE and PARAGRAPH SEPARATOR
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendFloat appends a finite f in encoding/json's (ES6) number form:
// shortest digits that round-trip, exponent form outside [1e-6, 1e21).
func appendFloat(dst []byte, f float64) []byte {
	if f == 1 { // the weight of nearly every edge
		return append(dst, '1')
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 is written e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// ReadJSON reconstructs a graph written by WriteJSON. It accepts the
// object's keys in any order, any JSON whitespace and escape, null for
// an array or for attrs, and in attrs any key that is no payload field,
// whose string value it checks and drops (earlier versions wrote such
// keys); it rejects what WriteJSON never writes and a lenient decoder
// would let pass: unknown keys elsewhere, repeated keys, null for a
// string or a number, invalid UTF-8, unpaired surrogate escapes, and
// anything but whitespace after the object.
func ReadJSON(r io.Reader) (*Graph, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("graph: decode: %w", err)
	}
	d := &decoder{data: data, g: New()}
	if err := d.document(); err != nil {
		return nil, err
	}
	return d.g, nil
}

// readAll is io.ReadAll with the buffer sized from what the reader says
// it holds (a file's size, a bytes.Reader's length), so a snapshot is
// read into one allocation.
func readAll(r io.Reader) ([]byte, error) {
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

// pendingEdge is an edge whose endpoints and type are resolved, to
// vertex numbers and a type code, but which is not yet in any adjacency
// list.
type pendingEdge struct {
	weight   float64
	from, to int32
	typ      uint8
}

// decoder is a single pass over one snapshot. Nodes are collected, then
// inserted together; edges are resolved to vertices as they are read and
// put into the adjacency lists together at the end.
type decoder struct {
	data []byte
	pos  int
	g    *Graph

	nodes    []*Node
	slab     []Node   // nodes are allocated from slabs, not one by one
	verts    []vertex // one per node, in file order
	edges    []pendingEdge
	lastFrom *vertex // source of the previous edge: edges arrive grouped by source

	scratch []byte     // the unescaped form of the last string that had escapes
	text    []byte     // the node being decoded: its id, label and payload, end to end
	names   [64]string // node and edge types: a few strings, repeated by every record
}

func (d *decoder) fail(msg string) error {
	return fmt.Errorf("graph: decode: offset %d: %s", d.pos, msg)
}

// ws skips whitespace and returns the byte at the new position, 0 at the
// end of the input.
func (d *decoder) ws() byte {
	for d.pos < len(d.data) {
		switch c := d.data[d.pos]; c {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return c
		}
	}
	return 0
}

// expect skips whitespace and consumes c.
func (d *decoder) expect(c byte) error {
	if d.ws() != c {
		return d.fail("expected '" + string(c) + "'")
	}
	d.pos++
	return nil
}

// null consumes a null if one is next.
func (d *decoder) null() bool {
	if d.ws() == 'n' && d.pos+4 <= len(d.data) && string(d.data[d.pos:d.pos+4]) == "null" {
		d.pos += 4
		return true
	}
	return false
}

// object calls member for each key of the object that is next; member
// consumes the key's value.
func (d *decoder) object(member func(key []byte) error) error {
	if err := d.expect('{'); err != nil {
		return err
	}
	if d.ws() == '}' {
		d.pos++
		return nil
	}
	for {
		key, err := d.str()
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
			d.pos++
		case '}':
			d.pos++
			return nil
		default:
			return d.fail("expected ',' or '}'")
		}
	}
}

// array calls element for each element of the array that is next, or
// not at all for null.
func (d *decoder) array(element func() error) error {
	if d.null() {
		return nil
	}
	if err := d.expect('['); err != nil {
		return err
	}
	if d.ws() == ']' {
		d.pos++
		return nil
	}
	for {
		if err := element(); err != nil {
			return err
		}
		switch d.ws() {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return nil
		default:
			return d.fail("expected ',' or ']'")
		}
	}
}

// str consumes the string that is next and returns its value: a view of
// the input when it has no escapes, else of d.scratch; either way valid
// until the next call.
func (d *decoder) str() ([]byte, error) {
	if err := d.expect('"'); err != nil {
		return nil, err
	}
	start := d.pos
	data := d.data
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
				return nil, d.fail("invalid UTF-8 in string")
			}
			d.pos = i + 1
			return s, nil
		case c == '\\':
			d.pos = i
			return d.escaped(start)
		case c < 0x20:
			d.pos = i
			return nil, d.fail("control character in string")
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, d.fail("unterminated string")
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

// escaped finishes str for a string that began at start and has its
// first backslash at d.pos.
func (d *decoder) escaped(start int) ([]byte, error) {
	out := append(d.scratch[:0], d.data[start:d.pos]...)
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		d.pos++
		switch {
		case c == '"':
			if !utf8.Valid(out) {
				d.pos = start
				return nil, d.fail("invalid UTF-8 in string")
			}
			d.scratch = out
			return out, nil
		case c < 0x20:
			return nil, d.fail("control character in string")
		case c != '\\':
			out = append(out, c)
			continue
		}
		if d.pos == len(d.data) {
			break
		}
		d.pos++
		switch e := d.data[d.pos-1]; e {
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
			if ok && 0xD800 <= r && r < 0xDC00 && string(d.data[d.pos:min(d.pos+2, len(d.data))]) == `\u` {
				d.pos += 2
				var lo rune
				if lo, ok = d.hex4(); ok && 0xDC00 <= lo && lo < 0xE000 {
					r = (r-0xD800)<<10 | (lo - 0xDC00) + 0x10000
				}
			}
			if !ok || !utf8.ValidRune(r) {
				return nil, d.fail("invalid \\u escape in string")
			}
			out = utf8.AppendRune(out, r)
		default:
			return nil, d.fail("invalid escape in string")
		}
	}
	return nil, d.fail("unterminated string")
}

// hex4 consumes four hex digits.
func (d *decoder) hex4() (rune, bool) {
	if d.pos+4 > len(d.data) {
		return 0, false
	}
	var r rune
	for _, c := range d.data[d.pos : d.pos+4] {
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
	d.pos += 4
	return r, true
}

// number consumes the JSON number that is next.
func (d *decoder) number() (float64, error) {
	d.ws()
	start := d.pos
	// next consumes the byte that is next if it is a or b.
	next := func(a, b byte) bool {
		if d.pos < len(d.data) && (d.data[d.pos] == a || d.data[d.pos] == b) {
			d.pos++
			return true
		}
		return false
	}
	digits := func() bool {
		from := d.pos
		for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
			d.pos++
		}
		return d.pos > from
	}
	next('-', '-')
	if !next('0', '0') && !digits() {
		return 0, d.fail("expected a number")
	}
	if next('.', '.') && !digits() {
		return 0, d.fail("expected a digit after '.'")
	}
	if next('e', 'E') {
		next('+', '-')
		if !digits() {
			return 0, d.fail("expected a digit in the exponent")
		}
	}
	lit := d.data[start:d.pos]
	if len(lit) == 1 { // the weight of nearly every edge is 1
		return float64(lit[0] - '0'), nil
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		d.pos = start
		return 0, d.fail("number out of range")
	}
	return f, nil
}

// intern returns s as a string without allocating when it is the last
// string seen with its length and end bytes. A snapshot has a dozen
// names; when two of them share a slot each evicts the other and is
// allocated anew, which is what not interning would cost.
func (d *decoder) intern(s []byte) string {
	if len(s) == 0 {
		return ""
	}
	slot := &d.names[(len(s)*31+int(s[0])*7+int(s[len(s)-1]))%len(d.names)]
	if *slot != string(s) {
		*slot = string(s)
	}
	return *slot
}

// Keys of the top-level object, of a node and of an edge, as bits of the
// set already seen.
const (
	kNodes = 1 << iota
	kEdges
	kID
	kType
	kLabel
	kPayload
	kFrom
	kTo
	kWeight
)

// key records k in seen; a key may appear once.
func (d *decoder) key(seen *uint, k uint) error {
	if *seen&k != 0 {
		return d.fail("repeated key")
	}
	*seen |= k
	return nil
}

func (d *decoder) unknownKey(key []byte) error {
	return d.fail("unknown key " + strconv.Quote(string(key)))
}

// document consumes the whole input.
func (d *decoder) document() error {
	var seen uint
	edgesAt := -1 // where "edges" began, when it came before "nodes"
	resolved := func() error { return d.edge(true) }
	err := d.object(func(key []byte) error {
		switch string(key) {
		case "nodes":
			if err := d.key(&seen, kNodes); err != nil {
				return err
			}
			if err := d.array(d.node); err != nil {
				return err
			}
			return d.insertNodes()
		case "edges":
			if err := d.key(&seen, kEdges); err != nil {
				return err
			}
			if seen&kNodes != 0 {
				// An edge record is rarely under 64 bytes; append covers
				// the ones that are.
				d.edges = make([]pendingEdge, 0, (len(d.data)-d.pos)/64)
				return d.array(resolved)
			}
			// Its endpoints are not known yet: check the syntax now, read
			// it again after the object.
			edgesAt = d.pos
			return d.array(func() error { return d.edge(false) })
		}
		return d.unknownKey(key)
	})
	if err != nil {
		return err
	}
	if d.ws() != 0 || d.pos != len(d.data) {
		return d.fail("data after the top-level object")
	}
	if edgesAt >= 0 {
		d.pos = edgesAt
		if err := d.array(resolved); err != nil {
			return err
		}
	}
	d.link()
	return nil
}

// node consumes one node object. Its strings are gathered in d.text and
// become one allocation that the node's id, label and payload share.
func (d *decoder) node() error {
	if len(d.slab) == cap(d.slab) {
		d.slab = make([]Node, 0, 1024)
	}
	d.slab = d.slab[:len(d.slab)+1]
	n := &d.slab[len(d.slab)-1]
	d.text = d.text[:0]
	var seen, seenPayload uint
	var id, label [2]int
	var fields [len(payloadKeys)][2]int
	take := func(span *[2]int) error {
		s, err := d.str()
		span[0] = len(d.text)
		d.text = append(d.text, s...)
		span[1] = len(d.text)
		return err
	}
	attr := func(key []byte) error {
		for i, k := range payloadKeys {
			if string(key) == k {
				if err := d.key(&seenPayload, 1<<i); err != nil {
					return err
				}
				return take(&fields[i])
			}
		}
		_, err := d.str()
		return err
	}
	err := d.object(func(key []byte) error {
		switch string(key) {
		case "id":
			if err := d.key(&seen, kID); err != nil {
				return err
			}
			return take(&id)
		case "label":
			if err := d.key(&seen, kLabel); err != nil {
				return err
			}
			return take(&label)
		case "type":
			if err := d.key(&seen, kType); err != nil {
				return err
			}
			s, err := d.str()
			n.Type = NodeType(d.intern(s))
			return err
		case "attrs":
			if err := d.key(&seen, kPayload); err != nil {
				return err
			}
			if d.null() {
				return nil
			}
			return d.object(attr)
		}
		return d.unknownKey(key)
	})
	if err != nil {
		return err
	}
	text := string(d.text)
	n.ID, n.Label = text[id[0]:id[1]], text[label[0]:label[1]]
	for i, p := range n.payload() {
		*p = text[fields[i][0]:fields[i][1]]
	}
	d.nodes = append(d.nodes, n)
	return nil
}

// insertNodes puts the collected nodes into the graph in file order,
// refusing an empty or a taken id, into a map and a vertex array sized
// for them.
func (d *decoder) insertNodes() error {
	g := d.g
	g.vs = make(map[string]*vertex, len(d.nodes))
	g.verts = make([]*vertex, len(d.nodes))
	d.verts = make([]vertex, len(d.nodes))
	for i, n := range d.nodes {
		if n.ID == "" {
			return fmt.Errorf("graph: empty node id: %w", ErrNodeNotFound)
		}
		d.verts[i] = vertex{node: n, num: int32(i)}
		g.verts[i] = &d.verts[i]
		g.vs[n.ID] = &d.verts[i]
		if len(g.vs) == i { // the id was there already
			return fmt.Errorf("%w: %s", ErrNodeExists, n.ID)
		}
		g.account(n)
	}
	return nil
}

// edge consumes one edge object and, if resolve is set, looks up its
// endpoints and type with AddEdge's checks and queues it for link.
func (d *decoder) edge(resolve bool) error {
	var e struct {
		from, to *vertex
		typ      EdgeType
		weight   float64
	}
	var seen uint
	var from, to string // an endpoint the graph does not have
	endpoint := func(prev *vertex, missing *string) (*vertex, error) {
		s, err := d.str()
		if err != nil || !resolve {
			return nil, err
		}
		if prev != nil && prev.node.ID == string(s) {
			return prev, nil
		}
		v, ok := d.g.vs[string(s)]
		if !ok {
			*missing = string(s)
		}
		return v, nil
	}
	err := d.object(func(key []byte) (err error) {
		switch string(key) {
		case "from":
			if err := d.key(&seen, kFrom); err != nil {
				return err
			}
			e.from, err = endpoint(d.lastFrom, &from)
			return err
		case "to":
			if err := d.key(&seen, kTo); err != nil {
				return err
			}
			e.to, err = endpoint(nil, &to)
			return err
		case "type":
			if err := d.key(&seen, kType); err != nil {
				return err
			}
			s, err := d.str()
			e.typ = EdgeType(d.intern(s))
			return err
		case "weight":
			if err := d.key(&seen, kWeight); err != nil {
				return err
			}
			e.weight, err = d.number()
			return err
		}
		return d.unknownKey(key)
	})
	if err != nil || !resolve {
		return err
	}
	if e.from == nil || e.to == nil {
		if e.from != nil {
			from = e.from.node.ID
		}
		if e.to != nil {
			to = e.to.node.ID
		}
		return fmt.Errorf("%w: %s -> %s", ErrBadEdge, from, to)
	}
	typ, err := d.g.typeCode(e.typ)
	if err != nil {
		return err
	}
	if e.weight == 0 {
		e.weight = 1
	}
	d.lastFrom = e.from
	d.edges = append(d.edges, pendingEdge{weight: e.weight, from: e.from.num, to: e.to.num, typ: typ})
	return nil
}

// link builds every adjacency list from the queued edges: each vertex's
// out and in are carved, with exact capacity, from two arrays that hold
// all half-edges, and filled in file order. The lists are those AddEdge
// would have grown one append at a time.
func (d *decoder) link() {
	g := d.g
	out, in := make([]half, len(d.edges)), make([]half, len(d.edges))
	// Degrees first, kept as the length of each vertex's own slices.
	for _, e := range d.edges {
		from, to := &d.verts[e.from], &d.verts[e.to]
		from.out = out[:len(from.out)+1]
		to.in = in[:len(to.in)+1]
	}
	for i := range d.verts {
		v := &d.verts[i]
		if n := len(v.out); n > 0 {
			v.out, out = out[:0:n], out[n:]
		}
		if n := len(v.in); n > 0 {
			v.in, in = in[:0:n], in[n:]
		}
	}
	for _, e := range d.edges {
		from, to := &d.verts[e.from], &d.verts[e.to]
		from.out = append(from.out, half{w: e.weight, nb: e.to, typ: e.typ})
		to.in = append(to.in, half{w: e.weight, nb: e.from, typ: e.typ})
		g.size += edgeSize(from.node.ID, to.node.ID, g.types[e.typ])
	}
	g.edges = len(d.edges)
}
