package graph

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"repro/internal/jsonx"
)

// The on-disk form of a graph is one JSON object,
//
//	{"nodes":[{"id":…,"type":…,"label":…,"attrs":{…}},…],
//	 "rows":[{"prefix":…,"n":…,"text":[…],"mentions":[[…],…]},…],
//	 "edges":[{"from":…,"to":…,"type":…,"weight":…},…]}
//
// followed by a newline: nodes in id order, attrs — the non-empty
// payload fields under payloadKeys, omitted when there are none — in
// key order, edges in (from, to, type) order with ties in
// adjacency order, "edges":null when there are none. The bytes are those
// encoding/json's Encoder produces for the same records, HTML escaping
// included; the codec below is written for this one schema on the
// tokenizer of internal/jsonx, and the encoding/json pair it replaced is
// the oracle in serialize_reference_test.go.
//
// "rows", left out when it would be empty, abbreviates the row vertices
// of a table: a range {"prefix":P,"n":N,"text":T,"mentions":M} stands
// for the N nodes {"id":"row:"+P+k,"type":"row","label":P+k,
// "attrs":{"text":T[k]}}, k = 0…N−1 in decimal and attrs left out where
// T[k] is "", and, for each i in M[k], for the weight-1 "mentions" edge
// from row k to nodes[i] and its twin back. Merged into "nodes" and
// "edges" in their orders, these records give the file's full form —
// the one an earlier version wrote — and the graph is the full form's.
// WriteJSON writes a range for every prefix whose rows are exactly those
// numbered 0…N−1 (k spelled without leading zeros) and carry no payload
// but text and no edges but mentions twins to nodes no range could hold.
// Beside a range, ReadJSON needs listed nodes in strictly increasing id
// order, listed edges in (from, to, type) order, each M[k] in increasing
// order, and no listed edge to or from a range row.

// payloadKeys are the attrs keys of a node's payload fields, in the
// order WriteJSON writes them. No other code spells one.
var payloadKeys = [...]string{"arg1", "arg2", "doc", "etype", "text", "verb"}

// payload returns n's payload fields in payloadKeys' order.
func (n *Node) payload() [len(payloadKeys)]*string {
	return [...]*string{&n.Arg1, &n.Arg2, &n.Doc, &n.EType, &n.Text, &n.Verb}
}

// rowIDPrefix starts the id of every row a range holds; the rest of the
// id is its label.
const rowIDPrefix = "row:"

// WriteJSON serializes the graph as deterministic JSON (nodes and edges
// sorted), suitable for persistence and for diffing index builds. The
// graph is only read: any number of WriteJSON calls and other readers
// may run at once.
func (g *Graph) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	runs := g.rowRuns()
	// at is each vertex's position in "nodes", -1 for one a range holds.
	at := make([]int32, len(g.verts))
	ranged := 0
	for _, r := range runs {
		ranged += len(r.rows)
		for _, v := range r.rows {
			at[v.num] = -1
		}
	}
	listed := make([]*vertex, 0, len(g.verts)-ranged)
	degree := 0
	for _, v := range g.verts {
		if at[v.num] == 0 {
			listed = append(listed, v)
			degree = max(degree, len(v.out))
		}
	}
	slices.SortFunc(listed, func(a, b *vertex) int { return cmp.Compare(a.id, b.id) })
	var (
		buf   = make([]byte, 0, 4<<10)  // one record, reused
		out   = make([]half, 0, degree) // one vertex's listed edges, reused
		small [8]int32
		nbs   = small[:0] // one row's mentions, reused
	)
	bw.WriteString(`{"nodes":[`)
	for i, v := range listed {
		n := v.node(g.ntypes)
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ',')
		}
		at[v.num] = int32(i)
		buf = append(buf, `{"id":`...)
		buf = jsonx.AppendString(buf, n.ID)
		buf = append(buf, `,"type":`...)
		buf = jsonx.AppendString(buf, string(n.Type))
		buf = append(buf, `,"label":`...)
		buf = jsonx.AppendString(buf, n.Label)
		sep := `,"attrs":{`
		for i, p := range n.payload() {
			if *p == "" {
				continue
			}
			buf = append(buf, sep...)
			sep = ","
			buf = jsonx.AppendString(buf, payloadKeys[i])
			buf = append(buf, ':')
			buf = jsonx.AppendString(buf, *p)
		}
		if sep == "," {
			buf = append(buf, '}')
		}
		buf = append(buf, '}')
		bw.Write(buf)
	}
	bw.WriteByte(']')
	if len(runs) > 0 {
		bw.WriteString(`,"rows":[`)
		for i, r := range runs {
			buf = buf[:0]
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, `{"prefix":`...)
			buf = jsonx.AppendString(buf, r.prefix)
			buf = append(buf, `,"n":`...)
			buf = strconv.AppendInt(buf, int64(len(r.rows)), 10)
			buf = append(buf, `,"text":`...)
			sep := byte('[')
			for _, v := range r.rows {
				buf = jsonx.AppendString(append(buf, sep), v.text)
				sep = ','
				bw.Write(buf)
				buf = buf[:0]
			}
			buf = append(buf, `],"mentions":`...)
			sep = '['
			for _, v := range r.rows {
				nbs = nbs[:0]
				for _, h := range v.out {
					nbs = append(nbs, at[h.nb])
				}
				slices.Sort(nbs)
				buf = append(buf, sep, '[')
				sep = ','
				for j, i := range nbs {
					if j > 0 {
						buf = append(buf, ',')
					}
					buf = strconv.AppendInt(buf, int64(i), 10)
				}
				buf = append(buf, ']')
				bw.Write(buf)
				buf = buf[:0]
			}
			bw.WriteString("]}")
		}
		bw.WriteByte(']')
	}
	bw.WriteString(`,"edges":`)
	sep := byte('[')
	for _, v := range listed {
		// Every edge of v.out runs from v, so visiting vertices in id
		// order and each one's edges in (to, type) order is the global
		// (from, to, type) order.
		out = out[:0]
		for _, h := range v.out {
			if at[h.nb] >= 0 {
				out = append(out, h)
			}
		}
		if !slices.IsSortedFunc(out, g.compareTarget) {
			slices.SortStableFunc(out, g.compareTarget)
		}
		for _, h := range out {
			to := g.verts[h.nb].id
			if math.IsNaN(h.w) || math.IsInf(h.w, 0) {
				return fmt.Errorf("graph: encode: edge %s -> %s: unsupported weight %v", v.id, to, h.w)
			}
			buf = append(buf[:0], sep)
			sep = ','
			buf = append(buf, `{"from":`...)
			buf = jsonx.AppendString(buf, v.id)
			buf = append(buf, `,"to":`...)
			buf = jsonx.AppendString(buf, to)
			buf = append(buf, `,"type":`...)
			buf = jsonx.AppendString(buf, string(g.types[h.typ]))
			buf = append(buf, `,"weight":`...)
			buf = jsonx.AppendFloat(buf, h.w)
			buf = append(buf, '}')
			bw.Write(buf)
		}
	}
	if sep == '[' {
		bw.WriteString("null")
	} else {
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
		return cmp.Compare(g.verts[a.nb].id, g.verts[b.nb].id)
	}
	return cmp.Compare(g.types[a.typ], g.types[b.typ])
}

// rowRun is the rows of one prefix that WriteJSON writes as a range:
// row k is rows[k].
type rowRun struct {
	prefix string
	rows   []*vertex
}

// rowRuns returns the ranges WriteJSON writes, in prefix order. A first
// pass over the vertices counts each prefix's rows and checks them; a
// second places the rows of the prefixes whose numbers are exactly
// 0…n−1 into one array.
func (g *Graph) rowRuns() []rowRun {
	type group struct {
		prefix         string
		n, most, start int // rows, their largest number, where they go in rows
		ok             bool
	}
	groups := make([]group, 0, 8)
	var byPrefix map[string]int
	last := -1
	// each calls fn with every vertex a range could hold and its group.
	each := func(fn func(v *vertex, k int, gr *group)) {
		for _, v := range g.verts {
			prefix, k, ok := g.rowNumber(v)
			if !ok {
				continue
			}
			if last < 0 || groups[last].prefix != prefix {
				i, seen := byPrefix[prefix]
				if !seen {
					if byPrefix == nil {
						byPrefix = map[string]int{}
					}
					i = len(groups)
					byPrefix[prefix] = i
					groups = append(groups, group{prefix: prefix, ok: true})
				}
				last = i
			}
			fn(v, k, &groups[last])
		}
	}
	each(func(v *vertex, k int, gr *group) {
		gr.n++
		gr.most = max(gr.most, k)
		gr.ok = gr.ok && g.mentionsOnly(v)
	})
	total, kept := 0, 0
	for i := range groups {
		gr := &groups[i]
		// The numbers are distinct, so n of them below n are 0…n−1.
		if gr.ok = gr.ok && gr.most < gr.n; gr.ok {
			gr.start = total
			total += gr.n
			kept++
		}
	}
	if total == 0 {
		return nil
	}
	rows := make([]*vertex, total)
	each(func(v *vertex, k int, gr *group) {
		if gr.ok {
			rows[gr.start+k] = v
		}
	})
	runs := make([]rowRun, 0, kept)
	for _, gr := range groups {
		if gr.ok {
			runs = append(runs, rowRun{prefix: gr.prefix, rows: rows[gr.start : gr.start+gr.n]})
		}
	}
	slices.SortFunc(runs, func(a, b rowRun) int { return cmp.Compare(a.prefix, b.prefix) })
	return runs
}

// rowNumber returns the prefix and the number a range spells v's label
// with, and whether v could be a range's row at all: a row whose id is
// rowIDPrefix and its label, with no payload but text, and whose label
// ends in a decimal number. The number is the longest run of the
// label's last digits without a leading zero, of at most nine digits.
func (g *Graph) rowNumber(v *vertex) (prefix string, k int, ok bool) {
	if g.ntypes[v.typ] != NodeRow || v.more != nil || len(v.id) != len(rowIDPrefix)+len(v.label) ||
		v.id[:len(rowIDPrefix)] != rowIDPrefix || v.id[len(rowIDPrefix):] != v.label {
		return "", 0, false
	}
	l := v.label
	i := len(l)
	for i > 0 && '0' <= l[i-1] && l[i-1] <= '9' {
		i--
	}
	for i < len(l)-1 && l[i] == '0' {
		i++
	}
	if i == len(l) || len(l)-i > 9 {
		return "", 0, false
	}
	for _, c := range l[i:] {
		k = 10*k + int(c-'0')
	}
	return l[:i], k, true
}

// mentionsOnly reports whether v's edges are what a range can spell:
// weight-1 mentions edges, each with its twin, to vertices that no range
// could hold.
func (g *Graph) mentionsOnly(v *vertex) bool {
	if len(v.out) != len(v.in) {
		return false
	}
	var small [2][4]int32
	nbs := [2][]int32{small[0][:0], small[1][:0]}
	for i, hs := range [2][]half{v.out, v.in} {
		for _, h := range hs {
			if g.types[h.typ] != EdgeMentions || h.w != 1 {
				return false
			}
			if _, _, ok := g.rowNumber(g.verts[h.nb]); ok {
				return false
			}
			nbs[i] = append(nbs[i], h.nb)
		}
		slices.Sort(nbs[i])
	}
	return slices.Equal(nbs[0], nbs[1])
}

// ReadJSON reconstructs a graph written by WriteJSON. It accepts the
// object's keys in any order, any JSON whitespace and escape, null for
// an array or for attrs, and in attrs any key that is no payload field,
// whose string value it checks and drops (earlier versions wrote such
// keys); it rejects what WriteJSON never writes and a lenient decoder
// would let pass: unknown keys elsewhere, repeated keys, null for a
// string or a number, invalid UTF-8, unpaired surrogate escapes, and
// anything but whitespace after the object. A file without "rows" is
// read as it always was; the ranges of one that has it are built in bulk
// and put among the listed nodes and edges as their full form has them.
func ReadJSON(r io.Reader) (*Graph, error) {
	data, err := jsonx.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("graph: decode: %w", err)
	}
	d := &decoder{Decoder: jsonx.NewDecoder(data, "graph: decode"), g: New()}
	if err := d.document(); err != nil {
		return nil, err
	}
	return d.g, nil
}

// pendingEdge is an edge whose endpoints and type are resolved, to
// vertex numbers and a type code, but which is not yet in any adjacency
// list.
type pendingEdge struct {
	weight   float64
	from, to int32
	typ      uint8
}

// decoder is a single pass over one snapshot. Each node is decoded
// into a vertex as it is read, and the vertices are put into the id map
// together; edges are resolved to vertices as they are read and put into
// the adjacency lists together at the end. A range's rows become
// vertices after the object, when they take their places among the
// listed ones.
type decoder struct {
	jsonx.Decoder
	g *Graph

	edges    []pendingEdge
	lastFrom *vertex // source of the previous edge: edges arrive grouped by source
	indexed  bool    // the listed nodes are in g.vs

	text  []byte         // the node being decoded: its id, label and payload, end to end
	label []byte         // its label, until it is known whether the id ends with it
	names jsonx.Interner // node and edge types: a few strings, repeated by every record

	// The rows section. The rows of every range are numbered end to end;
	// row j's text ends at textEnd[j] in its range's string, and its
	// mentions, listed-node positions, end at mentionEnd[j] in mentions.
	ranges     []rowSpan
	textEnd    []int
	mentionEnd []int
	mentions   []int32
	rangeText  []byte // the range being decoded: its texts, then its ids
}

// rowSpan is one range as read: n rows from row first of all ranges,
// whose texts and then ids, "row:"+prefix+k, are s end to end.
type rowSpan struct {
	s        string
	prefix   int // its length
	first, n int
}

// Keys of the top-level object, of a node, of an edge and of a range,
// numbered for the set already seen (jsonx.Decoder.Once).
const (
	kNodes = iota
	kEdges
	kRows
	kID
	kType
	kLabel
	kPayload
	kFrom
	kTo
	kWeight
	kPrefix
	kN
	kText
	kMentions
)

func (d *decoder) unknownKey(key []byte) error {
	return d.Fail("unknown key " + strconv.Quote(string(key)))
}

// document consumes the whole input.
func (d *decoder) document() error {
	var seen uint
	edgesAt := -1 // where "edges" began, when it came before "nodes"
	resolved := func() error { return d.edge(true) }
	err := d.Object(func(key []byte) error {
		switch string(key) {
		case "nodes":
			if err := d.Once(&seen, kNodes); err != nil {
				return err
			}
			return d.Array(d.node)
		case "rows":
			if err := d.Once(&seen, kRows); err != nil {
				return err
			}
			return d.Array(d.rowRange)
		case "edges":
			if err := d.Once(&seen, kEdges); err != nil {
				return err
			}
			if seen&(1<<kNodes) != 0 {
				if err := d.insertNodes(); err != nil {
					return err
				}
				// An edge record is rarely under 64 bytes; append covers
				// the ones that are.
				d.edges = make([]pendingEdge, 0, (len(d.Data)-d.Pos)/64)
				return d.Array(resolved)
			}
			// Its endpoints are not known yet: check the syntax now, read
			// it again after the object.
			edgesAt = d.Pos
			return d.Array(func() error { return d.edge(false) })
		}
		return d.unknownKey(key)
	})
	if err != nil {
		return err
	}
	if err := d.End(); err != nil {
		return err
	}
	if err := d.insertNodes(); err != nil {
		return err
	}
	if edgesAt >= 0 {
		d.Pos = edgesAt
		if err := d.Array(resolved); err != nil {
			return err
		}
	}
	if err := d.placeRows(); err != nil {
		return err
	}
	d.link()
	return nil
}

// node consumes one node object into a new vertex. Its strings are
// gathered in d.text and become one allocation that the node's id, label
// and payload share; a label that ends the id takes no bytes of its own.
func (d *decoder) node() error {
	var n Node
	d.text, d.label = d.text[:0], d.label[:0]
	var seen, seenPayload uint
	var id [2]int
	var fields [len(payloadKeys)][2]int
	take := func(span *[2]int) error {
		s, err := d.Str()
		span[0] = len(d.text)
		d.text = append(d.text, s...)
		span[1] = len(d.text)
		return err
	}
	attr := func(key []byte) error {
		for i, k := range payloadKeys {
			if string(key) == k {
				if err := d.Once(&seenPayload, i); err != nil {
					return err
				}
				return take(&fields[i])
			}
		}
		_, err := d.Str()
		return err
	}
	err := d.Object(func(key []byte) error {
		switch string(key) {
		case "id":
			if err := d.Once(&seen, kID); err != nil {
				return err
			}
			return take(&id)
		case "label":
			if err := d.Once(&seen, kLabel); err != nil {
				return err
			}
			s, err := d.Str()
			d.label = append(d.label, s...)
			return err
		case "type":
			if err := d.Once(&seen, kType); err != nil {
				return err
			}
			s, err := d.Str()
			n.Type = NodeType(d.names.Intern(s))
			return err
		case "attrs":
			if err := d.Once(&seen, kPayload); err != nil {
				return err
			}
			if d.Null() {
				return nil
			}
			return d.Object(attr)
		}
		return d.unknownKey(key)
	})
	if err != nil {
		return err
	}
	label := [2]int{id[1] - len(d.label), id[1]}
	if !bytes.HasSuffix(d.text[id[0]:id[1]], d.label) {
		label[0] = len(d.text)
		d.text = append(d.text, d.label...)
		label[1] = len(d.text)
	}
	text := string(d.text)
	n.ID, n.Label = text[id[0]:id[1]], text[label[0]:label[1]]
	for i, p := range n.payload() {
		*p = text[fields[i][0]:fields[i][1]]
	}
	_, err = d.g.add(&n)
	return err
}

// rowRange consumes one range of the rows section. Its texts and the
// ids its rows will have become one string; its mentions are checked
// against the listed nodes once they are all read (placeRows).
func (d *decoder) rowRange() error {
	var seen uint
	var prefix []byte
	var n int64
	first, mentioned := len(d.textEnd), len(d.mentionEnd)
	d.rangeText = d.rangeText[:0]
	err := d.Object(func(key []byte) (err error) {
		switch string(key) {
		case "prefix":
			if err := d.Once(&seen, kPrefix); err != nil {
				return err
			}
			s, err := d.Str()
			prefix = append(prefix, s...)
			return err
		case "n":
			if err := d.Once(&seen, kN); err != nil {
				return err
			}
			n, err = d.Int()
			return err
		case "text":
			if err := d.Once(&seen, kText); err != nil {
				return err
			}
			// The texts take fewer bytes than the rest of the input, and
			// grown by append they would be copied many times over.
			if rest := len(d.Data) - d.Pos; cap(d.rangeText) < rest {
				d.rangeText = make([]byte, 0, rest)
			}
			return d.Array(func() error {
				s, err := d.Str()
				d.rangeText = append(d.rangeText, s...)
				d.textEnd = append(d.textEnd, len(d.rangeText))
				return err
			})
		case "mentions":
			if err := d.Once(&seen, kMentions); err != nil {
				return err
			}
			return d.Array(func() error {
				err := d.Array(func() error {
					i, err := d.Int()
					if err == nil && (i < 0 || i > math.MaxInt32) {
						err = d.Fail("mention out of range")
					}
					d.mentions = append(d.mentions, int32(i))
					return err
				})
				d.mentionEnd = append(d.mentionEnd, len(d.mentions))
				return err
			})
		}
		return d.unknownKey(key)
	})
	if err != nil {
		return err
	}
	if int64(len(d.textEnd)-first) != n || int64(len(d.mentionEnd)-mentioned) != n {
		return d.Fail(fmt.Sprintf("range of %d rows with %d texts and %d mention lists", n, len(d.textEnd)-first, len(d.mentionEnd)-mentioned))
	}
	for k := range n {
		d.rangeText = strconv.AppendInt(append(append(d.rangeText, rowIDPrefix...), prefix...), k, 10)
	}
	d.ranges = append(d.ranges, rowSpan{s: string(d.rangeText), prefix: len(prefix), first: first, n: int(n)})
	return nil
}

// insertNodes puts the decoded vertices into the id map, sized for them
// and for the rows read so far, in file order, refusing an empty or a
// taken id. It does so once.
func (d *decoder) insertNodes() error {
	if d.indexed {
		return nil
	}
	d.indexed = true
	g := d.g
	g.vs = make(map[string]*vertex, len(g.verts)+len(d.textEnd))
	for i, v := range g.verts {
		if v.id == "" {
			return fmt.Errorf("graph: empty node id: %w", ErrNodeNotFound)
		}
		g.vs[v.id] = v
		if len(g.vs) == i { // the id was there already
			return fmt.Errorf("%w: %s", ErrNodeExists, v.id)
		}
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
		s, err := d.Str()
		if err != nil || !resolve {
			return nil, err
		}
		if prev != nil && prev.id == string(s) {
			return prev, nil
		}
		v, ok := d.g.vs[string(s)]
		if !ok {
			*missing = string(s)
		}
		return v, nil
	}
	err := d.Object(func(key []byte) (err error) {
		switch string(key) {
		case "from":
			if err := d.Once(&seen, kFrom); err != nil {
				return err
			}
			e.from, err = endpoint(d.lastFrom, &from)
			return err
		case "to":
			if err := d.Once(&seen, kTo); err != nil {
				return err
			}
			e.to, err = endpoint(nil, &to)
			return err
		case "type":
			if err := d.Once(&seen, kType); err != nil {
				return err
			}
			s, err := d.Str()
			e.typ = EdgeType(d.names.Intern(s))
			return err
		case "weight":
			if err := d.Once(&seen, kWeight); err != nil {
				return err
			}
			e.weight, err = d.Number()
			return err
		}
		return d.unknownKey(key)
	})
	if err != nil || !resolve {
		return err
	}
	if e.from == nil || e.to == nil {
		if e.from != nil {
			from = e.from.id
		}
		if e.to != nil {
			to = e.to.id
		}
		return fmt.Errorf("%w: %s -> %s", ErrBadEdge, from, to)
	}
	typ, err := code(&d.g.types, e.typ, ErrEdgeTypes)
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

// placeRows makes the ranges' rows vertices, numbers every vertex in id
// order and queues the rows' edges among the listed ones in (from, to,
// type) order: the graph the file's full form gives. Until it runs, a
// listed vertex's number is its position in "nodes", and the queued
// edges are the listed ones. Without rows it does nothing.
func (d *decoder) placeRows() error {
	g := d.g
	total := len(d.textEnd)
	if total == 0 {
		return nil
	}
	listed := g.verts
	for i := 1; i < len(listed); i++ {
		if listed[i-1].id >= listed[i].id {
			return fmt.Errorf("graph: decode: node %q after %q beside a rows section", listed[i].id, listed[i-1].id)
		}
	}
	for i := 1; i < len(d.edges); i++ {
		a, b := &d.edges[i-1], &d.edges[i]
		if a.from > b.from || a.from == b.from && (a.to > b.to || a.to == b.to && g.types[a.typ] > g.types[b.typ]) {
			return fmt.Errorf("graph: decode: edge from %q out of order beside a rows section", listed[b.from].id)
		}
	}
	start := 0
	for _, end := range d.mentionEnd {
		for j, i := range d.mentions[start:end] {
			if int(i) >= len(listed) {
				return fmt.Errorf("graph: decode: mention of node %d of %d", i, len(listed))
			}
			if j > 0 && i < d.mentions[start+j-1] {
				return fmt.Errorf("graph: decode: mentions %v out of order", d.mentions[start:end])
			}
		}
		start = end
	}

	// The rows, in one slab, and each source of vertices in id order: the
	// listed ones as tags i ≥ 0, each range's rows as tags −1−row.
	rowType, _ := code(&g.ntypes, NodeRow, ErrNodeTypes)
	rows := make([]vertex, total)
	sources := make([][]int32, 0, 1+len(d.ranges))
	tags := make([]int32, len(listed))
	for i := range tags {
		tags[i] = int32(i)
	}
	sources = append(sources, tags)
	for _, r := range d.ranges {
		textAt, idAt := 0, 0
		if r.n > 0 {
			idAt = d.textEnd[r.first+r.n-1]
		}
		for k := range r.n {
			j := r.first + k
			idEnd := idAt + len(rowIDPrefix) + r.prefix + decimalLen(k)
			v := &rows[j]
			v.id, v.text, v.typ = r.s[idAt:idEnd], r.s[textAt:d.textEnd[j]], rowType
			v.label = v.id[len(rowIDPrefix):]
			g.size += int64(len(v.id) + len(v.label) + 16)
			if v.text != "" {
				g.size += int64(len(v.text) + 16)
			}
			textAt, idAt = d.textEnd[j], idEnd
		}
		order := decimalOrder(r.n)
		for p, k := range order {
			order[p] = -1 - int32(r.first) - k
		}
		sources = append(sources, order)
	}
	g.byType[rowType] += total
	vertexOf := func(tag int32) *vertex {
		if tag >= 0 {
			return listed[tag]
		}
		return &rows[-1-tag]
	}
	order := mergeByID(sources, func(tag int32) string { return vertexOf(tag).id })
	g.verts = make([]*vertex, len(order))
	for num, tag := range order {
		v := vertexOf(tag)
		v.num = int32(num)
		g.verts[num] = v
	}
	for i := range rows {
		v := &rows[i]
		size := len(g.vs)
		if g.vs[v.id] = v; len(g.vs) == size {
			return fmt.Errorf("%w: %s", ErrNodeExists, v.id)
		}
	}

	// mentioners[first[i]:first[i+1]] are the rows that mention listed
	// node i, by number.
	first := make([]int32, len(listed)+1)
	for _, i := range d.mentions {
		first[i+1]++
	}
	for i := range listed {
		first[i+1] += first[i]
	}
	fill := slices.Clone(first[:len(listed)])
	mentioners := make([]int32, len(d.mentions))
	mentionsOf := func(row int32) []int32 {
		if row == 0 {
			return d.mentions[:d.mentionEnd[0]]
		}
		return d.mentions[d.mentionEnd[row-1]:d.mentionEnd[row]]
	}
	for num, tag := range order {
		if tag < 0 {
			for _, i := range mentionsOf(-1 - tag) {
				mentioners[fill[i]] = int32(num)
				fill[i]++
			}
		}
	}
	mentions, _ := code(&g.types, EdgeMentions, ErrEdgeTypes)
	edges := make([]pendingEdge, 0, len(d.edges)+2*len(d.mentions))
	next := 0 // the first listed edge not yet queued
	for num, tag := range order {
		from := int32(num)
		if tag < 0 {
			for _, i := range mentionsOf(-1 - tag) {
				edges = append(edges, pendingEdge{weight: 1, from: from, to: listed[i].num, typ: mentions})
			}
			continue
		}
		// Its listed edges, in (to, type) order, with its mentioners by
		// number among them.
		by := mentioners[first[tag]:first[tag+1]]
		for ; next < len(d.edges) && d.edges[next].from == tag; next++ {
			e := d.edges[next]
			e.from, e.to = from, listed[e.to].num
			for ; len(by) > 0 && by[0] < e.to; by = by[1:] {
				edges = append(edges, pendingEdge{weight: 1, from: from, to: by[0], typ: mentions})
			}
			edges = append(edges, e)
		}
		for _, r := range by {
			edges = append(edges, pendingEdge{weight: 1, from: from, to: r, typ: mentions})
		}
	}
	d.edges = edges
	return nil
}

// decimalLen is the length of k's decimal spelling.
func decimalLen(k int) int {
	n := 1
	for ; k >= 10; k /= 10 {
		n++
	}
	return n
}

// decimalOrder returns 0…n−1 in the order of their decimal spellings:
// 0, then each number followed by its first multiple of ten below n,
// else by its next number that does not carry, else by an ancestor's.
func decimalOrder(n int) []int32 {
	out := make([]int32, 0, n)
	if n > 0 {
		out = append(out, 0)
	}
	for k := 1; len(out) < n; {
		out = append(out, int32(k))
		if k*10 < n {
			k *= 10
			continue
		}
		for k+1 >= n || k%10 == 9 {
			k /= 10
		}
		k++
	}
	return out
}

// mergeByID merges sources, each sorted by id, into one sequence sorted
// by id, ties in source order. It copies a run of one source at a time,
// so a source whose ids fall between two of another's costs one
// comparison per element.
func mergeByID(sources [][]int32, id func(int32) string) []int32 {
	total := 0
	for _, s := range sources {
		total += len(s)
	}
	out := make([]int32, 0, total)
	for {
		best := -1
		var least, bound string
		bounded := false
		for s, src := range sources {
			if len(src) == 0 {
				continue
			}
			switch h := id(src[0]); {
			case best < 0:
				best, least = s, h
			case h < least:
				best, least, bound, bounded = s, h, least, true
			case !bounded || h < bound:
				bound, bounded = h, true
			}
		}
		if best < 0 {
			return out
		}
		src := sources[best]
		n := 1
		for n < len(src) && (!bounded || id(src[n]) < bound) {
			n++
		}
		out = append(out, src[:n]...)
		sources[best] = src[n:]
	}
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
		from, to := g.verts[e.from], g.verts[e.to]
		from.out = out[:len(from.out)+1]
		to.in = in[:len(to.in)+1]
	}
	for _, v := range g.verts {
		if n := len(v.out); n > 0 {
			v.out, out = out[:0:n], out[n:]
		}
		if n := len(v.in); n > 0 {
			v.in, in = in[:0:n], in[n:]
		}
	}
	for _, e := range d.edges {
		from, to := g.verts[e.from], g.verts[e.to]
		from.out = append(from.out, half{w: e.weight, nb: e.to, typ: e.typ})
		to.in = append(to.in, half{w: e.weight, nb: e.from, typ: e.typ})
		g.size += edgeSize(from.id, to.id, g.types[e.typ])
	}
	g.edges = len(d.edges)
}
