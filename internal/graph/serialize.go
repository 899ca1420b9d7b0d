package graph

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"sort"
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
// WriteJSON writes the ranges the graph holds (rowRange), in prefix
// order, and lists every other node; it discovers none. ReadJSON loads
// a range as a range. Beside a range, it needs listed nodes in strictly
// increasing id order, listed edges in (from, to, type) order, each M[k]
// in increasing order, and no listed edge to or from a range row. A
// range whose prefix ends in a digit loads as listed rows
// (listDigitPrefixes). A file without "rows" — a full form — has its
// ranges found (rangeRows) and loads as one with them.

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
	listed := slices.Clone(g.verts)
	slices.SortFunc(listed, func(a, b *vertex) int { return cmp.Compare(a.id, b.id) })
	// at is each vertex's position in "nodes".
	at := make([]int32, len(g.verts))
	degree := 0
	for i, v := range listed {
		at[v.num] = int32(i)
		degree = max(degree, len(v.out))
	}
	var ranges []*rowRange
	for _, rg := range g.ranges {
		if rg != nil {
			ranges = append(ranges, rg)
		}
	}
	slices.SortFunc(ranges, func(a, b *rowRange) int { return cmp.Compare(a.prefix, b.prefix) })
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
	if len(ranges) > 0 {
		bw.WriteString(`,"rows":[`)
		for i, rg := range ranges {
			buf = buf[:0]
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, `{"prefix":`...)
			buf = jsonx.AppendString(buf, rg.prefix)
			buf = append(buf, `,"n":`...)
			buf = strconv.AppendInt(buf, int64(len(rg.text)), 10)
			buf = append(buf, `,"text":`...)
			sep := byte('[')
			for _, text := range rg.text {
				buf = jsonx.AppendString(append(buf, sep), text)
				sep = ','
				bw.Write(buf)
				buf = buf[:0]
			}
			buf = append(buf, `],"mentions":`...)
			sep = '['
			for k := range rg.text {
				nbs = nbs[:0]
				for _, m := range rg.mentions(k) {
					nbs = append(nbs, at[m])
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
		// (from, to, type) order. A mention of a range's row is the range's.
		out = out[:0]
		for _, h := range v.out {
			if h.rng == 0 {
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

// ReadJSON reconstructs a graph written by WriteJSON. It accepts the
// object's keys in any order, any JSON whitespace and escape, null for
// an array or for attrs, and in attrs any key that is no payload field,
// whose string value it checks and drops (earlier versions wrote such
// keys); it rejects what WriteJSON never writes and a lenient decoder
// would let pass: unknown keys elsewhere, repeated keys, null for a
// string or a number, invalid UTF-8, unpaired surrogate escapes, and
// anything but whitespace after the object. The ranges of a file's rows
// section load as ranges, each vertex's lists holding its edges and its
// mentions of rows in the order of the full form.
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
// the adjacency lists together at the end (build), beside the mentions
// of the ranges' rows.
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
	rangeText  []byte // the texts of the range being decoded
}

// rowSpan is one range as read: n rows from row first of all ranges,
// whose texts are s end to end.
type rowSpan struct {
	s, prefix string
	first, n  int
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
	d.rangeRows()
	return d.build()
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

// rowRange consumes one range of the rows section. Its texts become one
// string; its mentions are checked against the listed nodes once they
// are all read (build).
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
	// The prefix goes after the texts, into the same string.
	text := string(append(d.rangeText, prefix...))
	d.ranges = append(d.ranges, rowSpan{s: text, prefix: text[len(text)-len(prefix):], first: first, n: int(n)})
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

// build checks the rows section against the listed nodes and edges,
// makes each range a rowRange, and lays out every listed vertex's lists:
// its listed edges in file order with, among them where the full form
// has them by id, a half per mention of a range's row.
// Until it runs, a vertex's number is its position in "nodes", and
// d.edges are the listed edges.
func (d *decoder) build() error {
	g := d.g
	listed := g.verts
	if len(d.ranges) > 0 {
		if err := d.checkRows(); err != nil {
			return err
		}
	}
	// rank is each node's place in id order: the listed ones' by number,
	// the rows' after them by row. Until the merge below, it holds the
	// merge's sources: the listed nodes, then each range's rows in id
	// order.
	rank := make([]int32, len(listed)+len(d.textEnd))
	sources := make([][]int32, 1, 1+len(d.ranges))
	sources[0] = rank[:len(listed)]
	for i := range sources[0] {
		sources[0][i] = int32(i)
	}
	orders := rank[len(listed):len(listed)]
	mentions := 0
	// Every range's rows and offsets are carved from one array each,
	// capped so a row added later moves its range's out.
	ranges := make([]rowRange, 0, len(d.ranges))
	texts := make([]string, len(d.textEnd))
	offs := make([]int32, len(d.textEnd)+len(d.ranges))
	g.ranges = make([]*rowRange, 0, len(d.ranges))
	g.byPrefix = make(map[string]int32, len(d.ranges))
	for _, sp := range d.ranges {
		if sp.n == 0 {
			continue
		}
		if g.rangeOf(sp.prefix) >= 0 {
			return fmt.Errorf("%w: %s", ErrNodeExists, rowIDPrefix+sp.prefix+"0")
		}
		ranges = append(ranges, rowRange{prefix: sp.prefix, text: texts[:sp.n:sp.n], off: offs[: sp.n+1 : sp.n+1]})
		texts, offs = texts[sp.n:], offs[sp.n+1:]
		rg := &ranges[len(ranges)-1]
		mentionAt, textAt, end := 0, 0, d.mentionEnd[sp.first+sp.n-1]
		if sp.first > 0 {
			mentionAt = d.mentionEnd[sp.first-1]
		}
		rg.ments = d.mentions[mentionAt:end:end]
		for k := range sp.n {
			j := sp.first + k
			rg.text[k] = sp.s[textAt:d.textEnd[j]]
			rg.off[k+1] = int32(d.mentionEnd[j] - mentionAt)
			textAt = d.textEnd[j]
			idLen := int64(len(rowIDPrefix) + len(sp.prefix) + decimalLen(k))
			g.size += 2*idLen - int64(len(rowIDPrefix)) + 16
			if rg.text[k] != "" {
				g.size += int64(len(rg.text[k]) + 16)
			}
			for _, m := range rg.mentions(k) {
				g.size += 2 * edgeSize(rowIDPrefix, listed[m].id, EdgeMentions)
				g.size += 2 * (idLen - int64(len(rowIDPrefix)))
			}
		}
		mentions += len(rg.ments)
		g.byType[rowCode] += sp.n
		g.rows += sp.n
		order := appendDecimalOrder(orders, sp.n)[len(orders):]
		for i, k := range order {
			order[i] = ^(int32(sp.first) + k)
		}
		orders = orders[:len(orders)+sp.n]
		sources = append(sources, order)
		g.addRange(rg)
	}
	if len(g.ranges) > maxRanges {
		return fmt.Errorf("graph: decode: %d ranges, more than %d", len(g.ranges), maxRanges)
	}
	for _, v := range listed {
		if prefix, k, ok := splitRow(v.id); ok && len(g.ranges) > 0 {
			if r := g.rangeOf(prefix); r >= 0 && k < len(g.ranges[r].text) {
				return fmt.Errorf("%w: %s", ErrNodeExists, v.id)
			}
		}
	}

	// key spells the id of a source's entry: a listed node, or row ^x of
	// all ranges, which is in the first range that ends after it.
	key := func(x int32) idKey {
		if x >= 0 {
			return idKey{s: listed[x].id}
		}
		j := int(^x)
		sp := &d.ranges[sort.Search(len(d.ranges), func(i int) bool { return j < d.ranges[i].first+d.ranges[i].n })]
		return rowKey(sp.prefix, j-sp.first)
	}
	for i, x := range mergeByID(sources, key) {
		if x >= 0 {
			rank[x] = int32(i)
		} else {
			rank[len(listed)+int(^x)] = int32(i)
		}
	}
	// by[m] are the rows that mention listed vertex m, by rank: their
	// ranks, range numbers and row numbers.
	type mention struct{ rank, r, k int32 }
	mentionOff := make([]int32, len(listed)+1)
	for _, rg := range g.ranges {
		for _, m := range rg.ments {
			mentionOff[m+1]++
		}
	}
	for m := range listed {
		mentionOff[m+1] += mentionOff[m]
	}
	by := make([]mention, mentions)
	r := int32(0) // the number of the range of sp
	for _, sp := range d.ranges {
		if sp.n == 0 {
			continue
		}
		for k := range sp.n {
			for _, m := range g.ranges[r].mentions(k) {
				by[mentionOff[m]] = mention{rank[len(listed)+sp.first+k], r, int32(k)}
				mentionOff[m]++ // the next of m's slots, for now
			}
		}
		r++
	}
	unshift(mentionOff)
	for m := range listed {
		ms := by[mentionOff[m]:mentionOff[m+1]]
		slices.SortFunc(ms, func(a, b mention) int { return cmp.Compare(a.rank, b.rank) })
	}
	// The listed edges of each vertex, out and in, by position in d.edges.
	outOff, outs := d.edgesBy(func(e *pendingEdge) int32 { return e.from })
	inOff, ins := d.edgesBy(func(e *pendingEdge) int32 { return e.to })

	// lay lays out one list of vertex m into hs: its listed edges es,
	// whose other ends are nb of each, merged by rank with the rows that
	// mention m.
	lay := func(m int32, es []int32, nb func(*pendingEdge) int32, hs []half) {
		ms := by[mentionOff[m]:mentionOff[m+1]]
		for n := range hs {
			if len(ms) == 0 || len(es) > 0 && rank[nb(&d.edges[es[0]])] < ms[0].rank {
				e := &d.edges[es[0]]
				hs[n] = half{w: e.weight, nb: nb(e), typ: e.typ}
				es = es[1:]
				continue
			}
			hs[n] = half{w: 1, nb: ms[0].k, typ: mentionsCode, rng: uint16(ms[0].r) + 1}
			ms = ms[1:]
		}
	}
	to := func(e *pendingEdge) int32 { return e.to }
	from := func(e *pendingEdge) int32 { return e.from }
	halves := make([]half, 2*(len(d.edges)+mentions))
	out, in := halves[:len(halves)/2], halves[len(halves)/2:]
	for m, v := range listed {
		ms := int(mentionOff[m+1] - mentionOff[m])
		n := int(outOff[m+1]-outOff[m]) + ms
		v.out, out = out[:n:n], out[n:]
		lay(int32(m), outs[outOff[m]:outOff[m+1]], to, v.out)
		n = int(inOff[m+1]-inOff[m]) + ms
		v.in, in = in[:n:n], in[n:]
		lay(int32(m), ins[inOff[m]:inOff[m+1]], from, v.in)
	}
	for _, e := range d.edges {
		g.size += edgeSize(listed[e.from].id, listed[e.to].id, g.types[e.typ])
	}
	g.edges = len(d.edges) + 2*mentions
	return d.listDigitPrefixes()
}

// listDigitPrefixes makes the rows of every range whose prefix ends in a
// digit listed vertices (Graph.expand), as the full form has them: no id
// lookup would find such a row in its range, its digits running into the
// row number. An earlier writer made such a range for rows labelled
// P00…P09. A row id the graph already has is refused.
func (d *decoder) listDigitPrefixes() error {
	g := d.g
	for r, rg := range g.ranges {
		if p := rg.prefix; p == "" || p[len(p)-1] < '0' || p[len(p)-1] > '9' {
			continue
		}
		for k := range rg.text {
			if id := rowIDPrefix + rg.prefix + strconv.Itoa(k); g.HasNode(id) {
				return fmt.Errorf("%w: %s", ErrNodeExists, id)
			}
		}
		g.expand(int32(r))
	}
	return nil
}

// unordered returns an error unless the listed nodes are in strictly
// increasing id order and the listed edges in (from, to, type) order, as
// WriteJSON writes them.
func (d *decoder) unordered() error {
	g := d.g
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
	return nil
}

// rangeRows gives a full form — a file without a rows section, as an
// earlier version wrote it — the ranges a snapshot of the same graph
// spells: the rows of each prefix numbered 0…n−1 whose edges are all
// weight-1 mentions twins to nodes that could not be such rows. It takes
// them out of the listed nodes and edges into the rows section, which
// build then loads as it loads any. A file out of WriteJSON's order is
// left as it is.
func (d *decoder) rangeRows() {
	g := d.g
	listed := g.verts
	if len(d.ranges) > 0 || d.unordered() != nil {
		return
	}
	type group struct {
		rows []int32 // by row number
		ok   bool
	}
	groups := map[string]*group{}
	rowOf := make([]int32, len(listed)) // a candidate's row number, -1 for the rest
	for i, v := range listed {
		rowOf[i] = -1
		if v.typ != rowCode || v.more != nil || v.id[min(len(rowIDPrefix), len(v.id)):] != v.label {
			continue
		}
		if prefix, k, ok := splitRow(v.id); ok {
			gr := groups[prefix]
			if gr == nil {
				gr = &group{ok: true}
				groups[prefix] = gr
			}
			gr.rows = append(gr.rows, int32(i))
			rowOf[i] = int32(k)
		}
	}
	outOff, outs := d.edgesBy(func(e *pendingEdge) int32 { return e.from })
	inOff, ins := d.edgesBy(func(e *pendingEdge) int32 { return e.to })
	for prefix, gr := range groups {
		rows := make([]int32, len(gr.rows))
		for _, i := range gr.rows {
			if k := rowOf[i]; int(k) < len(rows) {
				rows[k] = i + 1
			}
		}
		gr.rows = rows
		for _, i := range rows {
			if i == 0 || !d.twins(outs[outOff[i-1]:outOff[i]], ins[inOff[i-1]:inOff[i]], rowOf) {
				delete(groups, prefix)
				break
			}
		}
	}
	if len(groups) == 0 {
		return
	}
	prefixes := slices.Sorted(maps.Keys(groups))
	for _, prefix := range prefixes[min(len(prefixes), maxRanges):] {
		delete(groups, prefix) // no half could name its range
	}
	prefixes = prefixes[:len(groups)]
	num := make([]int32, len(listed)) // new number, -1 for a ranged row
	for _, gr := range groups {
		for _, i := range gr.rows {
			num[i-1] = -1
		}
	}
	kept := listed[:0:0]
	for i, v := range listed {
		if num[i] == 0 {
			num[i] = int32(len(kept))
			v.num = num[i]
			kept = append(kept, v)
			continue
		}
		delete(g.vs, v.id)
		g.byType[rowCode]--
		g.size -= int64(len(v.id) + len(v.label) + 16)
		if v.text != "" {
			g.size -= int64(len(v.text) + 16)
		}
	}
	for _, prefix := range prefixes {
		var text []byte
		first := len(d.textEnd)
		for _, i := range groups[prefix].rows {
			v := listed[i-1]
			text = append(text, v.text...)
			d.textEnd = append(d.textEnd, len(text))
			for _, e := range outs[outOff[i-1]:outOff[i]] {
				d.mentions = append(d.mentions, num[d.edges[e].to])
			}
			d.mentionEnd = append(d.mentionEnd, len(d.mentions))
		}
		d.ranges = append(d.ranges, rowSpan{s: string(text), prefix: prefix, first: first, n: len(d.textEnd) - first})
	}
	edges := d.edges[:0]
	for _, e := range d.edges {
		if num[e.from] >= 0 && num[e.to] >= 0 {
			e.from, e.to = num[e.from], num[e.to]
			edges = append(edges, e)
		}
	}
	d.edges = edges
	g.verts = kept
}

// twins reports whether a row's listed edges, out and in by position in
// d.edges, are weight-1 mentions twins to nodes that are no candidate
// row (rowOf −1): the same nodes both ways, in the same order.
func (d *decoder) twins(out, in []int32, rowOf []int32) bool {
	if len(out) != len(in) {
		return false
	}
	for j := range out {
		o, i := &d.edges[out[j]], &d.edges[in[j]]
		if o.to != i.from || rowOf[o.to] >= 0 || o.weight != 1 || i.weight != 1 ||
			d.g.types[o.typ] != EdgeMentions || d.g.types[i.typ] != EdgeMentions {
			return false
		}
	}
	return true
}

// edgesBy groups the listed edges by the vertex end returns of each:
// idx[off[m]:off[m+1]] are m's, by position in d.edges.
func (d *decoder) edgesBy(end func(*pendingEdge) int32) (off, idx []int32) {
	both := make([]int32, len(d.g.verts)+1+len(d.edges))
	off, idx = both[:len(d.g.verts)+1], both[len(d.g.verts)+1:]
	for i := range d.edges {
		off[end(&d.edges[i])+1]++
	}
	for m := range d.g.verts {
		off[m+1] += off[m]
	}
	for i := range d.edges {
		m := end(&d.edges[i])
		idx[off[m]] = int32(i)
		off[m]++ // the next of m's slots, for now
	}
	unshift(off)
	return off, idx
}

// unshift restores the offsets of a CSR array whose every offset was
// advanced, while it was filled, to the next one's.
func unshift(off []int32) {
	copy(off[1:], off)
	off[0] = 0
}

// checkRows refuses a rows section whose order build could not merge:
// listed nodes out of id order, listed edges out of (from, to, type)
// order, and a mention of no listed node or out of order. build refuses
// the rest: a prefix that comes twice, more ranges than a half can name,
// and a listed node with a range row's id.
func (d *decoder) checkRows() error {
	if err := d.unordered(); err != nil {
		return err
	}
	listed := d.g.verts
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

// appendDecimalOrder appends 0…n−1 to out in the order of their decimal
// spellings: 0, then each number followed by its first multiple of ten
// below n, else by its next number that does not carry, else by an
// ancestor's.
func appendDecimalOrder(out []int32, n int) []int32 {
	if n > 0 {
		out = append(out, 0)
	}
	for k, end := 1, len(out)-1+n; len(out) < end; {
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
// found by a binary search, so a long run costs a few comparisons; the
// sources' first ids wait in a heap, so finding a run costs a few more
// however many sources there are.
func mergeByID(sources [][]int32, key func(int32) idKey) []int32 {
	total := 0
	var small [4]head
	h := heads(small[:0])
	for s, src := range sources {
		total += len(src)
		if len(src) > 0 {
			h = append(h, head{key(src[0]), s})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	out := make([]int32, 0, total)
	for len(h) > 0 {
		src := sources[h[0].s]
		n := len(src)
		// The least first id of the other sources is a child of the root's.
		if c := 1; c < len(h) {
			if c+1 < len(h) && h.less(c+1, c) {
				c++
			}
			bound := &h[c].key
			n = 1 + sort.Search(len(src)-1, func(i int) bool { k := key(src[1+i]); return k.compare(bound) >= 0 })
		}
		out = append(out, src[:n]...)
		if sources[h[0].s] = src[n:]; n < len(src) {
			h[0].key = key(src[n])
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		h.down(0)
	}
	return out
}

// head is the first id left in source s of a merge.
type head struct {
	key idKey
	s   int
}

// heads is a min-heap of heads by id, ties by source.
type heads []head

func (h heads) less(i, j int) bool {
	c := h[i].key.compare(&h[j].key)
	return c < 0 || c == 0 && h[i].s < h[j].s
}

// down restores the heap below i after h[i] grew.
func (h heads) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h.less(c+1, c) {
			c++
		}
		if !h.less(c, i) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
