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
		n := g.vs[id].node(g.ntypes)
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
				to := g.verts[h.nb].id
				if math.IsNaN(h.w) || math.IsInf(h.w, 0) {
					return fmt.Errorf("graph: encode: edge %s -> %s: unsupported weight %v", id, to, h.w)
				}
				buf = append(buf[:0], sep)
				sep = ','
				buf = append(buf, `{"from":`...)
				buf = jsonx.AppendString(buf, id)
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
// anything but whitespace after the object.
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
// the adjacency lists together at the end.
type decoder struct {
	jsonx.Decoder
	g *Graph

	edges    []pendingEdge
	lastFrom *vertex // source of the previous edge: edges arrive grouped by source

	text  []byte         // the node being decoded: its id, label and payload, end to end
	label []byte         // its label, until it is known whether the id ends with it
	names jsonx.Interner // node and edge types: a few strings, repeated by every record
}

// Keys of the top-level object, of a node and of an edge, numbered for
// the set already seen (jsonx.Decoder.Once).
const (
	kNodes = iota
	kEdges
	kID
	kType
	kLabel
	kPayload
	kFrom
	kTo
	kWeight
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
			if err := d.Array(d.node); err != nil {
				return err
			}
			return d.insertNodes()
		case "edges":
			if err := d.Once(&seen, kEdges); err != nil {
				return err
			}
			if seen&(1<<kNodes) != 0 {
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
	if edgesAt >= 0 {
		d.Pos = edgesAt
		if err := d.Array(resolved); err != nil {
			return err
		}
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

// insertNodes puts the decoded vertices into the id map, sized for
// them, in file order, refusing an empty or a taken id.
func (d *decoder) insertNodes() error {
	g := d.g
	g.vs = make(map[string]*vertex, len(g.verts))
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
