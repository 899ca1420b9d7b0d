// Package store implements the heterogeneous source substrate: the
// structured (CSV/relational), semi-structured (JSON logs, XML
// configs) and unstructured (free text) stores the paper's system
// queries through one interface (Section I).
//
// Every store yields Records — a flat, source-tagged view that the
// index builder consumes uniformly. Semi-structured payloads are
// flattened to dotted key paths; unstructured documents pass through
// as text.
package store

import (
	"encoding/json"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/table"
)

// Kind classifies a data source.
type Kind string

// Source kinds.
const (
	KindText       Kind = "text"       // unstructured documents
	KindJSON       Kind = "json"       // JSON log lines / arrays
	KindXML        Kind = "xml"        // XML configuration trees
	KindRelational Kind = "relational" // typed tables
)

// Record is the unified view of one item from any source: a document,
// a log entry, a config element, or a table row.
//
// Text is what the index chunks and tags: the document itself for
// KindText, and for every other kind the record rendered as sentences,
// "<key> is <value>. <key> is <value>." in sorted key order (see
// fieldsToText). Fields is the flattened payload of a JSON or XML
// record, which ToTable types into a relation; it is nil for KindText
// and for KindRelational, whose typed cells stay in the catalog the
// rows came from.
type Record struct {
	ID     string            // stable id within the source
	Source string            // source name
	Kind   Kind              // source kind
	Text   string            // the document, or the record rendered as sentences
	Fields map[string]string // JSON/XML only: flattened key/value payload
}

// Source is a named collection of records.
type Source interface {
	// Name returns the source's unique name.
	Name() string
	// Kind returns the source kind.
	Kind() Kind
	// Records returns all records in deterministic order.
	Records() []Record
	// Len returns the record count.
	Len() int
}

// ErrParse reports source bytes that are not the format they claim.
var ErrParse = errors.New("store: parse error")

// --- Unstructured text ---

// TextStore holds free-text documents (clinical notes, reviews,
// forum posts).
type TextStore struct {
	name string
	ids  []string
	docs map[string]string
}

// NewTextStore returns an empty document store.
func NewTextStore(name string) *TextStore {
	return &TextStore{name: name, docs: make(map[string]string)}
}

// Add inserts a document. Re-adding an id replaces its text.
func (s *TextStore) Add(id, text string) {
	if _, ok := s.docs[id]; !ok {
		s.ids = append(s.ids, id)
	}
	s.docs[id] = text
}

// Name implements Source.
func (s *TextStore) Name() string { return s.name }

// Kind implements Source.
func (s *TextStore) Kind() Kind { return KindText }

// Len implements Source.
func (s *TextStore) Len() int { return len(s.ids) }

// Records implements Source.
func (s *TextStore) Records() []Record {
	out := make([]Record, 0, len(s.ids))
	for _, id := range s.ids {
		out = append(out, Record{
			ID: id, Source: s.name, Kind: KindText, Text: s.docs[id],
		})
	}
	return out
}

// --- Semi-structured JSON ---

// JSONStore holds flattened JSON objects, one record per object.
type JSONStore struct {
	name    string
	records []Record
}

// NewJSONStore returns an empty JSON store.
func NewJSONStore(name string) *JSONStore {
	return &JSONStore{name: name}
}

// LoadLines reads JSON-lines input (one object per line; blank lines
// skipped) and appends one record per object.
func (s *JSONStore) LoadLines(r io.Reader) error {
	dec := json.NewDecoder(r)
	n := 0
	for {
		var v interface{}
		err := dec.Decode(&v)
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("%w: json object %d: %v", ErrParse, n, err)
		}
		s.AddObject(v)
		n++
	}
	return nil
}

// AddObject flattens one decoded JSON value into a record.
func (s *JSONStore) AddObject(v interface{}) {
	fields := make(map[string]string)
	flattenJSON("", v, fields)
	id := fmt.Sprintf("%s/%d", s.name, len(s.records))
	// Prefer an explicit id-ish field when present.
	for _, key := range []string{"id", "event_id", "log_id", "record_id"} {
		if val, ok := fields[key]; ok && val != "" {
			id = fmt.Sprintf("%s/%s", s.name, val)
			break
		}
	}
	s.records = append(s.records, Record{
		ID: id, Source: s.name, Kind: KindJSON,
		Text:   fieldsToText(fields),
		Fields: fields,
	})
}

// Name implements Source.
func (s *JSONStore) Name() string { return s.name }

// Kind implements Source.
func (s *JSONStore) Kind() Kind { return KindJSON }

// Len implements Source.
func (s *JSONStore) Len() int { return len(s.records) }

// Records implements Source.
func (s *JSONStore) Records() []Record { return append([]Record(nil), s.records...) }

func flattenJSON(prefix string, v interface{}, out map[string]string) {
	switch x := v.(type) {
	case map[string]interface{}:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			flattenJSON(joinPath(prefix, k), x[k], out)
		}
	case []interface{}:
		for i, item := range x {
			flattenJSON(fmt.Sprintf("%s[%d]", prefix, i), item, out)
		}
	case nil:
		out[prefix] = ""
	case float64:
		out[prefix] = trimFloat(x)
	case bool:
		out[prefix] = fmt.Sprintf("%t", x)
	default:
		out[prefix] = fmt.Sprintf("%v", x)
	}
}

func trimFloat(f float64) string {
	if f == float64(int64(f)) {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%g", f)
}

func joinPath(prefix, key string) string {
	if prefix == "" {
		return key
	}
	return prefix + "." + key
}

// keyWords turns a flattened key path or a column name into the words
// a sentence can carry: "service.host" and "unit_price" read "service
// host" and "unit price".
var keyWords = strings.NewReplacer(".", " ", "_", " ")

// fieldsToText renders flattened fields as a deterministic sentence-like
// string so semi-structured records can also be chunked and tagged:
// "<key> is <value>" per non-empty field in sorted key order, joined by
// ". " and closed by ".". rowText renders table rows to the same rule.
func fieldsToText(fields map[string]string) string {
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		if fields[k] == "" {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s is %s", keyWords.Replace(k), fields[k]))
	}
	return strings.Join(parts, ". ") + "."
}

// --- Semi-structured XML ---

// XMLStore holds flattened XML elements.
type XMLStore struct {
	name    string
	records []Record
}

// NewXMLStore returns an empty XML store.
func NewXMLStore(name string) *XMLStore {
	return &XMLStore{name: name}
}

// xmlNode is a generic XML tree node.
type xmlNode struct {
	XMLName  xml.Name
	Attrs    []xml.Attr `xml:",any,attr"`
	Content  string     `xml:",chardata"`
	Children []xmlNode  `xml:",any"`
}

// Load parses an XML document and appends one record per second-level
// element (the conventional layout of config files: a root wrapping
// repeated entries). A root with no children yields one record.
func (s *XMLStore) Load(r io.Reader) error {
	var root xmlNode
	if err := xml.NewDecoder(r).Decode(&root); err != nil {
		return fmt.Errorf("%w: xml: %v", ErrParse, err)
	}
	if len(root.Children) == 0 {
		s.addNode(root)
		return nil
	}
	for _, child := range root.Children {
		s.addNode(child)
	}
	return nil
}

func (s *XMLStore) addNode(n xmlNode) {
	fields := make(map[string]string)
	flattenXML(n.XMLName.Local, n, fields)
	id := fmt.Sprintf("%s/%d", s.name, len(s.records))
	for _, attr := range n.Attrs {
		if strings.EqualFold(attr.Name.Local, "id") {
			id = fmt.Sprintf("%s/%s", s.name, attr.Value)
			break
		}
	}
	s.records = append(s.records, Record{
		ID: id, Source: s.name, Kind: KindXML,
		Text:   fieldsToText(fields),
		Fields: fields,
	})
}

func flattenXML(prefix string, n xmlNode, out map[string]string) {
	for _, a := range n.Attrs {
		out[joinPath(prefix, "@"+a.Name.Local)] = a.Value
	}
	content := strings.TrimSpace(n.Content)
	if len(n.Children) == 0 {
		if content != "" {
			out[prefix] = content
		}
		return
	}
	for _, c := range n.Children {
		flattenXML(joinPath(prefix, c.XMLName.Local), c, out)
	}
}

// Name implements Source.
func (s *XMLStore) Name() string { return s.name }

// Kind implements Source.
func (s *XMLStore) Kind() Kind { return KindXML }

// Len implements Source.
func (s *XMLStore) Len() int { return len(s.records) }

// Records implements Source.
func (s *XMLStore) Records() []Record { return append([]Record(nil), s.records...) }

// --- Structured relational ---

// RelationalStore presents typed tables as a record source: each row
// becomes one record carrying its rendered text.
type RelationalStore struct {
	name    string
	catalog *table.Catalog // nil for a store over bare tables
	bare    []*table.Table // NewRelationalTables only, in Catalog.Names order
}

// NewRelationalStore wraps a catalog. The catalog remains the system
// of record; this view is for indexing.
func NewRelationalStore(name string, c *table.Catalog) *RelationalStore {
	return &RelationalStore{name: name, catalog: c}
}

// NewRelationalTables wraps tables that no catalog has registered yet —
// a system being assembled, whose engine will register them once.
// Indexing needs their rows and schemas only, so nothing is derived
// here. Catalog returns nil for such a store. Names are catalog names:
// they compare lower-cased, and a later table replaces an earlier one of
// the same name.
func NewRelationalTables(name string, tables ...*table.Table) *RelationalStore {
	byName := make(map[string]*table.Table, len(tables))
	for _, t := range tables {
		byName[strings.ToLower(t.Name)] = t
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	bare := make([]*table.Table, len(names))
	for i, n := range names {
		bare[i] = byName[n]
	}
	return &RelationalStore{name: name, bare: bare}
}

// Catalog returns the underlying catalog for TableQA execution.
func (s *RelationalStore) Catalog() *table.Catalog { return s.catalog }

// Tables returns the store's tables in name order, the order Records
// renders them in.
func (s *RelationalStore) Tables() []*table.Table {
	if s.catalog == nil {
		return s.bare
	}
	names := s.catalog.Names()
	out := make([]*table.Table, 0, len(names))
	for _, name := range names {
		if t, err := s.catalog.Get(name); err == nil {
			out = append(out, t)
		}
	}
	return out
}

// Name implements Source.
func (s *RelationalStore) Name() string { return s.name }

// Kind implements Source.
func (s *RelationalStore) Kind() Kind { return KindRelational }

// Len implements Source.
func (s *RelationalStore) Len() int {
	n := 0
	for _, t := range s.Tables() {
		n += t.Len()
	}
	return n
}

// Records implements Source: one record per row of every table, tables
// in name order, ids "<store>/<table>/<row number>". A record's Text is
// its row rendered by rowText; its Fields stay nil. The ids of a table
// are one string.
func (s *RelationalStore) Records() []Record {
	out := make([]Record, 0, s.Len())
	var ids, text []byte
	var ends []int
	var row []table.Value
	for _, t := range s.Tables() {
		render := newRowText(t.Schema)
		prefix := s.name + "/" + t.Name + "/"
		ids, ends = ids[:0], ends[:0]
		for i := range t.Len() {
			ids = strconv.AppendInt(append(ids, prefix...), int64(i), 10)
			ends = append(ends, len(ids))
		}
		all, start := string(ids), 0
		for i := range t.Len() {
			row = t.AppendRow(row[:0], i)
			text = render.appendRow(text[:0], row)
			out = append(out, Record{ID: all[start:ends[i]], Source: s.name, Kind: KindRelational, Text: string(text)})
			start = ends[i]
		}
	}
	return out
}

// rowText renders the rows of one table as fieldsToText renders the map
// from column name to cell — byte for byte, without the map: the names
// are sorted and worded once per table, and a row is one pass over its
// cells. A NULL cell is absent from that map and an empty one is
// skipped by fieldsToText, so neither contributes a sentence; of several
// columns sharing a name, the last one that is not NULL speaks for all.
type rowText []rowField // in sorted name order

// rowField is one distinct column name of a table.
type rowField struct {
	head string // the name with '.' and '_' as spaces, then " is "
	cols []int  // the columns carrying the name, in schema order
}

func newRowText(schema table.Schema) rowText {
	byName := make(map[string][]int, len(schema))
	for c, col := range schema {
		byName[col.Name] = append(byName[col.Name], c)
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	fields := make(rowText, len(names))
	for i, name := range names {
		fields[i] = rowField{head: keyWords.Replace(name) + " is ", cols: byName[name]}
	}
	return fields
}

// appendRow appends the row's text to dst. Each cell is written in
// place after its field's head; an empty one takes the head back out.
func (r rowText) appendRow(dst []byte, row []table.Value) []byte {
	first := true
	for _, f := range r {
		for k := len(f.cols) - 1; k >= 0; k-- {
			v := row[f.cols[k]]
			if v.IsNull() {
				continue
			}
			mark := len(dst)
			if !first {
				dst = append(dst, ". "...)
			}
			dst = append(dst, f.head...)
			cell := len(dst)
			if dst = v.AppendString(dst); len(dst) == cell {
				dst = dst[:mark] // an empty cell says nothing
			} else {
				first = false
			}
			break
		}
	}
	return append(dst, '.')
}

// Multi groups several sources, preserving registration order.
type Multi struct {
	sources []Source
}

// NewMulti returns an empty source group.
func NewMulti() *Multi { return &Multi{} }

// Add registers a source and returns m for chaining.
func (m *Multi) Add(s Source) *Multi {
	m.sources = append(m.sources, s)
	return m
}

// Sources returns the registered sources in order.
func (m *Multi) Sources() []Source { return append([]Source(nil), m.sources...) }

// Records returns all records of all sources.
func (m *Multi) Records() []Record {
	out := make([]Record, 0, m.Len())
	for _, s := range m.sources {
		out = append(out, s.Records()...)
	}
	return out
}

// Len returns the total record count.
func (m *Multi) Len() int {
	n := 0
	for _, s := range m.sources {
		n += s.Len()
	}
	return n
}
