package table

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"repro/internal/jsonx"
)

// Column describes one table column.
type Column struct {
	Name string
	Type ColType
}

// Schema is an ordered column list.
type Schema []Column

// ColIndex returns the index of the named column (case-insensitive),
// or -1.
func (s Schema) ColIndex(name string) int {
	for i, c := range s {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// Sentinel errors for table operations.
var (
	ErrSchemaMismatch = errors.New("table: row does not match schema")
	ErrNoColumn       = errors.New("table: no such column")
	ErrNoTable        = errors.New("table: no such table")
)

// Table is an in-memory relation: a result table (a query's, a
// decoder's or a caller's) is its Rows, a registered table (Catalog.Get)
// is its sealed fragments. Len, AppendRow and RowView read either.
type Table struct {
	Name   string
	Schema Schema
	Rows   [][]Value // a result table's rows; nil on a registered table
	frags  *Frags    // a registered table's cells; nil on a result table
}

// New returns an empty table with the given schema.
func New(name string, schema Schema) *Table {
	return &Table{Name: name, Schema: schema}
}

// Append adds a row to a result table after validating arity and
// types; NULLs of any declared type are accepted in any column.
func (t *Table) Append(row []Value) error {
	if t.frags != nil {
		return fmt.Errorf("table: %s is registered: rows reach it through Catalog.Append", t.Name)
	}
	if err := t.Schema.conform(row); err != nil {
		return err
	}
	t.Rows = append(t.Rows, row)
	return nil
}

// conform is the one row-admission rule: the row has the schema's arity
// and every non-NULL cell its column's kind, an int cell in a float
// column being widened in place.
func (s Schema) conform(row []Value) error {
	if len(row) != len(s) {
		return fmt.Errorf("%w: got %d values, want %d", ErrSchemaMismatch, len(row), len(s))
	}
	for i, v := range row {
		if v.IsNull() || v.Kind() == s[i].Type {
			continue
		}
		// Int is acceptable where float is declared.
		if s[i].Type != TypeFloat || v.Kind() != TypeInt {
			return fmt.Errorf("%w: column %s wants %v, got %v",
				ErrSchemaMismatch, s[i].Name, s[i].Type, v.Kind())
		}
		row[i] = F(v.Float())
	}
	return nil
}

// MustAppend appends and panics on schema mismatch; for test fixtures
// and generators whose rows are constructed to match.
func (t *Table) MustAppend(row []Value) {
	if err := t.Append(row); err != nil {
		panic(err)
	}
}

// Len returns the number of rows.
func (t *Table) Len() int {
	if t.frags != nil {
		return t.frags.Rows
	}
	return len(t.Rows)
}

// Frags returns a registered table's fragments, or nil for a result
// table. They are shared and must not be mutated.
func (t *Table) Frags() *Frags { return t.frags }

// AppendRow appends the cells of row r to dst, a registered table's
// decoded from its fragments (ColVec.ValueAt).
func (t *Table) AppendRow(dst []Value, r int) []Value {
	if t.frags == nil {
		return append(dst, t.Rows[r]...)
	}
	b, i := t.frags.Batches[r/FragmentRows], r%FragmentRows
	for c := range b.Cols {
		dst = append(dst, b.Cols[c].ValueAt(i))
	}
	return dst
}

// RowView returns the table's rows, read-only: a result table's own, a
// registered table's built on each call.
func (t *Table) RowView() [][]Value {
	if t.frags == nil {
		return t.Rows
	}
	return t.copyRows(0, t.Len())
}

// copyRows returns copies of rows [start, end), every row a window of
// one slab capped at its own length.
func (t *Table) copyRows(start, end int) [][]Value {
	w := len(t.Schema)
	rows, cells := make([][]Value, end-start), make([]Value, 0, (end-start)*w)
	for i := range rows {
		cells = t.AppendRow(cells, start+i)
		rows[i] = cells[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}

// Clone returns a deep copy as a result table.
func (t *Table) Clone() *Table {
	return &Table{Name: t.Name, Schema: append(Schema(nil), t.Schema...), Rows: t.copyRows(0, t.Len())}
}

// PreviewRows is how many rows a rendered table shows.
const PreviewRows = 20

// String renders the table as an aligned ASCII grid (capped at
// PreviewRows rows) for CLI output and examples.
func (t *Table) String() string {
	return Layout(t.Schema.Names(), Cells(t.copyRows(0, min(t.Len(), PreviewRows))), t.Len())
}

// Cells renders every cell of rows once, as Value.String does, into one
// slab of strings, row-major, each row a window of it capped at its own
// length. A string or date cell is its own text; every other cell's
// text is written into one buffer that all of them slice.
func Cells(rows [][]Value) [][]string {
	n, written := 0, 0
	for _, r := range rows {
		n += len(r)
		for _, v := range r {
			if !v.isText() {
				written++
			}
		}
	}
	slab, out := make([]string, n), make([][]string, len(rows))
	var buf []byte
	ends := make([]int, 0, written) // where each written cell's text ends in buf
	for i, r := range rows {
		out[i], slab = slab[:len(r):len(r)], slab[len(r):]
		for j, v := range r {
			if v.isText() {
				out[i][j] = v.s
			} else {
				buf = v.AppendString(buf)
				ends = append(ends, len(buf))
			}
		}
	}
	text, start := string(buf), 0
	for i, r := range rows {
		for j, v := range r {
			if !v.isText() {
				out[i][j], start = text[start:ends[0]], ends[0]
				ends = ends[1:]
			}
		}
	}
	return out
}

// Layout renders an aligned ASCII grid: the column names, a rule, the
// preview rows' cells (at most PreviewRows of them), and a "... (n rows
// total)" line when the table holds more rows than the preview shows.
func Layout(names []string, preview [][]string, total int) string {
	var b strings.Builder
	widths := make([]int, len(names))
	for i, c := range names {
		widths[i] = len(c)
	}
	for _, r := range preview {
		for i, c := range r {
			widths[i] = max(widths[i], len(c))
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(names)
	sep := make([]string, len(names))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range preview {
		writeRow(r)
	}
	if total > len(preview) {
		fmt.Fprintf(&b, "... (%d rows total)\n", total)
	}
	return b.String()
}

// ReadCSV loads a table from CSV with a header row. Column types are
// inferred from the first non-empty cell of each column unless schema
// is non-nil, in which case it must match the header arity. Records are
// read one at a time and only those read before every column's type is
// known are held as text. Rows are carved from slabs, each with its
// capacity capped, and a string or date cell is interned per column, so
// no cell keeps its CSV line alive and a repeated value is held once.
func ReadCSV(name string, r io.Reader, schema Schema) (*Table, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("table: csv %s has no header", name)
	}
	if err != nil {
		return nil, fmt.Errorf("table: read csv: %w", err)
	}
	n := len(header)
	var untyped []int // columns whose first non-empty cell is still to come
	if schema == nil {
		schema = make(Schema, n)
		for i, h := range header {
			schema[i] = Column{Name: strings.TrimSpace(h), Type: TypeString}
			untyped = append(untyped, i)
		}
	} else if len(schema) != n {
		return nil, fmt.Errorf("%w: header has %d columns, schema %d",
			ErrSchemaMismatch, n, len(schema))
	}
	t := New(name, schema)
	var slab []Value
	words := make([]jsonx.Interner, n)
	add := func(rec []string) error {
		if len(slab) < n {
			slab = make([]Value, n*min(max(len(t.Rows), 16), 1024))
		}
		row := slab[:n:n]
		slab = slab[n:]
		for i, cell := range rec {
			v, err := Parse(schema[i].Type, cell)
			if err != nil {
				return fmt.Errorf("table: csv %s line %d: %w", name, len(t.Rows)+2, err)
			}
			if v.kind == TypeString || v.kind == TypeDate {
				v.s = words[i].InternString(v.s)
			}
			row[i] = v
		}
		t.Rows = append(t.Rows, row) // each cell is its column's kind or NULL
		return nil
	}
	var held [][]string // records read while a column is untyped
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("table: read csv: %w", err)
		}
		todo := [][]string{rec}
		if len(untyped) > 0 {
			untyped = slices.DeleteFunc(untyped, func(i int) bool {
				if strings.TrimSpace(rec[i]) == "" {
					return false
				}
				schema[i].Type = Infer(rec[i])
				return true
			})
			if held = append(held, slices.Clone(rec)); len(untyped) > 0 {
				continue
			}
			todo, held = held, nil
		}
		for _, rec := range todo {
			if err := add(rec); err != nil {
				return nil, err
			}
		}
	}
	for _, rec := range held { // a column with no non-empty cell stays a string column
		if err := add(rec); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// WriteCSV writes the table with a header row.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Schema.Names()); err != nil {
		return fmt.Errorf("table: write csv: %w", err)
	}
	var row []Value
	for r := range t.Len() {
		row = t.AppendRow(row[:0], r)
		cells := make([]string, len(row))
		for i, v := range row {
			if v.IsNull() {
				cells[i] = ""
			} else {
				cells[i] = v.String()
			}
		}
		if err := cw.Write(cells); err != nil {
			return fmt.Errorf("table: write csv: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// Catalog is a named collection of tables — the structured half of the
// heterogeneous database. It keeps one record per table (entry) and
// fills it through one function (derive), so what the planning stack
// reads beside a table — statistics, zone maps, columnar fragments,
// rollup materializations — always comes from the same rows by the same
// rule, whether the table arrived by Put, grew by Append, is a rollup's
// output or came from a snapshot. derive seals the rows it is handed
// into fragments and keeps no row: a registered table is its
// fragments. The catalog is told what changes (Put replaces, Append
// extends), it never finds out.
type Catalog struct {
	entries map[string]*entry // by lower-cased table name
	epoch   uint64
}

// entry is everything the catalog holds for one table: the registered
// table (its fragments) and what else derive computed from its rows.
type entry struct {
	table *Table
	stats *TableStats
	runs  [][]ValueCount // the per-column distinct runs stats derive from
	zones *Zones
	// ords maps each coded column's values to their table-wide ordinals
	// (ColVec.Ords), by schema column: the numbering the next Append's
	// seal carries on from. Only the sealer reads or extends it, and it
	// stays off the published Frags so those never change.
	ords []map[string]uint32
	// rollups are the rollups over this table, sorted by name; rollup is
	// set when this table is itself a rollup's materialization.
	rollups []*rollupState
	rollup  *rollupState
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{entries: make(map[string]*entry)}
}

// Put registers a table, replacing any existing table of that name,
// advances the catalog epoch, and derives everything kept beside the
// table from its first row on: statistics (stamped with the new epoch),
// zone maps, columnar fragments and the rollups over it. Put always
// means "replace", whatever pointer or rows it is handed.
//
// The catalog keeps t's cells as fragments and a copy of its schema,
// not t: Get returns a registered table with no Rows, and t stays the
// caller's. Rows are added with Append; any other change is made on
// a table of the caller's own, which is then Put.
func (c *Catalog) Put(t *Table) {
	if e := c.entries[strings.ToLower(t.Name)]; e != nil && e.rollup != nil {
		// The caller is reclaiming a rollup's name for an ordinary
		// table: deregister the rollup so its maintainer never
		// overwrites the caller's data.
		base := c.entries[strings.ToLower(e.rollup.def.Base)]
		base.rollups = slices.DeleteFunc(base.rollups, func(rs *rollupState) bool { return rs == e.rollup })
		e.rollup = nil
	}
	rows := t.RowView()
	c.maintainRollups(c.derive(&Table{Name: t.Name, Schema: slices.Clone(t.Schema)}, 0, rows), rows, 0)
}

// Append adds rows to the named table and advances the catalog epoch.
// Every row is validated as Table.Append validates it (arity, then each
// non-NULL cell's kind, an int widening into a float column) before
// anything changes: one bad row and the table, the epoch and everything
// derived are as they were. The work is O(len(rows)): statistics merge
// only the new rows, zone maps and fragments re-derive only the open
// tail fragment (sealed ones are shared), rollups fold only the new
// rows — with results bit-identical to a Put of the final rows
// (FuzzIncrementalStats, FuzzRollupMaintenance).
//
// The catalog keeps none of the rows: they are sealed into fragments,
// an int cell of a float column widened in place first. A rollup's
// materialization is maintained by the catalog and cannot be appended to.
func (c *Catalog) Append(name string, rows [][]Value) error {
	e := c.entries[strings.ToLower(name)]
	if e == nil {
		return fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	if e.rollup != nil {
		return fmt.Errorf("table: %s is the materialization of rollup %s", name, e.rollup.def)
	}
	for _, row := range rows {
		if err := e.table.Schema.conform(row); err != nil {
			return err
		}
	}
	from := e.table.Len()
	c.maintainRollups(c.derive(e.table, from, rows), rows, from)
	return nil
}

// derive is the one registration path: Put, Append, rollup
// materializations and loaded tables all pass through it. It is handed
// the rows of a table shaped as t from row from on — 0 to replace, the
// old row count to extend — derives every artifact from them and
// registers a new table that is the fragments, keeping no row.
func (c *Catalog) derive(t *Table, from int, rows [][]Value) *entry {
	key := strings.ToLower(t.Name)
	e := c.entries[key]
	if e == nil {
		e = &entry{}
		c.entries[key] = e
	}
	e.stats, e.runs = statsFrom(e.stats, e.runs, t, from, rows)
	var frags *Frags
	e.zones, frags, e.ords = fragmentsFrom(e.zones, e.table, e.ords, t, from, rows)
	e.table = &Table{Name: t.Name, Schema: t.Schema, frags: frags}
	c.epoch++
	e.stats.Epoch = c.epoch
	return e
}

// fragmentsFrom seals rows, a table shaped as t from row from on, onto
// the FragmentRows grid: one walk per column (sealCol) of each fragment
// builds its typed cells, dictionary, ordinals and zone summary.
// Fragments wholly below from are sealed — full and unchanged — and
// shared with the previous z and registered table old, whose open tail
// is sealed again from its cells followed by rows. The value→ordinal
// maps ords number the new values on from the old ones, so the open
// tail finds its earlier values under the ordinals they hold; from row
// 0 they start empty. Zones and Frags are immutable once published, so
// the result is always a fresh pair; ords is extended in place.
func fragmentsFrom(z *Zones, old *Table, ords []map[string]uint32, t *Table, from int, rows [][]Value) (*Zones, *Frags, []map[string]uint32) {
	n := from + len(rows)
	nz := &Zones{Table: t.Name, Rows: n}
	nf := &Frags{Table: t.Name, Rows: n}
	sealed := from / FragmentRows
	if sealed > 0 {
		nz.Maps, nf.Batches = z.Maps[:sealed:sealed], old.frags.Batches[:sealed:sealed]
	} else {
		ords = make([]map[string]uint32, len(t.Schema))
	}
	if sealed*FragmentRows < from {
		rows = append(old.copyRows(sealed*FragmentRows, from), rows...)
	}
	s := sealer{ords: ords}
	for start := sealed * FragmentRows; start < n; start += FragmentRows {
		end := min(start+FragmentRows, n)
		b := &Batch{Schema: t.Schema, Len: end - start, Cols: make([]ColVec, len(t.Schema))}
		zm := ZoneMap{Start: start, End: end, Cols: make([]ZoneCol, len(t.Schema))}
		at := start - sealed*FragmentRows
		for ci, col := range t.Schema {
			zm.Cols[ci] = ZoneCol{Col: col.Name, Exact: true}
			b.Cols[ci] = sealCol(rows[at:at+b.Len], ci, col, &s, &zm.Cols[ci])
		}
		nz.Maps = append(nz.Maps, zm)
		nf.Batches = append(nf.Batches, b)
	}
	s.ordinals(nf.Batches[sealed:])
	return nz, nf, ords
}

// lookup returns the named table's record, or an empty one for an
// unknown table so accessors read nil fields instead of branching.
func (c *Catalog) lookup(name string) *entry {
	if e := c.entries[strings.ToLower(name)]; e != nil {
		return e
	}
	return &entry{table: &Table{}}
}

// StatsOf returns the per-column statistics built at the named table's
// last Put, or nil for an unknown table. The returned statistics are
// shared and must not be mutated.
func (c *Catalog) StatsOf(name string) *TableStats { return c.lookup(name).stats }

// ZonesOf returns the fragment zone maps built at the named table's
// last Put, or nil for an unknown table. The returned zones are shared
// and must not be mutated.
func (c *Catalog) ZonesOf(name string) *Zones { return c.lookup(name).zones }

// FragsOf returns the columnar fragments extracted at the named
// table's last Put, or nil for an unknown table. The returned
// fragments are shared and must not be mutated.
func (c *Catalog) FragsOf(name string) *Frags { return c.lookup(name).table.frags }

// Epoch counts catalog mutations. Anything derived from catalog
// contents (physical plans, graph-evidence views) is valid only for the
// epoch it was computed at.
func (c *Catalog) Epoch() uint64 { return c.epoch }

// Get returns the named registered table, allocating nothing, or
// ErrNoTable.
func (c *Catalog) Get(name string) (*Table, error) {
	e, ok := c.entries[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	return e.table, nil
}

// Names returns registered table names, sorted.
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.entries))
	for n := range c.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of tables.
func (c *Catalog) Len() int { return len(c.entries) }
