package table

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/jsonx"
)

// The on-disk form of a catalog is one JSON object,
//
//	{"tables":[{"name":…,"columns":[{"Name":…,"Type":…},…],"rows":[[…],…]},…],
//	 "rollups":[{"name":…,"base":…,"group_by":[…],"aggs":[{"func":…,"col":…,"as":…},…]},…]}
//
// followed by a newline: tables and rollups in name order, a column's
// Type its ColType number, a cell its value's String() text or null for
// NULL, "col" and "as" left out when empty, no "rollups" key when there
// are none, and null for any other empty list. Nothing derived is
// stored: statistics, zone maps, fragments and rollup materializations
// are derived on load, so they cannot disagree with the rows beside
// them. The bytes are those encoding/json's Encoder produced for the
// same records, HTML escaping included; the encoding/json pair the codec
// below replaced is the oracle in persist_reference_test.go.

// WriteJSON serializes the catalog deterministically (tables and
// rollups sorted by name). Values round-trip through their display
// strings, which is lossless for every supported type. Rollup
// materializations are not serialized as tables — only their
// definitions are, and loading re-materializes them from the base
// rows bit-identically.
func (c *Catalog) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	buf := append(make([]byte, 0, 4<<10), `{"tables":`...)
	tables := 0
	for _, name := range c.Names() {
		if _, ok := c.RollupByName(name); ok {
			continue
		}
		t, err := c.Get(name)
		if err != nil {
			return err
		}
		buf = append(buf, listSep(tables))
		tables++
		buf = append(buf, `{"name":`...)
		buf = jsonx.AppendString(buf, t.Name)
		buf = append(buf, `,"columns":`...)
		buf = appendList(buf, len(t.Schema), func(dst []byte, i int) []byte {
			dst = append(dst, `{"Name":`...)
			dst = jsonx.AppendString(dst, t.Schema[i].Name)
			dst = append(dst, `,"Type":`...)
			dst = strconv.AppendInt(dst, int64(t.Schema[i].Type), 10)
			return append(dst, '}')
		})
		buf = append(buf, `,"rows":`...)
		if len(t.Rows) == 0 {
			buf = append(buf, "null"...)
		} else {
			for r, row := range t.Rows {
				// A row is never null: a row of no cells is [].
				buf = append(buf, listSep(r), '[')
				for i, v := range row {
					if i > 0 {
						buf = append(buf, ',')
					}
					buf = appendCell(buf, v)
				}
				buf = append(buf, ']')
				if len(buf) >= 32<<10 {
					bw.Write(buf)
					buf = buf[:0]
				}
			}
			buf = append(buf, ']')
		}
		buf = append(buf, '}')
	}
	if tables == 0 {
		buf = append(buf, "null"...)
	} else {
		buf = append(buf, ']')
	}
	if defs := c.Rollups(); len(defs) > 0 {
		buf = append(buf, `,"rollups":`...)
		buf = appendList(buf, len(defs), func(dst []byte, i int) []byte { return appendRollup(dst, defs[i]) })
	}
	buf = append(buf, "}\n"...)
	bw.Write(buf)
	// A bufio.Writer keeps its first write error and returns it here.
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("table: write catalog: %w", err)
	}
	return nil
}

// listSep is what precedes element i of a JSON array.
func listSep(i int) byte {
	if i == 0 {
		return '['
	}
	return ','
}

// appendList appends n elements, each appended by elem, as a JSON array,
// or null when n is 0: encoding/json's form of a nil slice.
func appendList(dst []byte, n int, elem func(dst []byte, i int) []byte) []byte {
	if n == 0 {
		return append(dst, "null"...)
	}
	for i := range n {
		dst = elem(append(dst, listSep(i)), i)
	}
	return append(dst, ']')
}

// appendCell appends v as its String() text in a JSON string, or null
// for NULL. Only a string or date's text can need escaping.
func appendCell(dst []byte, v Value) []byte {
	switch {
	case !v.valid:
		return append(dst, "null"...)
	case v.kind == TypeString || v.kind == TypeDate:
		return jsonx.AppendString(dst, v.s)
	}
	return append(v.AppendString(append(dst, '"')), '"')
}

// appendRollup appends one rollup definition, its aggregate functions by
// their display names.
func appendRollup(dst []byte, def RollupDef) []byte {
	dst = append(dst, `{"name":`...)
	dst = jsonx.AppendString(dst, def.Name)
	dst = append(dst, `,"base":`...)
	dst = jsonx.AppendString(dst, def.Base)
	dst = append(dst, `,"group_by":`...)
	dst = appendList(dst, len(def.GroupBy), func(dst []byte, i int) []byte { return jsonx.AppendString(dst, def.GroupBy[i]) })
	dst = append(dst, `,"aggs":`...)
	dst = appendList(dst, len(def.Aggs), func(dst []byte, i int) []byte {
		a := def.Aggs[i]
		dst = append(dst, `{"func":`...)
		dst = jsonx.AppendString(dst, a.Func.String())
		if a.Col != "" {
			dst = append(dst, `,"col":`...)
			dst = jsonx.AppendString(dst, a.Col)
		}
		if a.As != "" {
			dst = append(dst, `,"as":`...)
			dst = jsonx.AppendString(dst, a.As)
		}
		return append(dst, '}')
	})
	return append(dst, '}')
}

// ReadCatalogJSON reconstructs a catalog written by WriteJSON. It reads
// the input into one buffer sized from it and decodes it in one pass:
// each table's cells go straight into Values carved from shared slabs,
// string and date cells verbatim — JSON null is the only NULL — with
// repeated text interned per column, and int, float and bool cells
// parsed once into their column's type. Every table then registers
// through the catalog's one derive path, exactly as a Put would:
// statistics, zone maps and fragments are derived from the rows, so
// planning reproduces the saved system's estimates and no estimate,
// refutation or pruning decision can depend on what a file claims;
// rollups re-materialize from their definitions. A later Append to a
// loaded table is incremental like any other.
//
// Keys are matched as encoding/json matched them, exactly or else
// case-insensitively, in any order; a key it does not know is skipped,
// as are the "stats" and "zones" keys of files from builds that stored
// them. It rejects what WriteJSON never writes and a lenient decoder
// would let pass: repeated keys, null for a name, a column or a row, an
// unknown column type, a cell that is not its column type's text,
// invalid UTF-8, unpaired surrogate escapes, and anything but whitespace
// after the object.
func ReadCatalogJSON(r io.Reader) (*Catalog, error) {
	data, err := jsonx.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("table: read catalog: %w", err)
	}
	d := &catalogDecoder{Decoder: jsonx.NewDecoder(data, "table: read catalog")}
	if err := d.document(); err != nil {
		return nil, err
	}
	c := NewCatalog()
	for _, t := range d.tables {
		c.derive(t, 0)
	}
	for _, def := range d.rollups {
		if err := c.AddRollup(def); err != nil {
			return nil, fmt.Errorf("table: read catalog rollup %s: %w", def.Name, err)
		}
	}
	return c, nil
}

// catalogDecoder is a single pass over one catalog.json.
type catalogDecoder struct {
	jsonx.Decoder
	tables  []*Table
	rollups []RollupDef

	slab  []Value          // rows are carved from it, with capped capacity
	words []jsonx.Interner // one per column position
}

// The keys of each object, spelled as the file spells them.
var (
	catalogKeys = []string{"tables", "rollups"}
	tableKeys   = []string{"name", "columns", "rows"}
	columnKeys  = []string{"Name", "Type"}
	rollupKeys  = []string{"name", "base", "group_by", "aggs"}
	aggKeys     = []string{"func", "col", "as"}
)

// field returns the one of keys that key names, matched as encoding/json
// matches a key to a field — exactly, else case-insensitively — or ""
// for a key that names none, whose value the caller skips. A key may
// name a field once.
func (d *catalogDecoder) field(seen *uint, key []byte, keys []string) (string, error) {
	for pass := range 2 {
		for i, k := range keys {
			if string(key) == k || pass == 1 && strings.EqualFold(string(key), k) {
				return k, d.Once(seen, i)
			}
		}
	}
	return "", nil
}

// text consumes a string that is kept.
func (d *catalogDecoder) text() (string, error) {
	s, err := d.Str()
	return string(s), err
}

// document consumes the whole input.
func (d *catalogDecoder) document() error {
	var seen uint
	err := d.Object(func(key []byte) error {
		switch k, err := d.field(&seen, key, catalogKeys); {
		case err != nil:
			return err
		case k == "tables":
			return d.Array(d.table)
		case k == "rollups":
			return d.Array(d.rollup)
		}
		return d.Skip()
	})
	if err != nil {
		return err
	}
	return d.End()
}

// table consumes one table object. Rows that come before the columns
// are checked for syntax and read again once the object has been.
func (d *catalogDecoder) table() error {
	t := &Table{}
	var seen uint
	columns, rowsAt := false, -1
	err := d.Object(func(key []byte) error {
		switch k, err := d.field(&seen, key, tableKeys); {
		case err != nil:
			return err
		case k == "name":
			t.Name, err = d.text()
			return err
		case k == "columns":
			columns = true
			return d.Array(func() error {
				col, err := d.column()
				t.Schema = append(t.Schema, col)
				return err
			})
		case k == "rows" && !columns:
			rowsAt = d.Pos
			return d.Skip()
		case k == "rows":
			return d.rows(t)
		}
		return d.Skip()
	})
	if err != nil {
		return err
	}
	if rowsAt >= 0 {
		end := d.Pos
		d.Pos = rowsAt
		if err := d.rows(t); err != nil {
			return err
		}
		d.Pos = end
	}
	d.tables = append(d.tables, t)
	return nil
}

// column consumes one column object.
func (d *catalogDecoder) column() (Column, error) {
	var col Column
	var seen uint
	err := d.Object(func(key []byte) error {
		switch k, err := d.field(&seen, key, columnKeys); {
		case err != nil:
			return err
		case k == "Name":
			col.Name, err = d.text()
			return err
		case k == "Type":
			n, err := d.Int()
			if err == nil && (n < int64(TypeString) || n > int64(TypeDate)) {
				err = d.Fail("unknown column type " + strconv.FormatInt(n, 10))
			}
			col.Type = ColType(n)
			return err
		}
		return d.Skip()
	})
	return col, err
}

// rows consumes t's rows. Each row is a sub-slice of d.slab with its
// capacity capped, so no row allocates and none can grow into the next.
func (d *catalogDecoder) rows(t *Table) error {
	n := len(t.Schema)
	for len(d.words) < n {
		d.words = append(d.words, jsonx.Interner{})
	}
	return d.Array(func() error {
		if len(d.slab)+n > cap(d.slab) {
			// Slabs grow with the table up to 1 024 rows, so a small
			// table wastes little and a large one allocates rarely.
			d.slab = make([]Value, 0, n*min(max(len(t.Rows), 16), 1024))
		}
		at := len(d.slab)
		row := d.slab[at : at+n : at+n]
		i := 0
		err := d.Array(func() error {
			if i == n {
				return d.arity(t)
			}
			v, err := d.cell(t.Schema[i].Type, &d.words[i])
			row[i] = v
			i++
			return err
		})
		if err == nil && i < n {
			err = d.arity(t)
		}
		d.slab = d.slab[:at+n]
		t.Rows = append(t.Rows, row)
		return err
	})
}

func (d *catalogDecoder) arity(t *Table) error {
	return fmt.Errorf("table: read catalog: offset %d: table %s row %d: %w", d.Pos, t.Name, len(t.Rows), ErrSchemaMismatch)
}

// cell consumes one cell of a column of type typ: null, or the value's
// String() text.
func (d *catalogDecoder) cell(typ ColType, words *jsonx.Interner) (Value, error) {
	if d.Null() {
		return Null(typ), nil
	}
	s, err := d.Str()
	if err != nil {
		return Value{}, err
	}
	switch typ {
	case TypeString:
		return S(words.Intern(s)), nil
	case TypeDate:
		return D(words.Intern(s)), nil
	case TypeInt:
		if n, err := strconv.ParseInt(string(s), 10, 64); err == nil {
			return I(n), nil
		}
	case TypeFloat:
		if f, err := strconv.ParseFloat(string(s), 64); err == nil {
			return F(f), nil
		}
	case TypeBool:
		if b, err := strconv.ParseBool(string(s)); err == nil {
			return B(b), nil
		}
	}
	return Value{}, d.Fail("bad " + typ.String() + " cell " + strconv.Quote(string(s)))
}

// rollup consumes one rollup definition.
func (d *catalogDecoder) rollup() error {
	var def RollupDef
	var seen uint
	err := d.Object(func(key []byte) error {
		switch k, err := d.field(&seen, key, rollupKeys); {
		case err != nil:
			return err
		case k == "name":
			def.Name, err = d.text()
			return err
		case k == "base":
			def.Base, err = d.text()
			return err
		case k == "group_by":
			return d.Array(func() error {
				col, err := d.text()
				def.GroupBy = append(def.GroupBy, col)
				return err
			})
		case k == "aggs":
			return d.Array(func() error {
				a, err := d.agg()
				def.Aggs = append(def.Aggs, a)
				return err
			})
		}
		return d.Skip()
	})
	d.rollups = append(d.rollups, def)
	return err
}

// agg consumes one aggregate, its function by display name, which it
// must have.
func (d *catalogDecoder) agg() (Agg, error) {
	var a Agg
	var seen uint
	hasFunc := false
	err := d.Object(func(key []byte) error {
		switch k, err := d.field(&seen, key, aggKeys); {
		case err != nil:
			return err
		case k == "func":
			hasFunc = true
			name, err := d.text()
			if err == nil {
				if a.Func, err = ParseAggFunc(name); err != nil {
					err = d.Fail(err.Error())
				}
			}
			return err
		case k == "col":
			a.Col, err = d.text()
			return err
		case k == "as":
			a.As, err = d.text()
			return err
		}
		return d.Skip()
	})
	if err == nil && !hasFunc {
		err = d.Fail("aggregate without a function")
	}
	return a, err
}
