package table

import (
	"encoding/json"
	"fmt"
	"io"
)

// persistTable is the on-disk form of one table: schema plus rows in
// display encoding (NULL as JSON null), plus the per-column statistics
// built at its last Put, so a loaded catalog plans with the same
// estimates it was saved with without paying the build's sort again.
// Nothing else derived is stored: zone maps and fragments are cheap to
// derive and, derived, cannot disagree with the rows beside them.
// Files written when zone maps were stored carry a "zones" key, which
// is ignored.
type persistTable struct {
	Name    string         `json:"name"`
	Columns []Column       `json:"columns"`
	Rows    [][]*string    `json:"rows"`
	Stats   []persistStats `json:"stats,omitempty"`
}

// persistStats is the on-disk form of one column's statistics. Values
// round-trip through their display strings, typed by the column they
// belong to.
type persistStats struct {
	Col   string          `json:"col"`
	Rows  int             `json:"rows"`
	Nulls int             `json:"nulls,omitempty"`
	NDV   int             `json:"ndv"`
	Min   *string         `json:"min,omitempty"`
	Max   *string         `json:"max,omitempty"`
	Hist  []persistBucket `json:"hist,omitempty"`
	Exact []persistCount  `json:"exact,omitempty"`
}

type persistBucket struct {
	Lower string `json:"lo"`
	Upper string `json:"hi"`
	Count int    `json:"n"`
	NDV   int    `json:"ndv"`
}

type persistCount struct {
	Val   string `json:"v"`
	Count int    `json:"n"`
}

// persistRollup is the on-disk form of one rollup definition. Only the
// definition is serialized: the materialization (like columnar
// fragments) is derived data, deterministically rebuilt from the base
// table at load.
type persistRollup struct {
	Name    string       `json:"name"`
	Base    string       `json:"base"`
	GroupBy []string     `json:"group_by"`
	Aggs    []persistAgg `json:"aggs"`
}

// persistAgg is the on-disk form of one aggregate, with the function
// round-tripped through its display name.
type persistAgg struct {
	Func string `json:"func"`
	Col  string `json:"col,omitempty"`
	As   string `json:"as,omitempty"`
}

// persistCatalog is the on-disk form of a catalog.
type persistCatalog struct {
	Tables  []persistTable  `json:"tables"`
	Rollups []persistRollup `json:"rollups,omitempty"`
}

// WriteJSON serializes the catalog deterministically (tables and
// rollups sorted by name). Values round-trip through their display
// strings, which is lossless for every supported type. Rollup
// materializations are not serialized as tables — only their
// definitions are, and loading re-materializes them from the base
// rows bit-identically.
func (c *Catalog) WriteJSON(w io.Writer) error {
	var p persistCatalog
	for _, def := range c.Rollups() {
		pr := persistRollup{Name: def.Name, Base: def.Base, GroupBy: append([]string(nil), def.GroupBy...)}
		for _, a := range def.Aggs {
			pr.Aggs = append(pr.Aggs, persistAgg{Func: a.Func.String(), Col: a.Col, As: a.As})
		}
		p.Rollups = append(p.Rollups, pr)
	}
	for _, name := range c.Names() {
		if _, ok := c.RollupByName(name); ok {
			continue
		}
		t, err := c.Get(name)
		if err != nil {
			return err
		}
		pt := persistTable{Name: t.Name, Columns: append([]Column(nil), t.Schema...)}
		for _, row := range t.Rows {
			pr := make([]*string, len(row))
			for i, v := range row {
				if v.IsNull() {
					continue
				}
				s := v.String()
				pr[i] = &s
			}
			pt.Rows = append(pt.Rows, pr)
		}
		pt.Stats = persistTableStats(c.StatsOf(name))
		p.Tables = append(p.Tables, pt)
	}
	if err := json.NewEncoder(w).Encode(p); err != nil {
		return fmt.Errorf("table: write catalog: %w", err)
	}
	return nil
}

func persistTableStats(ts *TableStats) []persistStats {
	if ts == nil {
		return nil
	}
	out := make([]persistStats, len(ts.Cols))
	for i, cs := range ts.Cols {
		ps := persistStats{Col: cs.Col, Rows: cs.Rows, Nulls: cs.Nulls, NDV: cs.NDV}
		if !cs.Min.IsNull() {
			s := cs.Min.String()
			ps.Min = &s
		}
		if !cs.Max.IsNull() {
			s := cs.Max.String()
			ps.Max = &s
		}
		for _, b := range cs.Hist {
			ps.Hist = append(ps.Hist, persistBucket{
				Lower: b.Lower.String(), Upper: b.Upper.String(), Count: b.Count, NDV: b.NDV,
			})
		}
		for _, vc := range cs.Exact {
			ps.Exact = append(ps.Exact, persistCount{Val: vc.Val.String(), Count: vc.Count})
		}
		out[i] = ps
	}
	return out
}

// ReadCatalogJSON reconstructs a catalog written by WriteJSON. Every
// table registers through the catalog's one derive path, exactly as a
// Put would: serialized statistics are restored (files written before
// they existed rebuild them) so planning reproduces the saved system's
// estimates; zone maps and fragments are derived from the rows, so
// pruning decisions cannot depend on what a file claims; rollups
// re-materialize from their definitions. A later Append to a loaded
// table is incremental like any other, except that its statistics
// rebuild once — the distinct runs they merge into are not in the
// snapshot.
func ReadCatalogJSON(r io.Reader) (*Catalog, error) {
	var p persistCatalog
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("table: read catalog: %w", err)
	}
	c := NewCatalog()
	for _, pt := range p.Tables {
		t := New(pt.Name, append(Schema(nil), pt.Columns...))
		for ri, pr := range pt.Rows {
			if len(pr) != len(t.Schema) {
				return nil, fmt.Errorf("table: read catalog %s row %d: %w", pt.Name, ri, ErrSchemaMismatch)
			}
			row := make([]Value, len(pr))
			for i, cell := range pr {
				if cell == nil {
					row[i] = Null(t.Schema[i].Type)
					continue
				}
				v, err := Parse(t.Schema[i].Type, *cell)
				if err != nil {
					return nil, fmt.Errorf("table: read catalog %s row %d: %w", pt.Name, ri, err)
				}
				row[i] = v
			}
			if err := t.Append(row); err != nil {
				return nil, fmt.Errorf("table: read catalog %s row %d: %w", pt.Name, ri, err)
			}
		}
		var stored *TableStats
		if pt.Stats != nil {
			ts, err := parseTableStats(t, pt.Stats)
			if err != nil {
				return nil, fmt.Errorf("table: read catalog %s: %w", pt.Name, err)
			}
			stored = ts
		}
		c.derive(t, 0, stored)
	}
	for _, pr := range p.Rollups {
		def := RollupDef{Name: pr.Name, Base: pr.Base, GroupBy: append([]string(nil), pr.GroupBy...)}
		for _, pa := range pr.Aggs {
			fn, err := ParseAggFunc(pa.Func)
			if err != nil {
				return nil, fmt.Errorf("table: read catalog rollup %s: %w", pr.Name, err)
			}
			def.Aggs = append(def.Aggs, Agg{Func: fn, Col: pa.Col, As: pa.As})
		}
		if err := c.AddRollup(def); err != nil {
			return nil, fmt.Errorf("table: read catalog rollup %s: %w", pr.Name, err)
		}
	}
	return c, nil
}

func parseTableStats(t *Table, cols []persistStats) (*TableStats, error) {
	ts := &TableStats{Table: t.Name, Rows: t.Len(), Cols: make([]ColStats, len(cols))}
	for i, ps := range cols {
		ci := t.Schema.ColIndex(ps.Col)
		if ci < 0 {
			return nil, fmt.Errorf("stats for unknown column %s: %w", ps.Col, ErrNoColumn)
		}
		typ := t.Schema[ci].Type
		cs := ColStats{Col: ps.Col, Rows: ps.Rows, Nulls: ps.Nulls, NDV: ps.NDV}
		var err error
		if cs.Min, err = parseStatValue(typ, ps.Min); err != nil {
			return nil, err
		}
		if cs.Max, err = parseStatValue(typ, ps.Max); err != nil {
			return nil, err
		}
		for _, pb := range ps.Hist {
			lo, err := Parse(typ, pb.Lower)
			if err != nil {
				return nil, err
			}
			hi, err := Parse(typ, pb.Upper)
			if err != nil {
				return nil, err
			}
			cs.Hist = append(cs.Hist, Bucket{Lower: lo, Upper: hi, Count: pb.Count, NDV: pb.NDV})
		}
		for _, pc := range ps.Exact {
			v, err := Parse(typ, pc.Val)
			if err != nil {
				return nil, err
			}
			cs.Exact = append(cs.Exact, ValueCount{Val: v, Count: pc.Count})
		}
		ts.Cols[i] = cs
	}
	return ts, nil
}

func parseStatValue(typ ColType, s *string) (Value, error) {
	if s == nil {
		return Null(typ), nil
	}
	return Parse(typ, *s)
}
