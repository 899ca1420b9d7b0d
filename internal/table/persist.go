package table

import (
	"encoding/json"
	"fmt"
	"io"
)

// persistTable is the on-disk form of one table: schema plus rows in
// display encoding (NULL as JSON null). Nothing derived is stored:
// derived on load, statistics, zone maps and fragments cannot disagree
// with the rows beside them. Files from builds that stored them carry
// "stats" and "zones" keys, which are ignored.
type persistTable struct {
	Name    string      `json:"name"`
	Columns []Column    `json:"columns"`
	Rows    [][]*string `json:"rows"`
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
		p.Tables = append(p.Tables, pt)
	}
	if err := json.NewEncoder(w).Encode(p); err != nil {
		return fmt.Errorf("table: write catalog: %w", err)
	}
	return nil
}

// ReadCatalogJSON reconstructs a catalog written by WriteJSON. Every
// table registers through the catalog's one derive path, exactly as a
// Put would: statistics, zone maps and fragments are derived from the
// rows, so planning reproduces the saved system's estimates and no
// estimate, refutation or pruning decision can depend on what a file
// claims; rollups re-materialize from their definitions. A later Append
// to a loaded table is incremental like any other. Files written now
// load in builds that stored statistics: a missing key meant "derive".
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
		c.derive(t, 0)
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
