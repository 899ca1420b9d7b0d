package table

// The encoding/json codec persist.go replaced, kept as the oracle the
// hand-written one is tested against. Nothing outside the tests calls it.
// Its cell rule is the one the codec keeps: JSON null is the only NULL,
// string and date cells are their text verbatim, and an int, float or
// bool cell is its column type's parse of the text.

import (
	"encoding/json"
	"fmt"
	"io"
)

// refTable is the on-disk form of one table: schema plus rows in
// display encoding, NULL as JSON null.
type refTable struct {
	Name    string      `json:"name"`
	Columns []Column    `json:"columns"`
	Rows    [][]*string `json:"rows"`
}

// refRollup is the on-disk form of one rollup definition.
type refRollup struct {
	Name    string   `json:"name"`
	Base    string   `json:"base"`
	GroupBy []string `json:"group_by"`
	Aggs    []refAgg `json:"aggs"`
}

// refAgg is the on-disk form of one aggregate, with the function
// round-tripped through its display name.
type refAgg struct {
	Func string `json:"func"`
	Col  string `json:"col,omitempty"`
	As   string `json:"as,omitempty"`
}

// refCatalog is the on-disk form of a catalog.
type refCatalog struct {
	Tables  []refTable  `json:"tables"`
	Rollups []refRollup `json:"rollups,omitempty"`
}

// refWriteJSON is Catalog.WriteJSON through encoding/json.
func refWriteJSON(c *Catalog, w io.Writer) error {
	var p refCatalog
	for _, def := range c.Rollups() {
		pr := refRollup{Name: def.Name, Base: def.Base, GroupBy: append([]string(nil), def.GroupBy...)}
		for _, a := range def.Aggs {
			pr.Aggs = append(pr.Aggs, refAgg{Func: a.Func.String(), Col: a.Col, As: a.As})
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
		pt := refTable{Name: t.Name, Columns: append([]Column(nil), t.Schema...)}
		for _, row := range t.RowView() {
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

// refCell is the reference's cell rule.
func refCell(t ColType, cell *string) (Value, error) {
	switch {
	case cell == nil:
		return Null(t), nil
	case t == TypeString:
		return S(*cell), nil
	case t == TypeDate:
		return D(*cell), nil
	}
	v, err := Parse(t, *cell)
	if err == nil && v.IsNull() {
		err = fmt.Errorf("table: empty %v cell", t)
	}
	return v, err
}

// refReadCatalogJSON is ReadCatalogJSON through encoding/json, one
// checked Append per row and the catalog's one derive path per table.
func refReadCatalogJSON(r io.Reader) (*Catalog, error) {
	var p refCatalog
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
				v, err := refCell(t.Schema[i].Type, cell)
				if err != nil {
					return nil, fmt.Errorf("table: read catalog %s row %d: %w", pt.Name, ri, err)
				}
				row[i] = v
			}
			if err := t.Append(row); err != nil {
				return nil, fmt.Errorf("table: read catalog %s row %d: %w", pt.Name, ri, err)
			}
		}
		c.derive(t, 0, t.Rows)
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
