package table

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// ErrNoRollup is returned when a named rollup is not registered.
var ErrNoRollup = errors.New("table: unknown rollup")

// RollupDef defines a materialized rollup: a grouped aggregation over a
// base table, kept materialized as a normal catalog table under Name.
// Aggregates are restricted to the distributive/algebraic functions the
// row engine folds incrementally (COUNT, SUM, MIN, MAX, and AVG as its
// SUM+COUNT pair), which is what lets maintenance refold only appended
// rows and the optimizer route matching Aggregate subtrees onto the
// materialization.
type RollupDef struct {
	// Name is the rollup's (and its materialization's) catalog name.
	Name string
	// Base is the table the rollup aggregates.
	Base string
	// GroupBy lists the group-key columns, in materialized key order.
	// A rollup without any is global: one row, even over no base rows.
	GroupBy []string
	// Aggs lists the aggregates, in materialized column order.
	Aggs []Agg
}

// String renders the definition for errors, EXPLAIN and -stats output,
// e.g. "daily = SELECT day, COUNT(), SUM(amount) FROM sales GROUP BY day".
func (d RollupDef) String() string {
	cols := make([]string, 0, len(d.GroupBy)+len(d.Aggs))
	cols = append(cols, d.GroupBy...)
	for _, a := range d.Aggs {
		cols = append(cols, fmt.Sprintf("%s(%s)", a.Func, a.Col))
	}
	s := fmt.Sprintf("%s = SELECT %s FROM %s", d.Name, strings.Join(cols, ", "), d.Base)
	if len(d.GroupBy) > 0 {
		s += " GROUP BY " + strings.Join(d.GroupBy, ", ")
	}
	return s
}

// rollupState is the maintainer's retained state for one rollup, held
// by the base table's catalog entry (and by the materialization's own).
// acc has folded every row of the base table, which only the catalog
// changes. It is cache-shaped — derived from base-table contents — so
// it carries the epoch its materialization was registered at; staleness
// is structurally impossible because maintenance runs synchronously
// inside Put and Append, but the epoch lets introspection (and the
// epochkey analyzer) verify that.
type rollupState struct {
	def RollupDef
	// acc is the live accumulator; folding only an Append's rows into
	// it reproduces the from-scratch accumulation bit-for-bit
	// (FuzzRollupMaintenance).
	acc *AggAcc
	// epoch is the catalog epoch at which the current materialization
	// was registered.
	epoch uint64
}

// ParseAggFunc parses an aggregate function's display name ("SUM",
// "count", ...) back to its AggFunc — the inverse of AggFunc.String,
// shared by catalog persistence and the uniquery -rollup flag.
func ParseAggFunc(name string) (AggFunc, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "SUM":
		return AggSum, nil
	case "AVG":
		return AggAvg, nil
	case "COUNT":
		return AggCount, nil
	case "MIN":
		return AggMin, nil
	case "MAX":
		return AggMax, nil
	case "COUNT_MERGE":
		return AggCountMerge, nil
	}
	return 0, fmt.Errorf("table: unknown aggregate function %q", name)
}

// rollupFuncOK reports whether f may appear in a rollup definition.
// AggCountMerge is excluded: it exists only as the routing pass's
// re-aggregation function over already-materialized counts.
func rollupFuncOK(f AggFunc) bool {
	switch f {
	case AggSum, AggAvg, AggCount, AggMin, AggMax:
		return true
	}
	return false
}

// AddRollup validates def against the current catalog, materializes it
// from the base table's rows, and registers the materialization as a
// normal table (gaining statistics, zone maps and columnar fragments
// like any other Put). From then on every change to the base table
// re-materializes it: an Append folds the new rows into the retained
// accumulator, a Put refolds from scratch, deterministically.
func (c *Catalog) AddRollup(def RollupDef) error {
	if def.Name == "" {
		return errors.New("table: rollup needs a name")
	}
	if _, ok := c.entries[strings.ToLower(def.Name)]; ok {
		return fmt.Errorf("table: rollup %s collides with existing table", def.Name)
	}
	base, ok := c.entries[strings.ToLower(def.Base)]
	if !ok {
		return fmt.Errorf("%w: %s (rollup %s base)", ErrNoTable, def.Base, def.Name)
	}
	if base.rollup != nil {
		return fmt.Errorf("table: rollup %s cannot use rollup %s as base", def.Name, def.Base)
	}
	if len(def.Aggs) == 0 {
		return fmt.Errorf("table: rollup %s needs at least one aggregate", def.Name)
	}
	for _, a := range def.Aggs {
		if !rollupFuncOK(a.Func) {
			return fmt.Errorf("table: rollup %s: %s is not distributive/algebraic", def.Name, a.Func)
		}
	}
	outSchema := AggregateSchema(base.table.Schema, def.GroupBy, def.Aggs)
	seen := make(map[string]bool, len(outSchema))
	for _, col := range outSchema {
		n := strings.ToLower(col.Name)
		if seen[n] {
			return fmt.Errorf("table: rollup %s: duplicate output column %s", def.Name, col.Name)
		}
		seen[n] = true
	}
	rs := &rollupState{def: def, acc: new(AggAcc)}
	if err := rs.acc.Init(base.table.Schema, nil, def.GroupBy, def.Aggs); err != nil {
		return fmt.Errorf("table: rollup %s: %w", def.Name, err)
	}
	// By key, so that an Append's rows fold into the same groups later.
	rs.acc.foldBatches(base.table.frags.Batches, nil, false)
	out := rs.acc.Emit(def.Name)
	mat := c.derive(out, 0, out.Rows)
	mat.rollup, rs.epoch = rs, c.epoch
	base.rollups = append(base.rollups, rs)
	slices.SortFunc(base.rollups, func(a, b *rollupState) int {
		return strings.Compare(strings.ToLower(a.def.Name), strings.ToLower(b.def.Name))
	})
	return nil
}

// maintainRollups re-materializes, in sorted name order, every rollup
// over e's table after derive ran on it with rows from row from on:
// each folds those rows. Folding from row 0 starts over with an empty
// accumulator made against the schema the table has now, which yields
// the materialization an Append-grown accumulator holds bit for bit.
// When the new schema can no longer satisfy a rollup (a group or
// aggregate column vanished) the rollup is deregistered and its
// materialization dropped, advancing the epoch so cached plans that
// routed onto it are invalidated.
func (c *Catalog) maintainRollups(e *entry, rows [][]Value, from int) {
	kept := e.rollups[:0]
	for _, rs := range e.rollups {
		if from == 0 {
			acc := new(AggAcc)
			if err := acc.Init(e.table.Schema, nil, rs.def.GroupBy, rs.def.Aggs); err != nil {
				delete(c.entries, strings.ToLower(rs.def.Name))
				c.epoch++
				continue
			}
			rs.acc = acc
		}
		rs.acc.Fold(rows)
		out := rs.acc.Emit(rs.def.Name)
		c.derive(out, 0, out.Rows)
		rs.epoch = c.epoch
		kept = append(kept, rs)
	}
	clear(e.rollups[len(kept):])
	e.rollups = kept
}

// Rollups returns every registered rollup definition, sorted by name.
func (c *Catalog) Rollups() []RollupDef {
	names := c.RollupNames()
	out := make([]RollupDef, len(names))
	for i, name := range names {
		out[i] = c.entries[name].rollup.def
	}
	return out
}

// RollupNames returns registered rollup names, sorted.
func (c *Catalog) RollupNames() []string {
	names := []string{}
	for name, e := range c.entries {
		if e.rollup != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// RollupByName returns the named rollup's definition.
func (c *Catalog) RollupByName(name string) (RollupDef, bool) {
	rs := c.lookup(name).rollup
	if rs == nil {
		return RollupDef{}, false
	}
	return rs.def, true
}

// RollupsFor returns the definitions of every rollup over the named
// base table, sorted by rollup name.
func (c *Catalog) RollupsFor(base string) []RollupDef {
	rollups := c.lookup(base).rollups
	out := make([]RollupDef, len(rollups))
	for i, rs := range rollups {
		out[i] = rs.def
	}
	return out
}

// DescribeRollup renders one registered rollup — definition, current
// materialized row count, and the epoch its materialization was
// registered at — or ErrNoRollup.
func (c *Catalog) DescribeRollup(name string) (string, error) {
	e := c.lookup(name)
	if e.rollup == nil {
		return "", fmt.Errorf("%w: %s", ErrNoRollup, name)
	}
	return fmt.Sprintf("rollup %s rows=%d epoch=%d", e.rollup.def, e.table.Len(), e.rollup.epoch), nil
}
