package sql

import (
	"errors"

	"repro/internal/logical"
	"repro/internal/table"
)

// Sentinel execution errors.
var (
	ErrUnsupported = errors.New("sql: unsupported construct")
	ErrBadColumn   = errors.New("sql: unknown column")
)

// Exec parses one SELECT statement, compiles it to the shared logical
// IR, runs the rule passes (literal re-typing, pushdown, pruning) and
// executes it against the catalog with internal/logical's vectorized
// executor on one worker, so SQL and natural-language queries run
// through one algebra.
func Exec(catalog *table.Catalog, query string) (*table.Table, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	node, err := Compile(stmt, catalog)
	if err != nil {
		return nil, err
	}
	opt := logical.Optimize(node, logical.CatalogStats(catalog))
	return logical.ExecVec(opt.Root, catalog, 1)
}
