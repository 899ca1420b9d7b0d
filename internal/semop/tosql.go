package semop

import (
	"slices"

	"repro/internal/logical"
	"repro/internal/sql"
)

// ToSQL writes the bound plan as statements in the dialect of
// internal/sql, making Semantic Operator Synthesis a genuine
// text→SQL→execution pipeline. Comparison plans write one statement
// per compared item (the dialect has no OR); callers union results.
// The per-item lowering comes from logical.CompareBranches — the same
// compare-to-grouped-filter rewrite the IR optimizer and executor use
// — so the text→SQL pipeline and the optimizer cannot drift. A plan
// the dialect cannot write (sql.Format's rules) returns an error
// wrapping sql.ErrUnsupported.
func (p *Plan) ToSQL() ([]string, error) {
	plans := []Plan{*p}
	if len(p.Comparison) > 0 && p.CompareCol != "" {
		node := &logical.Node{Op: logical.OpCompare,
			CompareCol: p.CompareCol,
			Items:      p.Comparison,
			Preds:      p.Filters,
			Aggs:       p.Aggs,
		}
		plans = plans[:0]
		for _, br := range logical.CompareBranches(node) {
			sub := *p
			sub.Comparison = nil
			sub.GroupBy = br.GroupBy
			sub.Filters = br.Preds
			plans = append(plans, sub)
		}
	}
	out := make([]string, len(plans))
	for i := range plans {
		s, err := sql.Format(plans[i].stmt())
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// stmt is the plan as one SELECT: the filters and join filters as one
// conjunction, GROUP BY only under aggregates.
func (p *Plan) stmt() *sql.Stmt {
	s := &sql.Stmt{From: p.Table,
		Wheres:  slices.Concat(p.Filters, p.JoinFilters),
		OrderBy: p.OrderBy,
		Limit:   p.LimitRows,
	}
	if len(p.Aggs) > 0 {
		s.Items = sql.Items(p.GroupBy, p.Aggs)
		s.GroupBy = p.GroupBy
	} else {
		s.Items = sql.Items(p.Columns, nil)
	}
	if p.JoinTable != "" {
		s.Join = &sql.JoinClause{Table: p.JoinTable,
			LeftCol:  p.Table + "." + p.JoinLeftCol,
			RightCol: p.JoinTable + "." + p.JoinRightCol}
	}
	return s
}
