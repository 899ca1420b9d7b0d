package semop

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/logical"
	"repro/internal/table"
)

// Sentinel errors from binding and execution.
var (
	ErrNoBinding = errors.New("semop: no table binding for query")
	ErrEmptyPlan = errors.New("semop: empty plan")
)

// Plan is an executable logical plan bound to a catalog.
type Plan struct {
	Table      string
	MetricCol  string // numeric column the query targets ("" for list)
	Filters    []table.Pred
	GroupBy    []string
	Aggs       []table.Agg
	OrderBy    []table.SortKey
	LimitRows  int      // 0 = no limit
	Columns    []string // projection ("" = all)
	Comparison []string // compare values for the compare intent
	CompareCol string   // column holding the compared entity

	// Synthesized join, for conditions that live in another table
	// ("average rating of products with a sales increase over 15%"
	// joins ratings with metric_changes on product).
	JoinTable    string
	JoinLeftCol  string
	JoinRightCol string
	JoinFilters  []table.Pred
}

// String renders the plan as a readable operator pipeline, the
// "explain" output of the synthesized semantic operators.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scan(%s)", p.Table)
	if p.JoinTable != "" {
		fmt.Fprintf(&b, " -> Join(%s on %s=%s)", p.JoinTable, p.JoinLeftCol, p.JoinRightCol)
		for _, f := range p.JoinFilters {
			fmt.Fprintf(&b, " -> Filter(%s)", f)
		}
	}
	for _, f := range p.Filters {
		fmt.Fprintf(&b, " -> Filter(%s)", f)
	}
	if len(p.Aggs) > 0 {
		names := make([]string, len(p.Aggs))
		for i, a := range p.Aggs {
			names[i] = fmt.Sprintf("%s(%s)", a.Func, a.Col)
		}
		fmt.Fprintf(&b, " -> Aggregate(group=%v, %s)", p.GroupBy, strings.Join(names, ","))
	}
	if len(p.OrderBy) > 0 {
		fmt.Fprintf(&b, " -> Sort(%s)", p.OrderBy[0].Col)
	}
	if p.LimitRows > 0 {
		fmt.Fprintf(&b, " -> Limit(%d)", p.LimitRows)
	}
	if len(p.Columns) > 0 {
		fmt.Fprintf(&b, " -> Project(%s)", strings.Join(p.Columns, ","))
	}
	return b.String()
}

// metricBindings maps metric words to candidate (table, column) pairs,
// most specific first. The binder falls back to schema search when no
// candidate matches the live catalog.
var metricBindings = map[string][][2]string{
	"sales":        {{"product_sales", "units"}, {"sales", "revenue"}, {"sales", "units"}, {"revenues", "amount_usd"}},
	"units":        {{"product_sales", "units"}, {"sales", "units"}},
	"revenue":      {{"revenues", "amount_usd"}, {"sales", "revenue"}},
	"amount":       {{"revenues", "amount_usd"}},
	"rating":       {{"ratings", "stars"}, {"reviews", "stars"}, {"reviews", "rating"}},
	"change":       {{"metric_changes", "change_pct"}},
	"side effects": {{"side_effects", "effect"}},
	"error":        {{"logs", "level"}, {"events", "level"}},
	"patients":     {{"treatments", "patient"}, {"patients", "patient"}},
	"treatments":   {{"treatments", "drug"}},
	"orders":       {{"orders", "units"}, {"product_sales", "units"}},
	"price":        {{"products", "price"}},
	"latency":      {{"logs", "latency_ms"}},
	"errors":       {{"logs", "level"}},
	"efficacy":     {{"trial_results", "efficacy_pct"}, {"trials", "efficacy"}},
}

// Bind resolves the parsed query against the catalog, producing an
// executable plan. Binding fails with ErrNoBinding when no table can
// answer the query — exactly the failure mode the paper ascribes to
// Text-to-SQL over unstructured-only corpora.
func Bind(q Query, c *table.Catalog) (*Plan, error) {
	tbl, col, err := bindMetric(q, c)
	if err != nil {
		return nil, err
	}
	p := &Plan{Table: tbl.Name, MetricCol: col}

	// Conditions that name a column of the bound table become filters;
	// conditions that live in another table trigger join synthesis.
	for _, cond := range q.Conditions {
		field := cond.Field
		if field == "value" {
			field = col // thresholds on the bare metric
		}
		if tbl.Schema.ColIndex(field) < 0 {
			for _, alt := range cond.Fallbacks {
				if tbl.Schema.ColIndex(alt) >= 0 {
					field = alt
					break
				}
			}
		}
		if idx := tbl.Schema.ColIndex(field); idx >= 0 {
			// Re-type the literal against the bound column (shared with
			// the SQL entry path and the IR constant-folding rule), so a
			// textual threshold filters a numeric column numerically.
			val := table.CoerceTo(tbl.Schema[idx].Type, cond.Value)
			p.Filters = append(p.Filters, table.Pred{Col: field, Op: cond.Op, Val: val})
			continue
		}
		bindJoinCondition(p, tbl, c, table.Pred{Col: field, Op: cond.Op, Val: cond.Value})
	}

	switch q.Intent {
	case IntentAggregate:
		fn := q.AggFunc
		aggCol := col
		if fn == table.AggCount {
			aggCol = ""
		}
		p.Aggs = []table.Agg{{Func: fn, Col: aggCol, As: "result"}}
		if q.GroupBy != "" {
			if gcol := resolveGroupCol(tbl, q.GroupBy); gcol != "" {
				p.GroupBy = []string{gcol}
			}
		}
	case IntentCompare:
		p.Comparison = append([]string(nil), q.Compare...)
		p.CompareCol = compareColumn(tbl)
		if p.CompareCol != "" {
			p.GroupBy = []string{p.CompareCol}
			fn := table.AggAvg
			if q.HasAgg {
				fn = q.AggFunc
			}
			p.Aggs = []table.Agg{{Func: fn, Col: col, As: "result"}}
			// Keep only the compared entities.
			comparePreds(p, q)
		}
	case IntentList:
		p.LimitRows = 50
	default:
		p.LimitRows = 10
	}
	return p, nil
}

// comparePreds narrows a compare plan to its compared entities. A
// single Filter conjunction cannot express OR, so comparison executes
// per item and unions (see Exec); here we only record the items.
func comparePreds(p *Plan, q Query) {
	// Drop entity equality filters that conflict with comparison —
	// each compared item is applied separately during Exec.
	var kept []table.Pred
	for _, f := range p.Filters {
		if f.Col == p.CompareCol {
			continue
		}
		kept = append(kept, f)
	}
	p.Filters = kept
}

func bindMetric(q Query, c *table.Catalog) (*table.Table, string, error) {
	if q.Metric != "" {
		if cands, ok := metricBindings[q.Metric]; ok {
			for _, cand := range cands {
				if tbl, err := c.Get(cand[0]); err == nil && tbl.Schema.ColIndex(cand[1]) >= 0 {
					return tbl, cand[1], nil
				}
			}
		}
		// Schema search: exact column match, then a column whose name
		// starts with the metric word ("latency" → "latency_ms"), then
		// a table whose name contains the metric word.
		for _, name := range c.Names() {
			tbl, err := c.Get(name)
			if err != nil {
				continue
			}
			if idx := tbl.Schema.ColIndex(q.Metric); idx >= 0 {
				return tbl, tbl.Schema[idx].Name, nil
			}
		}
		for _, name := range c.Names() {
			tbl, err := c.Get(name)
			if err != nil {
				continue
			}
			for _, col := range tbl.Schema {
				if strings.HasPrefix(strings.ToLower(col.Name), strings.ToLower(q.Metric)) {
					return tbl, col.Name, nil
				}
			}
			if strings.Contains(name, strings.ReplaceAll(q.Metric, " ", "_")) {
				if col := firstNumericCol(tbl); col != "" {
					return tbl, col, nil
				}
			}
		}
	}
	// Entity-driven fallback: choose the table with the most matching
	// filterable columns.
	var best *table.Table
	bestScore := 0
	for _, name := range c.Names() {
		tbl, err := c.Get(name)
		if err != nil {
			continue
		}
		score := 0
		for _, cond := range q.Conditions {
			if tbl.Schema.ColIndex(cond.Field) >= 0 {
				score++
			}
		}
		if score > bestScore {
			best, bestScore = tbl, score
		}
	}
	if best != nil {
		col := firstNumericCol(best)
		if col == "" && len(best.Schema) > 0 {
			col = best.Schema[len(best.Schema)-1].Name
		}
		return best, col, nil
	}
	return nil, "", fmt.Errorf("%w: metric=%q conditions=%d catalog=%v",
		ErrNoBinding, q.Metric, len(q.Conditions), c.Names())
}

func firstNumericCol(t *table.Table) string {
	for _, c := range t.Schema {
		if c.Type == table.TypeInt || c.Type == table.TypeFloat {
			return c.Name
		}
	}
	return ""
}

func resolveGroupCol(t *table.Table, word string) string {
	if idx := t.Schema.ColIndex(word); idx >= 0 {
		return t.Schema[idx].Name
	}
	// Common synonyms.
	synonyms := map[string][]string{
		"manufacturer": {"maker", "brand", "vendor"},
		"maker":        {"manufacturer", "brand"},
		"product":      {"product", "item"},
		"quarter":      {"quarter", "period"},
		"drug":         {"drug", "medication"},
		"patient":      {"patient"},
		"region":       {"region", "area"},
	}
	for _, s := range synonyms[word] {
		if idx := t.Schema.ColIndex(s); idx >= 0 {
			return t.Schema[idx].Name
		}
	}
	return ""
}

// compareColumn picks the column holding compared entity names.
func compareColumn(t *table.Table) string {
	for _, name := range []string{"product", "drug", "item", "name", "patient"} {
		if t.Schema.ColIndex(name) >= 0 {
			return name
		}
	}
	// First string column.
	for _, c := range t.Schema {
		if c.Type == table.TypeString {
			return c.Name
		}
	}
	return ""
}

// bindJoinCondition tries to satisfy a condition through a join: find
// another table holding the condition's column that shares a key
// column with the main table ("product", "drug", "patient", "quarter"
// or any common column name). First match wins, deterministically by
// table name.
func bindJoinCondition(p *Plan, main *table.Table, c *table.Catalog, pred table.Pred) {
	if p.JoinTable != "" {
		// One synthesized join per plan; extra conditions go to the
		// same join when the column matches.
		other, err := c.Get(p.JoinTable)
		if err == nil {
			if idx := other.Schema.ColIndex(pred.Col); idx >= 0 {
				pred.Val = table.CoerceTo(other.Schema[idx].Type, pred.Val)
				p.JoinFilters = append(p.JoinFilters, pred)
			}
		}
		return
	}
	for _, name := range c.Names() {
		if strings.EqualFold(name, main.Name) {
			continue
		}
		other, err := c.Get(name)
		if err != nil {
			continue
		}
		idx := other.Schema.ColIndex(pred.Col)
		if idx < 0 {
			continue
		}
		left, right := joinKey(main, other)
		if left == "" {
			continue
		}
		p.JoinTable = other.Name
		p.JoinLeftCol = left
		p.JoinRightCol = right
		pred.Val = table.CoerceTo(other.Schema[idx].Type, pred.Val)
		p.JoinFilters = append(p.JoinFilters, pred)
		return
	}
}

// joinKey picks the join key column pair shared by two tables.
func joinKey(a, b *table.Table) (string, string) {
	for _, key := range []string{"product", "drug", "patient", "quarter", "id", "name"} {
		if a.Schema.ColIndex(key) >= 0 && b.Schema.ColIndex(key) >= 0 {
			return key, key
		}
	}
	for _, col := range a.Schema {
		if b.Schema.ColIndex(col.Name) >= 0 {
			return col.Name, col.Name
		}
	}
	return "", ""
}

// Exec runs the plan against the catalog on internal/logical's
// vectorized executor (one worker), the algebra the SQL entry and the
// federated planner use. It skips the rule passes, because Bind already
// re-typed every literal; the serving paths (Hybrid.Answer/Query, the
// federated Executor) optimize and cache physical plans. The
// text-to-SQL baseline runs its join plans through it.
func Exec(p *Plan, c *table.Catalog) (*table.Table, error) {
	if p == nil {
		return nil, ErrEmptyPlan
	}
	return logical.ExecVec(Compile(p), c, 1)
}
