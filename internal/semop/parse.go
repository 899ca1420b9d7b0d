// Package semop implements Semantic Operator Synthesis (paper Section
// III.C, task 2): translating a natural-language query into executable
// relational operations — aggregations, filters, group-bys, joins —
// over the catalog of structured and SLM-generated tables.
//
// The pipeline is parse → bind → compile → optimize → execute: Parse
// produces a semantic Query frame from the question; Bind resolves its
// metric and filters against a concrete table.Catalog; Compile lowers
// the bound Plan onto the shared logical IR (internal/logical), whose
// rule-based optimizer and single operator loop the SQL entry path and
// the federated planner use as well.
package semop

import (
	"strconv"
	"strings"

	"repro/internal/slm"
	"repro/internal/table"
)

// Intent is the query's top-level semantic class.
type Intent int

// Query intents.
const (
	IntentLookup    Intent = iota // point lookup / evidence question
	IntentAggregate               // SUM/AVG/COUNT/MIN/MAX over a metric
	IntentCompare                 // compare a metric across named entities
	IntentList                    // enumerate matching rows
)

// String names the intent.
func (i Intent) String() string {
	switch i {
	case IntentLookup:
		return "lookup"
	case IntentAggregate:
		return "aggregate"
	case IntentCompare:
		return "compare"
	case IntentList:
		return "list"
	default:
		return "unknown"
	}
}

// Condition is an unbound filter: a semantic field (quarter, product,
// threshold metric…) an operator and a literal. Fallbacks lists
// alternative field names tried in order when Field does not exist in
// the bound table (an ID in a question may be a patient, a service, or
// a generic id depending on the domain).
type Condition struct {
	Field     string
	Fallbacks []string
	Op        table.CmpOp
	Value     table.Value
}

// Query is the parsed semantic frame of a natural-language question.
type Query struct {
	Raw        string
	Intent     Intent
	AggFunc    table.AggFunc
	HasAgg     bool
	Metric     string       // metric word: "sales", "rating", "revenue"…
	GroupBy    string       // "by manufacturer" → "manufacturer"
	Compare    []string     // canonical entity names under comparison
	Conditions []Condition  // filters (quarter, thresholds, entities)
	Entities   []slm.Entity // all recognized entities, for anchoring
}

// aggTriggers maps surface cues to aggregate functions, checked in
// order (longest phrases first).
var aggTriggers = []struct {
	phrase string
	fn     table.AggFunc
}{
	{"how many", table.AggCount},
	{"number of", table.AggCount},
	{"count of", table.AggCount},
	{"total", table.AggSum},
	{"sum of", table.AggSum},
	{"overall", table.AggSum},
	{"average", table.AggAvg},
	{"mean", table.AggAvg},
	{"avg", table.AggAvg},
	{"highest", table.AggMax},
	{"maximum", table.AggMax},
	{"max", table.AggMax},
	{"best", table.AggMax},
	{"top", table.AggMax},
	{"lowest", table.AggMin},
	{"minimum", table.AggMin},
	{"min", table.AggMin},
	{"worst", table.AggMin},
}

// metricSynonyms maps metric words in questions to themselves (the
// binder maps them on to columns). Recognized metric vocabulary.
// Order matters: more specific metrics first, so "sales increase of
// 15%" parses as a change-metric question, not a sales question.
var metricWords = []string{
	"side effects", "increase", "decrease", "change",
	"sales", "revenue", "units", "satisfaction", "rating", "ratings",
	"stars", "effects", "patients", "orders",
	"amount", "price", "latency", "errors", "error", "treatments", "efficacy",
}

// Parse analyzes the question with the recognizer and produces its
// semantic frame. Parsing is deterministic and never fails; an
// unparseable question degrades to IntentLookup with no conditions,
// which the hybrid pipeline answers through graph retrieval alone.
func Parse(question string, ner *slm.NER) Query {
	return ParseTagged(question, ner.Recognize(question))
}

// ParseTagged is Parse for a question whose entities the caller has
// already tagged, so a caller that reads them too tags the question
// once. The frame keeps ents as its Entities.
func ParseTagged(question string, ents []slm.Entity) Query {
	q := Query{Raw: question, Intent: IntentLookup, Entities: ents}
	// The cues below read the question's first word, so surrounding
	// space must not hide it.
	lower := strings.ToLower(strings.TrimSpace(question))

	// Aggregation cue.
	for _, t := range aggTriggers {
		if strings.Contains(lower, t.phrase) {
			q.AggFunc = t.fn
			q.HasAgg = true
			q.Intent = IntentAggregate
			break
		}
	}
	// "How many units/sales/orders…" asks for a sum of a numeric
	// metric, not a row count.
	if q.HasAgg && q.AggFunc == table.AggCount {
		for _, m := range []string{"units", "sales", "orders"} {
			if strings.Contains(lower, "how many "+m) || strings.Contains(lower, "number of "+m) {
				q.AggFunc = table.AggSum
				break
			}
		}
	}

	// Comparison cue.
	if strings.HasPrefix(lower, "compare") || strings.Contains(lower, " versus ") ||
		strings.Contains(lower, " vs ") || strings.Contains(lower, " vs. ") {
		q.Intent = IntentCompare
		q.Compare = compareItems(q.Entities)
	}

	// List cue.
	if !q.HasAgg && q.Intent == IntentLookup &&
		(strings.HasPrefix(lower, "list") || strings.HasPrefix(lower, "show") ||
			strings.HasPrefix(lower, "which") || strings.HasPrefix(lower, "find all")) {
		q.Intent = IntentList
	}

	// Metric word. The question's *target* metric lives before any
	// filter clause ("average rating of products WITH A sales increase
	// of more than 15%"), so search the pre-filter segment first.
	q.Metric = findMetric(preFilterSegment(lower))
	if q.Metric == "" {
		q.Metric = findMetric(lower)
	}

	// Group-by: "by <noun>", "per <noun>", "from different <noun>s",
	// "across <noun>s".
	q.GroupBy = parseGroupBy(lower)

	// Conditions from entities and threshold phrases.
	q.Conditions = parseConditions(lower, q.Entities)

	return q
}

// filterMarkers introduce filter clauses; the metric before them is
// the query target, metrics after them are conditions.
var filterMarkers = []string{
	"with a ", "with an ", "whose ", "that had ", "which had ",
}

func preFilterSegment(lower string) string {
	cut := len(lower)
	for _, m := range filterMarkers {
		if idx := strings.Index(lower, m); idx >= 0 && idx < cut {
			cut = idx
		}
	}
	return lower[:cut]
}

func findMetric(segment string) string {
	for _, m := range metricWords {
		if strings.Contains(segment, m) {
			return normalizeMetric(m)
		}
	}
	return ""
}

func normalizeMetric(m string) string {
	switch m {
	case "ratings", "stars", "satisfaction":
		return "rating"
	case "increase", "decrease", "change":
		return "change"
	case "effects":
		return "side effects"
	}
	return m
}

// compareItems picks the entities being compared: prefer products,
// then drugs, then generic proper nouns.
func compareItems(ents []slm.Entity) []string {
	for _, prefer := range []slm.EntityType{slm.EntProduct, slm.EntDrug, slm.EntMisc, slm.EntID} {
		var items []string
		seen := map[string]bool{}
		for _, e := range ents {
			if e.Type == prefer && !seen[e.Canonical] {
				seen[e.Canonical] = true
				items = append(items, e.Canonical)
			}
		}
		if len(items) >= 2 {
			return items
		}
	}
	return nil
}

func parseGroupBy(lower string) string {
	for _, marker := range []string{"from different ", "by ", "per ", "across "} {
		idx := strings.Index(lower, marker)
		if idx < 0 {
			continue
		}
		rest := strings.Fields(lower[idx+len(marker):])
		if len(rest) == 0 {
			continue
		}
		word := strings.Trim(rest[0], "?,.;:")
		// Skip grammatical uses ("by the", "by 15%").
		if word == "the" || word == "a" || word == "an" || word == "" {
			continue
		}
		if c := word[0]; c >= '0' && c <= '9' {
			continue
		}
		return singular(word)
	}
	return ""
}

func singular(w string) string {
	if len(w) > 3 && strings.HasSuffix(w, "s") && !strings.HasSuffix(w, "ss") {
		return w[:len(w)-1]
	}
	return w
}

// thresholdPhrases map comparison wording to operators.
var thresholdPhrases = []struct {
	phrase string
	op     table.CmpOp
}{
	{"more than", table.OpGt},
	{"greater than", table.OpGt},
	{"over", table.OpGt},
	{"above", table.OpGt},
	{"at least", table.OpGe},
	{"less than", table.OpLt},
	{"under", table.OpLt},
	{"below", table.OpLt},
	{"at most", table.OpLe},
}

func parseConditions(lower string, ents []slm.Entity) []Condition {
	var out []Condition
	// Entity-derived equality filters.
	for _, e := range ents {
		switch e.Type {
		case slm.EntQuarter:
			out = append(out, Condition{
				Field: "quarter", Op: table.OpEq,
				Value: table.S(strings.ToUpper(strings.Fields(e.Canonical)[0])),
			})
		case slm.EntProduct:
			out = append(out, Condition{Field: "product", Op: table.OpEq, Value: table.S(titleCase(e.Canonical))})
		case slm.EntDrug:
			out = append(out, Condition{Field: "drug", Op: table.OpEq, Value: table.S(titleCase(e.Canonical))})
		case slm.EntID:
			out = append(out, Condition{
				Field:     "patient",
				Fallbacks: []string{"service", "customer", "id"},
				Op:        table.OpEq,
				Value:     table.S(strings.ToUpper(e.Canonical)),
			})
		case slm.EntManufacturer:
			out = append(out, Condition{Field: "manufacturer", Op: table.OpEq, Value: table.S(titleCase(e.Canonical))})
		}
	}
	// Log-level filter: "error events", "errors in". Binds only when
	// the chosen table has a level column; harmless elsewhere.
	if strings.Contains(lower, "error") {
		out = append(out, Condition{Field: "level", Op: table.OpEq, Value: table.S("error")})
	}

	// Threshold filters: "<phrase> N%" or "<phrase> N".
	for _, tp := range thresholdPhrases {
		idx := strings.Index(lower, tp.phrase)
		if idx < 0 {
			continue
		}
		rest := lower[idx+len(tp.phrase):]
		num, isPct, ok := leadingNumber(rest)
		if !ok {
			continue
		}
		field := "value"
		if isPct {
			field = "change_pct"
		}
		out = append(out, Condition{Field: field, Op: tp.op, Value: table.F(num)})
		break
	}
	return out
}

// leadingNumber parses the first numeric token of s, reporting whether
// it was a percentage.
func leadingNumber(s string) (float64, bool, bool) {
	for _, tok := range slm.Tokenize(s) {
		if tok.Kind == slm.TokenNumber {
			isPct := strings.HasSuffix(tok.Text, "%")
			f, err := strconv.ParseFloat(strings.TrimSuffix(strings.ReplaceAll(tok.Text, ",", ""), "%"), 64)
			if err != nil {
				return 0, false, false
			}
			if !isPct && strings.HasPrefix(strings.TrimSpace(s[tok.End:]), "percent") {
				isPct = true
			}
			return f, isPct, true
		}
		// Stop scanning after a few tokens; the number must be near.
		if tok.Kind == slm.TokenWord && tok.Start > 24 {
			break
		}
	}
	return 0, false, false
}

func titleCase(s string) string {
	fields := strings.Fields(s)
	for i, f := range fields {
		if len(f) > 0 {
			fields[i] = strings.ToUpper(f[:1]) + f[1:]
		}
	}
	return strings.Join(fields, " ")
}
