// Package extract implements SLM-driven Relational Table Generation
// (paper Section III.C, task 1): converting free text like "Q2 sales
// increased 20%" into typed relational rows ("Quarter | Metric |
// Change"), which then feed the TableQA engine.
//
// Extraction is rule-driven over the simulated SLM's NER output: each
// Rule matches a configuration of entity types and trigger verbs
// within one sentence and emits a row for a target table. The Engine
// runs all rules over all sentences and merges the rows into a
// table.Catalog with induced schemas.
package extract

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/par"
	"repro/internal/slm"
	"repro/internal/table"
)

// Extraction is one extracted row before merging: the target table,
// the cells by column name, and provenance.
type Extraction struct {
	Table  string
	Cells  map[string]table.Value
	DocID  string
	Source string // sentence the row came from
}

// Rule matches one relational pattern in a tagged sentence.
type Rule interface {
	// Name identifies the rule for diagnostics.
	Name() string
	// Apply returns extractions found in the sentence. ents are the
	// sentence's recognized entities in offset order.
	Apply(docID, sentence string, ents []slm.Entity) []Extraction
}

// Engine runs rules over documents and accumulates typed tables.
type Engine struct {
	ner   *slm.NER
	rules []Rule
}

// NewEngine returns an engine with the given recognizer and rules.
// Pass Rules() for the built-in set.
func NewEngine(ner *slm.NER, rules ...Rule) *Engine {
	return &Engine{ner: ner, rules: rules}
}

// ExtractDoc runs every rule over every sentence of the document. It is
// safe to call from multiple goroutines: the engine's recognizer and
// rules are read-only or internally synchronized.
func (e *Engine) ExtractDoc(docID, text string) []Extraction {
	var out []Extraction
	for _, sent := range slm.SplitSentences(text) {
		ents := e.ner.Recognize(sent.Text)
		for _, r := range e.rules {
			out = append(out, r.Apply(docID, sent.Text, ents)...)
		}
	}
	return out
}

// Doc is one unstructured document queued for batch extraction.
type Doc struct {
	ID   string
	Text string
}

// ExtractDocs runs ExtractDoc over every document with up to workers
// goroutines (<= 0 means GOMAXPROCS) and concatenates the results in
// document order, so the output is identical to a sequential loop over
// ExtractDoc regardless of scheduling.
func (e *Engine) ExtractDocs(docs []Doc, workers int) []Extraction {
	perDoc := make([][]Extraction, len(docs))
	par.ForEach(len(docs), workers, func(i int) {
		perDoc[i] = e.ExtractDoc(docs[i].ID, docs[i].Text)
	})
	var out []Extraction
	for _, xs := range perDoc {
		out = append(out, xs...)
	}
	return out
}

// Merge folds extractions into the catalog, creating tables with
// induced schemas on first sight and appending rows thereafter. Rows
// are deduplicated per table on their full cell content. Columns added
// by later extractions extend the schema with NULL backfill. A table
// the catalog holds is only read here: rows reach it through
// Catalog.Append, and a new or widened table is built aside and Put
// once.
func Merge(c *table.Catalog, extractions []Extraction) error {
	// Group by table, collect the union of columns per table.
	byTable := make(map[string][]Extraction)
	var order []string
	for _, x := range extractions {
		if _, ok := byTable[x.Table]; !ok {
			order = append(order, x.Table)
		}
		byTable[x.Table] = append(byTable[x.Table], x)
	}
	sort.Strings(order)
	for _, name := range order {
		xs := byTable[name]
		cols, types := unionColumns(xs)
		tbl, err := c.Get(name)
		if err != nil {
			tbl = table.New(name, nil)
		}
		schema := tbl.Schema
		for _, col := range cols {
			if schema.ColIndex(col) < 0 {
				schema = append(slices.Clip(schema), table.Column{Name: col, Type: types[col]})
			}
		}
		replace := err != nil || len(schema) > len(tbl.Schema)
		if replace {
			var pad []table.Value
			for _, col := range schema[len(tbl.Schema):] {
				pad = append(pad, table.Null(col.Type))
			}
			wide := table.New(name, schema)
			for _, row := range tbl.Rows {
				wide.Rows = append(wide.Rows, append(slices.Clip(row), pad...))
			}
			tbl = wide
		}
		rows := make([][]table.Value, len(xs))
		for j, x := range xs {
			row := make([]table.Value, len(schema))
			for i, col := range schema {
				if v, ok := x.Cells[col.Name]; ok {
					row[i] = coerce(v, col.Type)
				} else {
					row[i] = table.Null(col.Type)
				}
			}
			rows[j] = row
		}
		rows = newRows(tbl.Rows, rows)
		// Either way the catalog epoch advances, so epoch-keyed plan and
		// index caches invalidate even when every row was a duplicate.
		if replace {
			for _, row := range rows {
				if err := tbl.Append(row); err != nil {
					return fmt.Errorf("extract: merge into %s: %w", name, err)
				}
			}
			c.Put(tbl)
		} else if err := c.Append(name, rows); err != nil {
			return fmt.Errorf("extract: merge into %s: %w", name, err)
		}
	}
	return nil
}

// unionColumns returns the sorted union of column names over the
// extractions and the dominant type per column.
func unionColumns(xs []Extraction) ([]string, map[string]table.ColType) {
	types := make(map[string]table.ColType)
	counts := make(map[string]map[table.ColType]int)
	for _, x := range xs {
		for col, v := range x.Cells {
			if counts[col] == nil {
				counts[col] = make(map[table.ColType]int)
			}
			counts[col][v.Kind()]++
		}
	}
	cols := make([]string, 0, len(counts))
	for col, byType := range counts {
		cols = append(cols, col)
		best, bestN := table.TypeString, -1
		// Deterministic winner: highest count, then widest type wins
		// ties via fixed preference order.
		for _, t := range []table.ColType{table.TypeFloat, table.TypeInt, table.TypeDate, table.TypeBool, table.TypeString} {
			if n := byType[t]; n > bestN {
				best, bestN = t, n
			}
		}
		// Mixed int/float columns widen to float.
		if byType[table.TypeInt] > 0 && byType[table.TypeFloat] > 0 {
			best = table.TypeFloat
		}
		types[col] = best
	}
	sort.Strings(cols)
	return cols, types
}

func coerce(v table.Value, t table.ColType) table.Value {
	if v.IsNull() || v.Kind() == t {
		return v
	}
	switch {
	case t == table.TypeFloat && v.Kind() == table.TypeInt:
		return table.F(v.Float())
	case t == table.TypeString:
		return table.S(v.String())
	default:
		parsed, err := table.Parse(t, v.String())
		if err != nil {
			return table.Null(t)
		}
		return parsed
	}
}

// newRows returns the rows of cand, in order, whose key — the cells'
// table.AppendKey bytes, one after another — is the key of no row of
// have and no earlier row of cand. Only the candidates' keys are kept;
// each row of have is keyed into one reused buffer and probed, so no
// key is stored per row of the table.
func newRows(have, cand [][]table.Value) [][]table.Value {
	var kb []byte
	key := func(row []table.Value) []byte {
		kb = kb[:0]
		for _, v := range row {
			kb = table.AppendKey(kb, v)
		}
		return kb
	}
	first := make(map[string]int, len(cand)) // a kept candidate's key → its index
	for i, row := range cand {
		if _, dup := first[string(key(row))]; !dup {
			first[string(kb)] = i
		}
	}
	for _, row := range have {
		if len(first) == 0 {
			break
		}
		if _, ok := first[string(key(row))]; ok {
			delete(first, string(kb))
		}
	}
	keep := make([]bool, len(cand))
	for _, i := range first {
		keep[i] = true
	}
	out := cand[:0]
	for i, row := range cand {
		if keep[i] {
			out = append(out, row)
		}
	}
	return out
}
