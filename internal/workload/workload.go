// Package workload generates the synthetic corpora and query workloads
// the experiment suite runs on. The paper evaluates on proprietary
// e-commerce and healthcare data it does not publish; these generators
// produce the same *shapes* — structured tables, semi-structured logs,
// unstructured reviews/notes — with exact ground truth attached to
// every query, which the paper's unsupervised setting lacks (see
// DESIGN.md §2 for the substitution rationale).
//
// All generation is deterministic under a seed.
package workload

import (
	"fmt"
	"strings"

	"repro/internal/slm"
	"repro/internal/store"
	"repro/internal/table"
)

// Class buckets queries by the capability they exercise — the rows of
// the Multi-Entity QA accuracy table (experiment E3).
type Class string

// Query classes.
const (
	ClassSingleLookup   Class = "single_lookup"    // one entity, structured answer
	ClassAggregate      Class = "aggregate"        // SUM/AVG/COUNT over structured data
	ClassComparative    Class = "comparative"      // compare metric across entities
	ClassCrossModal     Class = "cross_modal"      // answer only in unstructured text
	ClassCrossModalJoin Class = "cross_modal_join" // join extracted + structured facts
)

// Query is one evaluation item with its gold answer and gold evidence.
type Query struct {
	ID           string
	Text         string
	Class        Class
	Gold         string   // exact expected answer string
	GoldEvidence []string // record-level ids containing the answer
}

// GoldFact is one gold extraction row for the table-generation
// experiment (E5): the table it belongs to and its expected cells.
type GoldFact struct {
	Table string
	Cells map[string]string
}

// Corpus bundles generated sources, queries, and gold extraction facts.
type Corpus struct {
	Name      string
	Sources   *store.Multi
	Queries   []Query
	GoldFacts []GoldFact
	native    *Native
	// Vocabulary registered into a NER gazetteer by Register.
	products      []string
	manufacturers []string
	drugs         []string
	effects       []string
}

// Register adds the corpus's domain vocabulary to the recognizer — the
// lightweight domain adaptation step a real deployment would do with a
// fine-tuned tagger.
func (c *Corpus) Register(ner *slm.NER) {
	if len(c.products) > 0 {
		ner.AddGazetteer(slm.EntProduct, c.products...)
	}
	if len(c.manufacturers) > 0 {
		ner.AddGazetteer(slm.EntManufacturer, c.manufacturers...)
	}
	if len(c.drugs) > 0 {
		ner.AddGazetteer(slm.EntDrug, c.drugs...)
	}
	if len(c.effects) > 0 {
		ner.AddGazetteer(slm.EntSideEffect, c.effects...)
	}
}

// Vocab returns the corpus's domain vocabulary keyed by kind
// ("product", "manufacturer", "drug", "side_effect") — the public-API
// counterpart of Register for callers using unisem.System.
func (c *Corpus) Vocab() map[string][]string {
	out := map[string][]string{}
	if len(c.products) > 0 {
		out["product"] = append([]string(nil), c.products...)
	}
	if len(c.manufacturers) > 0 {
		out["manufacturer"] = append([]string(nil), c.manufacturers...)
	}
	if len(c.drugs) > 0 {
		out["drug"] = append([]string(nil), c.drugs...)
	}
	if len(c.effects) > 0 {
		out["side_effect"] = append([]string(nil), c.effects...)
	}
	return out
}

// DocOf normalizes a retrieved evidence id to record granularity:
// chunk ids "doc-3#2" become "doc-3"; row ids pass through.
func DocOf(id string) string {
	if idx := strings.IndexByte(id, '#'); idx >= 0 {
		return id[:idx]
	}
	return id
}

// NormalizeEvidence maps retrieved ids to record granularity and
// deduplicates, preserving order — the form gold evidence uses.
func NormalizeEvidence(ids []string) []string {
	seen := make(map[string]bool, len(ids))
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		d := DocOf(id)
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	return out
}

// Native is a corpus's native tables: the catalog of its relational
// store, which holds them as fragments, with Get returning each as its
// generator wrote it (rows, which gold is computed from).
type Native struct {
	*table.Catalog
	tables []*table.Table
}

// newNative registers the tables in cat and keeps them as written.
func newNative(cat *table.Catalog, tables ...*table.Table) *Native {
	for _, t := range tables {
		cat.Put(t)
	}
	return &Native{Catalog: cat, tables: tables}
}

// Get returns the named table as the generator wrote it.
func (n *Native) Get(name string) (*table.Table, error) {
	for _, t := range n.tables {
		if strings.EqualFold(t.Name, name) {
			return t, nil
		}
	}
	return nil, fmt.Errorf("%w: %s", table.ErrNoTable, name)
}
