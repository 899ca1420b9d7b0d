// Quickstart: ingest three kinds of sources, build the index, ask two
// questions — one answered from a native table, one answered from a
// table the SLM generated out of free text.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro"
)

func main() {
	sys := unisem.New()

	// Teach the tagger the domain vocabulary.
	sys.Vocabulary(unisem.VocabProduct, "Product Alpha", "Product Beta")

	// Unstructured: customer reviews (ratings live ONLY here).
	reviews := map[string]string{
		"r1": "Customer C-1 rated Product Alpha 5 stars. Battery life was excellent.",
		"r2": "Customer C-2 rated Product Alpha 4 stars.",
		"r3": "Customer C-3 rated Product Beta 2 stars. Shipping was slow.",
	}
	for id, text := range reviews {
		if err := sys.AddDocument("reviews", id, text); err != nil {
			log.Fatal(err)
		}
	}

	// Structured: quarterly sales.
	csv := "product,quarter,revenue\n" +
		"Product Alpha,Q2,1200\nProduct Beta,Q2,800\nProduct Alpha,Q3,1500\n"
	if err := sys.AddCSV("sales", strings.NewReader(csv)); err != nil {
		log.Fatal(err)
	}

	// Semi-structured: JSON events.
	if err := sys.AddJSONLines("events", strings.NewReader(
		`{"id":"e1","product":"Product Beta","event":"return"}`)); err != nil {
		log.Fatal(err)
	}

	if err := sys.Build(); err != nil {
		log.Fatal(err)
	}
	st := sys.Stats()
	fmt.Printf("built: %d nodes, %d edges, %d extracted rows, tables: %v\n\n",
		st.Nodes, st.Edges, st.ExtractedRows, sys.Tables())

	for _, q := range []string{
		"What was the revenue of Product Alpha in Q3?", // native table
		"What is the average rating of Product Alpha?", // SLM-generated table
		"Compare total revenue for Product Alpha and Product Beta in Q2",
	} {
		ans, err := sys.Ask(q)
		if err != nil {
			log.Fatalf("%q: %v", q, err)
		}
		fmt.Printf("Q: %s\nA: %s\n   plan: %s\n   entropy: %.3f\n\n", q, ans.Text, ans.Plan(), ans.Entropy)
	}
}
