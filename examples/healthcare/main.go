// Healthcare cross-modal QA: the paper's introduction scenario —
// "Compare the efficacy of Drug A (from clinical trial tables) with
// patient-reported side effects (from unstructured forums)". Trial
// results are a native structured table; side effects exist only in
// clinical notes and forum posts, and become queryable through
// SLM-driven Relational Table Generation. Evidence provenance is shown
// as graph paths.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro"
)

func main() {
	sys := unisem.New()
	sys.Vocabulary(unisem.VocabDrug, "Drug A", "Drug B")
	sys.Vocabulary(unisem.VocabSideEffect, "nausea", "fatigue", "dizziness", "headache")

	// Structured: trial results.
	if err := sys.AddCSV("trial_results", strings.NewReader(
		"drug,efficacy_pct,enrolled\nDrug A,72,40\nDrug B,55,38\n")); err != nil {
		log.Fatal(err)
	}

	// Unstructured: clinical notes.
	notes := map[string]string{
		"n1": "Patient P-1 received Drug A on 2024-02-10. Patient P-1 reported nausea.",
		"n2": "Patient P-2 received Drug A on 2024-02-12. Patient P-2 reported fatigue.",
		"n3": "Patient P-3 received Drug B on 2024-03-01. Patient P-3 reported dizziness.",
		"n4": "Patient P-4 received Drug B on 2024-03-04.",
	}
	for id, text := range notes {
		if err := sys.AddDocument("notes", id, text); err != nil {
			log.Fatal(err)
		}
	}

	// Unstructured: patient forums.
	forums := map[string]string{
		"f1": "Patients on Drug A reported nausea after the second week.",
		"f2": "Patients on Drug B reported dizziness and headache.",
	}
	for id, text := range forums {
		if err := sys.AddDocument("forums", id, text); err != nil {
			log.Fatal(err)
		}
	}

	// Semi-structured: facility config.
	if err := sys.AddXML("facilities", strings.NewReader(
		`<sites><site id="s1"><city>Metropolis</city><beds>50</beds></site></sites>`)); err != nil {
		log.Fatal(err)
	}

	if err := sys.Build(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tables after ingest: %v\n\n", sys.Tables())

	questions := []string{
		"Compare the efficacy of Drug A and Drug B",
		"Which side effects were reported for Drug A?",
		"Which side effects were reported for Drug B?",
		"How many patients received Drug A?",
	}
	for _, q := range questions {
		ans, err := sys.Ask(q)
		if err != nil {
			log.Fatalf("%q: %v", q, err)
		}
		fmt.Printf("Q: %s\nA: %s\n   plan: %s\n", q, ans.Text, ans.Plan())
		if len(ans.Evidence) > 0 {
			path := sys.ExplainEvidence(q, ans.Evidence[0].ID)
			if len(path) > 0 {
				fmt.Printf("   provenance: %s\n", strings.Join(path, " -> "))
			}
		}
		fmt.Println()
	}
}
