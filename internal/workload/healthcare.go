package workload

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/slm"
	"repro/internal/store"
	"repro/internal/table"
)

// HealthcareOptions sizes the healthcare corpus (the paper's intro
// scenario: clinical trial tables plus unstructured patient notes and
// forum posts).
type HealthcareOptions struct {
	Drugs             int     // number of drugs (>= 2)
	PatientsPerDrug   int     // treated patients per drug (>= 1)
	EffectsPerDrug    int     // distinct side effects per drug, 1..4
	ForumPostsPerDrug int     // forum documents per drug
	Noise             float64 // [0,1] distractor fraction
	Seed              uint64
}

// DefaultHealthcareOptions returns a laptop-scale corpus.
func DefaultHealthcareOptions() HealthcareOptions {
	return HealthcareOptions{Drugs: 4, PatientsPerDrug: 5, EffectsPerDrug: 2, ForumPostsPerDrug: 2, Noise: 0.2, Seed: 77}
}

// Healthcare generates the clinical corpus: a native trial-results
// table, unstructured clinical notes ("Patient P-7 received Drug B on
// 2024-03-05") and patient forums ("Patients on Drug B reported
// dizziness and fatigue"), XML facility configs, and a query workload.
func Healthcare(opts HealthcareOptions) *Corpus {
	if opts.Drugs < 2 {
		opts.Drugs = 2
	}
	if opts.PatientsPerDrug < 1 {
		opts.PatientsPerDrug = 1
	}
	if opts.EffectsPerDrug < 1 {
		opts.EffectsPerDrug = 1
	}
	if opts.EffectsPerDrug > 4 {
		opts.EffectsPerDrug = 4
	}
	rng := slm.NewRNG(opts.Seed)
	c := &Corpus{Name: "healthcare"}

	cat := table.NewCatalog()
	trials := table.New("trial_results", table.Schema{
		{Name: "drug", Type: table.TypeString},
		{Name: "efficacy_pct", Type: table.TypeFloat},
		{Name: "enrolled", Type: table.TypeInt},
	})

	notes := store.NewTextStore("notes")
	forums := store.NewTextStore("forums")

	type drug struct {
		name     string
		efficacy float64
		patients []string
		effects  []string
		trialRow int
	}
	drugs := make([]*drug, opts.Drugs)
	patientCounter := 0

	for i := range drugs {
		d := &drug{
			name:     drugName(i),
			efficacy: float64(40 + rng.Intn(55)),
			trialRow: i,
		}
		drugs[i] = d
		c.drugs = append(c.drugs, d.name)
		trials.MustAppend([]table.Value{
			table.S(d.name), table.F(d.efficacy), table.I(int64(opts.PatientsPerDrug)),
		})

		// Assign side effects deterministically.
		for e := 0; e < opts.EffectsPerDrug; e++ {
			d.effects = append(d.effects, sideEffectNames[(i*3+e)%len(sideEffectNames)])
		}

		// Clinical notes: one per patient, treatment + reported effect.
		for p := 0; p < opts.PatientsPerDrug; p++ {
			patientCounter++
			pid := fmt.Sprintf("P-%d", patientCounter)
			d.patients = append(d.patients, pid)
			date := fmt.Sprintf("2024-%02d-%02d", 1+rng.Intn(12), 1+rng.Intn(28))
			text := fmt.Sprintf("Patient %s received %s on %s.", pid, d.name, date)
			effect := d.effects[p%len(d.effects)]
			text += fmt.Sprintf(" Patient %s reported %s.", pid, effect)
			if rng.Float64() < opts.Noise {
				text += " " + noiseSentences[rng.Intn(len(noiseSentences))] + "."
			}
			notes.Add(fmt.Sprintf("note-%d-%d", i, p), text)
			c.GoldFacts = append(c.GoldFacts,
				GoldFact{Table: "treatments", Cells: map[string]string{
					"patient": pid, "drug": d.name, "date": date,
				}},
				GoldFact{Table: "side_effects", Cells: map[string]string{
					"patient": pid, "effect": effect,
				}})
		}

		// Forum posts: aggregate side-effect mentions without patient
		// ids. At least one post per distinct effect so the forum rows
		// cover the drug's full effect profile.
		numForum := opts.ForumPostsPerDrug
		if numForum < len(d.effects) {
			numForum = len(d.effects)
		}
		for f := 0; f < numForum; f++ {
			eff := d.effects[f%len(d.effects)]
			text := fmt.Sprintf("Patients on %s reported %s.", d.name, eff)
			forums.Add(fmt.Sprintf("forum-%d-%d", i, f), text)
			c.GoldFacts = append(c.GoldFacts, GoldFact{
				Table: "side_effects", Cells: map[string]string{
					"drug": d.name, "effect": eff,
				}})
		}
	}
	c.effects = append(c.effects, sideEffectNames...)

	// XML facility configuration (semi-structured source).
	xmlStore := store.NewXMLStore("facilities")
	var xb strings.Builder
	xb.WriteString("<facilities>")
	for i := 0; i < 3; i++ {
		fmt.Fprintf(&xb, `<site id="site%d"><city>City %d</city><beds>%d</beds></site>`, i+1, i+1, 40+10*i)
	}
	xb.WriteString("</facilities>")
	if err := xmlStore.Load(strings.NewReader(xb.String())); err != nil {
		panic(fmt.Sprintf("workload: xml fixture: %v", err)) // static fixture; cannot fail
	}

	// Register the trials table once it is populated: Put seals the rows
	// it is handed, and refutation proofs act on the statistics it
	// derives.
	c.native = newNative(cat, trials)

	c.Sources = store.NewMulti().
		Add(store.NewRelationalStore("clinic", cat)).
		Add(notes).
		Add(forums).
		Add(xmlStore)

	// --- queries with gold ---
	qn := 0
	addQuery := func(class Class, text, gold string, evidence []string) {
		qn++
		c.Queries = append(c.Queries, Query{
			ID: fmt.Sprintf("hc-%02d", qn), Text: text, Class: class,
			Gold: gold, GoldEvidence: evidence,
		})
	}

	for i, d := range drugs {
		if i >= 4 {
			break
		}
		// Single lookup: trial efficacy (structured only).
		addQuery(ClassSingleLookup,
			fmt.Sprintf("What is the efficacy of %s?", d.name),
			table.FormatNumber(d.efficacy),
			[]string{fmt.Sprintf("clinic/trial_results/%d", d.trialRow)})

		// Cross-modal: side effects live only in notes/forums.
		effects := append([]string(nil), d.effects...)
		sort.Strings(effects)
		evidence := []string{}
		for p := 0; p < len(d.patients); p++ {
			evidence = append(evidence, fmt.Sprintf("note-%d-%d", i, p))
		}
		numForum := opts.ForumPostsPerDrug
		if numForum < len(d.effects) {
			numForum = len(d.effects)
		}
		for f := 0; f < numForum; f++ {
			evidence = append(evidence, fmt.Sprintf("forum-%d-%d", i, f))
		}
		addQuery(ClassCrossModal,
			fmt.Sprintf("Which side effects were reported for %s?", d.name),
			strings.Join(effects, ", "), evidence)

		// Aggregate: patient count from extracted treatments.
		addQuery(ClassAggregate,
			fmt.Sprintf("How many patients received %s?", d.name),
			fmt.Sprintf("%d", len(d.patients)),
			evidence[:len(d.patients)])
	}

	// Comparative: efficacy of the first two drugs (the paper's intro
	// query, made quantitative).
	a, b := drugs[0], drugs[1]
	first, second := a, b
	if first.name > second.name {
		first, second = second, first
	}
	addQuery(ClassComparative,
		fmt.Sprintf("Compare the efficacy of %s and %s", a.name, b.name),
		fmt.Sprintf("%s: %s, %s: %s",
			first.name, table.FormatNumber(first.efficacy),
			second.name, table.FormatNumber(second.efficacy)),
		[]string{
			fmt.Sprintf("clinic/trial_results/%d", a.trialRow),
			fmt.Sprintf("clinic/trial_results/%d", b.trialRow),
		})

	return c
}
