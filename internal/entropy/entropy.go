// Package entropy implements semantic entropy (paper Section III.D,
// after Kuhn et al. 2023): an unsupervised uncertainty measure that
// samples M answers to the same question, clusters them by semantic
// equivalence, and computes the entropy of the cluster distribution.
// Low entropy = the model converges on one meaning (reliable); high
// entropy = conflicting interpretations (flag for review).
//
// Two baselines from the uncertainty literature are included for the
// calibration experiment (E6): lexical entropy over surface strings and
// mean negative log-likelihood.
package entropy

import (
	"math"
	"sort"
	"strings"

	"repro/internal/slm"
)

// Cluster is one group of semantically equivalent answers.
type Cluster struct {
	Representative string   // first member's canonical content
	Members        []int    // indices into the sampled generations
	Prob           float64  // aggregated probability mass
	Texts          []string // member surface forms
}

// Report is the uncertainty assessment of one question.
type Report struct {
	Samples        int
	Clusters       []Cluster
	SemanticH      float64 // likelihood-weighted semantic entropy
	DiscreteH      float64 // count-based ("discrete") semantic entropy
	LexicalH       float64 // baseline: entropy over distinct strings
	MeanNLL        float64 // baseline: mean negative log-likelihood
	MajorityAnswer string  // representative of the largest cluster
}

// Flagged reports whether the entropy exceeds threshold — the paper's
// "prompt systems to flag such outputs for human review".
func (r Report) Flagged(threshold float64) bool { return r.SemanticH > threshold }

// Clusterer groups generations by meaning. Equivalence is an
// approximation of bidirectional entailment: two answers are equivalent
// when their content signatures match, or when their embeddings are
// nearly parallel and one's content words contain the other's.
type Clusterer struct {
	embedder  *slm.Embedder
	threshold float64 // cosine threshold for the embedding check
}

// NewClusterer returns a clusterer with the given embedder. A nil
// embedder uses signatures only.
func NewClusterer(embedder *slm.Embedder) *Clusterer {
	return &Clusterer{embedder: embedder, threshold: 0.92}
}

// templateWords are surface noise added by answer phrasing that must
// not affect semantic identity ("The answer is X.", "Based on the
// data, X.").
var templateWords = map[string]bool{
	"answer": true, "records": true, "record": true, "data": true,
	"based": true, "according": true, "indicate": true, "indicates": true,
}

// signature returns the canonical content-word signature of an answer.
func signature(text string) string {
	words := slm.Words(slm.Tokenize(text))
	content := make([]string, 0, len(words))
	for _, w := range words {
		if slm.IsStopword(w) || templateWords[w] {
			continue
		}
		content = append(content, w)
	}
	sort.Strings(content)
	return strings.Join(content, " ")
}

// Cluster groups the generations. Order of output clusters follows
// first appearance, so results are deterministic.
func (c *Clusterer) Cluster(gens []slm.Generation) []Cluster {
	var clusters []Cluster
	sigs := make([]string, 0, len(gens))
	var vecs [][]float32
	if c.embedder != nil {
		vecs = make([][]float32, len(gens))
	}
	for i, g := range gens {
		sig := signature(g.Text)
		var vec []float32
		if c.embedder != nil {
			vec = c.embedder.Embed(g.Text)
			vecs[i] = vec
		}
		assigned := false
		for ci := range clusters {
			rep := clusters[ci].Members[0]
			if sigs[rep] == sig || c.embeddingEquivalent(vecs, rep, i, sigs[rep], sig) {
				clusters[ci].Members = append(clusters[ci].Members, i)
				clusters[ci].Prob += g.Prob
				clusters[ci].Texts = append(clusters[ci].Texts, g.Text)
				assigned = true
				break
			}
		}
		sigs = append(sigs, sig)
		if !assigned {
			clusters = append(clusters, Cluster{
				Representative: g.Canonical,
				Members:        []int{i},
				Prob:           g.Prob,
				Texts:          []string{g.Text},
			})
		}
	}
	return clusters
}

func (c *Clusterer) embeddingEquivalent(vecs [][]float32, a, b int, sigA, sigB string) bool {
	if c.embedder == nil || vecs == nil {
		return false
	}
	if slm.Cosine(vecs[a], vecs[b]) < c.threshold {
		return false
	}
	return containsAll(sigA, sigB) || containsAll(sigB, sigA)
}

// containsAll reports whether every word of inner appears in outer.
func containsAll(outer, inner string) bool {
	if inner == "" {
		return true
	}
	set := map[string]bool{}
	for _, w := range strings.Fields(outer) {
		set[w] = true
	}
	for _, w := range strings.Fields(inner) {
		if !set[w] {
			return false
		}
	}
	return true
}

// Assess computes the full uncertainty report for sampled generations.
// An empty sample yields a zero report.
func Assess(gens []slm.Generation, clusterer *Clusterer) Report {
	r := Report{Samples: len(gens)}
	if len(gens) == 0 {
		return r
	}
	r.Clusters = clusterer.Cluster(gens)

	// Likelihood-weighted semantic entropy: p(c) proportional to the
	// probability mass of the cluster's members.
	var mass float64
	for _, c := range r.Clusters {
		mass += c.Prob
	}
	if mass > 0 {
		for _, c := range r.Clusters {
			p := c.Prob / mass
			if p > 0 {
				r.SemanticH -= p * math.Log(p)
			}
		}
	}

	// Discrete semantic entropy: p(c) = |c| / M.
	m := float64(len(gens))
	best := 0
	for i, c := range r.Clusters {
		p := float64(len(c.Members)) / m
		r.DiscreteH -= p * math.Log(p)
		if len(c.Members) > len(r.Clusters[best].Members) {
			best = i
		}
	}
	r.MajorityAnswer = r.Clusters[best].Representative

	// Lexical entropy baseline: distribution over exact strings, summed
	// in the order the strings first occur in gens — float addition is
	// not associative, and a map's order would move the low bits from
	// one call to the next.
	counts := map[string]int{}
	for _, g := range gens {
		counts[g.Text]++
	}
	for _, g := range gens {
		if n := counts[g.Text]; n > 0 {
			counts[g.Text] = 0 // each string once
			p := float64(n) / m
			r.LexicalH -= p * math.Log(p)
		}
	}

	// Mean NLL baseline.
	var nll float64
	for _, g := range gens {
		p := g.Prob
		if p <= 0 {
			p = 1e-12
		}
		nll -= math.Log(p)
	}
	r.MeanNLL = nll / m

	return r
}

// AUROC computes the area under the ROC curve for scores predicting
// the positive class (labels true = positive, conventionally
// "incorrect answer" in E6). Ties receive half credit. It returns 0.5
// when either class is empty.
func AUROC(scores []float64, labels []bool) float64 {
	if len(scores) != len(labels) {
		return 0.5
	}
	var pos, neg []float64
	for i, s := range scores {
		if labels[i] {
			pos = append(pos, s)
		} else {
			neg = append(neg, s)
		}
	}
	if len(pos) == 0 || len(neg) == 0 {
		return 0.5
	}
	var wins float64
	for _, p := range pos {
		for _, n := range neg {
			switch {
			case p > n:
				wins++
			case p == n:
				wins += 0.5
			}
		}
	}
	return wins / (float64(len(pos)) * float64(len(neg)))
}
