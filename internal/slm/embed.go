package slm

import (
	"hash/fnv"
	"math"
	"strings"
)

// Embedder maps text into a fixed-dimension vector space using feature
// hashing over unigrams and bigrams. It is the simulated stand-in for
// the SLM's sentence encoder: deterministic, cheap, and good enough that
// lexically/semantically similar sentences land close in cosine space,
// which is all the dense-retrieval baseline and the semantic-entropy
// clusterer need.
type Embedder struct {
	dim  int
	cost *CostModel
}

// DefaultEmbeddingDim is the vector dimensionality used across the
// system unless configured otherwise.
const DefaultEmbeddingDim = 128

// NewEmbedder returns an embedder producing dim-dimensional unit
// vectors. It panics if dim <= 0.
func NewEmbedder(dim int) *Embedder {
	if dim <= 0 {
		panic("slm: embedder dimension must be positive")
	}
	return &Embedder{dim: dim}
}

// WithCost attaches a cost model; each Embed call is accounted as one
// simulated encoder pass over the token length. It returns e.
func (e *Embedder) WithCost(c *CostModel) *Embedder {
	e.cost = c
	return e
}

// Dim returns the embedding dimensionality.
func (e *Embedder) Dim() int { return e.dim }

// Embed encodes text as a vector of L2 norm 1. The zero vector is
// returned for empty/stopword-only input.
func (e *Embedder) Embed(text string) []float32 {
	words := Words(Tokenize(text))
	if e.cost != nil {
		e.cost.Record(OpEmbed, len(words))
	}
	v := make([]float32, e.dim)
	prev := ""
	for _, w := range words {
		if stopwords[w] {
			prev = ""
			continue
		}
		w = stem(w)
		addFeature(v, w, 1.0)
		if prev != "" {
			addFeature(v, prev+"_"+w, 0.5)
		}
		prev = w
	}
	normalize(v)
	return v
}

// addFeature hashes the feature into two buckets with opposite signs
// (sign trick) to reduce collisions' bias.
func addFeature(v []float32, feature string, weight float32) {
	h := fnv.New64a()
	h.Write([]byte(feature))
	sum := h.Sum64()
	idx := int(sum % uint64(len(v)))
	sign := float32(1)
	if (sum>>63)&1 == 1 {
		sign = -1
	}
	v[idx] += sign * weight
	idx2 := int((sum >> 17) % uint64(len(v)))
	v[idx2] += sign * weight * 0.5
}

func normalize(v []float32) {
	var sum float64
	for _, x := range v {
		sum += float64(x) * float64(x)
	}
	if sum == 0 {
		return
	}
	inv := float32(1 / math.Sqrt(sum))
	for i := range v {
		v[i] *= inv
	}
}

// Cosine returns the cosine similarity of two vectors of equal length.
// Inputs produced by Embed are unit-length, so this is their dot
// product; the function still guards against zero vectors.
func Cosine(a, b []float32) float64 {
	if len(a) != len(b) {
		return 0
	}
	var dot, na, nb float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
		na += float64(a[i]) * float64(a[i])
		nb += float64(b[i]) * float64(b[i])
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// stem applies a tiny suffix stemmer (plural/verb/adverb endings) so
// "increase", "increased" and "increases" share features.
func stem(w string) string {
	switch {
	case len(w) > 4 && strings.HasSuffix(w, "ies"):
		w = w[:len(w)-3] + "y"
	case len(w) > 4 && strings.HasSuffix(w, "ing"):
		w = w[:len(w)-3]
	case len(w) > 4 && strings.HasSuffix(w, "ed"):
		w = w[:len(w)-2]
	case len(w) > 4 && strings.HasSuffix(w, "ly"):
		w = w[:len(w)-2]
	case len(w) > 3 && strings.HasSuffix(w, "es") && hasSibilantBefore(w):
		w = w[:len(w)-2]
	case len(w) > 2 && strings.HasSuffix(w, "s") && !strings.HasSuffix(w, "ss"):
		w = w[:len(w)-1]
	}
	// Drop a final silent 'e' on longer stems so "increase" meets the
	// "increas" produced by the "-ed" rule.
	if len(w) > 4 && strings.HasSuffix(w, "e") {
		w = w[:len(w)-1]
	}
	return w
}

// hasSibilantBefore reports whether the "-es" plural follows a sibilant
// (box/es, class/es, church/es), where stripping "es" is correct.
func hasSibilantBefore(w string) bool {
	base := w[:len(w)-2]
	return strings.HasSuffix(base, "s") || strings.HasSuffix(base, "x") ||
		strings.HasSuffix(base, "z") || strings.HasSuffix(base, "ch") ||
		strings.HasSuffix(base, "sh")
}

// stopwords excluded from embedding and BM25 features.
var stopwords = map[string]bool{
	"the": true, "a": true, "an": true, "of": true, "in": true, "on": true,
	"at": true, "to": true, "for": true, "and": true, "or": true, "is": true,
	"are": true, "was": true, "were": true, "be": true, "been": true,
	"by": true, "with": true, "from": true, "that": true, "this": true,
	"it": true, "as": true, "its": true, "their": true, "has": true,
	"have": true, "had": true, "not": true, "but": true, "what": true,
	"which": true, "who": true, "how": true, "do": true, "does": true,
	"did": true, "than": true, "then": true, "so": true, "such": true,
	"all": true, "each": true, "per": true, "any": true, "no": true,
	"if": true, "into": true, "over": true, "under": true, "between": true,
}

// IsStopword reports whether the lower-cased word is in the shared
// stopword list. Exposed for the retrieval baselines.
func IsStopword(w string) bool { return stopwords[w] }
