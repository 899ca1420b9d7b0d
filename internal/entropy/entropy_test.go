package entropy

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/slm"
)

func gen(text string, prob float64) slm.Generation {
	return slm.Generation{Text: text, Canonical: text, Prob: prob}
}

func testClusterer() *Clusterer {
	return NewClusterer(slm.NewEmbedder(slm.DefaultEmbeddingDim))
}

func TestIdenticalAnswersZeroEntropy(t *testing.T) {
	gens := []slm.Generation{
		gen("Fever, cough, fatigue", 0.5),
		gen("Fever, cough, fatigue", 0.3),
		gen("Fever, cough, fatigue", 0.2),
	}
	r := Assess(gens, testClusterer())
	if r.SemanticH != 0 || r.DiscreteH != 0 {
		t.Errorf("entropy = %v / %v, want 0", r.SemanticH, r.DiscreteH)
	}
	if len(r.Clusters) != 1 {
		t.Errorf("clusters = %d", len(r.Clusters))
	}
}

func TestParaphrasesCollapseToOneCluster(t *testing.T) {
	// The paper's influenza example: same meaning, different surface.
	gens := []slm.Generation{
		gen("20%", 0.4),
		gen("The answer is 20%.", 0.3),
		gen("Based on the data, 20%.", 0.2),
		gen("20%, according to the records.", 0.1),
	}
	r := Assess(gens, testClusterer())
	if len(r.Clusters) != 1 {
		t.Fatalf("clusters = %d: %+v", len(r.Clusters), r.Clusters)
	}
	if r.SemanticH != 0 {
		t.Errorf("semantic entropy = %v, want 0", r.SemanticH)
	}
	// Lexical entropy is fooled by surface variation — this is exactly
	// why semantic entropy is the better metric.
	if r.LexicalH == 0 {
		t.Error("lexical entropy should be > 0 for distinct strings")
	}
}

func TestConflictingAnswersHighEntropy(t *testing.T) {
	// The paper's legal example: yes / no / it depends.
	gens := []slm.Generation{
		gen("Yes, if copyrighted", 0.34),
		gen("No, unless consent is violated", 0.33),
		gen("It depends on jurisdiction", 0.33),
	}
	r := Assess(gens, testClusterer())
	if len(r.Clusters) != 3 {
		t.Fatalf("clusters = %d", len(r.Clusters))
	}
	if r.SemanticH < 1.0 {
		t.Errorf("semantic entropy = %v, want ~ln(3)", r.SemanticH)
	}
	if !r.Flagged(0.5) {
		t.Error("conflicting answers should be flagged")
	}
}

func TestMajorityAnswer(t *testing.T) {
	gens := []slm.Generation{
		gen("42 units", 0.4),
		gen("42 units", 0.3),
		gen("17 units", 0.3),
	}
	r := Assess(gens, testClusterer())
	if r.MajorityAnswer != "42 units" {
		t.Errorf("majority = %q", r.MajorityAnswer)
	}
}

func TestEmptySample(t *testing.T) {
	r := Assess(nil, testClusterer())
	if r.Samples != 0 || r.SemanticH != 0 || len(r.Clusters) != 0 {
		t.Errorf("empty report: %+v", r)
	}
}

func TestEntropyBoundsProperty(t *testing.T) {
	c := testClusterer()
	answers := []string{"alpha", "beta", "gamma", "delta"}
	f := func(seed uint64, m uint8) bool {
		rng := slm.NewRNG(seed)
		count := int(m%8) + 1
		gens := make([]slm.Generation, count)
		for i := range gens {
			a := answers[rng.Intn(len(answers))]
			gens[i] = gen(a, rng.Float64())
		}
		r := Assess(gens, c)
		bound := math.Log(float64(count)) + 1e-9
		return r.SemanticH >= -1e-9 && r.SemanticH <= bound &&
			r.DiscreteH >= -1e-9 && r.DiscreteH <= bound &&
			!math.IsNaN(r.SemanticH)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEntropyPermutationInvariance(t *testing.T) {
	gens := []slm.Generation{
		gen("yes", 0.5), gen("no", 0.3), gen("maybe", 0.2),
	}
	r1 := Assess(gens, testClusterer())
	rev := []slm.Generation{gens[2], gens[1], gens[0]}
	r2 := Assess(rev, testClusterer())
	if math.Abs(r1.SemanticH-r2.SemanticH) > 1e-12 {
		t.Errorf("entropy not permutation invariant: %v vs %v", r1.SemanticH, r2.SemanticH)
	}
}

func TestDiscreteVsWeighted(t *testing.T) {
	// Two clusters with unequal mass: weighted entropy below discrete
	// when the dominant cluster also has dominant probability.
	gens := []slm.Generation{
		gen("yes", 0.9), gen("no", 0.05), gen("yes", 0.9), gen("yes", 0.9),
	}
	r := Assess(gens, testClusterer())
	if r.SemanticH >= r.DiscreteH {
		t.Errorf("weighted %v should be < discrete %v here", r.SemanticH, r.DiscreteH)
	}
}

// m samples reach the most entropy they can, log m, when each is its
// own cluster with an equal share; one sample has none.
func TestMaxEntropy(t *testing.T) {
	if r := Assess([]slm.Generation{gen("yes", 0.5)}, testClusterer()); r.SemanticH != 0 || r.DiscreteH != 0 || r.LexicalH != 0 {
		t.Errorf("one sample: %+v", r)
	}
	gens := []slm.Generation{gen("alpha", 0.25), gen("beta", 0.25), gen("gamma", 0.25), gen("delta", 0.25)}
	r := Assess(gens, testClusterer())
	for name, h := range map[string]float64{"semantic": r.SemanticH, "discrete": r.DiscreteH, "lexical": r.LexicalH} {
		if math.Abs(h-math.Log(4)) > 1e-12 {
			t.Errorf("%s entropy of four equal clusters = %v, want log 4", name, h)
		}
	}
}

// The lexical entropy is a sum over distinct strings, and its bits must
// not depend on the order a map hands them out in: ten generations, six
// distinct texts of unequal counts, the same bits on every call.
func TestLexicalEntropyBitsStable(t *testing.T) {
	var gens []slm.Generation
	for i, text := range []string{"alpha", "beta", "alpha", "gamma", "beta", "delta", "alpha", "epsilon", "gamma", "zeta"} {
		gens = append(gens, gen(text, 0.05*float64(i+1)))
	}
	c := testClusterer()
	want := math.Float64bits(Assess(gens, c).LexicalH)
	for i := 0; i < 500; i++ {
		if got := math.Float64bits(Assess(gens, c).LexicalH); got != want {
			t.Fatalf("call %d: LexicalH bits %#x, first call %#x", i, got, want)
		}
	}
}

func TestAUROCPerfect(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []bool{true, true, false, false}
	if got := AUROC(scores, labels); got != 1.0 {
		t.Errorf("AUROC = %v, want 1", got)
	}
}

func TestAUROCInverted(t *testing.T) {
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	labels := []bool{true, true, false, false}
	if got := AUROC(scores, labels); got != 0.0 {
		t.Errorf("AUROC = %v, want 0", got)
	}
}

func TestAUROCChanceAndDegenerate(t *testing.T) {
	if got := AUROC([]float64{0.5, 0.5}, []bool{true, false}); got != 0.5 {
		t.Errorf("tie AUROC = %v", got)
	}
	if got := AUROC([]float64{1, 2}, []bool{true, true}); got != 0.5 {
		t.Errorf("single-class AUROC = %v", got)
	}
	if got := AUROC([]float64{1}, []bool{true, false}); got != 0.5 {
		t.Errorf("mismatched AUROC = %v", got)
	}
}

func TestAUROCBoundsProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := slm.NewRNG(seed)
		count := int(n%20) + 2
		scores := make([]float64, count)
		labels := make([]bool, count)
		for i := range scores {
			scores[i] = rng.Float64()
			labels[i] = rng.Float64() < 0.5
		}
		a := AUROC(scores, labels)
		return a >= 0 && a <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEndToEndWithGenerator(t *testing.T) {
	// Confident generator: low entropy. Uncertain: high entropy.
	rng := slm.NewRNG(11)
	confident := []slm.Candidate{{Text: "42 units", Weight: 10}, {Text: "7 units", Weight: 0.1}}
	uncertain := []slm.Candidate{{Text: "42 units", Weight: 1}, {Text: "7 units", Weight: 1}, {Text: "99 units", Weight: 1}}
	g := slm.NewGenerator()
	c := testClusterer()

	rConf := Assess(g.Sample(confident, 10, rng), c)
	rUnc := Assess(g.Sample(uncertain, 10, rng), c)
	if rConf.SemanticH >= rUnc.SemanticH {
		t.Errorf("confident %v >= uncertain %v", rConf.SemanticH, rUnc.SemanticH)
	}
}

func TestSignatureStripsTemplates(t *testing.T) {
	if signature("The answer is 20%.") != signature("20%") {
		t.Errorf("%q vs %q", signature("The answer is 20%."), signature("20%"))
	}
	if signature("yes") == signature("no") {
		t.Error("distinct answers share a signature")
	}
}

func TestClusterProbAggregation(t *testing.T) {
	gens := []slm.Generation{gen("x", 0.25), gen("x", 0.25), gen("y", 0.5)}
	clusters := testClusterer().Cluster(gens)
	if len(clusters) != 2 {
		t.Fatalf("clusters = %d", len(clusters))
	}
	if math.Abs(clusters[0].Prob-0.5) > 1e-12 {
		t.Errorf("cluster prob = %v", clusters[0].Prob)
	}
}
