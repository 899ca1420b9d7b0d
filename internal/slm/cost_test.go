package slm

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCostModelAccumulates(t *testing.T) {
	c := NewCostModel(SLMProfile())
	c.Record(OpTag, 10)
	c.Record(OpTag, 5)
	c.Record(OpEmbed, 20)
	if c.Calls(OpTag) != 2 || c.tokens[OpTag] != 15 {
		t.Errorf("tag: calls=%d tokens=%d", c.Calls(OpTag), c.tokens[OpTag])
	}
	if c.TotalCalls() != 3 || c.TotalTokens() != 35 {
		t.Errorf("total: calls=%d tokens=%d", c.TotalCalls(), c.TotalTokens())
	}
}

func TestCostModelLatencyRatio(t *testing.T) {
	slm := NewCostModel(SLMProfile())
	llm := NewCostModel(LLMProfile())
	for _, c := range []*CostModel{slm, llm} {
		c.Record(OpGenerate, 1000)
		c.Record(OpTag, 1000)
	}
	ratio := float64(llm.SimulatedLatency()) / float64(slm.SimulatedLatency())
	if ratio < 10 {
		t.Errorf("LLM/SLM latency ratio = %v, want >= 10", ratio)
	}
	if llm.MemoryBytes() <= slm.MemoryBytes() {
		t.Error("LLM memory should exceed SLM memory")
	}
}

// Accounting starts over with a new model: none shares its counters
// with an earlier one of the same profile.
func TestCostModelReset(t *testing.T) {
	NewCostModel(SLMProfile()).Record(OpEmbed, 100)
	c := NewCostModel(SLMProfile())
	if c.TotalCalls() != 0 || c.TotalTokens() != 0 {
		t.Error("a new model does not start at zero")
	}
	if c.SimulatedLatency() != 0 {
		t.Error("a new model has latency before any call")
	}
}

func TestCostModelNilSafe(t *testing.T) {
	var c *CostModel
	c.Record(OpTag, 5) // must not panic
}

func TestCostModelConcurrent(t *testing.T) {
	c := NewCostModel(SLMProfile())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Record(OpEmbed, 1)
			}
		}()
	}
	wg.Wait()
	if c.Calls(OpEmbed) != 800 {
		t.Errorf("concurrent calls = %d, want 800", c.Calls(OpEmbed))
	}
}

// The figures Table 6 prints per profile: its name, the totals, the
// simulated latency and the resident size.
func TestCostModelSnapshot(t *testing.T) {
	p := SLMProfile()
	c := NewCostModel(p)
	c.Record(OpGenerate, 12)
	if !strings.Contains(p.Name, "slm-350m") || c.TotalCalls() != 1 || c.TotalTokens() != 12 {
		t.Errorf("%s: %d calls, %d tokens", p.Name, c.TotalCalls(), c.TotalTokens())
	}
	if want := p.FixedLatency + 12*p.LatencyPerTok; c.SimulatedLatency() != want || c.MemoryBytes() != p.MemoryBytes {
		t.Errorf("simulated %v, resident %d; want %v, %d", c.SimulatedLatency(), c.MemoryBytes(), want, p.MemoryBytes)
	}
}

func TestSimulatedLatencyPositive(t *testing.T) {
	c := NewCostModel(SLMProfile())
	c.Record(OpGenerate, 100)
	if c.SimulatedLatency() < 100*2*time.Microsecond {
		t.Errorf("latency = %v too small", c.SimulatedLatency())
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{OpTag: "tag", OpEmbed: "embed", OpGenerate: "generate", Op(9): "unknown"} {
		if op.String() != want {
			t.Errorf("Op(%d).String() = %q", op, op.String())
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(9), NewRNG(9)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("RNG streams diverge under same seed")
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(13)
	p := r.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFork(t *testing.T) {
	r := NewRNG(21)
	f1 := r.Fork()
	f2 := r.Fork()
	if f1.Uint64() == f2.Uint64() {
		t.Error("forked RNGs should differ")
	}
}
