package slm

import (
	"sync"
	"time"
)

// Op identifies a class of simulated model invocation for cost
// accounting.
type Op int

// Operation classes recorded by the cost model.
const (
	OpTag Op = iota // NER tagging pass
	OpEmbed
	OpGenerate
	opCount
)

// String names the operation class.
func (o Op) String() string {
	switch o {
	case OpTag:
		return "tag"
	case OpEmbed:
		return "embed"
	case OpGenerate:
		return "generate"
	default:
		return "unknown"
	}
}

// Profile parameterizes the simulated inference cost of a model class.
// The paper's efficiency argument (Section I) is about the cost
// structure of SLMs vs. LLMs — per-token latency and resident memory —
// so a profile captures exactly those. Values are loosely calibrated to
// the MobileLLM (sub-billion) vs. 70B-class comparison the paper cites:
// the LLM profile is ~40x slower per token and ~100x larger.
type Profile struct {
	Name          string
	LatencyPerTok time.Duration // simulated decode/encode time per token
	FixedLatency  time.Duration // per-call overhead (kernel launch, cache)
	MemoryBytes   int64         // resident weights + KV cache
}

// SLMProfile models a sub-billion-parameter on-device model.
func SLMProfile() Profile {
	return Profile{
		Name:          "slm-350m",
		LatencyPerTok: 2 * time.Microsecond,
		FixedLatency:  40 * time.Microsecond,
		MemoryBytes:   700 << 20, // 0.7 GiB fp16 weights
	}
}

// LLMProfile models a 70B-class served model, for the paper's
// comparison baseline. The absolute numbers are illustrative; only the
// ratio to SLMProfile matters for experiment E8.
func LLMProfile() Profile {
	return Profile{
		Name:          "llm-70b",
		LatencyPerTok: 80 * time.Microsecond,
		FixedLatency:  2 * time.Millisecond,
		MemoryBytes:   70 << 30, // 70 GiB
	}
}

// CostModel accumulates simulated inference cost. It is safe for
// concurrent use. A CostModel does not sleep; it converts recorded work
// into simulated latency so benchmarks report the cost *structure*
// without burning wall-clock time.
type CostModel struct {
	mu      sync.Mutex
	profile Profile
	calls   [opCount]int64
	tokens  [opCount]int64
}

// NewCostModel returns an empty accumulator for the given profile.
func NewCostModel(p Profile) *CostModel {
	return &CostModel{profile: p}
}

// Record accounts one model call of the given class over n tokens.
func (c *CostModel) Record(op Op, n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.calls[op]++
	c.tokens[op] += int64(n)
	c.mu.Unlock()
}

// Calls returns the number of calls recorded for op.
func (c *CostModel) Calls(op Op) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[op]
}

// TotalCalls returns calls across all operation classes.
func (c *CostModel) TotalCalls() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var s int64
	for _, v := range c.calls {
		s += v
	}
	return s
}

// TotalTokens returns tokens across all operation classes.
func (c *CostModel) TotalTokens() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var s int64
	for _, v := range c.tokens {
		s += v
	}
	return s
}

// SimulatedLatency converts the recorded work into the latency the
// profiled model would have spent.
func (c *CostModel) SimulatedLatency() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	var d time.Duration
	for op := Op(0); op < opCount; op++ {
		d += time.Duration(c.calls[op]) * c.profile.FixedLatency
		d += time.Duration(c.tokens[op]) * c.profile.LatencyPerTok
	}
	return d
}

// MemoryBytes returns the profile's resident memory requirement.
func (c *CostModel) MemoryBytes() int64 { return c.profile.MemoryBytes }
