package unisem

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCH_trajectory.json, the append-only record of every end-to-end
// claim, parses, is ordered by PR, and every claim names the seed it was
// measured on and how many pairs judged it.
func TestTrajectoryFile(t *testing.T) {
	data, err := os.ReadFile("BENCH_trajectory.json")
	if err != nil {
		t.Fatal(err)
	}
	var claims []struct {
		PR       int     `json:"pr"`
		Workload string  `json:"workload"`
		Metric   string  `json:"metric"`
		Seed     int     `json:"seed"`
		Pairs    int     `json:"pairs"`
		Parent   float64 `json:"parent"`
		Change   float64 `json:"change"`
	}
	if err := json.Unmarshal(data, &claims); err != nil {
		t.Fatal(err)
	}
	if len(claims) == 0 {
		t.Fatal("no claims")
	}
	for i, c := range claims {
		if i > 0 && c.PR < claims[i-1].PR {
			t.Errorf("record %d: PR %d after PR %d", i, c.PR, claims[i-1].PR)
		}
		if c.Seed <= 0 || c.Pairs <= 0 {
			t.Errorf("record %d (PR %d): seed %d, %d pairs", i, c.PR, c.Seed, c.Pairs)
		}
		if c.Workload == "" || c.Metric == "" || c.Parent <= 0 || c.Change <= 0 {
			t.Errorf("record %d (PR %d): %+v", i, c.PR, c)
		}
	}
}
