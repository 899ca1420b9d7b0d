package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Claim is one record of BENCH_trajectory.json: one end-to-end metric
// of one workload, claimed by one PR on one seed, with the parent's and
// the change's medians over the pairs the claim was judged on. The file
// is append-only, one record per PR, metric and seed, ordered by PR;
// numbers are copied from the measurement they came from, never
// re-measured. A number the source did not give is null.
type Claim struct {
	PR        int      `json:"pr"`
	Commit    *string  `json:"commit"`
	Date      string   `json:"date"`
	Workload  string   `json:"workload"`
	Metric    string   `json:"metric"`
	Seed      int      `json:"seed"`
	Seconds   int      `json:"seconds"`
	HostSpeed *float64 `json:"host_speed"`
	Parent    float64  `json:"parent"`
	Change    float64  `json:"change"`
	PairsWon  *int     `json:"pairs_won"`
	Pairs     int      `json:"pairs"`
	ParentIQR *float64 `json:"parent_iqr"`
	Verdict   string   `json:"verdict"` // met, short (measured, not past its bound) or refused
	Source    string   `json:"source"`
}

// ReadEndToEnd reads the end-to-end metrics a benchmark declaration
// (BENCHMARK.json) names, each with the direction that is better:
// "lower" or "higher".
func ReadEndToEnd(r io.Reader) (map[string]string, error) {
	var decl struct {
		EndToEnd []struct {
			Name   string `json:"name"`
			Better string `json:"better"`
		} `json:"end_to_end"`
	}
	if err := json.NewDecoder(r).Decode(&decl); err != nil {
		return nil, err
	}
	better := make(map[string]string, len(decl.EndToEnd))
	for _, m := range decl.EndToEnd {
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("end-to-end metric %q: better %q", m.Name, m.Better)
		}
		better[m.Name] = m.Better
	}
	return better, nil
}

// ReadTrajectory decodes a trajectory file and checks its shape: every
// field a claim must name is there and sane, the records are in PR
// order, each claims an end-to-end metric of better (ReadEndToEnd's
// map), and a met claim moved its metric the better way.
func ReadTrajectory(r io.Reader, better map[string]string) ([]Claim, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var claims []Claim
	if err := dec.Decode(&claims); err != nil {
		return nil, err
	}
	for i, c := range claims {
		at := fmt.Sprintf("record %d (PR %d)", i, c.PR)
		switch {
		case c.PR <= 0:
			return nil, fmt.Errorf("%s: no PR", at)
		case i > 0 && c.PR < claims[i-1].PR:
			return nil, fmt.Errorf("%s: after PR %d", at, claims[i-1].PR)
		case c.Workload == "" || c.Metric == "" || c.Date == "":
			return nil, fmt.Errorf("%s: workload, metric and date are required", at)
		case c.Seed <= 0:
			return nil, fmt.Errorf("%s: no seed", at)
		case c.Pairs <= 0:
			return nil, fmt.Errorf("%s: no pair count", at)
		case c.PairsWon != nil && (*c.PairsWon < 0 || *c.PairsWon > c.Pairs):
			return nil, fmt.Errorf("%s: %d pairs won of %d", at, *c.PairsWon, c.Pairs)
		case c.Parent <= 0 || c.Change <= 0:
			return nil, fmt.Errorf("%s: medians must be positive", at)
		case !slices.Contains([]string{"met", "short", "refused"}, c.Verdict):
			return nil, fmt.Errorf("%s: verdict %q", at, c.Verdict)
		case better[c.Metric] == "":
			return nil, fmt.Errorf("%s: %q is not an end-to-end metric", at, c.Metric)
		case c.Verdict == "met" && !improved(better[c.Metric], c.Parent, c.Change):
			return nil, fmt.Errorf("%s: met, but %s went %g -> %g and %s is better", at, c.Metric, c.Parent, c.Change, better[c.Metric])
		}
	}
	return claims, nil
}

// improved reports whether change is past parent the better way.
func improved(better string, parent, change float64) bool {
	if better == "lower" {
		return change < parent
	}
	return change > parent
}

// Series renders the claims as one series per workload and metric, in
// the order each first appears, a claim per line.
func Series(claims []Claim) string {
	var keys []string
	by := map[string][]Claim{}
	for _, c := range claims {
		k := c.Workload + " " + c.Metric
		if by[k] == nil {
			keys = append(keys, k)
		}
		by[k] = append(by[k], c)
	}
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s\n", k)
		for _, c := range by[k] {
			won := "?"
			if c.PairsWon != nil {
				won = fmt.Sprint(*c.PairsWon)
			}
			fmt.Fprintf(&b, "  PR %-3d seed %-3d %12.4g -> %-12.4g %+7.1f%%  %s/%d pairs  %s\n",
				c.PR, c.Seed, c.Parent, c.Change, 100*(c.Change-c.Parent)/c.Parent, won, c.Pairs, c.Verdict)
		}
	}
	return b.String()
}

// runTrajectory checks and prints the trajectory at path against the
// BENCHMARK.json beside it.
func runTrajectory(path string) error {
	decl, err := os.Open(filepath.Join(filepath.Dir(path), "BENCHMARK.json"))
	if err != nil {
		return err
	}
	defer decl.Close()
	better, err := ReadEndToEnd(decl)
	if err != nil {
		return fmt.Errorf("%s: %w", decl.Name(), err)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	claims, err := ReadTrajectory(f, better)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Print(Series(claims))
	fmt.Printf("benchguard: %d claims in %s\n", len(claims), path)
	return nil
}
