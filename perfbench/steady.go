package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"

	"repro/perfbench/stats"
)

// manifest is the part of BENCHMARK.json the steadiness report reads.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadiness runs one workload `runs` times, untraced, with seeds
// first, first+1, ..., each in a child process of this binary, and
// prints every end-to-end metric's median, quartiles and spread
// ((q3-q1)/median) next to its bound from BENCHMARK.json. A spread
// under a third of the bound is steady; setup_s is exempt from the
// spread rule, only its median is compared between sets.
func steadiness(workload string, runs int, first uint64, seconds float64) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	for i := range runs {
		seed := first + uint64(i)
		cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		if !res.Correct || res.Failed > 0 {
			return fmt.Errorf("seed %d: %d of %d operations failed", seed, res.Failed, res.Attempted)
		}
		fmt.Printf("%s\n", lines[0]) // the run's fingerprint
		var names []string
		for name, v := range res.Metrics {
			values[name] = append(values[name], v.Value)
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("seed %d:", seed)
		for _, name := range names {
			fmt.Printf(" %s=%.5g", name, res.Metrics[name].Value)
		}
		fmt.Println()
		fmt.Fprintf(os.Stderr, "perfbench: steady %s: run %d/%d done\n", workload, i+1, runs)
	}
	fmt.Printf("%-18s %5s %12s %12s %12s %8s %7s  %s\n", "metric", "runs", "q1", "median", "q3", "spread", "bound", "verdict")
	var names []string
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		bound := -1.0
		for _, e := range m.EndToEnd {
			if e.Name == name {
				bound = e.Bound
			}
		}
		s, err := stats.Summarize(values[name])
		if err != nil {
			fmt.Printf("%-18s %v\n", name, err)
			continue
		}
		verdict := "steady"
		switch {
		case bound < 0:
			verdict = "not in BENCHMARK.json"
		case name == "setup_s":
			verdict = "median only"
		case s.Spread > bound:
			verdict = "TOO NOISY"
		case s.Spread > bound/3:
			verdict = "within bound, above a third of it"
		}
		fmt.Printf("%-18s %5d %12.6g %12.6g %12.6g %8.4f %7.3g  %s\n", name, s.N, s.Q1, s.Median, s.Q3, s.Spread, bound, verdict)
	}
	return nil
}
