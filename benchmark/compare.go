package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// verdict is -compare's reading of one (metric, workload) pair.
type verdict string

const (
	better     verdict = "better"
	within     verdict = "within bound"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares value b against baseline a under the metric's bound.
// When either side's own spread is wider than the bound the pair cannot
// be called either way and is unresolved, never unchanged.
func judge(m metric, a, b value) verdict {
	if a.Spread > m.Bound || b.Spread > m.Bound {
		return unresolved
	}
	worsening := (b.Value - a.Value) / a.Value
	if m.Better == "higher" {
		worsening = -worsening
	}
	switch {
	case worsening > m.Bound:
		return worse
	case worsening < -m.Bound:
		return better
	}
	return within
}

// benchmarkSpec is the part of BENCHMARK.json -compare reads.
type benchmarkSpec struct {
	EndToEnd []metric `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints one row per (end-to-end metric, workload) present
// in both result files, judged by the bounds in the spec file, and fails
// when any pair is worse.
func compareFiles(specPath, aPath, bPath string) error {
	var spec benchmarkSpec
	var a, b resultFile
	for path, v := range map[string]any{specPath: &spec, aPath: &a, bPath: &b} {
		if err := readJSON(path, v); err != nil {
			return err
		}
	}
	byName := make(map[string]*result)
	for _, r := range a.Results {
		byName[r.Workload] = r
	}
	counts := make(map[verdict]int)
	fmt.Printf("%-12s %-16s %14s %14s %8s %7s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")
	for _, rb := range b.Results {
		ra, ok := byName[rb.Workload]
		if !ok {
			continue
		}
		for _, m := range spec.EndToEnd {
			va, okA := ra.Metrics[m.Name]
			vb, okB := rb.Metrics[m.Name]
			if !okA || !okB {
				continue
			}
			v := judge(m, va, vb)
			counts[v]++
			fmt.Printf("%-12s %-16s %14.4f %14.4f %+7.1f%% %6.0f%%  %s\n",
				rb.Workload, m.Name, va.Value, vb.Value, 100*(vb.Value-va.Value)/va.Value, 100*m.Bound, v)
		}
	}
	fmt.Printf("%d better, %d within bound, %d worse, %d unresolved\n", counts[better], counts[within], counts[worse], counts[unresolved])
	if counts[better]+counts[within]+counts[worse]+counts[unresolved] == 0 {
		return fmt.Errorf("the two files share no (metric, workload) pair")
	}
	if counts[worse] > 0 {
		return fmt.Errorf("%d pair(s) worse than the bound", counts[worse])
	}
	return nil
}
