// Command benchmark is the repository's one serving benchmark: it builds
// seeded synthetic tables, wires the serving stack in-process the way
// cmd/halk-serve and cmd/halk-shard do, listens on loopback TCP and drives
// it from closed-loop HTTP clients. See README.md for the workloads, the
// metrics and what each should move.
//
//	go run ./benchmark                            every workload, end to end
//	go run ./benchmark -trace 1                   traced windows + layer replay
//	go run ./benchmark -workload scan_wide -seed 7
//	go run ./benchmark -out A.json                keep the results for -compare
//	go run ./benchmark -compare A.json B.json     verdict per (metric, workload)
//
// BENCHMARK.json's command, benchmark/run.sh, builds this program into
// .bench_build/ and runs it as
// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`; the last
// line of standard output is then the run's result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// host is what a result file records about where it was measured.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit,omitempty"`
}

func hostFacts() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Host    host      `json:"host"`
	Seconds float64   `json:"seconds"`
	Results []*result `json:"results"`
}

// declared lists the metrics a run of r's kind reports.
func (r *result) declared() []metric {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// report prints one run for a reader: every metric by name and unit, the
// spread beside each end-to-end value, and what was checked.
func report(r *result) {
	fmt.Printf("== %s  seed=%d  trace=%v  inputs_sha256=%s\n", r.Workload, r.Seed, r.Trace, r.InputsSHA256)
	for _, m := range r.declared() {
		v, ok := r.Metrics[m.Name]
		if !ok {
			continue // a layer off this workload's path
		}
		line := fmt.Sprintf("  %-26s %14.4f %-6s", m.Name, v.Value, v.Unit)
		if !r.Trace {
			line += fmt.Sprintf(" spread %5.1f%%", 100*v.Spread)
		}
		fmt.Println(line)
	}
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("  fail_share %.6f (%d of %d attempted)  latency samples %d  oracle checked %d  correct %v\n",
		share, r.Failed, r.Attempted, r.Samples, r.OracleChecked, r.Correct)
	if r.FirstMismatch != "" {
		fmt.Printf("  first mismatch: %s\n", r.FirstMismatch)
	}
}

// contractLine is the last line of standard output for a single-workload
// run: exactly correct, attempted, failed and every declared metric.
func contractLine(r *result) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv)
	for _, m := range r.declared() {
		metrics[m.Name] = mv{r.Metrics[m.Name].Value, m.Unit} // a layer off the path reads 0
	}
	return string(mustJSON(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics}))
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed of every generated input: tables, query pool, Zipf draws, non-edges")
		seconds = flag.Float64("seconds", 12, "measuring time per workload")
		trace   = flag.Int("trace", 0, "1 = traced run: ?debug=trace window and layer replay, per-layer metrics")
		out     = flag.String("out", "", "also write the results to this JSON file")
		compare = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace == 1, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds float64, trace bool, out string, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles("BENCHMARK.json", args[0], args[1])
	}
	todo := workloads
	if name != "all" {
		w, ok := workloadByName(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		todo = []workload{w}
	}
	// Scratch files stay inside the checkout: the WAL beside the build
	// output, the span files under the benchmark's own directory.
	tmp := filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	file := resultFile{Host: hostFacts(), Seconds: seconds}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s commit=%s\n", file.Host.NumCPU, file.Host.GOMAXPROCS, file.Host.GoVersion, file.Host.Commit)
	for _, w := range todo {
		var r *result
		var err error
		if len(todo) == 1 {
			r, err = run(w, full, seed, seconds, trace, tmp, filepath.Join("benchmark", "out"))
		} else {
			r, err = runInChild(w, seed, seconds, trace, tmp)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		report(r)
		file.Results = append(file.Results, r)
	}
	if out != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(todo) == 1 {
		fmt.Println(contractLine(file.Results[0]))
	}
	for _, r := range file.Results {
		if !r.Correct {
			return fmt.Errorf("%s: answers were wrong, partial or refused; see fail_share above", r.Workload)
		}
	}
	return nil
}

// runInChild measures one workload of a full run in a process of its
// own, as the driver does: heap_mb and the collector's pacing then carry
// nothing over from the workloads before it.
func runInChild(w workload, seed int64, seconds float64, trace bool, tmp string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(tmp, "result-"+w.Name+".json")
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.Command(exe, "-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", traceArg, "-out", out)
	cmd.Stderr = os.Stderr
	// The child's own report is dropped; a child that ran to the end wrote
	// its result file even when its answers were wrong.
	runErr := cmd.Run()
	var file resultFile
	if err := readJSON(out, &file); err != nil || len(file.Results) != 1 {
		return nil, fmt.Errorf("child run: %v (result file: %v)", runErr, err)
	}
	return file.Results[0], os.Remove(out)
}
