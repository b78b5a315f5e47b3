package main

import (
	"bufio"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/halk-kg/halk/internal/query"
)

// The renderer must produce what the servers parse: dictionary names, not
// Node.String's raw IDs. Every structure has to come back from
// query.Parse under the same canonical key.
func TestRenderDSLRoundTrips(t *testing.T) {
	ds := synthDataset(smoke, false)
	ents, rels := ds.Train.Entities, ds.Train.Relations
	if len(allStructures) != 22 {
		t.Fatalf("got %d structures, want the 16 standard + 6 large", len(allStructures))
	}
	pool, err := samplePool(ds, allStructures, 10*len(allStructures), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, q := range pool {
		seen[q.Structure] = true
		root, err := query.Parse(q.DSL, ents, rels)
		if err != nil {
			t.Fatalf("%s %q: %v", q.Structure, q.DSL, err)
		}
		if got := query.CanonicalKey(root); got != q.Key {
			t.Errorf("%s %q parsed to %s, sampled as %s", q.Structure, q.DSL, got, q.Key)
		}
	}
	if len(seen) != len(allStructures) {
		t.Errorf("pool covers %d structures, want %d", len(seen), len(allStructures))
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range []string{"batch_scan", "ingest_mix"} {
		w, _ := workloadByName(name)
		hash := func(seed int64) string {
			in, err := buildInputs(w, smoke, synthDataset(smoke, w.Large), seed)
			if err != nil {
				t.Fatal(err)
			}
			return in.sha256
		}
		if a, b := hash(5), hash(5); a != b {
			t.Errorf("%s: seed 5 hashed to %s and to %s", name, a, b)
		}
		if a, b := hash(5), hash(6); a == b {
			t.Errorf("%s: seeds 5 and 6 produced the same inputs", name)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metric{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := metric{Name: "qps", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name string
		m    metric
		a, b value
		want verdict
	}{
		{"latency fell past the bound", lower, value{Value: 10}, value{Value: 8}, better},
		{"latency moved inside the bound", lower, value{Value: 10}, value{Value: 10.9}, within},
		{"latency rose past the bound", lower, value{Value: 10}, value{Value: 11.5}, worse},
		{"throughput rose past the bound", higher, value{Value: 100}, value{Value: 120}, better},
		{"throughput fell past the bound", higher, value{Value: 100}, value{Value: 85}, worse},
		{"baseline windows disagree by more than the bound", lower, value{Value: 10, Spread: 0.3}, value{Value: 10}, unresolved},
		{"a wide spread hides even a large rise", lower, value{Value: 10}, value{Value: 13, Spread: 0.2}, unresolved},
	} {
		if got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
	}
}

// BENCHMARK.json is what the driver reads and spec.go is what the program
// reports; they must name the same workloads and metrics.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	var spec struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []metric   `json:"end_to_end"`
		PerLayer   []metric   `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from spec.go:\n%+v\n%+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs from spec.go")
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, spec.go has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d is %q (%q), spec.go has %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("outside the contract's limits: %d per-layer, %d end-to-end, run_seconds %d", len(perLayer), len(endToEnd), spec.RunSeconds)
	}
}

// The smoke profile runs every workload both ways on 200-entity tables
// with 300 ms windows: enough to keep the harness compiling, the oracle
// passing and every declared metric reported, without the real load.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			tmp := t.TempDir()
			for _, trace := range []bool{false, true} {
				r, err := run(w, smoke, 1, 0.9, trace, tmp, tmp)
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				if !r.Correct || r.Failed != 0 || r.OracleChecked < smoke.VerifyMin {
					t.Errorf("trace=%v: correct=%v failed=%d/%d checked=%d first mismatch %q",
						trace, r.Correct, r.Failed, r.Attempted, r.OracleChecked, r.FirstMismatch)
				}
				if !trace {
					for _, m := range endToEnd {
						if r.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s is %v, must be positive", m.Name, r.Metrics[m.Name].Value)
						}
					}
					continue
				}
				for _, name := range []string{"query.parse_us", "halk.embed_us", "serve.handler_us", "client.single_p50_ms", "layer_sum_share"} {
					if r.Metrics[name].Value <= 0 {
						t.Errorf("per-layer metric %s is %v, must be positive", name, r.Metrics[name].Value)
					}
				}
				f, err := os.Open(filepath.Join(tmp, "trace-"+w.Name+".jsonl"))
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				layers := make(map[string]bool)
				for sc := bufio.NewScanner(f); sc.Scan(); {
					var s span
					if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
						t.Fatalf("span %q: %v", sc.Text(), err)
					}
					if s.EndNs < s.StartNs {
						t.Fatalf("span %+v ends before it starts", s)
					}
					layers[s.Name] = true
				}
				for _, name := range []string{"net.client", "serve.handler", "query.parse", "halk.embed"} {
					if !layers[name] {
						t.Errorf("span file has no %s span", name)
					}
				}
			}
		})
	}
}
