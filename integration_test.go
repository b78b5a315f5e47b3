package halk_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/halk-kg/halk/internal/eval"
	"github.com/halk-kg/halk/internal/halk"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/match"
	"github.com/halk-kg/halk/internal/model"
	"github.com/halk-kg/halk/internal/query"
	"github.com/halk-kg/halk/internal/sparql"
)

// trainSmall trains a small HaLk model for the integration tests.
func trainSmall(t *testing.T, ds *kg.Dataset, steps int) *halk.Model {
	t.Helper()
	cfg := halk.DefaultConfig(1)
	cfg.Dim, cfg.Hidden, cfg.NumGroups = 12, 16, 4
	cfg.Gamma = 24 * float64(cfg.Dim) / 800
	m := halk.New(ds.Train, cfg)
	tc := model.DefaultTrainConfig(2)
	tc.Steps = steps
	tc.BatchSize = 8
	tc.NegSamples = 8
	if _, err := model.Train(m, ds.Train, tc); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestEndToEndPipeline drives the whole stack once: dataset -> training
// -> SPARQL -> Adaptor -> embedding executor + subgraph executor ->
// metrics -> checkpoint round trip.
func TestEndToEndPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	ds := kg.SynthFB237(1)
	m := trainSmall(t, ds, 150)

	// SPARQL through the Adaptor, over real dataset vocabulary.
	var tr = ds.Train.Triples()[0]
	src := `SELECT ?x WHERE { :` + ds.Train.Entities.Name(int32(tr.H)) +
		` :` + ds.Train.Relations.Name(int32(tr.R)) + ` ?x }`
	pq, err := sparql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	adaptor := &sparql.Adaptor{Entities: ds.Train.Entities, Relations: ds.Train.Relations}
	root, err := adaptor.Compile(pq)
	if err != nil {
		t.Fatal(err)
	}

	// Both executors answer it.
	d := m.Distances(root)
	if len(d) != ds.Train.NumEntities() {
		t.Fatalf("embedding executor returned %d distances", len(d))
	}
	gf := match.New(ds.Train)
	res := gf.Execute(root, match.Options{})
	want := query.Answers(root, ds.Train)
	if len(res.Answers) != len(want) {
		t.Fatalf("matcher found %d answers, oracle %d", len(res.Answers), len(want))
	}

	// Metrics machinery over an evaluation workload.
	rng := rand.New(rand.NewSource(9))
	w := query.Workload("1p", 5, ds.Train, ds.Test, rng)
	mt := eval.Evaluate(m, w)
	if mt.N == 0 || mt.MRR < 0 || mt.MRR > 1 {
		t.Fatalf("metrics = %+v", mt)
	}

	// Checkpoint round trip preserves rankings exactly. The round trip
	// goes through a real file: gob decoders buffer reads from plain
	// files, which a two-decoder implementation gets wrong (regression
	// guard).
	path := filepath.Join(t.TempDir(), "m.ckpt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SaveCheckpoint(f, "FB237", 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	m2, hdr, err := halk.LoadCheckpoint(rf, func(hdr halk.CheckpointHeader) (*kg.Graph, error) {
		return kg.SynthFB237(hdr.Seed).Train, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Dataset != "FB237" || hdr.Config.Dim != 12 {
		t.Fatalf("header = %+v", hdr)
	}
	d2 := m2.Distances(root)
	for e := range d {
		if d[e] != d2[e] {
			t.Fatalf("distances differ after checkpoint round trip at entity %d", e)
		}
	}

}

// TestPruningPipeline checks the Sec. IV-D contract end to end: the
// restricted matcher only returns answers the unrestricted matcher also
// finds, and does less candidate-generation work.
func TestPruningPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	ds := kg.SynthNELL(2)
	m := trainSmall(t, ds, 100)
	gf := match.New(ds.Train)
	rng := rand.New(rand.NewSource(5))
	w := query.Workload("2ipp", 5, ds.Train, ds.Test, rng)
	if len(w) == 0 {
		t.Skip("no 2ipp queries sampled")
	}
	for i := range w {
		full := gf.Execute(w[i].Root, match.Options{})
		restrict := make(query.Set)
		for _, cands := range m.CandidatesPerNode(w[i].Root, 25) {
			for _, e := range cands {
				restrict[e] = struct{}{}
			}
		}
		for _, a := range w[i].Root.Anchors() {
			restrict[a] = struct{}{}
		}
		pruned := gf.Execute(w[i].Root, match.Options{Restrict: restrict})
		for e := range pruned.Answers {
			if !full.Answers.Has(e) {
				t.Fatal("pruned matching fabricated an answer")
			}
		}
		if pruned.FilterOps >= full.FilterOps {
			t.Errorf("pruning did not reduce filter work: %d vs %d",
				pruned.FilterOps, full.FilterOps)
		}
	}
}
