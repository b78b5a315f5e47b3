// Package bench drives the paper's full evaluation: it trains HaLk, its
// ablation variants and the three baselines on the three benchmark
// stand-ins and regenerates every table and figure of Sec. IV. The same
// driver backs cmd/halk-bench (full budgets) and the repository's
// testing.B benchmarks (reduced budgets).
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"github.com/halk-kg/halk/internal/baselines"
	"github.com/halk-kg/halk/internal/eval"
	"github.com/halk-kg/halk/internal/halk"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/model"
	"github.com/halk-kg/halk/internal/query"
)

// Config scales the experiment suite.
type Config struct {
	// Seed drives datasets, training and workload sampling.
	Seed int64
	// Dim and Hidden size the models.
	Dim, Hidden int
	// Train is the per-model training budget (seed is derived).
	Train model.TrainConfig
	// EvalQueries is the number of evaluation queries per structure.
	EvalQueries int
	// PruneTopK is the per-variable candidate count for the pruning
	// experiment (paper: 20).
	PruneTopK int
	// Out receives progress lines; nil silences them.
	Out io.Writer
}

// FullConfig is the paper-scale (for this reproduction) configuration
// used by cmd/halk-bench.
func FullConfig(seed int64) Config {
	return Config{
		Seed:        seed,
		Dim:         64,
		Hidden:      64,
		Train:       model.DefaultTrainConfig(seed),
		EvalQueries: 40,
		// The paper uses top-20 of NELL995's 63k entities; at 1/60 the
		// entity count the transferable quantity is the pruning *ratio*,
		// so the stand-in uses top-50 of ~1k entities (still a ≥90% cut
		// of the candidate space).
		PruneTopK: 50,
	}
}

// QuickConfig is a minutes-scale configuration for smoke runs and the
// testing.B benchmarks; it reproduces the pipelines, not the accuracy.
func QuickConfig(seed int64) Config {
	tc := model.DefaultTrainConfig(seed)
	tc.Steps = 240
	tc.QueriesPerStructure = 60
	tc.BatchSize = 8
	tc.NegSamples = 8
	return Config{
		Seed:        seed,
		Dim:         16,
		Hidden:      24,
		Train:       tc,
		EvalQueries: 6,
		PruneTopK:   10,
	}
}

// MethodsAll is the method column order of Tables I and II.
var MethodsAll = []string{"ConE", "NewLook", "MLPMix", "HaLk"}

// MethodsNegation is the method order of Tables III and IV (NewLook has
// no negation operator).
var MethodsNegation = []string{"ConE", "MLPMix", "HaLk"}

// Suite owns the datasets, trained models and cached workloads of one
// benchmark run.
type Suite struct {
	cfg      Config
	Datasets []*kg.Dataset

	trained   map[string]*trained // key: dataset/model
	workloads map[string][]query.Query
}

type trained struct {
	model   model.Interface
	offline time.Duration
}

// NewSuite builds the three benchmark datasets and an empty model cache.
func NewSuite(cfg Config) *Suite {
	return &Suite{
		cfg:       cfg,
		Datasets:  kg.Standard(cfg.Seed),
		trained:   make(map[string]*trained),
		workloads: make(map[string][]query.Query),
	}
}

// Dataset returns the dataset by name ("FB15k", "FB237", "NELL").
func (s *Suite) Dataset(name string) *kg.Dataset {
	for _, d := range s.Datasets {
		if d.Name == name {
			return d
		}
	}
	panic(fmt.Sprintf("bench: unknown dataset %q", name))
}

func (s *Suite) logf(format string, args ...any) {
	if s.cfg.Out != nil {
		fmt.Fprintf(s.cfg.Out, format+"\n", args...)
	}
}

// newModel constructs an untrained model by method name; HaLk ablation
// variants (Table V) use their Table V names.
func (s *Suite) newModel(name string, g *kg.Graph) model.Interface {
	seed := s.cfg.Seed + 17
	switch name {
	case "HaLk", "HaLk-V1", "HaLk-V2", "HaLk-V3":
		cfg := halk.DefaultConfig(seed)
		cfg.Dim, cfg.Hidden = s.cfg.Dim, s.cfg.Hidden
		cfg.Gamma = 24 * float64(s.cfg.Dim) / 800 // paper ratio, see halk.DefaultConfig
		cfg.Xi = 5 * cfg.Gamma
		switch name {
		case "HaLk-V1":
			cfg.Variant = halk.V1NewLookDiff
		case "HaLk-V2":
			cfg.Variant = halk.V2LinearNeg
		case "HaLk-V3":
			cfg.Variant = halk.V3NewLookProj
		}
		return halk.New(g, cfg)
	case "ConE", "NewLook", "MLPMix", "Query2Box", "GQE", "BetaE":
		cfg := baselines.DefaultConfig(seed)
		cfg.Dim, cfg.Hidden = s.cfg.Dim, s.cfg.Hidden
		cfg.Gamma = 24 * float64(s.cfg.Dim) / 800
		switch name {
		case "ConE":
			return baselines.NewConE(g, cfg)
		case "NewLook":
			return baselines.NewNewLook(g, cfg)
		case "MLPMix":
			return baselines.NewMLPMix(g, cfg)
		case "Query2Box":
			return baselines.NewQuery2Box(g, cfg)
		case "GQE":
			return baselines.NewGQE(g, cfg)
		case "BetaE":
			return baselines.NewBetaE(g, cfg)
		}
	}
	panic(fmt.Sprintf("bench: unknown method %q", name))
}

// Model trains (or returns the cached) method on the dataset's training
// graph.
func (s *Suite) Model(ds *kg.Dataset, method string) (model.Interface, time.Duration) {
	key := ds.Name + "/" + method
	if t, ok := s.trained[key]; ok {
		return t.model, t.offline
	}
	m := s.newModel(method, ds.Train)
	tc := s.cfg.Train
	tc.Seed = s.cfg.Seed + int64(len(s.trained)) + 101
	s.logf("training %s on %s (%d steps)...", method, ds.Name, tc.Steps)
	res, err := model.Train(m, ds.Train, tc)
	if err != nil {
		panic(fmt.Sprintf("bench: training %s on %s: %v", method, ds.Name, err))
	}
	s.logf("  done in %v (final loss %.3f)", res.Elapsed.Round(time.Millisecond), res.FinalLoss)
	s.trained[key] = &trained{model: m, offline: res.Elapsed}
	return m, res.Elapsed
}

// Workload returns (cached) evaluation queries for a structure on a
// dataset: sampled on the test graph, hard answers relative to the
// training graph.
func (s *Suite) Workload(ds *kg.Dataset, structure string) []query.Query {
	key := ds.Name + "/" + structure
	if w, ok := s.workloads[key]; ok {
		return w
	}
	rng := rand.New(rand.NewSource(s.cfg.Seed + int64(len(key))*37))
	w := query.Workload(structure, s.cfg.EvalQueries, ds.Train, ds.Test, rng)
	s.workloads[key] = w
	return w
}

// Eval scores one trained method on one structure of one dataset.
func (s *Suite) Eval(ds *kg.Dataset, method, structure string) (eval.Metrics, bool) {
	m, _ := s.Model(ds, method)
	if !m.Supports(structure) {
		return eval.Metrics{}, false
	}
	w := s.Workload(ds, structure)
	if len(w) == 0 {
		return eval.Metrics{}, false
	}
	return eval.Evaluate(m, w), true
}
