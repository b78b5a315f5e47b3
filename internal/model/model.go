// Package model defines the interface shared by HaLk and the baseline
// embedding models, plus the structure-batched trainer of Algorithm 1
// and the negative-sampling machinery. Keeping the interface here lets
// the trainer, evaluator, pruner and SPARQL executor stay model-agnostic.
package model

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/halk-kg/halk/internal/autodiff"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/obs"
	"github.com/halk-kg/halk/internal/query"
)

// Interface is a trainable logical-query embedding model.
type Interface interface {
	// Name identifies the model ("HaLk", "ConE", "NewLook", "MLPMix").
	Name() string
	// Params exposes the trainable tensors for the optimizer and for
	// checkpointing.
	Params() *autodiff.Params
	// Supports reports whether the model can embed the given query
	// structure (e.g. NewLook has no negation operator, ConE and MLPMix
	// no difference operator).
	Supports(structure string) bool
	// Loss builds the training loss for one query instance on the tape:
	// one positive answer and negSamples negatives are drawn with rng.
	// ok is false if the query cannot be used (e.g. no valid negatives).
	Loss(t *autodiff.Tape, q *query.Query, negSamples int, rng *rand.Rand) (loss autodiff.V, ok bool)
	// Distances returns the distance from every entity to the query's
	// embedding (lower = more likely an answer). Union queries must be
	// handled (the standard route is the DNF rewrite + min over
	// disjuncts).
	Distances(q *query.Node) []float64
}

// TrainConfig controls the structure-batched training loop.
type TrainConfig struct {
	// QueriesPerStructure is the size of the pre-sampled training
	// workload for each structure.
	QueriesPerStructure int
	// Steps is the number of optimizer steps.
	Steps int
	// BatchSize is the number of query instances per step; all instances
	// in a batch share a query structure (Alg. 1 line 3).
	BatchSize int
	// NegSamples is the number of negative entities per instance.
	NegSamples int
	// LR is the Adam learning rate.
	LR float64
	// LRDecay, when true, decays the learning rate linearly to 10% of LR
	// over the run — the warm-then-anneal schedule that keeps small-data
	// training from oscillating late.
	LRDecay bool
	// Seed drives workload sampling and negative sampling.
	Seed int64
	// Structures lists the structures to train on; defaults to
	// query.TrainStructures filtered by the model's Supports. Duplicate
	// names weight the round-robin schedule toward that structure.
	Structures []string
	// OneHopFromEdges, when true, builds the 1p training workload from
	// every (head, relation) pair of the graph instead of sampling
	// QueriesPerStructure random queries — the full edge coverage of
	// standard KG-embedding training, which the multi-hop operators
	// build on.
	OneHopFromEdges bool
	// Progress, if non-nil, receives (step, loss) once per 100 steps.
	Progress func(step int, loss float64)
	// Metrics, when non-nil, receives the training-loop series: a step
	// counter (halk_train_steps_total), a throughput gauge
	// (halk_train_steps_per_second, over the trailing 100 steps), the
	// latest batch loss (halk_train_loss) and a per-step global gradient
	// L2-norm histogram (halk_train_grad_norm). halk-train wires this to
	// the -pprof-addr debug listener's /metrics.
	Metrics *obs.Registry
	// Checkpoint, when non-nil with a rotation Dir, enables the durable
	// checkpoint lifecycle: periodic crash-safe checkpoints, a final
	// checkpoint on interrupt, and exact resume. See CheckpointConfig.
	Checkpoint *CheckpointConfig
}

// gradNormBuckets spans the gradient norms seen across the model zoo:
// vanishing (<1e-2) through exploding (>1e2).
var gradNormBuckets = []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250}

// gradNorm is the global L2 norm of all accumulated gradients.
func gradNorm(p *autodiff.Params) float64 {
	sum := 0.0
	for _, t := range p.All() {
		for _, g := range t.Grad {
			sum += g * g
		}
	}
	return math.Sqrt(sum)
}

// DefaultTrainConfig returns the training budget used by the benchmark
// harness (scaled down from the paper's 4-GPU budget; see DESIGN.md).
// One-hop projection queries are over-sampled: they train the entity and
// relation backbone every other model op builds on, mirroring the
// dominance of 1p instances in the standard benchmark workloads.
func DefaultTrainConfig(seed int64) TrainConfig {
	structures := []string{"1p", "1p", "1p", "1p", "2p", "3p"}
	structures = append(structures, query.TrainStructures...)
	return TrainConfig{
		QueriesPerStructure: 700,
		Steps:               8000,
		BatchSize:           16,
		NegSamples:          24,
		LR:                  0.01,
		LRDecay:             true,
		Seed:                seed,
		Structures:          structures,
		OneHopFromEdges:     true,
	}
}

// OneHopWorkload builds one 1p training query per (head, relation) pair
// of the graph, with the head's full successor set as answers.
func OneHopWorkload(g *kg.Graph) []query.Query {
	var out []query.Query
	for r := 0; r < g.NumRelations(); r++ {
		rel := kg.RelationID(r)
		for _, h := range g.HeadsOf(rel) {
			ans := query.NewSet(g.Successors(h, rel)...)
			out = append(out, query.Query{
				Structure:   "1p",
				Root:        query.NewProjection(rel, query.NewAnchor(h)),
				Answers:     ans,
				HardAnswers: ans,
			})
		}
	}
	return out
}

// TrainResult reports the outcome of a training run.
type TrainResult struct {
	// Steps is the number of optimizer steps completed over the model's
	// lifetime — on an interrupted run, the step the final checkpoint
	// was cut at; on a resumed run it still counts from step 0.
	Steps     int
	FinalLoss float64
	Elapsed   time.Duration
	// Interrupted is true when training stopped early because
	// CheckpointConfig.Interrupt fired; a final checkpoint was cut
	// before returning, so the run can be resumed.
	Interrupted bool
}

// Train runs the structure-batched training loop of Algorithm 1 on the
// model against the training graph. It runs up to GOMAXPROCS instances
// of a batch at once, and cfg.Seed fixes the result bit for bit at any
// GOMAXPROCS.
func Train(m Interface, g *kg.Graph, cfg TrainConfig) (TrainResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))

	structs := cfg.Structures
	if structs == nil {
		structs = query.TrainStructures
	}
	var usable []string
	for _, s := range structs {
		if m.Supports(s) {
			usable = append(usable, s)
		}
	}
	if len(usable) == 0 {
		return TrainResult{}, fmt.Errorf("model: %s supports none of the training structures", m.Name())
	}

	// Duplicate names in Structures weight the round-robin schedule;
	// sample each distinct workload once.
	workloads := make(map[string][]query.Query, len(usable))
	for _, s := range usable {
		if _, done := workloads[s]; done {
			continue
		}
		var w []query.Query
		if s == "1p" && cfg.OneHopFromEdges {
			w = OneHopWorkload(g)
		} else {
			w = query.Workload(s, cfg.QueriesPerStructure, g, g, rng)
		}
		if len(w) == 0 {
			return TrainResult{}, fmt.Errorf("model: no training queries sampled for structure %s", s)
		}
		workloads[s] = w
	}

	opt := autodiff.NewAdam(cfg.LR)
	workers := max(1, min(runtime.GOMAXPROCS(0), cfg.BatchSize))
	tapes := make([]*autodiff.Tape, workers)
	for i := range tapes {
		tapes[i] = autodiff.NewTape()
	}

	// Training metrics are optional: computing the gradient norm walks
	// every parameter, so it is skipped entirely when no registry is set.
	var (
		stepsTotal *obs.Counter
		stepsRate  *obs.Gauge
		lossGauge  *obs.Gauge
		gradHist   *obs.Histogram
	)
	if cfg.Metrics != nil {
		stepsTotal = cfg.Metrics.Counter("halk_train_steps_total", "Optimizer steps completed.")
		stepsRate = cfg.Metrics.Gauge("halk_train_steps_per_second", "Training throughput over the trailing 100 steps.")
		lossGauge = cfg.Metrics.Gauge("halk_train_loss", "Mean batch loss at the latest optimizer step.")
		gradHist = cfg.Metrics.Histogram("halk_train_grad_norm", "Global L2 gradient norm per optimizer step.", gradNormBuckets)
	}

	// Resume: skip to the checkpointed step, restore the optimizer's
	// update counter, and replay the training RNG's draws for the steps
	// already done. The replay makes the same Intn/Int63 calls (with the
	// same bounds) the original run made, so the generator lands in the
	// exact state it had at the checkpoint — resumed training is
	// bit-identical to an uninterrupted run. Parameters and Adam moments
	// must already be restored (DecodeTrainState).
	ck := cfg.Checkpoint
	first := 0
	if ck != nil && ck.Resume != nil {
		first = ck.Resume.Step
		if first > cfg.Steps {
			first = cfg.Steps
		}
		opt.SetStepCount(ck.Resume.AdamStep)
		for step := 0; step < first; step++ {
			w := workloads[usable[step%len(usable)]]
			for b := 0; b < cfg.BatchSize; b++ {
				rng.Intn(len(w))
				rng.Int63()
			}
		}
	}

	// save cuts one rotation entry at a completed-step boundary; the
	// write is atomic and verified, so a crash mid-save can never
	// publish a torn file (see internal/ckpt).
	lastSaved := -1
	save := func(step int) error {
		if !ck.enabled() || step == lastSaved {
			return nil
		}
		path, err := saveCheckpoint(ck, m, step, opt.StepCount())
		if err != nil {
			return fmt.Errorf("model: checkpoint at step %d: %w", step, err)
		}
		lastSaved = step
		if ck.OnSave != nil {
			ck.OnSave(step, path)
		}
		return nil
	}

	start := time.Now()
	lastLoss := 0.0
	rateMark, rateStep := start, first
	for step := first; step < cfg.Steps; step++ {
		if ck != nil && ck.Interrupt != nil {
			select {
			case <-ck.Interrupt:
				// Graceful stop: cut a final checkpoint at this step
				// boundary so the run loses nothing and can resume.
				if err := save(step); err != nil {
					return TrainResult{Steps: step, FinalLoss: lastLoss, Elapsed: time.Since(start), Interrupted: true}, err
				}
				return TrainResult{Steps: step, FinalLoss: lastLoss, Elapsed: time.Since(start), Interrupted: true}, nil
			default:
			}
		}
		if cfg.LRDecay {
			opt.LR = cfg.LR * (1 - 0.9*float64(step)/float64(cfg.Steps))
		}
		structure := usable[step%len(usable)]
		w := workloads[structure]

		// Pre-draw the batch and per-instance RNG seeds on the main
		// goroutine. Instances then run loss and sweep in parallel, but
		// flush their gradients into the shared tensors in batch order:
		// job b waits on turn[b] and opens turn[b+1], so the tensors see
		// the same sequence of additions, hence the same bits, at every
		// worker count.
		type job struct {
			q    *query.Query
			seed int64
		}
		jobs := make([]job, cfg.BatchSize)
		for b := range jobs {
			jobs[b] = job{q: &w[rng.Intn(len(w))], seed: rng.Int63()}
		}
		turn := make([]chan struct{}, len(jobs)+1)
		for b := range turn {
			turn[b] = make(chan struct{})
		}
		close(turn[0])

		losses := make([]float64, cfg.BatchSize)
		used := make([]bool, cfg.BatchSize)
		var wg sync.WaitGroup
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				local := rand.New(rand.NewSource(0))
				for b := wk; b < len(jobs); b += workers {
					local.Seed(jobs[b].seed)
					tapes[wk].Reset()
					loss, ok := m.Loss(tapes[wk], jobs[b].q, cfg.NegSamples, local)
					if ok {
						tapes[wk].Sweep(loss)
						losses[b] = loss.Value()[0]
						used[b] = true
					}
					<-turn[b]
					if ok {
						tapes[wk].Flush(loss)
					}
					close(turn[b+1])
				}
			}(wk)
		}
		wg.Wait()

		batchLoss, n := 0.0, 0
		for b := range jobs {
			if used[b] {
				batchLoss += losses[b]
				n++
			}
		}
		if n > 0 {
			if gradHist != nil {
				gradHist.Observe(gradNorm(m.Params()) / float64(n))
			}
			opt.Step(m.Params(), float64(n))
			lastLoss = batchLoss / float64(n)
			if stepsTotal != nil {
				stepsTotal.Inc()
				lossGauge.Set(lastLoss)
				if done := step + 1 - rateStep; done >= 100 {
					if dt := time.Since(rateMark).Seconds(); dt > 0 {
						stepsRate.Set(float64(done) / dt)
					}
					rateMark, rateStep = time.Now(), step+1
				}
			}
			if cfg.Progress != nil && step%100 == 0 {
				cfg.Progress(step, lastLoss)
			}
		}
		// Periodic checkpoint, aligned to absolute step numbers so a
		// resumed run keeps the original cadence. A failed write is a
		// hard error: silently continuing would report a durability the
		// run does not have.
		if ck.enabled() && ck.Every > 0 && (step+1)%ck.Every == 0 {
			if err := save(step + 1); err != nil {
				return TrainResult{Steps: step + 1, FinalLoss: lastLoss, Elapsed: time.Since(start)}, err
			}
		}
	}
	// Final rotation entry at the last step, so a later -resume with a
	// larger -steps budget extends this run instead of restarting it.
	if err := save(cfg.Steps); err != nil {
		return TrainResult{Steps: cfg.Steps, FinalLoss: lastLoss, Elapsed: time.Since(start)}, err
	}
	return TrainResult{Steps: cfg.Steps, FinalLoss: lastLoss, Elapsed: time.Since(start)}, nil
}

// SampleNegatives draws up to m entities outside the answer set,
// uniformly at random. Returns nil if the answer set covers the whole
// universe.
func SampleNegatives(answers query.Set, numEntities, m int, rng *rand.Rand) []kg.EntityID {
	if len(answers) >= numEntities {
		return nil
	}
	out := make([]kg.EntityID, 0, m)
	for len(out) < m {
		e := kg.EntityID(rng.Intn(numEntities))
		if !answers.Has(e) {
			out = append(out, e)
		}
	}
	return out
}

// SamplePositive draws one answer uniformly at random.
func SamplePositive(answers query.Set, rng *rand.Rand) (kg.EntityID, bool) {
	if len(answers) == 0 {
		return 0, false
	}
	// Map iteration order is random but not seeded; sort for determinism.
	ids := answers.Slice()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids[rng.Intn(len(ids))], true
}
