package halk

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"github.com/halk-kg/halk/internal/autodiff"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/model"
	"github.com/halk-kg/halk/internal/query"
)

// This file implements the streaming fine-tune step behind the live-graph
// ingest subsystem (internal/ingest): a bounded SGD update that folds a
// micro-batch of added/removed triples into the embeddings WITHOUT a full
// retrain, touching only the entity and relation rows that participate in
// the batch. The projection/intersection MLP heads stay frozen — their
// gradients are computed as a side effect of the forward pass and
// discarded — so a delta update can never drift the operator semantics
// the full training run established.
//
// Determinism and isolation are the contract the ingest tests pin down:
//
//   - Under a fixed FineTuneConfig.Seed the update is bit-deterministic:
//     same base parameters + same edge batch => byte-identical result.
//   - Entity rows outside the returned dirty set are provably untouched:
//     the apply loop writes only rows with accumulated gradient, so
//     "untouched" means byte-identical, not merely "close".
//
// Concurrency: the whole step holds the writers' mutex, so no reload or
// other write lands between the pass that computes the gradients and
// the apply. The apply writes copies of the entity and relation arrays
// and publishes them as a new view: rankings in flight keep the view
// they loaded, and a ranking that observes the new version observes the
// new rows, so version-namespaced caches can never pair post-bump keys
// with pre-bump answers.

// FineTuneConfig bounds one streaming fine-tune step.
type FineTuneConfig struct {
	// LR is the SGD learning rate; 0 means 0.05.
	LR float64
	// NegSamples is the number of negative entities sampled per added
	// edge; 0 means 8.
	NegSamples int
	// MaxStep caps the per-row L2 norm of the applied update (radians);
	// a gradient spike on a low-degree entity moves it at most this far.
	// 0 means 0.5.
	MaxStep float64
	// Seed drives negative sampling. The same seed over the same base
	// parameters and edges reproduces the update bit for bit.
	Seed int64
}

func (c *FineTuneConfig) defaults() {
	if c.LR <= 0 {
		c.LR = 0.05
	}
	if c.NegSamples <= 0 {
		c.NegSamples = 8
	}
	if c.MaxStep <= 0 {
		c.MaxStep = 0.5
	}
}

// FineTuneResult reports one fine-tune step's outcome.
type FineTuneResult struct {
	// Edges is the number of edge losses that contributed gradient.
	Edges int
	// Loss is the mean per-edge loss (0 when Edges is 0).
	Loss float64
	// DirtyEntities are the entity rows the step updated, sorted. Every
	// row not listed is byte-identical to its pre-step value.
	DirtyEntities []kg.EntityID
	// DirtyRelations are the relation rows (center and length tables)
	// the step updated, sorted.
	DirtyRelations []kg.RelationID
	// Version is the entity-table version after the step's bump; equal
	// to the pre-step version when the step applied nothing.
	Version uint64
}

// FineTuneEdges folds a micro-batch of added and removed triples into
// the embeddings with one bounded SGD step. For an added (h, r, t) the
// tail is pulled into the arc of p[r](h) against sampled negatives (the
// Eq. 17 loss restricted to this edge); for a removed triple the tail
// is pushed out of the arc. Entities named by the triples must already
// exist — the ingest layer validates vocabulary before calling.
//
// The model's graph is read for negative filtering (a sampled negative
// must not be a current answer of p[r](h)), so callers applying edges
// to the graph should do so before fine-tuning on them.
func (m *Model) FineTuneEdges(added, removed []kg.Triple, cfg FineTuneConfig) (FineTuneResult, error) {
	cfg.defaults()
	numEnt, numRel := m.graph.NumEntities(), m.graph.NumRelations()
	for _, tr := range append(append([]kg.Triple(nil), added...), removed...) {
		if int(tr.H) < 0 || int(tr.H) >= numEnt || int(tr.T) < 0 || int(tr.T) >= numEnt {
			return FineTuneResult{Version: m.EntityVersion()}, fmt.Errorf("halk: fine-tune edge %+v: entity out of range [0, %d)", tr, numEnt)
		}
		if int(tr.R) < 0 || int(tr.R) >= numRel {
			return FineTuneResult{Version: m.EntityVersion()}, fmt.Errorf("halk: fine-tune edge %+v: relation out of range [0, %d)", tr, numRel)
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	dirtyEnt := make(map[kg.EntityID]struct{})
	dirtyRel := make(map[kg.RelationID]struct{})
	tape := autodiff.NewTape()
	edges, lossSum := 0, 0.0

	// Forward + backward over the live parameters, accumulating
	// gradients into the tensors' mutex-protected sinks.
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, tr := range added {
		node := query.NewProjection(tr.R, query.NewAnchor(tr.H))
		answers := query.NewSet(m.graph.Successors(tr.H, tr.R)...)
		answers[tr.T] = struct{}{} // the new tail is an answer even if the graph apply is pending
		negs := model.SampleNegatives(answers, numEnt, cfg.NegSamples, rng)
		if len(negs) == 0 {
			continue
		}
		tape.Reset()
		arc := m.Embed(tape, node)
		scores := m.scoreEntities(tape, append([]kg.EntityID{tr.T}, negs...), []Arc{arc})
		posLoss := tape.Neg(tape.LogSigmoid(tape.AddScalar(tape.Neg(tape.Slice(scores, 0, 1)), m.cfg.Gamma)))
		negLoss := tape.Mean(tape.Neg(tape.LogSigmoid(tape.AddScalar(tape.Slice(scores, 1, len(negs)), -m.cfg.Gamma))))
		loss := tape.Add(posLoss, negLoss)
		tape.Backward(loss)
		lossSum += loss.Value()[0]
		edges++
		dirtyEnt[tr.H] = struct{}{}
		dirtyEnt[tr.T] = struct{}{}
		for _, n := range negs {
			dirtyEnt[n] = struct{}{}
		}
		dirtyRel[tr.R] = struct{}{}
	}
	for _, tr := range removed {
		node := query.NewProjection(tr.R, query.NewAnchor(tr.H))
		tape.Reset()
		arc := m.Embed(tape, node)
		scores := m.scoreEntities(tape, []kg.EntityID{tr.T}, []Arc{arc})
		// Push the retracted tail out of the arc: −log σ(score − γ), the
		// negative-sample half of Eq. 17 applied to exactly this entity.
		loss := tape.Neg(tape.LogSigmoid(tape.AddScalar(scores, -m.cfg.Gamma)))
		tape.Backward(loss)
		lossSum += loss.Value()[0]
		edges++
		dirtyEnt[tr.H] = struct{}{}
		dirtyEnt[tr.T] = struct{}{}
		dirtyRel[tr.R] = struct{}{}
	}

	res := FineTuneResult{Edges: edges}
	if edges == 0 {
		// Nothing contributed gradient; clear any stray accumulation and
		// leave the version untouched (no rebuilds, no cache invalidation).
		m.params.ZeroGrad()
		res.Version = m.pub.Load().version
		return res, nil
	}
	res.Loss = lossSum / float64(edges)
	res.DirtyEntities = make([]kg.EntityID, 0, len(dirtyEnt))
	for e := range dirtyEnt {
		res.DirtyEntities = append(res.DirtyEntities, e)
	}
	sort.Slice(res.DirtyEntities, func(i, j int) bool { return res.DirtyEntities[i] < res.DirtyEntities[j] })
	res.DirtyRelations = make([]kg.RelationID, 0, len(dirtyRel))
	for r := range dirtyRel {
		res.DirtyRelations = append(res.DirtyRelations, r)
	}
	sort.Slice(res.DirtyRelations, func(i, j int) bool { return res.DirtyRelations[i] < res.DirtyRelations[j] })

	// Apply to copies of the arrays, so no published view is written and
	// no ranking observes a half-applied batch, then publish them.
	ent, relC, relL := slices.Clone(m.ent.Data), slices.Clone(m.relC.Data), slices.Clone(m.relL.Data)
	for _, e := range res.DirtyEntities {
		applyRowSGD(m.ent, ent, int(e), cfg.LR, cfg.MaxStep)
	}
	for _, r := range res.DirtyRelations {
		applyRowSGD(m.relC, relC, int(r), cfg.LR, cfg.MaxStep)
		applyRowSGD(m.relL, relL, int(r), cfg.LR, cfg.MaxStep)
	}
	m.ent.Data, m.relC.Data, m.relL.Data = ent, relC, relL
	// The MLP heads' gradients (and any row we chose not to step) are
	// discarded: fine-tune moves embeddings only.
	m.params.ZeroGrad()
	res.Version = m.publishLocked(m.net.views(), false).version
	return res, nil
}

// applyRowSGD steps one row of data, a copy of t's values, against t's
// accumulated gradient, capping the update's L2 norm at maxStep. Rows
// with zero gradient are left byte-identical (no multiply-by-zero
// rewrite), as is a tensor no backward pass has reached yet (Grad is
// allocated on first use).
func applyRowSGD(t *autodiff.Tensor, data []float64, row int, lr, maxStep float64) {
	if t.Grad == nil {
		return
	}
	cols := t.Cols
	grad := t.Grad[row*cols : (row+1)*cols]
	norm := 0.0
	for _, g := range grad {
		norm += g * g
	}
	if norm == 0 {
		return
	}
	scale := lr
	if step := lr * math.Sqrt(norm); step > maxStep {
		scale = maxStep / math.Sqrt(norm)
	}
	data = data[row*cols : (row+1)*cols]
	for j, g := range grad {
		data[j] -= scale * g
	}
}
