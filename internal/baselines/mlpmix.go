package baselines

import (
	"math"
	"math/rand"

	"github.com/halk-kg/halk/internal/autodiff"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/model"
	"github.com/halk-kg/halk/internal/query"
)

// MLPMix is the non-geometric baseline: a query is a free vector in ℝ^d
// and every operator is a plain MLP block. Characteristic properties
// kept from the original (HaLk Sec. II-C / IV-B):
//
//   - no geometric structure at all, hence no way to model answer-set
//     cardinality — the reason the paper finds geometry-based methods
//     dominate it;
//   - negation is a single linear layer (the linear-transformation
//     assumption);
//   - no difference operator.
type MLPMix struct {
	cfg    Config
	graph  *kg.Graph
	params *autodiff.Params

	ent *autodiff.Tensor // entity vectors, n × d
	rel *autodiff.Tensor // relation vectors, m × d

	proj                 *autodiff.MLP // [q ‖ r] -> q'
	interInner, interOut *autodiff.MLP
	negW                 *autodiff.Tensor // linear negation weight, d × d
	negB                 *autodiff.Tensor // linear negation bias, 1 × d
}

var _ model.Interface = (*MLPMix)(nil)

// NewMLPMix builds an MLPMix model over the training graph.
func NewMLPMix(g *kg.Graph, cfg Config) *MLPMix {
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := autodiff.NewParams()
	d, h := cfg.Dim, cfg.Hidden
	return &MLPMix{
		cfg:    cfg,
		graph:  g,
		params: p,
		ent:    p.NewUniform("entity", g.NumEntities(), d, -1, 1, rng),
		rel:    p.NewUniform("relation", g.NumRelations(), d, -1, 1, rng),

		proj:       autodiff.NewMLP(p, "proj", []int{2 * d, h, d}, rng),
		interInner: autodiff.NewMLP(p, "inter.inner", []int{d, h}, rng),
		interOut:   autodiff.NewMLP(p, "inter.out", []int{h, d}, rng),
		negW:       p.NewXavier("neg.w", d, d, rng),
		negB:       p.New("neg.b", 1, d),
	}
}

// Name implements model.Interface.
func (mm *MLPMix) Name() string { return "MLPMix" }

// Params implements model.Interface.
func (mm *MLPMix) Params() *autodiff.Params { return mm.params }

// Supports implements model.Interface: every structure without a
// difference operator.
func (mm *MLPMix) Supports(structure string) bool { return !query.UsesDifference(structure) }

func (mm *MLPMix) embed(t *autodiff.Tape, n *query.Node) autodiff.V {
	switch n.Op {
	case query.OpAnchor:
		return mm.ent.Leaf(t, int(n.Anchor))
	case query.OpProjection:
		in := mm.embed(t, n.Args[0])
		r := mm.rel.Leaf(t, int(n.Rel))
		return mm.proj.Forward(t, t.Concat(in, r))
	case query.OpIntersection:
		inners := make([]autodiff.V, len(n.Args))
		for i, a := range n.Args {
			inners[i] = mm.interInner.Forward(t, mm.embed(t, a))
		}
		return mm.interOut.Forward(t, t.MeanStack(inners))
	case query.OpNegation:
		in := mm.embed(t, n.Args[0])
		w := mm.negW.LeafAll(t)
		b := mm.negB.LeafAll(t)
		return t.MatVec(w, in, b, mm.cfg.Dim, mm.cfg.Dim)
	case query.OpDifference:
		panic("baselines: MLPMix does not support the difference operator")
	case query.OpUnion:
		panic("baselines: embed on union node; rewrite with query.DNF first")
	}
	panic("baselines: MLPMix embed: unknown op")
}

// Loss implements model.Interface: L1 distance in the free vector space.
func (mm *MLPMix) Loss(t *autodiff.Tape, q *query.Query, negSamples int, rng *rand.Rand) (autodiff.V, bool) {
	pos, negs, ok := samplePosNegs(q, mm.graph.NumEntities(), negSamples, rng)
	if !ok {
		return autodiff.V{}, false
	}
	disjuncts := query.DNF(q.Root)
	embs := make([]autodiff.V, len(disjuncts))
	for i, d := range disjuncts {
		embs[i] = mm.embed(t, d)
	}
	score := func(e kg.EntityID) autodiff.V {
		pt := mm.ent.Leaf(t, int(e))
		per := make([]autodiff.V, len(embs))
		for i, q := range embs {
			per[i] = t.L1(t.Sub(pt, q))
		}
		return minScalar(t, per)
	}
	negScores := make([]autodiff.V, len(negs))
	for i, ne := range negs {
		negScores[i] = score(ne)
	}
	return marginLoss(t, mm.cfg.Gamma, score(pos), negScores), true
}

// Distances implements model.Interface.
func (mm *MLPMix) Distances(n *query.Node) []float64 {
	t := autodiff.NewForwardTape()
	disjuncts := query.DNF(n)
	embs := make([][]float64, len(disjuncts))
	for i, d := range disjuncts {
		embs[i] = append([]float64(nil), mm.embed(t, d).Value()...)
	}
	out := make([]float64, mm.graph.NumEntities())
	for e := range out {
		pt := mm.ent.Row(e)
		best := math.Inf(1)
		for _, q := range embs {
			d := 0.0
			for j := range pt {
				d += math.Abs(pt[j] - q[j])
			}
			if d < best {
				best = d
			}
		}
		out[e] = best
	}
	return out
}
