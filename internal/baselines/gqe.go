package baselines

import (
	"math"
	"math/rand"

	"github.com/halk-kg/halk/internal/autodiff"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/model"
	"github.com/halk-kg/halk/internal/query"
)

// GQE (Hamilton et al., NeurIPS 2018 — "Embedding logical queries on
// knowledge graphs") is the earliest embedding-based query answerer and
// the paper's representative of the first group: each query is a single
// vector, projection is a relation-specific diagonal bilinear transform,
// and intersection is a permutation-invariant DeepSets aggregation. EPFO
// only (projection, intersection; exact union via DNF), with no
// cardinality modelling at all.
type GQE struct {
	cfg    Config
	graph  *kg.Graph
	params *autodiff.Params

	ent  *autodiff.Tensor
	relW *autodiff.Tensor // per-relation diagonal transform
	relB *autodiff.Tensor // per-relation translation

	interInner, interOut *autodiff.MLP
}

var _ model.Interface = (*GQE)(nil)

// NewGQE builds a GQE model over the training graph.
func NewGQE(g *kg.Graph, cfg Config) *GQE {
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := autodiff.NewParams()
	d, h := cfg.Dim, cfg.Hidden
	return &GQE{
		cfg:    cfg,
		graph:  g,
		params: p,
		ent:    p.NewUniform("entity", g.NumEntities(), d, -1, 1, rng),
		relW:   p.NewUniform("relation.diag", g.NumRelations(), d, 0.5, 1.5, rng),
		relB:   p.NewUniform("relation.bias", g.NumRelations(), d, -0.5, 0.5, rng),

		interInner: autodiff.NewMLP(p, "inter.inner", []int{d, h}, rng),
		interOut:   autodiff.NewMLP(p, "inter.out", []int{h, d}, rng),
	}
}

// Name implements model.Interface.
func (gq *GQE) Name() string { return "GQE" }

// Params implements model.Interface.
func (gq *GQE) Params() *autodiff.Params { return gq.params }

// Supports implements model.Interface: EPFO only.
func (gq *GQE) Supports(structure string) bool {
	return !query.UsesNegation(structure) && !query.UsesDifference(structure)
}

func (gq *GQE) embed(t *autodiff.Tape, n *query.Node) autodiff.V {
	switch n.Op {
	case query.OpAnchor:
		return gq.ent.Leaf(t, int(n.Anchor))
	case query.OpProjection:
		in := gq.embed(t, n.Args[0])
		w := gq.relW.Leaf(t, int(n.Rel))
		b := gq.relB.Leaf(t, int(n.Rel))
		return t.Add(t.Mul(w, in), b)
	case query.OpIntersection:
		inners := make([]autodiff.V, len(n.Args))
		for i, a := range n.Args {
			inners[i] = gq.interInner.Forward(t, gq.embed(t, a))
		}
		return gq.interOut.Forward(t, t.MeanStack(inners))
	case query.OpNegation:
		panic("baselines: GQE does not support the negation operator")
	case query.OpDifference:
		panic("baselines: GQE does not support the difference operator")
	case query.OpUnion:
		panic("baselines: embed on union node; rewrite with query.DNF first")
	}
	panic("baselines: GQE embed: unknown op")
}

// Loss implements model.Interface (L1 distance in the vector space).
func (gq *GQE) Loss(t *autodiff.Tape, q *query.Query, negSamples int, rng *rand.Rand) (autodiff.V, bool) {
	pos, negs, ok := samplePosNegs(q, gq.graph.NumEntities(), negSamples, rng)
	if !ok {
		return autodiff.V{}, false
	}
	disjuncts := query.DNF(q.Root)
	embs := make([]autodiff.V, len(disjuncts))
	for i, d := range disjuncts {
		embs[i] = gq.embed(t, d)
	}
	score := func(e kg.EntityID) autodiff.V {
		pt := gq.ent.Leaf(t, int(e))
		per := make([]autodiff.V, len(embs))
		for i, qv := range embs {
			per[i] = t.L1(t.Sub(pt, qv))
		}
		return minScalar(t, per)
	}
	negScores := make([]autodiff.V, len(negs))
	for i, ne := range negs {
		negScores[i] = score(ne)
	}
	return marginLoss(t, gq.cfg.Gamma, score(pos), negScores), true
}

// Distances implements model.Interface.
func (gq *GQE) Distances(n *query.Node) []float64 {
	t := autodiff.NewForwardTape()
	disjuncts := query.DNF(n)
	embs := make([][]float64, len(disjuncts))
	for i, d := range disjuncts {
		embs[i] = append([]float64(nil), gq.embed(t, d).Value()...)
	}
	out := make([]float64, gq.graph.NumEntities())
	for e := range out {
		pt := gq.ent.Row(e)
		best := math.Inf(1)
		for _, qv := range embs {
			d := 0.0
			for j := range pt {
				d += math.Abs(pt[j] - qv[j])
			}
			if d < best {
				best = d
			}
		}
		out[e] = best
	}
	return out
}
