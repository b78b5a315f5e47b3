package baselines

import (
	"math"
	"math/rand"

	"github.com/halk-kg/halk/internal/autodiff"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/model"
	"github.com/halk-kg/halk/internal/query"
)

// BetaE (Ren & Leskovec, NeurIPS 2020) embeds entities and queries as
// products of Beta distributions — the paper's second-group probabilistic
// baseline. Supported operators: projection (an MLP on the distribution
// parameters and the relation embedding), intersection (attention-weighted
// parameter interpolation — the weighted product of Beta PDFs), negation
// (the defining parameter reciprocal (α, β) → (1/α, 1/β), a fixed linear
// transformation), exact union via DNF. No difference operator.
//
// The entity-to-query distance is the KL divergence
// KL(p_entity ‖ p_query) summed over dimensions.
type BetaE struct {
	cfg    Config
	graph  *kg.Graph
	params *autodiff.Params

	ent *autodiff.Tensor // raw entity params, n × 2d (softplus -> α‖β)
	rel *autodiff.Tensor // relation embeddings, m × d

	proj     *autodiff.MLP // [α‖β‖r] -> 2d raw
	interAtt *autodiff.MLP // attention scores for intersection
}

var _ model.Interface = (*BetaE)(nil)

// betaDist is an on-tape product-of-Betas embedding: positive α, β.
type betaDist struct {
	alpha autodiff.V
	beta  autodiff.V
}

// NewBetaE builds a BetaE model over the training graph.
func NewBetaE(g *kg.Graph, cfg Config) *BetaE {
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := autodiff.NewParams()
	d, h := cfg.Dim, cfg.Hidden
	return &BetaE{
		cfg:    cfg,
		graph:  g,
		params: p,
		ent:    p.NewUniform("entity", g.NumEntities(), 2*d, -0.5, 1.5, rng),
		rel:    p.NewUniform("relation", g.NumRelations(), d, -1, 1, rng),

		proj:     autodiff.NewMLP(p, "proj", []int{3 * d, h, 2 * d}, rng),
		interAtt: autodiff.NewMLP(p, "inter.att", []int{2 * d, h, 2 * d}, rng),
	}
}

// Name implements model.Interface.
func (be *BetaE) Name() string { return "BetaE" }

// Params implements model.Interface.
func (be *BetaE) Params() *autodiff.Params { return be.params }

// Supports implements model.Interface: everything except difference.
func (be *BetaE) Supports(structure string) bool { return !query.UsesDifference(structure) }

// positive maps raw parameters to strictly positive Beta parameters.
func positive(t *autodiff.Tape, raw autodiff.V) autodiff.V {
	return t.AddScalar(t.Softplus(raw), 0.05)
}

func (be *BetaE) split(t *autodiff.Tape, raw autodiff.V) betaDist {
	d := be.cfg.Dim
	return betaDist{
		alpha: positive(t, t.Slice(raw, 0, d)),
		beta:  positive(t, t.Slice(raw, d, d)),
	}
}

func (be *BetaE) embed(t *autodiff.Tape, n *query.Node) betaDist {
	switch n.Op {
	case query.OpAnchor:
		return be.split(t, be.ent.Leaf(t, int(n.Anchor)))
	case query.OpProjection:
		in := be.embed(t, n.Args[0])
		r := be.rel.Leaf(t, int(n.Rel))
		raw := be.proj.Forward(t, t.Concat(in.alpha, in.beta, r))
		return be.split(t, raw)
	case query.OpIntersection:
		kids := make([]betaDist, len(n.Args))
		scores := make([]autodiff.V, len(n.Args))
		for i, a := range n.Args {
			kids[i] = be.embed(t, a)
			scores[i] = be.interAtt.Forward(t, t.Concat(kids[i].alpha, kids[i].beta))
		}
		w := t.SoftmaxStack(scores)
		d := be.cfg.Dim
		var alpha, beta autodiff.V
		for i, k := range kids {
			wa := t.Slice(w[i], 0, d)
			wb := t.Slice(w[i], d, d)
			ta := t.Mul(wa, k.alpha)
			tb := t.Mul(wb, k.beta)
			if i == 0 {
				alpha, beta = ta, tb
			} else {
				alpha, beta = t.Add(alpha, ta), t.Add(beta, tb)
			}
		}
		return betaDist{alpha: alpha, beta: beta}
	case query.OpNegation:
		in := be.embed(t, n.Args[0])
		return betaDist{alpha: t.Reciprocal(in.alpha), beta: t.Reciprocal(in.beta)}
	case query.OpDifference:
		panic("baselines: BetaE does not support the difference operator")
	case query.OpUnion:
		panic("baselines: embed on union node; rewrite with query.DNF first")
	}
	panic("baselines: BetaE embed: unknown op")
}

// distance is the summed KL divergence KL(entity ‖ query).
func (be *BetaE) distance(t *autodiff.Tape, e kg.EntityID, q betaDist) autodiff.V {
	ent := be.split(t, be.ent.Leaf(t, int(e)))
	return t.Sum(t.BetaKL(ent.alpha, ent.beta, q.alpha, q.beta))
}

// Loss implements model.Interface.
func (be *BetaE) Loss(t *autodiff.Tape, q *query.Query, negSamples int, rng *rand.Rand) (autodiff.V, bool) {
	pos, negs, ok := samplePosNegs(q, be.graph.NumEntities(), negSamples, rng)
	if !ok {
		return autodiff.V{}, false
	}
	disjuncts := query.DNF(q.Root)
	dists := make([]betaDist, len(disjuncts))
	for i, d := range disjuncts {
		dists[i] = be.embed(t, d)
	}
	score := func(e kg.EntityID) autodiff.V {
		per := make([]autodiff.V, len(dists))
		for i, bd := range dists {
			per[i] = be.distance(t, e, bd)
		}
		return minScalar(t, per)
	}
	negScores := make([]autodiff.V, len(negs))
	for i, ne := range negs {
		negScores[i] = score(ne)
	}
	return marginLoss(t, be.cfg.Gamma, score(pos), negScores), true
}

// Distances implements model.Interface.
func (be *BetaE) Distances(n *query.Node) []float64 {
	t := autodiff.NewForwardTape()
	disjuncts := query.DNF(n)
	type vdist struct{ alpha, beta []float64 }
	dists := make([]vdist, len(disjuncts))
	for i, d := range disjuncts {
		bd := be.embed(t, d)
		dists[i] = vdist{
			alpha: append([]float64(nil), bd.alpha.Value()...),
			beta:  append([]float64(nil), bd.beta.Value()...),
		}
	}
	d := be.cfg.Dim
	out := make([]float64, be.graph.NumEntities())
	for e := range out {
		raw := be.ent.Row(e)
		best := math.Inf(1)
		for _, q := range dists {
			kl := 0.0
			for j := 0; j < d; j++ {
				a1 := softplusF(raw[j]) + 0.05
				b1 := softplusF(raw[d+j]) + 0.05
				kl += betaKLF(a1, b1, q.alpha[j], q.beta[j])
			}
			if kl < best {
				best = kl
			}
		}
		out[e] = best
	}
	return out
}

func softplusF(x float64) float64 {
	if x > 30 {
		return x
	}
	return math.Log1p(math.Exp(x))
}

func betaKLF(a1, b1, a2, b2 float64) float64 {
	lb2, _ := math.Lgamma(a2)
	t2, _ := math.Lgamma(b2)
	s2, _ := math.Lgamma(a2 + b2)
	lb1, _ := math.Lgamma(a1)
	t1, _ := math.Lgamma(b1)
	s1, _ := math.Lgamma(a1 + b1)
	logBeta2 := lb2 + t2 - s2
	logBeta1 := lb1 + t1 - s1
	return logBeta2 - logBeta1 +
		(a1-a2)*autodiff.Digamma(a1) +
		(b1-b2)*autodiff.Digamma(b1) +
		(a2-a1+b2-b1)*autodiff.Digamma(a1+b1)
}
