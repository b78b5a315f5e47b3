package baselines

import (
	"math"
	"math/rand"

	"github.com/halk-kg/halk/internal/autodiff"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/model"
	"github.com/halk-kg/halk/internal/query"
)

// Query2Box (Ren, Hu & Leskovec, ICLR 2020) is the original box-embedding
// model NewLook extends: queries are axis-aligned boxes, entities points.
// It belongs to the paper's first group — existential positive first-order
// queries only: projection and intersection (plus exact union via DNF),
// no negation and no difference. Kept in this repository as a reference
// point beyond the paper's three headline baselines.
//
// Projection translates center and grows offset per relation;
// intersection takes an attention-weighted center and a DeepSets-gated
// minimum offset, as in the original paper.
type Query2Box struct {
	cfg    Config
	graph  *kg.Graph
	params *autodiff.Params

	ent  *autodiff.Tensor
	relC *autodiff.Tensor
	relO *autodiff.Tensor

	interAtt             *autodiff.MLP
	interInner, interOut *autodiff.MLP
}

var _ model.Interface = (*Query2Box)(nil)

// NewQuery2Box builds a Query2Box model over the training graph.
func NewQuery2Box(g *kg.Graph, cfg Config) *Query2Box {
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := autodiff.NewParams()
	d, h := cfg.Dim, cfg.Hidden
	return &Query2Box{
		cfg:    cfg,
		graph:  g,
		params: p,
		ent:    p.NewUniform("entity", g.NumEntities(), d, -1, 1, rng),
		relC:   p.NewUniform("relation.center", g.NumRelations(), d, -0.5, 0.5, rng),
		relO:   p.NewUniform("relation.offset", g.NumRelations(), d, 0, 0.3, rng),

		interAtt:   autodiff.NewMLP(p, "inter.att", []int{2 * d, h, d}, rng),
		interInner: autodiff.NewMLP(p, "inter.inner", []int{2 * d, h}, rng),
		interOut:   autodiff.NewMLP(p, "inter.out", []int{h, d}, rng),
	}
}

// Name implements model.Interface.
func (qb *Query2Box) Name() string { return "Query2Box" }

// Params implements model.Interface.
func (qb *Query2Box) Params() *autodiff.Params { return qb.params }

// Supports implements model.Interface: EPFO only.
func (qb *Query2Box) Supports(structure string) bool {
	return !query.UsesNegation(structure) && !query.UsesDifference(structure)
}

func (qb *Query2Box) embed(t *autodiff.Tape, n *query.Node) box {
	switch n.Op {
	case query.OpAnchor:
		return box{
			center: qb.ent.Leaf(t, int(n.Anchor)),
			offset: t.Const(make([]float64, qb.cfg.Dim)),
		}
	case query.OpProjection:
		in := qb.embed(t, n.Args[0])
		return box{
			center: t.Add(in.center, qb.relC.Leaf(t, int(n.Rel))),
			offset: t.Add(in.offset, t.Relu(qb.relO.Leaf(t, int(n.Rel)))),
		}
	case query.OpIntersection:
		kids := make([]box, len(n.Args))
		scores := make([]autodiff.V, len(n.Args))
		inners := make([]autodiff.V, len(n.Args))
		offs := make([]autodiff.V, len(n.Args))
		for i, a := range n.Args {
			kids[i] = qb.embed(t, a)
			cat := t.Concat(kids[i].center, kids[i].offset)
			scores[i] = qb.interAtt.Forward(t, cat)
			inners[i] = qb.interInner.Forward(t, cat)
			offs[i] = kids[i].offset
		}
		w := t.SoftmaxStack(scores)
		var c autodiff.V
		for i, k := range kids {
			term := t.Mul(w[i], k.center)
			if i == 0 {
				c = term
			} else {
				c = t.Add(c, term)
			}
		}
		ds := qb.interOut.Forward(t, t.MeanStack(inners))
		return box{center: c, offset: t.Mul(t.MinStack(offs), t.Sigmoid(ds))}
	case query.OpNegation:
		panic("baselines: Query2Box does not support the negation operator")
	case query.OpDifference:
		panic("baselines: Query2Box does not support the difference operator")
	case query.OpUnion:
		panic("baselines: embed on union node; rewrite with query.DNF first")
	}
	panic("baselines: Query2Box embed: unknown op")
}

func (qb *Query2Box) distance(t *autodiff.Tape, point autodiff.V, b box) autodiff.V {
	diff := t.Abs(t.Sub(point, b.center))
	do := t.Relu(t.Sub(diff, b.offset))
	di := t.Min(diff, b.offset)
	return t.Add(t.Sum(do), t.Scale(t.Sum(di), qb.cfg.Eta))
}

// Loss implements model.Interface.
func (qb *Query2Box) Loss(t *autodiff.Tape, q *query.Query, negSamples int, rng *rand.Rand) (autodiff.V, bool) {
	pos, negs, ok := samplePosNegs(q, qb.graph.NumEntities(), negSamples, rng)
	if !ok {
		return autodiff.V{}, false
	}
	disjuncts := query.DNF(q.Root)
	boxes := make([]box, len(disjuncts))
	for i, d := range disjuncts {
		boxes[i] = qb.embed(t, d)
	}
	score := func(e kg.EntityID) autodiff.V {
		pt := qb.ent.Leaf(t, int(e))
		per := make([]autodiff.V, len(boxes))
		for i, b := range boxes {
			per[i] = qb.distance(t, pt, b)
		}
		return minScalar(t, per)
	}
	negScores := make([]autodiff.V, len(negs))
	for i, ne := range negs {
		negScores[i] = score(ne)
	}
	return marginLoss(t, qb.cfg.Gamma, score(pos), negScores), true
}

// Distances implements model.Interface.
func (qb *Query2Box) Distances(n *query.Node) []float64 {
	t := autodiff.NewForwardTape()
	disjuncts := query.DNF(n)
	type vbox struct{ c, o []float64 }
	boxes := make([]vbox, len(disjuncts))
	for i, d := range disjuncts {
		b := qb.embed(t, d)
		boxes[i] = vbox{
			c: append([]float64(nil), b.center.Value()...),
			o: append([]float64(nil), b.offset.Value()...),
		}
	}
	out := make([]float64, qb.graph.NumEntities())
	for e := range out {
		pt := qb.ent.Row(e)
		best := math.Inf(1)
		for _, b := range boxes {
			d := 0.0
			for j := range pt {
				diff := math.Abs(pt[j] - b.c[j])
				if diff > b.o[j] {
					d += diff - b.o[j]
				}
				d += qb.cfg.Eta * math.Min(diff, b.o[j])
			}
			if d < best {
				best = d
			}
		}
		out[e] = best
	}
	return out
}
