package baselines

import (
	"math"
	"math/rand"

	"github.com/halk-kg/halk/internal/autodiff"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/model"
	"github.com/halk-kg/halk/internal/query"
)

// NewLook embeds queries as axis-aligned hyper-rectangles (center,
// non-negative offset) in ℝ^d, the Query2Box lineage extended with a
// difference operator. Characteristic properties kept from the original
// (HaLk Sec. I and Sec. III-C):
//
//   - the difference region of two overlapping boxes is not a box, so
//     the learned output box necessarily admits false positives or false
//     negatives (the "fixed-lossy" problem);
//   - overlap for the difference operator is measured with raw value
//     differences (fine for boxes, not transferable to rotations);
//   - projection refines center and offset with decoupled heads;
//   - no negation operator and no universal set: Supports rejects
//     negation structures and the model cannot express one-hop negative
//     queries at all.
type NewLook struct {
	cfg    Config
	graph  *kg.Graph
	params *autodiff.Params

	ent  *autodiff.Tensor // entity points, n × d
	relC *autodiff.Tensor // relation translations, m × d
	relO *autodiff.Tensor // relation offset increments, m × d

	projC, projO         *autodiff.MLP
	interAtt             *autodiff.MLP
	interInner, interOut *autodiff.MLP
	diffAtt              *autodiff.MLP
	diffInner, diffOut   *autodiff.MLP
}

var _ model.Interface = (*NewLook)(nil)

type box struct {
	center autodiff.V
	offset autodiff.V // kept non-negative by construction
}

// NewNewLook builds a NewLook model over the training graph.
func NewNewLook(g *kg.Graph, cfg Config) *NewLook {
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := autodiff.NewParams()
	d, h := cfg.Dim, cfg.Hidden
	return &NewLook{
		cfg:    cfg,
		graph:  g,
		params: p,
		ent:    p.NewUniform("entity", g.NumEntities(), d, -1, 1, rng),
		relC:   p.NewUniform("relation.center", g.NumRelations(), d, -0.5, 0.5, rng),
		relO:   p.NewUniform("relation.offset", g.NumRelations(), d, 0, 0.3, rng),

		projC:      autodiff.NewMLP(p, "proj.center", []int{d, h, d}, rng),
		projO:      autodiff.NewMLP(p, "proj.offset", []int{d, h, d}, rng),
		interAtt:   autodiff.NewMLP(p, "inter.att", []int{2 * d, h, d}, rng),
		interInner: autodiff.NewMLP(p, "inter.inner", []int{2 * d, h}, rng),
		interOut:   autodiff.NewMLP(p, "inter.out", []int{h, d}, rng),
		diffAtt:    autodiff.NewMLP(p, "diff.att", []int{2 * d, h, d}, rng),
		diffInner:  autodiff.NewMLP(p, "diff.inner", []int{2 * d, h}, rng),
		diffOut:    autodiff.NewMLP(p, "diff.out", []int{h, d}, rng),
	}
}

// Name implements model.Interface.
func (nl *NewLook) Name() string { return "NewLook" }

// Params implements model.Interface.
func (nl *NewLook) Params() *autodiff.Params { return nl.params }

// Supports implements model.Interface: every structure without negation.
func (nl *NewLook) Supports(structure string) bool { return !query.UsesNegation(structure) }

func (nl *NewLook) embed(t *autodiff.Tape, n *query.Node) box {
	switch n.Op {
	case query.OpAnchor:
		return box{
			center: nl.ent.Leaf(t, int(n.Anchor)),
			offset: t.Const(make([]float64, nl.cfg.Dim)),
		}
	case query.OpProjection:
		in := nl.embed(t, n.Args[0])
		c := t.Add(in.center, nl.relC.Leaf(t, int(n.Rel)))
		o := t.Add(in.offset, t.Relu(nl.relO.Leaf(t, int(n.Rel))))
		// Decoupled refinement: residual center head, offset head.
		c = t.Add(c, nl.projC.Forward(t, c))
		o = t.Relu(t.Add(o, nl.projO.Forward(t, o)))
		return box{center: c, offset: o}
	case query.OpIntersection:
		kids := nl.embedAll(t, n.Args)
		scores := make([]autodiff.V, len(kids))
		inners := make([]autodiff.V, len(kids))
		offs := make([]autodiff.V, len(kids))
		for i, k := range kids {
			cat := t.Concat(k.center, k.offset)
			scores[i] = nl.interAtt.Forward(t, cat)
			inners[i] = nl.interInner.Forward(t, cat)
			offs[i] = k.offset
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
		ds := nl.interOut.Forward(t, t.MeanStack(inners))
		o := t.Mul(t.MinStack(offs), t.Sigmoid(ds))
		return box{center: c, offset: o}
	case query.OpDifference:
		kids := nl.embedAll(t, n.Args)
		// Attention over centers biased toward the minuend via a fixed
		// doubling of its score (NewLook's asymmetric attention).
		scores := make([]autodiff.V, len(kids))
		for i, k := range kids {
			s := nl.diffAtt.Forward(t, t.Concat(k.center, k.offset))
			if i == 0 {
				s = t.Scale(s, 2)
			}
			scores[i] = s
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
		// Raw-value overlap inputs; offset shrunk from the minuend.
		first := kids[0]
		inners := make([]autodiff.V, 0, len(kids)-1)
		for _, k := range kids[1:] {
			dc := t.Sub(first.center, k.center)
			do := t.Sub(first.offset, k.offset)
			inners = append(inners, nl.diffInner.Forward(t, t.Concat(dc, do)))
		}
		ds := nl.diffOut.Forward(t, t.MeanStack(inners))
		o := t.Mul(first.offset, t.Sigmoid(ds))
		return box{center: c, offset: o}
	case query.OpNegation:
		panic("baselines: NewLook does not support the negation operator")
	case query.OpUnion:
		panic("baselines: embed on union node; rewrite with query.DNF first")
	}
	panic("baselines: NewLook embed: unknown op")
}

func (nl *NewLook) embedAll(t *autodiff.Tape, ns []*query.Node) []box {
	out := make([]box, len(ns))
	for i, n := range ns {
		out[i] = nl.embed(t, n)
	}
	return out
}

// distance is the Query2Box box distance: dist_out + η·dist_in.
func (nl *NewLook) distance(t *autodiff.Tape, point autodiff.V, b box) autodiff.V {
	diff := t.Abs(t.Sub(point, b.center))
	do := t.Relu(t.Sub(diff, b.offset))
	di := t.Min(diff, b.offset)
	return t.Add(t.Sum(do), t.Scale(t.Sum(di), nl.cfg.Eta))
}

// Loss implements model.Interface.
func (nl *NewLook) Loss(t *autodiff.Tape, q *query.Query, negSamples int, rng *rand.Rand) (autodiff.V, bool) {
	pos, negs, ok := samplePosNegs(q, nl.graph.NumEntities(), negSamples, rng)
	if !ok {
		return autodiff.V{}, false
	}
	disjuncts := query.DNF(q.Root)
	boxes := make([]box, len(disjuncts))
	for i, d := range disjuncts {
		boxes[i] = nl.embed(t, d)
	}
	score := func(e kg.EntityID) autodiff.V {
		pt := nl.ent.Leaf(t, int(e))
		per := make([]autodiff.V, len(boxes))
		for i, b := range boxes {
			per[i] = nl.distance(t, pt, b)
		}
		return minScalar(t, per)
	}
	negScores := make([]autodiff.V, len(negs))
	for i, ne := range negs {
		negScores[i] = score(ne)
	}
	return marginLoss(t, nl.cfg.Gamma, score(pos), negScores), true
}

// Distances implements model.Interface.
func (nl *NewLook) Distances(n *query.Node) []float64 {
	t := autodiff.NewForwardTape()
	disjuncts := query.DNF(n)
	type vbox struct{ c, o []float64 }
	boxes := make([]vbox, len(disjuncts))
	for i, d := range disjuncts {
		b := nl.embed(t, d)
		boxes[i] = vbox{
			c: append([]float64(nil), b.center.Value()...),
			o: append([]float64(nil), b.offset.Value()...),
		}
	}
	out := make([]float64, nl.graph.NumEntities())
	for e := range out {
		pt := nl.ent.Row(e)
		best := math.Inf(1)
		for _, b := range boxes {
			d := 0.0
			for j := range pt {
				diff := math.Abs(pt[j] - b.c[j])
				if diff > b.o[j] {
					d += diff - b.o[j]
				}
				d += nl.cfg.Eta * math.Min(diff, b.o[j])
			}
			if d < best {
				best = d
			}
		}
		out[e] = best
	}
	return out
}
