package baselines

import (
	"math"
	"math/rand"

	"github.com/halk-kg/halk/internal/autodiff"
	"github.com/halk-kg/halk/internal/geometry"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/model"
	"github.com/halk-kg/halk/internal/query"
)

// ConE embeds queries as sector cones (axis angle θ, aperture α) per
// dimension on the rotation backbone. Characteristic limitations kept
// from the original model (and called out by HaLk Sec. III-G):
//
//   - projection learns axis and aperture with decoupled heads (no
//     start/end coupling), leaving the center/cardinality semantic gap;
//   - intersection averages axis angles directly in angle space, which
//     is periodicity-unsafe;
//   - negation is the pure linear complement (θ±π, 2π−α) with no
//     corrective network;
//   - the distance uses the wrapped angular offset as a magnitude, so a
//     point just clockwise of the axis can be measured almost a full
//     turn away — the "duality" issue HaLk's chord distance removes.
//
// No difference operator: Supports rejects difference structures.
type ConE struct {
	cfg    Config
	graph  *kg.Graph
	params *autodiff.Params

	ent  *autodiff.Tensor // entity axis angles, n × d
	relC *autodiff.Tensor // relation rotations, m × d
	relA *autodiff.Tensor // relation aperture increments, m × d

	projC, projA         *autodiff.MLP // decoupled projection heads
	interAtt             *autodiff.MLP
	interInner, interOut *autodiff.MLP
}

var _ model.Interface = (*ConE)(nil)

// cone is the on-tape embedding: axis angles and apertures.
type cone struct {
	axis autodiff.V
	ap   autodiff.V
}

// NewConE builds a ConE model over the training graph.
func NewConE(g *kg.Graph, cfg Config) *ConE {
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := autodiff.NewParams()
	d, h := cfg.Dim, cfg.Hidden
	return &ConE{
		cfg:    cfg,
		graph:  g,
		params: p,
		ent:    p.NewUniform("entity", g.NumEntities(), d, 0, geometry.TwoPi, rng),
		relC:   p.NewUniform("relation.rot", g.NumRelations(), d, 0, geometry.TwoPi, rng),
		relA:   p.NewUniform("relation.ap", g.NumRelations(), d, 0, 0.5, rng),

		projC:      autodiff.NewMLP(p, "proj.axis", []int{d, h, d}, rng),
		projA:      autodiff.NewMLP(p, "proj.ap", []int{d, h, d}, rng),
		interAtt:   autodiff.NewMLP(p, "inter.att", []int{2 * d, h, d}, rng),
		interInner: autodiff.NewMLP(p, "inter.inner", []int{2 * d, h}, rng),
		interOut:   autodiff.NewMLP(p, "inter.out", []int{h, d}, rng),
	}
}

// Name implements model.Interface.
func (c *ConE) Name() string { return "ConE" }

// Params implements model.Interface.
func (c *ConE) Params() *autodiff.Params { return c.params }

// Supports implements model.Interface: every structure without a
// difference operator.
func (c *ConE) Supports(structure string) bool { return !query.UsesDifference(structure) }

func (c *ConE) g(t *autodiff.Tape, x autodiff.V) autodiff.V {
	return t.AddScalar(t.Scale(t.Tanh(x), math.Pi), math.Pi)
}

func (c *ConE) embed(t *autodiff.Tape, n *query.Node) cone {
	switch n.Op {
	case query.OpAnchor:
		return cone{
			axis: c.ent.Leaf(t, int(n.Anchor)),
			ap:   t.Const(make([]float64, c.cfg.Dim)),
		}
	case query.OpProjection:
		in := c.embed(t, n.Args[0])
		ax := t.Add(in.axis, c.relC.Leaf(t, int(n.Rel)))
		ap := t.Add(in.ap, c.relA.Leaf(t, int(n.Rel)))
		// Decoupled refinement heads: axis sees only the axis, aperture
		// only the aperture.
		return cone{
			axis: c.g(t, c.projC.Forward(t, ax)),
			ap:   c.g(t, c.projA.Forward(t, ap)),
		}
	case query.OpIntersection:
		kids := make([]cone, len(n.Args))
		for i, a := range n.Args {
			kids[i] = c.embed(t, a)
		}
		return c.intersect(t, kids)
	case query.OpNegation:
		in := c.embed(t, n.Args[0])
		// Linear complement: axis rotated by π, aperture complemented.
		shift := make([]float64, in.axis.Len())
		for j, v := range in.axis.Value() {
			if geometry.Wrap(v) < math.Pi {
				shift[j] = math.Pi
			} else {
				shift[j] = -math.Pi
			}
		}
		return cone{
			axis: t.Add(in.axis, t.Const(shift)),
			ap:   t.AddScalar(t.Neg(in.ap), geometry.TwoPi),
		}
	case query.OpDifference:
		panic("baselines: ConE does not support the difference operator")
	case query.OpUnion:
		panic("baselines: embed on union node; rewrite with query.DNF first")
	}
	panic("baselines: ConE embed: unknown op")
}

func (c *ConE) intersect(t *autodiff.Tape, kids []cone) cone {
	scores := make([]autodiff.V, len(kids))
	for i, k := range kids {
		scores[i] = c.interAtt.Forward(t, t.Concat(k.axis, k.ap))
	}
	w := t.SoftmaxStack(scores)
	// Raw angle-space weighted average: periodicity-unsafe by design.
	var axis autodiff.V
	for i, k := range kids {
		term := t.Mul(w[i], k.axis)
		if i == 0 {
			axis = term
		} else {
			axis = t.Add(axis, term)
		}
	}
	inners := make([]autodiff.V, len(kids))
	aps := make([]autodiff.V, len(kids))
	for i, k := range kids {
		inners[i] = c.interInner.Forward(t, t.Concat(k.axis, k.ap))
		aps[i] = k.ap
	}
	ds := c.interOut.Forward(t, t.MeanStack(inners))
	ap := t.Mul(t.MinStack(aps), t.Sigmoid(ds))
	return cone{axis: axis, ap: ap}
}

// distance builds the differentiable cone distance with the wrapped
// offset treated as a magnitude (the duality flaw).
func (c *ConE) distance(t *autodiff.Tape, point autodiff.V, q cone) autodiff.V {
	delta := t.Sub(point, q.axis)
	// Wrap into [0, 2π) with a piecewise-constant shift.
	shift := make([]float64, delta.Len())
	for j, v := range delta.Value() {
		shift[j] = geometry.Wrap(v) - v
	}
	wrapped := t.Add(delta, t.Const(shift))
	half := t.Scale(q.ap, 0.5)
	do := t.Relu(t.Sub(wrapped, half))
	di := t.Min(wrapped, half)
	return t.Add(t.Sum(do), t.Scale(t.Sum(di), c.cfg.Eta))
}

// Loss implements model.Interface.
func (c *ConE) Loss(t *autodiff.Tape, q *query.Query, negSamples int, rng *rand.Rand) (autodiff.V, bool) {
	pos, negs, ok := samplePosNegs(q, c.graph.NumEntities(), negSamples, rng)
	if !ok {
		return autodiff.V{}, false
	}
	disjuncts := query.DNF(q.Root)
	cones := make([]cone, len(disjuncts))
	for i, d := range disjuncts {
		cones[i] = c.embed(t, d)
	}
	score := func(e kg.EntityID) autodiff.V {
		pt := c.ent.Leaf(t, int(e))
		per := make([]autodiff.V, len(cones))
		for i, cn := range cones {
			per[i] = c.distance(t, pt, cn)
		}
		return minScalar(t, per)
	}
	negScores := make([]autodiff.V, len(negs))
	for i, ne := range negs {
		negScores[i] = score(ne)
	}
	return marginLoss(t, c.cfg.Gamma, score(pos), negScores), true
}

// Distances implements model.Interface.
func (c *ConE) Distances(n *query.Node) []float64 {
	t := autodiff.NewForwardTape()
	disjuncts := query.DNF(n)
	type vcone struct{ axis, ap []float64 }
	cones := make([]vcone, len(disjuncts))
	for i, d := range disjuncts {
		cn := c.embed(t, d)
		cones[i] = vcone{
			axis: append([]float64(nil), cn.axis.Value()...),
			ap:   append([]float64(nil), cn.ap.Value()...),
		}
	}
	out := make([]float64, c.graph.NumEntities())
	for e := range out {
		pt := c.ent.Row(e)
		best := math.Inf(1)
		for _, cn := range cones {
			d := 0.0
			for j := range pt {
				w := geometry.Wrap(pt[j] - cn.axis[j])
				half := cn.ap[j] / 2
				if w > half {
					d += w - half
				}
				d += c.cfg.Eta * math.Min(w, half)
			}
			if d < best {
				best = d
			}
		}
		out[e] = best
	}
	return out
}
