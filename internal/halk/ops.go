package halk

import (
	"github.com/halk-kg/halk/internal/autodiff"
	"github.com/halk-kg/halk/internal/geometry"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/query"
)

// Embed builds the arc embedding of a union-free query tree on the tape
// (Alg. 1 lines 5–15). Union queries must be rewritten with query.DNF
// first; Embed panics on a union node, because HaLk's union operator is
// exact and non-parametric (Sec. III-F).
func (m *net) Embed(t *autodiff.Tape, n *query.Node) Arc {
	switch n.Op {
	case query.OpAnchor:
		return Arc{
			C:   m.ent.Leaf(t, int(n.Anchor)),
			L:   t.Const(make([]float64, m.cfg.Dim)),
			Hot: m.groups.OneHot(n.Anchor),
		}
	case query.OpProjection:
		return m.project(t, m.Embed(t, n.Args[0]), n)
	case query.OpIntersection:
		return m.intersect(t, m.embedAll(t, n.Args))
	case query.OpDifference:
		return m.difference(t, m.embedAll(t, n.Args))
	case query.OpNegation:
		return m.negate(t, m.Embed(t, n.Args[0]))
	case query.OpUnion:
		panic("halk: Embed on union node; rewrite with query.DNF first")
	}
	panic("halk: Embed: unknown op")
}

func (m *net) embedAll(t *autodiff.Tape, ns []*query.Node) []Arc {
	arcs := make([]Arc, len(ns))
	for i, n := range ns {
		arcs[i] = m.Embed(t, n)
	}
	return arcs
}

// project implements the projection operator. The relation first rotates
// and stretches the input arc (Ã_c = A_c + A_{r,c}, Ã_l = A_l + A_{r,l});
// the start/end combination representation then jointly refines center
// and cardinality (Eq. 2), closing the "semantic gap" of decoupled
// models. Ablation V3 keeps the rotation for the center but learns the
// length from the length alone, reproducing NewLook's decoupling.
func (m *net) project(t *autodiff.Tape, in Arc, n *query.Node) Arc {
	rc := m.relC.Leaf(t, int(n.Rel))
	rl := m.relL.Leaf(t, int(n.Rel))
	tc := t.Add(in.C, rc)
	tl := t.Add(in.L, rl)
	hot := m.groups.ProjectHot(in.Hot, n.Rel)

	if m.cfg.Variant == V3NewLookProj {
		alpha := m.g(t, m.projV3.Forward(t, t.Scale(tl, 1/m.cfg.Rho)))
		return Arc{C: tc, L: t.Scale(alpha, m.cfg.Rho), Hot: hot}
	}

	s, e := m.startEnd(t, tc, tl)
	cat := t.Concat(s, e)
	// The relation rotation carries the identity component of the
	// center; the coupled start/end MLP contributes a bounded residual
	// correction (Eq. 2 with g re-centered on the rotation — matching
	// how rotation-backbone projections are trained in practice, where
	// the head refines rather than re-derives the rotated center).
	c := t.Add(tc, m.gResidual(t, m.projC.Forward(t, cat)))
	alpha := m.clampAngle(t, t.Add(t.Scale(tl, 1/m.cfg.Rho),
		m.gResidual(t, m.projA.Forward(t, t.Detach(cat)))))
	return Arc{C: c, L: t.Scale(alpha, m.cfg.Rho), Hot: hot}
}

// semanticCenter computes the attention-weighted semantic average center
// of Eqs. 4–6: input centers are mapped to rectangular coordinates,
// averaged with the given elementwise weights, and mapped back to a polar
// angle with Reg (atan2 + wrap), which sidesteps the periodicity of raw
// angle averaging.
func (m *net) semanticCenter(t *autodiff.Tape, arcs []Arc, w []autodiff.V) autodiff.V {
	rho := m.cfg.Rho
	var xsa, ysa autodiff.V
	for i, a := range arcs {
		x := t.Mul(w[i], t.Scale(t.Cos(a.C), rho))
		y := t.Mul(w[i], t.Scale(t.Sin(a.C), rho))
		if i == 0 {
			xsa, ysa = x, y
		} else {
			xsa, ysa = t.Add(xsa, x), t.Add(ysa, y)
		}
	}
	ang := t.Atan2(ysa, xsa) // ∈ (-π, π], quadrant-correct (Reg)
	// Wrap into [0, 2π): a piecewise-constant shift, so the gradient is
	// untouched.
	shift := make([]float64, ang.Len())
	for j, v := range ang.Value() {
		if v < 0 {
			shift[j] = geometry.TwoPi
		}
	}
	return t.Add(ang, t.Const(shift))
}

// attScores runs the attention MLP of Eq. 7 / Eq. 10 on the start/end
// combination representation of each arc.
func attScores(t *autodiff.Tape, m *net, mlp *autodiff.MLP, arcs []Arc) []autodiff.V {
	out := make([]autodiff.V, len(arcs))
	for i, a := range arcs {
		s, e := m.startEnd(t, a.C, a.L)
		out[i] = mlp.Forward(t, t.Concat(s, e))
	}
	return out
}

// intersect implements the intersection operator (Eqs. 10–12): semantic
// average center with group-similarity-scaled attention, and arclengths
// bounded by the smallest input (cardinality constraint) scaled by a
// permutation-invariant DeepSets factor.
func (m *net) intersect(t *autodiff.Tape, arcs []Arc) Arc {
	hots := make([][]float64, len(arcs))
	for i, a := range arcs {
		hots[i] = a.Hot
	}
	hotT := kg.IntersectHot(hots...)

	scores := attScores(t, m, m.interAtt, arcs)
	for i, a := range arcs {
		z := 1 / (l1diff(a.Hot, hotT) + 1) // z_i of Eq. 10
		scores[i] = t.Scale(scores[i], z)
	}
	w := t.SoftmaxStack(scores)
	c := m.semanticCenter(t, arcs, w)

	// Eq. 11–12: A_α = min_i(A_{i,α}) ⊙ σ(DeepSets({A_j})).
	alphas := make([]autodiff.V, len(arcs))
	inners := make([]autodiff.V, len(arcs))
	for i, a := range arcs {
		alphas[i] = t.Scale(a.L, 1/m.cfg.Rho)
		s, e := m.startEnd(t, a.C, a.L)
		inners[i] = m.interInner.Forward(t, t.Concat(s, e))
	}
	ds := m.interOut.Forward(t, t.MeanStack(inners))
	alpha := t.Mul(t.MinStack(alphas), t.Sigmoid(ds))
	return Arc{C: c, L: t.Scale(alpha, m.cfg.Rho), Hot: hotT}
}

// difference implements the difference operator (Eqs. 4–9). The first
// input is the minuend; κ_1 vs κ_rest hard-codes the asymmetry of the
// input order while keeping permutation invariance among the
// subtrahends. The arclength applies the cardinality constraint
// A_l = A_{1,l} ⊙ σ(DeepSets({A_1 − A_j})) with chord-length overlap
// measurement δ_c = 2ρ·sin((A_{1,c} − A_{j,c})/2).
//
// Ablation V1 reproduces NewLook's overlap: the raw (periodicity-blind)
// angle difference replaces the chord, and the output length is learned
// freely instead of being bounded by the minuend.
func (m *net) difference(t *autodiff.Tape, arcs []Arc) Arc {
	kappa1 := m.diffKappa.Leaf(t, 0)
	kappaR := m.diffKappa.Leaf(t, 1)
	scores := attScores(t, m, m.diffAtt, arcs)
	for i := range scores {
		if i == 0 {
			scores[i] = t.Mul(kappa1, scores[i])
		} else {
			scores[i] = t.Mul(kappaR, scores[i])
		}
	}
	w := t.SoftmaxStack(scores)
	c := m.semanticCenter(t, arcs, w)

	first := arcs[0]
	inners := make([]autodiff.V, 0, len(arcs)-1)
	for _, a := range arcs[1:] {
		var dc autodiff.V
		if m.cfg.Variant == V1NewLookDiff {
			dc = t.Sub(first.C, a.C) // raw-value overlap, periodicity ignored
		} else {
			dc = t.Scale(t.Sin(t.Scale(t.Sub(first.C, a.C), 0.5)), 2*m.cfg.Rho)
		}
		dl := t.Sub(first.L, a.L)
		inners = append(inners, m.diffInner.Forward(t, t.Concat(dc, dl)))
	}
	ds := m.diffOut.Forward(t, t.MeanStack(inners))

	var l autodiff.V
	if m.cfg.Variant == V1NewLookDiff {
		// No cardinality constraint: free arclength in (0, 2πρ).
		l = t.Scale(m.g(t, ds), m.cfg.Rho)
	} else {
		l = t.Mul(first.L, t.Sigmoid(ds))
	}
	return Arc{C: c, L: l, Hot: first.Hot}
}

// negate implements the negation operator (Eqs. 13–14): the linear
// complement (center rotated by π, arclength complemented to the full
// circle) provides the initial transformation direction, and a non-linear
// network refines it, correcting cascading errors from earlier
// sub-queries. Ablation V2 stops at the linear complement, the
// assumption shared by BetaE, ConE and MLPMix.
func (m *net) negate(t *autodiff.Tape, in Arc) Arc {
	// Piecewise-constant ±π shift per dimension (Eq. 13); as a constant
	// offset it passes gradients through unchanged.
	shift := make([]float64, in.C.Len())
	for j, v := range in.C.Value() {
		if geometry.Wrap(v) < mathPi {
			shift[j] = mathPi
		} else {
			shift[j] = -mathPi
		}
	}
	tc := t.Add(in.C, t.Const(shift))
	tl := t.AddScalar(t.Neg(in.L), geometry.TwoPi*m.cfg.Rho)
	hot := complementHot(in.Hot)

	if m.cfg.Variant == V2LinearNeg {
		return Arc{C: tc, L: tl, Hot: hot}
	}

	talpha := t.Scale(tl, 1/m.cfg.Rho)
	t1 := m.negT1.Forward(t, tc)
	t2 := m.negT2.Forward(t, talpha)
	cat := t.Concat(t1, t2)
	// As in projection, the linear complement carries the identity and
	// the joint network contributes the non-linear correction.
	c := t.Add(tc, m.gResidual(t, m.negC.Forward(t, cat)))
	alpha := m.clampAngle(t, t.Add(talpha, m.gResidual(t, m.negA.Forward(t, t.Detach(cat)))))
	return Arc{C: c, L: t.Scale(alpha, m.cfg.Rho), Hot: hot}
}

func complementHot(h []float64) []float64 {
	out := make([]float64, len(h))
	for i, v := range h {
		c := 1 - v
		if c < 0 {
			c = 0
		}
		out[i] = c
	}
	return out
}

func l1diff(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s
}
