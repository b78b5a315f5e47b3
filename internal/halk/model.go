package halk

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"github.com/halk-kg/halk/internal/autodiff"
	"github.com/halk-kg/halk/internal/geometry"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/model"
)

// Arc is a query embedding on the tape: per-dimension center angles C
// (∈ [0, 2π)) and arclengths L (∈ [0, 2πρ]), plus the non-differentiable
// group multi-hot vector carried alongside (Sec. II-A / Eq. 10).
type Arc struct {
	C   autodiff.V
	L   autodiff.V
	Hot []float64
}

// net is the operator network the embedding and scoring code reads: the
// configuration, the grouping and the parameter tensors. The trainable
// Model holds the live tensors; every published view holds its own
// headers over the arrays it was published with (see view).
type net struct {
	cfg    Config
	groups *kg.Grouping

	ent  *autodiff.Tensor // entity point angles, n × d
	relC *autodiff.Tensor // relation rotation angles, m × d
	relL *autodiff.Tensor // relation arclength increments, m × d

	projC, projA *autodiff.MLP // Eq. 2: center / arc-angle heads on [A_S ‖ A_E]
	projV3       *autodiff.MLP // ablation V3: decoupled length head

	interAtt             *autodiff.MLP    // Eq. 10 attention scores
	interInner, interOut *autodiff.MLP    // Eq. 12 DeepSets
	diffAtt              *autodiff.MLP    // Eq. 7 attention scores
	diffKappa            *autodiff.Tensor // Eq. 7 κ weights: row 0 = κ_1, row 1 = κ_rest
	diffInner, diffOut   *autodiff.MLP    // Eq. 9 DeepSets on [δ_c ‖ δ_l]
	negT1, negT2         *autodiff.MLP    // Eq. 14 intermediate heads
	negC, negA           *autodiff.MLP    // Eq. 14 output heads
}

// views returns the network over fresh headers of its tensors' current
// arrays (autodiff.Tensor.View), for a view to publish.
func (n *net) views() net {
	return net{
		cfg: n.cfg, groups: n.groups,
		ent: n.ent.View(), relC: n.relC.View(), relL: n.relL.View(),
		projC: n.projC.View(), projA: n.projA.View(), projV3: n.projV3.View(),
		interAtt: n.interAtt.View(), interInner: n.interInner.View(), interOut: n.interOut.View(),
		diffAtt: n.diffAtt.View(), diffKappa: n.diffKappa.View(),
		diffInner: n.diffInner.View(), diffOut: n.diffOut.View(),
		negT1: n.negT1.View(), negT2: n.negT2.View(), negC: n.negC.View(), negA: n.negA.View(),
	}
}

// Model is the HaLk arc-embedding model over one training graph. Its
// own tensors belong to training, fine-tune and reload; online reads go
// through the published view (see view in online.go).
type Model struct {
	net
	graph  *kg.Graph
	params *autodiff.Params

	// mu serialises the writers: fine-tune, reload, SetEntityAnglesBatch,
	// MarkEntitiesUpdated and the training loss's version bump. The
	// training loop's optimizer writes the arrays in place without it —
	// training and serving on the same Model instance still need
	// external coordination.
	mu  sync.Mutex
	pub atomic.Pointer[view] // the current serving view; never nil
}

var _ model.Interface = (*Model)(nil)

// New builds a HaLk model for the given training graph.
func New(g *kg.Graph, cfg Config) *Model {
	cfg.validate()
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := autodiff.NewParams()
	d, h := cfg.Dim, cfg.Hidden

	m := &Model{graph: g, params: p}
	m.net = net{
		cfg:    cfg,
		groups: kg.NewGrouping(g, cfg.NumGroups, rng),

		ent:  p.NewUniform("entity", g.NumEntities(), d, 0, geometry.TwoPi, rng),
		relC: p.NewUniform("relation.center", g.NumRelations(), d, 0, geometry.TwoPi, rng),
		relL: p.NewUniform("relation.length", g.NumRelations(), d, 0, 0.5*cfg.Rho, rng),

		projC:  autodiff.NewMLP(p, "proj.center", []int{2 * d, h, d}, rng),
		projA:  autodiff.NewMLP(p, "proj.angle", []int{2 * d, h, d}, rng),
		projV3: autodiff.NewMLP(p, "proj.v3len", []int{d, h, d}, rng),

		interAtt:   autodiff.NewMLP(p, "inter.att", []int{2 * d, h, d}, rng),
		interInner: autodiff.NewMLP(p, "inter.inner", []int{2 * d, h}, rng),
		interOut:   autodiff.NewMLP(p, "inter.out", []int{h, d}, rng),

		diffAtt:   autodiff.NewMLP(p, "diff.att", []int{2 * d, h, d}, rng),
		diffKappa: p.NewUniform("diff.kappa", 2, d, 0.5, 1.5, rng),
		diffInner: autodiff.NewMLP(p, "diff.inner", []int{2 * d, h}, rng),
		diffOut:   autodiff.NewMLP(p, "diff.out", []int{h, d}, rng),

		negT1: autodiff.NewMLP(p, "neg.t1", []int{d, h}, rng),
		negT2: autodiff.NewMLP(p, "neg.t2", []int{d, h}, rng),
		negC:  autodiff.NewMLP(p, "neg.center", []int{2 * h, d}, rng),
		negA:  autodiff.NewMLP(p, "neg.angle", []int{2 * h, d}, rng),
	}
	// Start the decoupled (V3) length head small: g(-2) ≈ 0.37 rad, so
	// cold-start arcs do not cover half the circle. The full model's
	// length head is residual around the rotated length and needs no
	// bias steering.
	m.projV3.SetOutputBias(-2)
	m.pub.Store(&view{net: m.net.views(), version: 1, rebuilt: 1})
	return m
}

// Name implements model.Interface; ablation variants report their
// Table V name.
func (m *Model) Name() string { return m.cfg.Variant.String() }

// Params implements model.Interface.
func (m *Model) Params() *autodiff.Params { return m.params }

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// Graph returns the training graph the model was built on.
func (m *Model) Graph() *kg.Graph { return m.graph }

// Grouping exposes the random node grouping (used by tests).
func (m *Model) Grouping() *kg.Grouping { return m.groups }

// Supports implements model.Interface: HaLk supports the full operator
// set, hence every structure.
func (m *Model) Supports(string) bool { return true }

// g applies the range regulator of Eq. 3: [g(x)]_i = π·tanh(λ·x_i) + π,
// mapping ℝ into (0, 2π).
func (m *net) g(t *autodiff.Tape, x autodiff.V) autodiff.V {
	return t.AddScalar(t.Scale(t.Tanh(t.Scale(x, m.cfg.Lambda)), mathPi), mathPi)
}

// centerCorrectionAmp bounds the residual center correction (radians).
var centerCorrectionAmp = mathPi

// gResidual is the zero-centered counterpart of g: amp·tanh(λ·x), a
// bounded correction added on top of an identity-carrying term.
func (m *net) gResidual(t *autodiff.Tape, x autodiff.V) autodiff.V {
	return t.Scale(t.Tanh(t.Scale(x, m.cfg.Lambda)), centerCorrectionAmp)
}

// clampAngle regulates an arc angle into [0, 2π] with exact identity in
// range: max(0, min(x, 2π)).
func (m *net) clampAngle(t *autodiff.Tape, x autodiff.V) autodiff.V {
	two := make([]float64, x.Len())
	for i := range two {
		two[i] = geometry.TwoPi
	}
	return t.Relu(t.Min(x, t.Const(two)))
}

const mathPi = 3.141592653589793

// startEnd computes the start and end points of an arc (Definitions 1
// and 2): A_S = A_c − A_l/(2ρ), A_E = A_c + A_l/(2ρ).
func (m *net) startEnd(t *autodiff.Tape, c, l autodiff.V) (s, e autodiff.V) {
	half := t.Scale(l, 1/(2*m.cfg.Rho))
	return t.Sub(c, half), t.Add(c, half)
}

// EntityAngles returns the served point embedding (angle vector) of e.
// The slice aliases the published table and must not be modified.
func (m *Model) EntityAngles(e kg.EntityID) []float64 { return m.pub.Load().ent.Row(int(e)) }
