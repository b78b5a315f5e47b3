package halk

import (
	"math/rand"
	"sync"

	"github.com/halk-kg/halk/internal/autodiff"
	"github.com/halk-kg/halk/internal/geometry"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/model"
	"github.com/halk-kg/halk/internal/query"
	"github.com/halk-kg/halk/internal/shard"
)

// groupPenalty is the ξ‖Relu(h_v − h_{U_q})‖₁ term of Eq. 17: ξ when the
// entity's group is outside the query's reachable groups, 0 otherwise.
// Group vectors are not trained, so the term is a constant per pair.
// Since h_v is one-hot (and hot is elementwise non-negative), the L1
// sum collapses to the single term at the entity's own group — O(1)
// and allocation-free. The ranking paths apply the same term inside
// shard.Score.
func (m *net) groupPenalty(e kg.EntityID, hot []float64) float64 {
	if d := 1 - hot[m.groups.GroupOf(e)]; d > 0 {
		return m.cfg.Xi * d
	}
	return 0
}

// scoreEntities builds the differentiable scores d(v‖A_q) +
// ξ‖Relu(h_v − h_{U_q})‖₁ for a batch of entities in one vectorized pass
// per DNF disjunct (tiled arcs + segment sums), minimised elementwise
// over the disjuncts (the union rule of Sec. III-G). Returns a vector of
// length len(es).
//
// d is the entity-to-arc distance of Eqs. 15–16, d = d_o + η·d_i: the
// outside distance is the chord to the nearest arc endpoint and the
// inside distance is the chord to the center saturated at the half-arc
// chord. Exactly as in Eq. 16, d_o applies to points on the arc too —
// answers are pulled toward the nearest endpoint, which keeps arclengths
// tight around the answer set (the cardinality semantics). Chord lengths
// make the measurement periodicity-safe (no duality).
func (m *net) scoreEntities(t *autodiff.Tape, es []kg.EntityID, arcs []Arc) autodiff.V {
	d, k := m.cfg.Dim, len(es)
	rho := m.cfg.Rho
	leaves := make([]autodiff.V, k)
	for i, e := range es {
		leaves[i] = m.ent.Leaf(t, int(e))
	}
	points := t.Concat(leaves...)

	var best autodiff.V
	for ai, a := range arcs {
		c := t.Repeat(a.C, k)
		l := t.Repeat(a.L, k)
		s, e := m.startEnd(t, c, l)
		sa := t.Abs(t.Sin(t.Scale(t.Sub(points, s), 0.5)))
		se := t.Abs(t.Sin(t.Scale(t.Sub(points, e), 0.5)))
		do := t.SumSegments(t.Min(sa, se), d)
		sc := t.Abs(t.Sin(t.Scale(t.Sub(points, c), 0.5)))
		sh := t.Abs(t.Sin(t.Scale(l, 1/(4*rho))))
		di := t.SumSegments(t.Min(sc, sh), d)
		per := t.Scale(t.Add(do, t.Scale(di, m.cfg.Eta)), 2*rho)

		pens := make([]float64, k)
		for i, e := range es {
			pens[i] = m.groupPenalty(e, a.Hot)
		}
		per = t.Add(per, t.Const(pens))

		if ai == 0 {
			best = per
		} else {
			best = t.Min(best, per)
		}
	}
	return best
}

// Loss implements model.Interface: the negative-sampling loss of Eq. 17
// for one query instance, with one positive answer and negSamples
// negatives.
func (m *Model) Loss(t *autodiff.Tape, q *query.Query, negSamples int, rng *rand.Rand) (autodiff.V, bool) {
	// Every loss build precedes an optimizer step that mutates the entity
	// table in place, so publish a new view here: the next ranking after
	// any training activity sees a version change and rebuilds its trig
	// tables. Over-bumping (e.g. on a skipped instance) only costs a
	// rebuild.
	m.MarkEntitiesUpdated()
	pos, ok := model.SamplePositive(q.Answers, rng)
	if !ok {
		return autodiff.V{}, false
	}
	negs := model.SampleNegatives(q.Answers, m.graph.NumEntities(), negSamples, rng)
	if len(negs) == 0 {
		return autodiff.V{}, false
	}

	disjuncts := query.DNF(q.Root)
	arcs := make([]Arc, len(disjuncts))
	for i, d := range disjuncts {
		arcs[i] = m.Embed(t, d)
	}

	scores := m.scoreEntities(t, append([]kg.EntityID{pos}, negs...), arcs)
	// −log σ(γ − score(v))
	posLoss := t.Neg(t.LogSigmoid(t.AddScalar(t.Neg(t.Slice(scores, 0, 1)), m.cfg.Gamma)))
	// −(1/m) Σ log σ(score(v') − γ)
	negLoss := t.Mean(t.Neg(t.LogSigmoid(t.AddScalar(t.Slice(scores, 1, len(negs)), -m.cfg.Gamma))))
	return t.Add(posLoss, negLoss), true
}

// forwardTapes recycles forward-only tapes (and their value slabs)
// across online embeds; a tape is Reset before it goes back.
var forwardTapes = sync.Pool{New: func() any { return autodiff.NewForwardTape() }}

// embedQuery embeds a (possibly union-containing) query and returns the
// value-level arcs of its DNF disjuncts: centers, lengths and group hot
// vector per disjunct. This is the online stage: a single forward pass
// of the same Embed the training loss runs, on a pooled forward-only
// tape — the same arithmetic, hence the same bits, without the gradient
// bookkeeping. The tape's leaves alias the network's arrays, which the
// serving callers take from a published view that no writer touches;
// the returned arcs share no memory with the parameters or the pooled
// tape.
func (m *net) embedQuery(n *query.Node) []ValueArc {
	t := forwardTapes.Get().(*autodiff.Tape)
	defer putForwardTape(t)
	disjuncts := query.DNF(n)
	out := make([]ValueArc, len(disjuncts))
	for i, d := range disjuncts {
		a := m.Embed(t, d)
		out[i] = ValueArc{
			C:   append([]float64(nil), a.C.Value()...),
			L:   append([]float64(nil), a.L.Value()...),
			Hot: a.Hot, // built fresh by the grouping per node, never tape memory
		}
	}
	return out
}

func putForwardTape(t *autodiff.Tape) {
	t.Reset()
	forwardTapes.Put(t)
}

// prepareQuery embeds a query on the caller's forward tape and prepares
// its arcs for scanning, reading the tape's values directly:
// shard.PrepareArc derives fresh tables from them, so nothing of the
// tape survives in the result and the caller may Reset it at once.
func (m *net) prepareQuery(t *autodiff.Tape, n *query.Node) []shard.Arc {
	p := m.shardParams()
	disjuncts := query.DNF(n)
	pre := make([]shard.Arc, len(disjuncts))
	for i, d := range disjuncts {
		a := m.Embed(t, d)
		pre[i] = shard.PrepareArc(p, a.C.Value(), a.L.Value(), a.Hot)
	}
	return pre
}

// ValueArc is a plain-value arc embedding used for online answering;
// the cluster router ships it to shard nodes as JSON (cluster.ArcSpec).
type ValueArc struct {
	C   []float64 `json:"c"`
	L   []float64 `json:"l"`
	Hot []float64 `json:"hot,omitempty"`
}

// distanceTo is the reference (slow) scoring path; the shard.Score
// path in fast.go must agree with it to rounding, which the tests
// assert.
func (m *net) distanceTo(e kg.EntityID, arcs []ValueArc) float64 {
	point := m.ent.Row(int(e))
	best := 0.0
	for i, a := range arcs {
		d := geometry.Distance(m.cfg.Rho, m.cfg.Eta, point, a.C, a.L) + m.groupPenalty(e, a.Hot)
		if i == 0 || d < best {
			best = d
		}
	}
	return best
}

// TopK returns the k entities closest to the query embedding, most
// likely answers first.
func (m *Model) TopK(n *query.Node, k int) []kg.EntityID {
	ids, _ := shard.LowestK(m.Distances(n), nil, k)
	return ids
}

// CandidatesPerNode embeds every variable (non-anchor) node of the query
// DAG and returns the top-k candidate entities for each — the candidate
// sets HaLk contributes to the subgraph-matching pruning of Sec. IV-D.
// Union nodes contribute their children's candidates.
func (m *Model) CandidatesPerNode(n *query.Node, k int) map[*query.Node][]kg.EntityID {
	out := make(map[*query.Node][]kg.EntityID)
	var walk func(node *query.Node)
	walk = func(node *query.Node) {
		if node.Op != query.OpAnchor && node.Op != query.OpUnion {
			out[node] = m.TopK(node, k)
		}
		for _, a := range node.Args {
			walk(a)
		}
	}
	walk(n)
	return out
}
