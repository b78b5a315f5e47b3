package halk

import (
	"context"
	"math"

	"github.com/halk-kg/halk/internal/autodiff"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/query"
	"github.com/halk-kg/halk/internal/shard"
)

// This file is the unsharded exact ranker: the full scan that scores
// every entity of a view with shard.Score over the view's trig tables,
// the scorer the shard engine and the approx rescore share.

// preArc is a query arc prepared for fast scoring; it is the shard
// engine's prepared-arc type, so the single-node path and the sharded
// path share one preparation and one scorer (and therefore the same
// bits).
type preArc = shard.Arc

func (m *net) prepareArc(a ValueArc) preArc {
	return shard.PrepareArc(m.shardParams(), a.C, a.L, a.Hot)
}

// shardParams exports the scoring constants in the shard engine's form.
func (m *net) shardParams() shard.Params {
	return shard.Params{Dim: m.cfg.Dim, Rho: m.cfg.Rho, Eta: m.cfg.Eta, Xi: m.cfg.Xi}
}

// ctxCheckStride is how many entities distances scores between
// context-cancellation checks: frequent enough to honour tight serving
// deadlines, rare enough to keep the check off the hot loop's profile.
const ctxCheckStride = 1024

// distances embeds the query on the view and scores every entity
// against its prepared arcs; identical (to rounding) to
// geometry.Distance + group penalty, minimised over disjuncts. The only
// allocation besides the embed is the output vector. A non-nil ctx is
// polled every ctxCheckStride entities so long scans can be abandoned
// mid-flight; with a nil ctx the error is always nil.
func (v *view) distances(ctx context.Context, n *query.Node) ([]float64, error) {
	t := forwardTapes.Get().(*autodiff.Tape)
	arcs := v.prepareQuery(t, n)
	putForwardTape(t)
	p := v.shardParams()
	cosT, sinT := v.trig()
	out := make([]float64, len(v.ent.Data)/p.Dim)
	for e := range out {
		if ctx != nil && e%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		out[e] = v.score(p, cosT, sinT, kg.EntityID(e), arcs)
	}
	return out, nil
}

// score is the unpruned shard.Score of entity e over the trig tables.
func (m *net) score(p shard.Params, cosT, sinT []float64, e kg.EntityID, arcs []preArc) float64 {
	row := int(e) * p.Dim
	group := int32(m.groups.GroupOf(e))
	return shard.Score(p, cosT[row:row+p.Dim], sinT[row:row+p.Dim], group, arcs, math.Inf(1))
}
