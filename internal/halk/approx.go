package halk

import (
	"github.com/halk-kg/halk/internal/ann"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/query"
	"github.com/halk-kg/halk/internal/shard"
)

// AnswerIndex accelerates the online answer-identification phase with the
// angular LSH index of Sec. III-H: instead of ranking every entity, a
// query probes the index around its arc centers and ranks only the
// returned candidate pool. It holds the view it was built from and
// embeds, probes and rescores on that view alone, so later updates to
// the model do not reach it; rebuild it to follow them.
type AnswerIndex struct {
	v  *view
	ix *ann.Index
}

// NewAnswerIndex builds an LSH index with the given configuration over
// the served view's entity table.
func (m *Model) NewAnswerIndex(cfg ann.Config) *AnswerIndex {
	v := m.pub.Load()
	return &AnswerIndex{v: v, ix: ann.NewFlat(v.ent.Data, v.cfg.Dim, 0, cfg)}
}

// TopKApprox returns up to k likely answers: the query's arc centers
// probe the index with a radius covering the arc span plus a slack band,
// the candidate pool is ranked exactly with the model's distance, and
// the best k are returned in (distance, ID) order. Compared with
// Model.TopK it trades a little recall for a sublinear candidate count.
func (ai *AnswerIndex) TopKApprox(n *query.Node, k int) []kg.EntityID {
	v := ai.v
	arcs := v.embedQuery(n)
	pool := make(map[kg.EntityID]struct{})
	for _, a := range arcs {
		// Probe radius: half the widest arc angle plus slack.
		radius := 0.3
		for j := range a.L {
			if half := a.L[j] / (2 * v.cfg.Rho) / 2; half > radius {
				radius = half
			}
		}
		for _, e := range ai.ix.Candidates(a.C, radius) {
			pool[e] = struct{}{}
		}
	}
	pre := make([]preArc, len(arcs))
	for i, a := range arcs {
		pre[i] = v.prepareArc(a)
	}
	p := v.shardParams()
	cosT, sinT := v.trig()
	ids := make([]kg.EntityID, 0, len(pool))
	dists := make([]float64, 0, len(pool))
	for e := range pool {
		ids = append(ids, e)
		dists = append(dists, v.score(p, cosT, sinT, e, pre))
	}
	out, _ := shard.LowestK(dists, ids, k)
	return out
}

// PoolSize reports how many candidates the index would return for the
// query — the work saved versus ranking all entities.
func (ai *AnswerIndex) PoolSize(n *query.Node) int {
	pool := make(map[kg.EntityID]struct{})
	for _, a := range ai.v.embedQuery(n) {
		for _, e := range ai.ix.Candidates(a.C, 0.3) {
			pool[e] = struct{}{}
		}
	}
	return len(pool)
}
