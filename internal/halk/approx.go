package halk

import (
	"github.com/halk-kg/halk/internal/ann"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/query"
)

// AnswerIndex accelerates the online answer-identification phase with the
// angular LSH index of Sec. III-H: instead of ranking every entity, a
// query probes the index around its arc centers and ranks only the
// returned candidate pool. Build it after training — the index snapshots
// the entity embeddings, so rebuild it if the model trains further.
type AnswerIndex struct {
	m  *Model
	ix *ann.Index
}

// NewAnswerIndex snapshots the model's entity embeddings into an LSH
// index with the given configuration.
func (m *Model) NewAnswerIndex(cfg ann.Config) *AnswerIndex {
	points := make([][]float64, m.graph.NumEntities())
	for e := range points {
		points[e] = append([]float64(nil), m.ent.Row(e)...)
	}
	return &AnswerIndex{m: m, ix: ann.New(points, cfg)}
}

// TopKApprox returns up to k likely answers: the query's arc centers
// probe the index with a radius covering the arc span plus a slack band,
// the candidate pool is ranked exactly with the model's distance, and
// the best k are returned. Compared with Model.TopK it trades a little
// recall for a sublinear candidate count.
func (ai *AnswerIndex) TopKApprox(n *query.Node, k int) []kg.EntityID {
	ai.m.rankMu.RLock()
	defer ai.m.rankMu.RUnlock()
	arcs := ai.m.EmbedQuery(n)
	pool := make(map[kg.EntityID]struct{})
	for _, a := range arcs {
		// Probe radius: half the widest arc angle plus slack.
		radius := 0.3
		for j := range a.L {
			if half := a.L[j] / (2 * ai.m.cfg.Rho) / 2; half > radius {
				radius = half
			}
		}
		for _, e := range ai.ix.Candidates(a.C, radius) {
			pool[e] = struct{}{}
		}
	}
	pre := make([]preArc, len(arcs))
	for i, a := range arcs {
		pre[i] = ai.m.prepareArc(a)
	}
	type scored struct {
		e kg.EntityID
		d float64
	}
	p := ai.m.shardParams()
	cosT, sinT := ai.m.trig.tables(ai.m.ent.Data, ai.m.EntityVersion())
	ranked := make([]scored, 0, len(pool))
	for e := range pool {
		ranked = append(ranked, scored{e, ai.m.score(p, cosT, sinT, e, pre)})
	}
	k = max(0, min(k, len(ranked)))
	// partial selection of the k smallest
	for i := 0; i < k; i++ {
		min := i
		for j := i + 1; j < len(ranked); j++ {
			if ranked[j].d < ranked[min].d ||
				(ranked[j].d == ranked[min].d && ranked[j].e < ranked[min].e) {
				min = j
			}
		}
		ranked[i], ranked[min] = ranked[min], ranked[i]
	}
	out := make([]kg.EntityID, k)
	for i := 0; i < k; i++ {
		out[i] = ranked[i].e
	}
	return out
}

// PoolSize reports how many candidates the index would return for the
// query — the work saved versus ranking all entities.
func (ai *AnswerIndex) PoolSize(n *query.Node) int {
	ai.m.rankMu.RLock()
	defer ai.m.rankMu.RUnlock()
	arcs := ai.m.EmbedQuery(n)
	pool := make(map[kg.EntityID]struct{})
	for _, a := range arcs {
		for _, e := range ai.ix.Candidates(a.C, 0.3) {
			pool[e] = struct{}{}
		}
	}
	return len(pool)
}
