package halk

import (
	"context"
	"math"
	"sync"

	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/shard"
)

// This file is the unsharded exact ranker: the trig cache over the
// model's entity table and the full scan that scores every entity with
// shard.Score, the scorer the shard engine and the approx rescore share.

// trigCache memoises cos/sin of every entity angle so that online
// ranking (Distances over all entities) avoids per-query trigonometry:
// chord lengths reduce to dot products of cached unit vectors,
// |sin((p−s)/2)| = sqrt((1 − cos(p−s))/2) with
// cos(p−s) = cos p·cos s + sin p·sin s.
//
// Staleness is detected through the model's monotonic entity version
// (see Model.EntityVersion): SetEntityAngles and training steps bump the
// counter, and the cache rebuilds when the version it was built at no
// longer matches — an O(1) check per ranked query, replacing the
// O(|E|·d) full-table fingerprint this cache used to rehash every time.
//
// Invalidation is copy-on-invalidate: a rebuild fills fresh slices and
// swaps them in under the mutex, never rewriting the previously returned
// ones in place. Slices handed out by tables therefore stay immutable
// for as long as a caller holds them, even if another goroutine
// invalidates the cache mid-scan.
type trigCache struct {
	mu      sync.Mutex
	version uint64 // entity version the tables were built at; 0 = never
	cos     []float64
	sin     []float64
}

// tables returns cos/sin tables for the entity data as of the given
// entity version. The returned slices are read-only snapshots: they are
// never mutated after being returned.
func (tc *trigCache) tables(data []float64, version uint64) (cosT, sinT []float64) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.version != version || len(tc.cos) != len(data) {
		cos := make([]float64, len(data))
		sin := make([]float64, len(data))
		for i, a := range data {
			cos[i] = math.Cos(a)
			sin[i] = math.Sin(a)
		}
		tc.cos, tc.sin = cos, sin
		tc.version = version
	}
	return tc.cos, tc.sin
}

// preArc is a query arc prepared for fast scoring; it is the shard
// engine's prepared-arc type, so the single-node path and the sharded
// path share one preparation and one scorer (and therefore the same
// bits).
type preArc = shard.Arc

func (m *Model) prepareArc(a ValueArc) preArc {
	return shard.PrepareArc(m.shardParams(), a.C, a.L, a.Hot)
}

// shardParams exports the scoring constants in the shard engine's form.
func (m *Model) shardParams() shard.Params {
	return shard.Params{Dim: m.cfg.Dim, Rho: m.cfg.Rho, Eta: m.cfg.Eta, Xi: m.cfg.Xi}
}

// ctxCheckStride is how many entities fastDistances scores between
// context-cancellation checks: frequent enough to honour tight serving
// deadlines, rare enough to keep the check off the hot loop's profile.
const ctxCheckStride = 1024

// fastDistances scores every entity against the prepared arcs over the
// trig cache; identical (to rounding) to geometry.Distance + group
// penalty, minimised over disjuncts. The only allocation is the output
// vector. A non-nil ctx is polled every ctxCheckStride entities so long
// scans can be abandoned mid-flight.
func (m *Model) fastDistances(ctx context.Context, arcs []preArc) ([]float64, error) {
	p := m.shardParams()
	cosT, sinT := m.trig.tables(m.ent.Data, m.EntityVersion())
	out := make([]float64, m.graph.NumEntities())
	for e := range out {
		if ctx != nil && e%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		out[e] = m.score(p, cosT, sinT, kg.EntityID(e), arcs)
	}
	return out, nil
}

// score is the unpruned shard.Score of entity e over the trig tables.
func (m *Model) score(p shard.Params, cosT, sinT []float64, e kg.EntityID, arcs []preArc) float64 {
	row := int(e) * p.Dim
	group := int32(m.groups.GroupOf(e))
	return shard.Score(p, cosT[row:row+p.Dim], sinT[row:row+p.Dim], group, arcs, math.Inf(1))
}
