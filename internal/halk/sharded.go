package halk

import (
	"context"
	"fmt"
	"time"

	"github.com/halk-kg/halk/internal/autodiff"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/obs"
	"github.com/halk-kg/halk/internal/query"
	"github.com/halk-kg/halk/internal/shard"
)

// ShardedRanker answers ranking queries through the scatter-gather shard
// engine instead of the single-threaded full scan: the entity table is
// partitioned into contiguous-ID shards, each scanned concurrently with a
// bounded top-K heap, and the per-shard winners are merged. Results are
// byte-identical to Model.TopK for the same snapshot.
//
// The ranker holds versioned immutable snapshots of the entity table
// (see shard.Engine): queries rank against the snapshot current when
// they start, and Refresh publishes a new one atomically after entity
// updates. Build one with Model.NewShardedRanker after training and call
// Refresh whenever EntityVersion has moved.
//
// The engine hosts the contiguous global entity ID range [lo, hi): the
// whole table for NewShardedRanker, one node's slice for NewRangeRanker
// (see RangeRanker).
type ShardedRanker struct {
	m      *Model
	eng    *shard.Engine
	lo, hi int
}

// NewShardedRanker builds a sharded ranking engine over the model's
// current entity table. opts.Shards < 1 means one shard. The initial
// snapshot is published before returning.
func (m *Model) NewShardedRanker(opts shard.Options) (*ShardedRanker, error) {
	return m.NewRangeRanker(0, m.graph.NumEntities(), opts)
}

// Refresh publishes a fresh snapshot of the entity table if its version
// has moved past the engine's current snapshot. Safe to call
// concurrently with ranking: in-flight queries finish on the snapshot
// they started with. Returns nil without work when already current.
func (r *ShardedRanker) Refresh() error {
	return r.refresh(nil)
}

// RefreshDirty is Refresh with the delta-swap fast path: dirty lists
// every entity whose row changed since the last published snapshot (for
// example FineTuneResult.DirtyEntities), and the engine rebuilds only
// the shards containing one, sharing the rest with the previous
// snapshot. Dirty IDs are global, so entities outside the hosted range
// leave every shard shared — each cluster node folds the same dirty set
// against its own slice. The published result is byte-identical to a
// full Refresh — the savings are build cost (trig tables only for
// touched shards), not served answers. An empty dirty set still
// republishes the new version. The dirty contract is the caller's: an
// entity whose row changed but is not listed would be served from a
// stale shard.
func (r *ShardedRanker) RefreshDirty(dirty []kg.EntityID) error {
	d := make([]int32, len(dirty))
	for i, e := range dirty {
		d[i] = int32(e)
	}
	return r.refresh(d)
}

func (r *ShardedRanker) refresh(dirty []int32) error {
	ver := r.m.EntityVersion()
	if ver <= r.eng.Version() {
		return nil
	}
	d := r.m.cfg.Dim
	// Copy the hosted rows under the ranking read-lock so no row is
	// observed half-written by a concurrent SetEntityAngles.
	r.m.rankMu.RLock()
	angles := append([]float64(nil), r.m.ent.Data[r.lo*d:r.hi*d]...)
	// Re-read the version while still holding the lock: if an update
	// raced in between the first load and the lock, the copy may already
	// contain it — stamping the later version is correct either way
	// because the copy is at least as new as `ver`.
	newVer := r.m.EntityVersion()
	if dirty != nil && newVer != ver {
		// The racing update's touched rows are in the copy but not in the
		// caller's dirty set, so the delta contract no longer holds. Fall
		// back to a full rebuild for this publish.
		dirty = nil
	}
	ver = newVer
	r.m.rankMu.RUnlock()

	group := make([]int32, r.hi-r.lo)
	for e := r.lo; e < r.hi; e++ {
		group[e-r.lo] = int32(r.m.groups.GroupOf(kg.EntityID(e)))
	}
	return r.eng.Swap(shard.Source{Angles: angles, Group: group, Version: ver, Base: r.lo, Dirty: dirty})
}

// RankTopK embeds the query and ranks the k best answers through the
// shard engine. Embedding takes the model's ranking read-lock (it reads
// live parameters); the scan itself runs lock-free against the current
// snapshot. Per-shard deadlines may yield a partial result — see
// shard.Result.
func (r *ShardedRanker) RankTopK(ctx context.Context, n *query.Node, k int) (*shard.Result, error) {
	begin := time.Now()
	arcs := r.prepareBatch([]*query.Node{n}, []int{k})[0].Arcs
	obs.FromContext(ctx).Observe(obs.StagePrepareArcs, time.Since(begin))
	return r.eng.TopK(ctx, arcs, k)
}

// RankBatch embeds and ranks many queries in one shard gather: all
// queries are prepared under a single ranking read-lock, then every
// shard runs one scan that sweeps the whole batch through each entity
// block in turn (see shard.Engine.RankBatch). ks[i] is query i's K;
// len(ks) must equal len(roots). Each returned Result is bit-identical
// to RankTopK(ctx, roots[i], ks[i]) against the same snapshot —
// batching changes memory traffic, never answers.
func (r *ShardedRanker) RankBatch(ctx context.Context, roots []*query.Node, ks []int) ([]*shard.Result, error) {
	if len(roots) != len(ks) {
		return nil, fmt.Errorf("halk: RankBatch got %d queries but %d k values", len(roots), len(ks))
	}
	begin := time.Now()
	items := r.prepareBatch(roots, ks)
	obs.FromContext(ctx).Observe(obs.StagePrepareArcs, time.Since(begin))
	return r.eng.RankBatch(ctx, items)
}

// prepareBatch embeds and prepares every query of a batch (RankTopK's
// is a batch of one) under one ranking read-lock and on one forward
// tape, reset between queries.
func (r *ShardedRanker) prepareBatch(roots []*query.Node, ks []int) []shard.BatchItem {
	t := forwardTapes.Get().(*autodiff.Tape)
	defer putForwardTape(t)
	r.m.rankMu.RLock()
	defer r.m.rankMu.RUnlock()
	items := make([]shard.BatchItem, len(roots))
	for i, n := range roots {
		items[i] = shard.BatchItem{Arcs: r.m.prepareQuery(t, n), K: ks[i]}
		t.Reset()
	}
	return items
}

// Close drains the engine's in-flight scan goroutines (scatter and
// hedge). Call on shutdown after queries have stopped being issued.
func (r *ShardedRanker) Close() { r.eng.Close() }

// NumShards reports the engine's shard count.
func (r *ShardedRanker) NumShards() int { return r.eng.NumShards() }

// SnapshotVersion reports the entity version of the published snapshot.
func (r *ShardedRanker) SnapshotVersion() uint64 { return r.eng.Version() }

// ShardStats reports per-shard scan counters for observability.
func (r *ShardedRanker) ShardStats() []shard.ShardStats { return r.eng.Stats() }
