package halk

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
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
// byte-identical to Model.TopK for the same view.
//
// The ranker holds versioned immutable snapshots of the entity table
// (see shard.Engine), each built from one published view of the model,
// and embeds every query on the view its snapshot was built from, so an
// answer's Result.Version names the one view it was computed on.
// Refresh publishes a snapshot of the model's current view; call it
// whenever EntityVersion has moved.
//
// The engine hosts the contiguous global entity ID range [lo, hi): the
// whole table for NewShardedRanker, one node's slice for NewRangeRanker
// (see RangeRanker).
type ShardedRanker struct {
	m      *Model
	eng    *shard.Engine
	lo, hi int

	// mu serialises refreshes, the only swaps of eng, and pub is the view
	// eng's snapshot was built from.
	mu  sync.Mutex
	pub atomic.Pointer[view]
}

// NewShardedRanker builds a sharded ranking engine over the model's
// current entity table. opts.Shards < 1 means one shard. The initial
// snapshot is published before returning.
func (m *Model) NewShardedRanker(opts shard.Options) (*ShardedRanker, error) {
	return m.NewRangeRanker(0, m.graph.NumEntities(), opts)
}

// Refresh publishes a snapshot of the model's current view if its
// version has moved past the engine's snapshot. Safe to call
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
// full Refresh — the savings are build cost (float32 planes or trig
// tables only for touched shards; the shared ones are re-pointed at the
// new view's rows), not served answers. An empty dirty set still
// republishes the new version. When the view changed in a way no dirty
// list describes since the engine's snapshot (a reload, a training step,
// SetEntityAnglesBatch, MarkEntitiesUpdated), every shard is rebuilt.
// Rows changed by fine-tunes since the snapshot must all be listed.
func (r *ShardedRanker) RefreshDirty(dirty []kg.EntityID) error {
	d := make([]int32, len(dirty))
	for i, e := range dirty {
		d[i] = int32(e)
	}
	return r.refresh(d)
}

func (r *ShardedRanker) refresh(dirty []int32) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.m.pub.Load()
	if v.version <= r.eng.Version() {
		return nil
	}
	if v.rebuilt > r.eng.Version() {
		dirty = nil
	}
	group := make([]int32, r.hi-r.lo)
	for e := r.lo; e < r.hi; e++ {
		group[e-r.lo] = int32(v.groups.GroupOf(kg.EntityID(e)))
	}
	d := v.cfg.Dim
	src := shard.Source{Angles: v.ent.Data[r.lo*d : r.hi*d], Group: group, Version: v.version, Base: r.lo, Dirty: dirty}
	if err := r.eng.Swap(src); err != nil {
		return err
	}
	r.pub.Store(v)
	return nil
}

// RankTopK embeds the query and ranks the k best answers through the
// shard engine, both on the current snapshot's view. Per-shard deadlines
// may yield a partial result — see shard.Result.
func (r *ShardedRanker) RankTopK(ctx context.Context, n *query.Node, k int) (*shard.Result, error) {
	res, err := r.RankBatch(ctx, []*query.Node{n}, []int{k})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// RankBatch embeds and ranks many queries in one shard gather: every
// shard runs one scan that sweeps the whole batch through each entity
// block in turn (see shard.Engine.RankBatch). ks[i] is query i's K;
// len(ks) must equal len(roots). Each returned Result is bit-identical
// to RankTopK(ctx, roots[i], ks[i]) against the same snapshot —
// batching changes memory traffic, never answers.
func (r *ShardedRanker) RankBatch(ctx context.Context, roots []*query.Node, ks []int) ([]*shard.Result, error) {
	if len(roots) != len(ks) {
		return nil, fmt.Errorf("halk: RankBatch got %d queries but %d k values", len(roots), len(ks))
	}
	for {
		begin := time.Now()
		v := r.pub.Load()
		items := v.prepareBatch(roots, ks)
		obs.FromContext(ctx).Observe(obs.StagePrepareArcs, time.Since(begin))
		res, err := r.eng.RankBatch(ctx, items)
		// A refresh that swapped the snapshot between the load and the
		// scan leaves the arcs from the previous view: embed again.
		if err != nil || res[0].Version == v.version {
			return res, err
		}
	}
}

// prepareBatch embeds and prepares every query of a batch on one forward
// tape, reset between queries.
func (v *view) prepareBatch(roots []*query.Node, ks []int) []shard.BatchItem {
	t := forwardTapes.Get().(*autodiff.Tape)
	defer putForwardTape(t)
	items := make([]shard.BatchItem, len(roots))
	for i, n := range roots {
		items[i] = shard.BatchItem{Arcs: v.prepareQuery(t, n), K: ks[i]}
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
