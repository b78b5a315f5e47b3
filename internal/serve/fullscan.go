package serve

import (
	"context"
	"time"

	"github.com/halk-kg/halk/internal/obs"
	"github.com/halk-kg/halk/internal/query"
	"github.com/halk-kg/halk/internal/shard"
)

// fullScan is the default Ranker (Config.Ranker nil): a single-threaded
// exact scan of every entity through the model's own distance function.
// It holds no table of its own — it reads the live model — so its
// snapshot version is the model's entity version.
type fullScan struct{ m Model }

// RankTopK scores every entity and selects the k lowest distances, most
// likely answers first, in the (distance, ID) order of halk.Model.TopK
// and the shard engine, so served answers match the offline CLI exactly.
func (f fullScan) RankTopK(ctx context.Context, n *query.Node, k int) (*shard.Result, error) {
	begin := time.Now()
	d, err := f.m.DistancesContext(ctx, n)
	if err != nil {
		return nil, err
	}
	res := &shard.Result{Version: f.SnapshotVersion()}
	res.IDs, res.Dists = shard.LowestK(d, nil, k)
	obs.FromContext(ctx).Observe(obs.StageRankScan, time.Since(begin))
	return res, nil
}

// SnapshotVersion is the model's live entity-table version.
func (f fullScan) SnapshotVersion() uint64 { return f.m.EntityVersion() }

func (fullScan) NumShards() int                 { return 0 }
func (fullScan) ShardStats() []shard.ShardStats { return nil }
