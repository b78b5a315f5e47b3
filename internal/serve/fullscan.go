package serve

import (
	"context"
	"time"

	"github.com/halk-kg/halk/internal/model"
	"github.com/halk-kg/halk/internal/obs"
	"github.com/halk-kg/halk/internal/query"
	"github.com/halk-kg/halk/internal/shard"
)

// fullScan is the default Ranker (Config.Ranker nil): a single-threaded
// exact scan of every entity through the model's own distance function.
// It holds no table of its own — it reads the live model — so its
// snapshot version is the model's entity version.
type fullScan struct{ m model.Interface }

// RankTopK scores every entity and selects the k lowest distances, most
// likely answers first, in the (distance, ID) order of halk.Model.TopK
// and the shard engine, so served answers match the offline CLI exactly.
func (f fullScan) RankTopK(ctx context.Context, n *query.Node, k int) (*shard.Result, error) {
	begin := time.Now()
	var d []float64
	// A model with DistancesContext (halk.Model) aborts the scan with the
	// context error; for one without, the deadline only bounds queue wait.
	if cr, ok := f.m.(interface {
		DistancesContext(context.Context, *query.Node) ([]float64, error)
	}); ok {
		var err error
		if d, err = cr.DistancesContext(ctx, n); err != nil {
			return nil, err
		}
	} else {
		d = f.m.Distances(n)
	}
	res := &shard.Result{Version: f.SnapshotVersion()}
	res.IDs, res.Dists = shard.LowestK(d, nil, k)
	obs.FromContext(ctx).Observe(obs.StageRankScan, time.Since(begin))
	return res, nil
}

// SnapshotVersion is the model's live entity-table version, or 0 for a
// model that does not implement EntityVersioner.
func (f fullScan) SnapshotVersion() uint64 {
	if ev, ok := f.m.(EntityVersioner); ok {
		return ev.EntityVersion()
	}
	return 0
}

func (fullScan) NumShards() int                 { return 0 }
func (fullScan) ShardStats() []shard.ShardStats { return nil }
