package shard

import (
	"strconv"

	"github.com/halk-kg/halk/internal/obs"
	"github.com/halk-kg/halk/internal/resil"
)

// shardStat holds one shard slot's counters as handles into the obs
// registry, so the same numbers serve /v1/stats (JSON) and /metrics
// (Prometheus). Stats survive Swap — they describe the shard slot, not
// any particular snapshot.
//
// Everything here is atomic (counters, gauge bits, histogram buckets):
// scan goroutines publish and the stats reader observes without any
// lock, so a Stats call during a scatter never blocks a shard — and the
// counters still read race-clean (see TestShardStatsRaceStress, run
// under -race).
type shardStat struct {
	scans        *obs.Counter   // completed scans
	skips        *obs.Counter   // scans abandoned on the per-shard deadline
	errors       *obs.Counter   // scans failed by the ScanHook seam
	panics       *obs.Counter   // panics recovered inside scan goroutines
	breakerSkips *obs.Counter   // scans refused up front by an open breaker
	hedges       *obs.Counter   // hedge scans issued
	hedgeWins    *obs.Counter   // gathers where the hedge finished first
	envSkips     *obs.Counter   // (block, query) pairs skipped by the envelope
	filterLanes  *obs.Counter   // lanes offered to the float32 filter
	filterSurv   *obs.Counter   // lanes the filter passed to exact rescoring
	scanMs       *obs.Histogram // completed-scan latency
	lastMs       *obs.Gauge
	maxMs        *obs.Gauge
}

// newShardStats registers the per-shard series (labelled shard="i") on
// reg.
func newShardStats(reg *obs.Registry, n int) []shardStat {
	out := make([]shardStat, n)
	for i := range out {
		l := obs.L("shard", strconv.Itoa(i))
		out[i] = shardStat{
			scans:        reg.Counter("halk_shard_scans_total", "Completed per-shard scans.", l),
			skips:        reg.Counter("halk_shard_skips_total", "Shard scans abandoned on the per-shard deadline.", l),
			errors:       reg.Counter("halk_shard_scan_errors_total", "Shard scans failed by the error-injection seam.", l),
			panics:       reg.Counter("halk_shard_panics_total", "Panics recovered inside shard scan goroutines.", l),
			breakerSkips: reg.Counter("halk_shard_breaker_skips_total", "Shard scans refused up front by an open circuit breaker.", l),
			hedges:       reg.Counter("halk_shard_hedges_total", "Hedge scans issued after the per-shard hedge delay.", l),
			hedgeWins:    reg.Counter("halk_shard_hedge_wins_total", "Gathers where the hedge scan finished before the primary.", l),
			envSkips:     reg.Counter("halk_shard_block_env_skips_total", "Entity blocks skipped whole by the per-block envelope bound (counted per query of a batch).", l),
			filterLanes:  reg.Counter("halk_shard_filter_lanes_total", "Entity lanes offered to the blocked float32 filter.", l),
			filterSurv:   reg.Counter("halk_shard_filter_survivors_total", "Filter lanes that required exact float64 rescoring.", l),
			scanMs:       reg.Histogram("halk_shard_scan_duration_ms", "Latency of completed shard scans in milliseconds.", obs.LatencyBuckets, l),
			lastMs:       reg.Gauge("halk_shard_last_scan_ms", "Latency of the most recent completed scan.", l),
			maxMs:        reg.Gauge("halk_shard_max_scan_ms", "Worst completed-scan latency since process start.", l),
		}
	}
	return out
}

func (st *shardStat) record(ms float64) {
	st.scans.Inc()
	st.scanMs.Observe(ms)
	st.lastMs.Set(ms)
	st.maxMs.SetMax(ms)
}

// recordKernel folds one completed scan's blocked-kernel counters in.
func (st *shardStat) recordKernel(sc *scanCounters) {
	if sc.envSkips > 0 {
		st.envSkips.Add(sc.envSkips)
	}
	if sc.lanes > 0 {
		st.filterLanes.Add(sc.lanes)
	}
	if sc.survivors > 0 {
		st.filterSurv.Add(sc.survivors)
	}
}

// ShardStats is the exported per-shard counter snapshot, shaped for the
// /v1/stats JSON export.
type ShardStats struct {
	// Shard is the shard index; Lo/Hi is the entity ID range [Lo, Hi) it
	// owns in the current snapshot.
	Shard int `json:"shard"`
	Lo    int `json:"lo"`
	Hi    int `json:"hi"`
	// Scans counts completed local scans; Skips counts scans abandoned on
	// the per-shard deadline (each skipped scan produced a partial
	// response).
	Scans uint64 `json:"scans"`
	Skips uint64 `json:"skips"`
	// Fault-tolerance counters: Errors counts scans failed via the
	// error-injection seam, Panics counts panics recovered inside scan
	// goroutines, BreakerSkips counts scans refused up front by an open
	// breaker, Hedges/HedgeWins count hedge scans issued and won.
	Errors       uint64 `json:"errors,omitempty"`
	Panics       uint64 `json:"panics,omitempty"`
	BreakerSkips uint64 `json:"breaker_skips,omitempty"`
	Hedges       uint64 `json:"hedges,omitempty"`
	HedgeWins    uint64 `json:"hedge_wins,omitempty"`
	// Blocked-kernel effectiveness: EnvSkips counts (block, query) pairs
	// skipped whole by the envelope bound, FilterLanes counts entity
	// lanes offered to the float32 filter, FilterSurvivors counts lanes
	// that needed exact rescoring.
	EnvSkips        uint64 `json:"env_skips,omitempty"`
	FilterLanes     uint64 `json:"filter_lanes,omitempty"`
	FilterSurvivors uint64 `json:"filter_survivors,omitempty"`
	// Breaker is the shard's circuit breaker snapshot; absent when
	// breakers are disabled.
	Breaker *resil.BreakerStats `json:"breaker,omitempty"`
	// Scan latency over completed scans, in milliseconds.
	LastScanMs float64 `json:"last_scan_ms"`
	MeanScanMs float64 `json:"mean_scan_ms"`
	MaxScanMs  float64 `json:"max_scan_ms"`
}

// Stats returns the per-shard counters alongside the current snapshot's
// shard ranges. It is a lock-free read of the same registry series
// exported at /metrics.
func (e *Engine) Stats() []ShardStats {
	snap := e.snap.Load()
	out := make([]ShardStats, len(e.stats))
	for i := range e.stats {
		st := &e.stats[i]
		out[i] = ShardStats{
			Shard:           i,
			Scans:           st.scans.Value(),
			Skips:           st.skips.Value(),
			Errors:          st.errors.Value(),
			Panics:          st.panics.Value(),
			BreakerSkips:    st.breakerSkips.Value(),
			Hedges:          st.hedges.Value(),
			HedgeWins:       st.hedgeWins.Value(),
			EnvSkips:        st.envSkips.Value(),
			FilterLanes:     st.filterLanes.Value(),
			FilterSurvivors: st.filterSurv.Value(),
			LastScanMs:      st.lastMs.Value(),
			MeanScanMs:      st.scanMs.Mean(),
			MaxScanMs:       st.maxMs.Value(),
		}
		if b := e.breakers[i]; b != nil {
			bs := b.Stats()
			out[i].Breaker = &bs
		}
		if snap != nil {
			out[i].Lo, out[i].Hi = snap.shards[i].lo, snap.shards[i].hi
		}
	}
	return out
}

// Metrics returns the registry the engine's counters live on — the one
// passed in Options.Metrics, or the engine's private registry when none
// was.
func (e *Engine) Metrics() *obs.Registry { return e.reg }
