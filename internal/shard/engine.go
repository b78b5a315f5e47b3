package shard

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/obs"
	"github.com/halk-kg/halk/internal/resil"
)

// ErrNoSnapshot is returned by ranking calls before the first Swap.
var ErrNoSnapshot = errors.New("shard: no snapshot published (call Swap first)")

// ErrAllShardsSkipped is returned when every shard was skipped — deadline
// miss, scan fault, or open circuit breaker — so not even a partial
// result exists.
var ErrAllShardsSkipped = errors.New("shard: all shards missed their deadline")

// ErrClosed is returned by rankings issued after Close.
var ErrClosed = errors.New("shard: engine closed")

// ErrBadArc is returned when an arc's group hot vector is too short to
// index every group id of the published table — input error, not a
// shard fault.
var ErrBadArc = errors.New("shard: arc hot vector does not cover the table's groups")

// Options configures an Engine.
type Options struct {
	// Shards is the number of partitions; values < 1 mean 1.
	Shards int
	// ShardTimeout bounds each shard's local scan. A shard that misses it
	// is skipped and the merged result is marked partial; 0 means shards
	// are bounded only by the query context.
	ShardTimeout time.Duration
	// Metrics is the registry the per-shard scan counters register on,
	// shared with the rest of the process so one /metrics endpoint
	// exports everything. Nil means a private registry (reachable via
	// Engine.Metrics).
	Metrics *obs.Registry
	// ScanHook, when set, is called at the start of every shard scan with
	// the shard index. A non-nil return fails that shard's scan (skip +
	// breaker failure) without touching the snapshot; a hook that sleeps
	// past ShardTimeout and returns nil turns that shard into a deadline
	// miss. Test and fault-injection seam — see resil.Injector.ScanErrHook.
	ScanHook func(shardIdx int) error
	// Breaker, when non-nil, guards each shard slot with a circuit
	// breaker built from this config: shards that keep missing their
	// deadline (or panicking) are skipped up front until a half-open
	// probe succeeds. Breaker state is exported per shard via Stats and
	// the halk_shard_breaker_state gauge.
	Breaker *resil.BreakerConfig
	// HedgeDelay enables hedged scans: a shard that has not answered
	// after max(HedgeDelay, its p99), capped at ShardTimeout, is scanned
	// again; the first result wins, byte-identical. 0 disables hedging.
	HedgeDelay time.Duration
	// PanicLog receives the stack trace of recovered scan panics; nil
	// means the process-default logger.
	PanicLog *log.Logger
	// ScalarKernel pins exact scans to the scalar float64 reference loop
	// on every shard: snapshots hold float64 cos/sin tables instead of
	// the blocked float32 planes, and every entity is scored by Score
	// directly. Without it only shards below a fixed row count
	// (blockedMinRows) take that path, where the blocked filter passes
	// too many lanes to pay. The blocked kernel rescores all retained
	// entities through the same Score, so both paths return
	// bit-identical results — this option exists to prove exactly that
	// (the kernel-identity suite) and as an escape hatch.
	ScalarKernel bool
}

// Engine is the sharded ranking engine. All methods are safe for
// concurrent use; ranking never blocks Swap and vice versa.
type Engine struct {
	p    Params
	n    int
	opts Options

	snap    atomic.Pointer[snapshot]
	swapMu  sync.Mutex // serialises Swap; installs stay version-monotonic
	reg     *obs.Registry
	stats   []shardStat
	heaps   []sync.Pool // per-shard scratch heaps, reused across scans
	scratch []sync.Pool // per-shard *scanScratch of the blocked kernel

	// slack / twoRho32 are the blocked kernel's precomputed filter
	// constants. slack upper-bounds how far the
	// float32 filter accumulation can overshoot the true float64
	// distance — the worst per-dimension term is the square-root cliff,
	// sqrt(x+δ)-sqrt(x) ≤ sqrt(δ) ≈ 9.2e-4 for the ≤ ~8.5e-7 the float32
	// tables, dots, and halfEps pad can inflate the sqrt argument, with
	// table/accumulation rounding adding only ~1e-5 — so a 1.2e-3 budget
	// per dimension (scaled by 2ρ(1+η)) keeps the filter a strict
	// superset selection: lanes it drops provably cannot enter the
	// top-K.
	slack    float64
	twoRho32 float32

	// breakers holds one circuit breaker per shard slot (nil entries
	// when Options.Breaker was nil: every scan is always admitted).
	breakers []*resil.Breaker
	// drain tracks every scan goroutine, scatter and hedge alike.
	drain resil.Drain

	// Delta-swap counters: delta publications and how many shards each
	// rebuilt vs shared with the previous snapshot.
	deltaSwaps   *obs.Counter
	deltaRebuilt *obs.Counter
	deltaReused  *obs.Counter
}

// NewEngine builds an engine over n shards; publish a table with Swap
// before ranking.
func NewEngine(p Params, opts Options) *Engine {
	n := opts.Shards
	if n < 1 {
		n = 1
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	e := &Engine{
		p:        p,
		n:        n,
		opts:     opts,
		reg:      reg,
		stats:    newShardStats(reg, n),
		heaps:    make([]sync.Pool, n),
		scratch:  make([]sync.Pool, n),
		breakers: make([]*resil.Breaker, n),
		slack:    float64(p.Dim) * 2 * p.Rho * (1 + p.Eta) * 1.2e-3,
		twoRho32: float32(2 * p.Rho),
	}
	e.deltaSwaps = reg.Counter("halk_shard_delta_swaps_total", "Delta snapshot publications (Source.Dirty fast path).")
	e.deltaRebuilt = reg.Counter("halk_shard_delta_shards_rebuilt_total", "Shards rebuilt across delta swaps.")
	e.deltaReused = reg.Counter("halk_shard_delta_shards_reused_total", "Shards shared with the previous snapshot across delta swaps.")
	if opts.Breaker != nil {
		for i := range e.breakers {
			b := resil.NewBreaker(*opts.Breaker)
			e.breakers[i] = b
			reg.GaugeFunc("halk_shard_breaker_state",
				"Circuit breaker state per shard (0=closed, 1=open, 2=half-open).",
				func() float64 { return float64(b.State()) },
				obs.L("shard", strconv.Itoa(i)))
		}
	}
	return e
}

// Close waits for every in-flight scan goroutine — scatter and hedge —
// to drain; a closed engine leaks nothing. Rankings issued after Close
// begins are refused with ErrClosed (Swap and the read-only accessors
// keep working), so Close may race in-flight queries safely. Close is
// idempotent.
func (e *Engine) Close() { e.drain.Close() }

// getHeap takes shard i's scratch heap from its pool (or allocates one)
// and re-arms it for a k-bounded scan.
func (e *Engine) getHeap(i, k int) *topK {
	if h, ok := e.heaps[i].Get().(*topK); ok {
		h.reset(k)
		return h
	}
	return newTopK(k)
}

// NumShards reports the shard count.
func (e *Engine) NumShards() int { return e.n }

// EntityRange reports the contiguous global entity ID range [lo, hi)
// the published snapshot covers — [0, numEntities) for a single-process
// engine, the hosted slice for a cluster node built with Source.Base.
// Before the first Swap both bounds are 0.
func (e *Engine) EntityRange() (lo, hi int) {
	snap := e.snap.Load()
	if snap == nil || len(snap.shards) == 0 {
		return 0, 0
	}
	return snap.shards[0].lo, snap.shards[len(snap.shards)-1].hi
}

// Version reports the published snapshot's version (0 before the first
// Swap).
func (e *Engine) Version() uint64 {
	if snap := e.snap.Load(); snap != nil {
		return snap.version
	}
	return 0
}

// Swap builds a new sharded snapshot from src and publishes it
// atomically: rankings that began before the swap finish on the old
// snapshot, rankings that begin after see the new one. A src whose
// version is not newer than the published snapshot is ignored (swaps
// racing out of order cannot roll the table back).
func (e *Engine) Swap(src Source) error {
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	cur := e.snap.Load()
	if cur != nil && src.Version <= cur.version {
		return nil
	}
	// A swap may refresh the values but never resize the served world:
	// entity IDs are positions in this table, and shrinking or growing
	// it mid-flight would silently remap every ID the dictionaries and
	// caches still hold. (Shape errors inside buildSnapshot would catch
	// a non-rectangular table; this catches a rectangular one of the
	// wrong size, e.g. a hot-reloaded checkpoint from another dataset.)
	if cur != nil && len(src.Angles) != cur.numEntities*e.p.Dim {
		return fmt.Errorf("shard: swap source has %d angle values, published snapshot holds %d entities × dim %d",
			len(src.Angles), cur.numEntities, e.p.Dim)
	}
	// Delta path: when the caller names exactly which entities changed
	// and the geometry matches the published snapshot, rebuild only the
	// shards containing a dirty entity and share the rest (shardData is
	// immutable after publication, so sharing across snapshots is safe).
	if cur != nil && src.Dirty != nil && len(cur.shards) > 0 && src.Base == cur.shards[0].lo {
		snap, rebuilt, err := deltaSnapshot(e.p, src, cur, !e.opts.ScalarKernel)
		if err != nil {
			return err
		}
		e.snap.Store(snap)
		e.deltaSwaps.Inc()
		e.deltaRebuilt.Add(uint64(rebuilt))
		e.deltaReused.Add(uint64(len(cur.shards) - rebuilt))
		return nil
	}
	snap, err := buildSnapshot(e.p, e.n, src, !e.opts.ScalarKernel)
	if err != nil {
		return err
	}
	e.snap.Store(snap)
	return nil
}

// Result is a merged global top-K.
type Result struct {
	// IDs are the best entities, most likely answers first; Dists are the
	// matching distances.
	IDs   []kg.EntityID
	Dists []float64
	// Partial is true when at least one shard missed its deadline;
	// Answered and Skipped list the shard indices that did and did not
	// contribute.
	Partial  bool
	Answered []int
	Skipped  []int
	// Version is the snapshot version the scan ran on.
	Version uint64
}

// BatchItem is one query of a batched ranking: its prepared arcs and how
// many answers to retain.
type BatchItem struct {
	Arcs []Arc
	K    int
}

// batchSpec is the immutable per-gather description every shard scan
// reads: the queries and their float32 kernel tables (nil when no shard
// of the snapshot is blocked).
type batchSpec struct {
	items []BatchItem
	kern  [][]kernArc
}

// localBatch is one shard's contribution to a gather: the sorted local
// top-K of every query in the batch, or skipped (a shard answers or
// skips as a unit — one scan serves the whole batch).
type localBatch struct {
	d       [][]float64
	id      [][]int32
	skipped bool
}

// TopK scatters the prepared arcs to every shard, scans all of them in
// parallel and merges the local heaps into the global k best entities.
// Scans poll ctx; a cancelled query returns ctx.Err(). Shards that miss
// Options.ShardTimeout are skipped and the result is marked Partial.
func (e *Engine) TopK(ctx context.Context, arcs []Arc, k int) (*Result, error) {
	return e.TopKBound(ctx, arcs, k, math.Inf(1))
}

// TopKBound is TopK with the shared pruning bound seeded from outside:
// bound must be a true upper bound on the global k-th best distance
// (for example another node's k-th best in a scatter-gather cluster),
// and shards prune against it from the first scored entity instead of
// waiting for a local heap to fill. A bound <= 0 or +Inf seeds nothing.
// Seeding never changes which entities can win — it only skips entities
// that provably cannot enter the global top-K — so the merged result is
// identical to an unseeded scan whenever the bound is valid.
func (e *Engine) TopKBound(ctx context.Context, arcs []Arc, k int, bound float64) (*Result, error) {
	res, err := e.runBatch(ctx, []BatchItem{{Arcs: arcs, K: k}}, bound)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// RankBatch evaluates many queries in one gather: each shard runs a
// single scan that sweeps every query of the batch through each entity
// block in turn, so the blocked planes are read once per block pass
// instead of once per query. Per-query results are merged independently
// (each item gets its own heaps, pruning bounds and top-K), and every
// Result is bit-identical to what TopK would return for that item alone
// — batching changes memory traffic, never answers. Shard outcomes are
// batch-wide: a shard that misses its deadline marks every item's
// Result partial, exactly as it would a lone query's.
func (e *Engine) RankBatch(ctx context.Context, items []BatchItem) ([]*Result, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("shard: empty batch")
	}
	return e.runBatch(ctx, items, math.Inf(1))
}

func (e *Engine) runBatch(ctx context.Context, items []BatchItem, bound float64) ([]*Result, error) {
	snap := e.snap.Load()
	if snap == nil {
		return nil, ErrNoSnapshot
	}
	// One check per gather, before any shard scores; scoreLocal indexes
	// an arc's Hot by group id.
	for qi, it := range items {
		if it.K <= 0 || len(it.Arcs) == 0 {
			return nil, fmt.Errorf("shard: item %d: k must be positive and arcs non-empty, got k=%d with %d arcs", qi, it.K, len(it.Arcs))
		}
		for ai := range it.Arcs {
			if n := len(it.Arcs[ai].Hot); n <= int(snap.maxGroup) {
				return nil, fmt.Errorf("%w: item %d arc %d has %d entries, group ids run to %d", ErrBadArc, qi, ai, n, snap.maxGroup)
			}
		}
	}

	g := &gather{e: e, qctx: ctx, snap: snap, spec: batchSpec{items: items}, locals: make([]localBatch, len(snap.shards))}
	if snap.blocked {
		g.spec.kern = prepareKernel(e.p.Dim, e.p.Eta, items)
	}

	// gbounds holds each query's shared pruning bound: the smallest
	// full-heap root any shard has published for that query so far. Any
	// shard's local k-th best is an upper bound on the global k-th best,
	// so every shard may prune against it. A caller-supplied bound
	// (TopKBound) seeds it before the first scan.
	g.gbounds = make([]Bound, len(items))
	for qi := range g.gbounds {
		g.gbounds[qi].Init()
		if bound > 0 && !math.IsInf(bound, 1) {
			g.gbounds[qi].Update(bound)
		}
	}

	tr := obs.FromContext(ctx)
	scatterStart := time.Now()
	// Each shard is a one-candidate race, hedged back to the same
	// immutable snapshot. One ShardTimeout per shard is shared by the
	// primary and its hedge: re-reading the same memory, a fresh budget
	// would only delay the partial, so a slow shard bounds the gather at
	// ~ShardTimeout instead of hedge delay + ShardTimeout.
	if !e.drain.Scatter(len(snap.shards), func(i int) {
		sctx := ctx
		if e.opts.ShardTimeout > 0 {
			var cancel context.CancelFunc
			sctx, cancel = context.WithTimeout(ctx, e.opts.ShardTimeout)
			defer cancel()
		}
		var ok bool
		g.locals[i], ok = resil.Race[int, localBatch](&e.drain, ctx, sctx, []int{i}, g)
		g.locals[i].skipped = !ok
	}) {
		return nil, ErrClosed
	}
	tr.Observe(obs.StageShardScatter, time.Since(scatterStart))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mergeStart := time.Now()
	res, err := mergeBatch(snap, g.locals, items)
	tr.Observe(obs.StageHeapMerge, time.Since(mergeStart))
	return res, err
}

// gather is one runBatch's state shared by its shard races, and their
// resil.Target with the shard index as the candidate.
type gather struct {
	e       *Engine
	qctx    context.Context
	snap    *snapshot
	spec    batchSpec
	gbounds []Bound
	locals  []localBatch
}

func (g *gather) Breaker(i int) *resil.Breaker { return g.e.breakers[i] }

func (g *gather) HedgeDelay(i int) time.Duration {
	p99 := time.Duration(g.e.stats[i].scanMs.Quantile(0.99) * float64(time.Millisecond))
	return resil.HedgeDelay(g.e.opts.HedgeDelay, g.e.opts.ShardTimeout, p99)
}

func (g *gather) Note(i int, ev resil.Event) {
	switch ev {
	case resil.Refused:
		g.e.stats[i].breakerSkips.Inc()
	case resil.Hedged:
		g.e.stats[i].hedges.Inc()
	case resil.HedgeWon:
		g.e.stats[i].hedgeWins.Inc()
	}
}

// Attempt runs shard i's local top-K scan for the whole batch under the
// shard's deadline context and records its counters. A panic in the scan
// is contained here: the shard fails (the gather degrades to a partial
// result, exactly like a deadline miss) and the stack is counted and
// logged — one poisoned shard never takes down the process or the
// query's siblings.
func (g *gather) Attempt(sctx context.Context, i int) (out localBatch, res resil.Outcome) {
	e, spec := g.e, &g.spec
	defer func() {
		if v := recover(); v != nil {
			res = resil.Failed
			e.stats[i].panics.Inc()
			logger := e.opts.PanicLog
			if logger == nil {
				logger = log.Default()
			}
			logger.Printf("shard: recovered panic in shard %d scan: %v\n%s", i, v, debug.Stack())
		}
	}()
	sd := &g.snap.shards[i]
	if e.opts.ScanHook != nil {
		if err := e.opts.ScanHook(i); err != nil {
			e.stats[i].errors.Inc()
			return out, resil.Failed
		}
	}
	start := time.Now()
	heaps := make([]*topK, len(spec.items))
	for qi := range spec.items {
		heaps[qi] = e.getHeap(i, spec.items[qi].K)
	}
	release := func() {
		for _, h := range heaps {
			e.heaps[i].Put(h)
		}
	}
	var sc scanCounters
	var err error
	if sd.cos32 != nil {
		err = e.scanBlocked(sctx, i, sd, spec, heaps, g.gbounds, &sc)
	} else {
		for qi := range spec.items {
			if err = e.scanRange(sctx, sd, spec.items[qi].Arcs, heaps[qi], &g.gbounds[qi]); err != nil {
				break
			}
		}
	}
	elapsed := float64(time.Since(start)) / float64(time.Millisecond)
	if err != nil {
		release()
		// Classify the abort: the shard deadline expiring while the query
		// lives is a shard-local fault (skip counter + breaker failure);
		// the query dying, or this scan losing a hedge race, is neither
		// a failure nor a stat.
		if g.qctx.Err() == nil && errors.Is(sctx.Err(), context.DeadlineExceeded) {
			e.stats[i].skips.Inc()
			return out, resil.Failed
		}
		return out, resil.Lost
	}
	out.d = make([][]float64, len(heaps))
	out.id = make([][]int32, len(heaps))
	for qi, h := range heaps {
		out.d[qi], out.id[qi] = h.sorted()
	}
	release()
	e.stats[i].record(elapsed)
	e.stats[i].recordKernel(&sc)
	return out, resil.Won
}

// mergeBatch folds the per-shard sorted top-K lists into each query's
// global top k, preserving the ascending (distance, ID) order of the
// scan paths. Shard outcomes (answered/skipped/partial) are batch-wide
// and shared across every Result.
func mergeBatch(snap *snapshot, locals []localBatch, items []BatchItem) ([]*Result, error) {
	var answered, skipped []int
	for i := range locals {
		if locals[i].skipped {
			skipped = append(skipped, i)
			continue
		}
		answered = append(answered, i)
	}
	if len(answered) == 0 {
		return nil, ErrAllShardsSkipped
	}
	results := make([]*Result, len(items))
	ds := make([][]float64, len(answered))
	ids := make([][]int32, len(answered))
	for qi := range items {
		for j, i := range answered {
			ds[j], ids[j] = locals[i].d[qi], locals[i].id[qi]
		}
		res := &Result{
			Version:  snap.version,
			Answered: answered,
			Skipped:  skipped,
			Partial:  len(skipped) > 0,
		}
		res.IDs, res.Dists = MergeSorted(items[qi].K, ds, ids)
		results[qi] = res
	}
	return results, nil
}

// MergeSorted folds sorted (distance, ID) lists — ds[i] and ids[i] are
// list i's parallel columns — into their k smallest pairs, ascending,
// equal distances toward the smaller ID: the order every scan path
// emits, so a merge of local top-K lists reproduces the global one.
// Exported for the cluster router, which merges remote ranges' lists.
func MergeSorted[ID ~int32](k int, ds [][]float64, ids [][]ID) ([]kg.EntityID, []float64) {
	total := 0
	for _, d := range ds {
		total += len(d)
	}
	if k > total {
		k = total
	}
	outIDs := make([]kg.EntityID, 0, k)
	outDs := make([]float64, 0, k)
	heads := make([]int, len(ds))
	for len(outIDs) < k {
		best := -1
		for i, d := range ds {
			h := heads[i]
			if h >= len(d) {
				continue
			}
			if best < 0 || d[h] < ds[best][heads[best]] ||
				(d[h] == ds[best][heads[best]] && ids[i][h] < ids[best][heads[best]]) {
				best = i
			}
		}
		outIDs = append(outIDs, kg.EntityID(ids[best][heads[best]]))
		outDs = append(outDs, ds[best][heads[best]])
		heads[best]++
	}
	return outIDs, outDs
}
