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
	// the shard index. Test instrumentation: a hook that sleeps past
	// ShardTimeout turns that shard into a deadline miss.
	ScanHook func(shardIdx int)
	// ScanErr, when set, is called after ScanHook with the shard index; a
	// non-nil return fails that shard's scan (skip + breaker failure)
	// without touching the snapshot. Fault-injection seam — see
	// resil.Injector.ScanErrHook.
	ScanErr func(shardIdx int) error
	// Breaker, when non-nil, guards each shard slot with a circuit
	// breaker built from this config: shards that keep missing their
	// deadline (or panicking) are skipped up front until a half-open
	// probe succeeds. Breaker state is exported per shard via Stats and
	// the halk_shard_breaker_state gauge.
	Breaker *resil.BreakerConfig
	// HedgeDelay enables hedged scans: when a shard's scan has not
	// returned after max(HedgeDelay, its observed p99 scan latency) —
	// capped at ShardTimeout — a second identical scan is issued and the
	// first result wins. Snapshots are immutable, so the hedge returns
	// byte-identical data. 0 disables hedging.
	HedgeDelay time.Duration
	// PanicLog receives the stack trace of recovered scan panics; nil
	// means the process-default logger.
	PanicLog *log.Logger
	// ScalarKernel pins exact scans to the scalar float64 reference loop:
	// snapshots skip the blocked float32 planes and every entity is
	// scored by scoreLocal directly. The blocked kernel rescores all
	// retained entities through the same scalar loop, so both paths
	// return bit-identical results — this option exists to prove exactly
	// that (the kernel-identity suite) and as an escape hatch.
	ScalarKernel bool
}

// Engine is the sharded ranking engine. All methods are safe for
// concurrent use; ranking never blocks Swap and vice versa.
type Engine struct {
	p            Params
	n            int
	shardTimeout time.Duration

	snap    atomic.Pointer[snapshot]
	swapMu  sync.Mutex // serialises Swap; installs stay version-monotonic
	reg     *obs.Registry
	stats   []shardStat
	heaps   []sync.Pool // per-shard scratch heaps, reused across scans
	scratch []sync.Pool // per-shard *scanScratch of the blocked kernel

	// scalar pins exact scans to the scalar reference kernel
	// (Options.ScalarKernel); slack / twoRho32 are the blocked kernel's
	// precomputed filter constants. slack upper-bounds how far the
	// float32 filter accumulation can overshoot the true float64
	// distance — the worst per-dimension term is the square-root cliff,
	// sqrt(x+δ)-sqrt(x) ≤ sqrt(δ) ≈ 9.2e-4 for the ≤ ~8.5e-7 the float32
	// tables, dots, and halfEps pad can inflate the sqrt argument, with
	// table/accumulation rounding adding only ~1e-5 — so a 1.2e-3 budget
	// per dimension (scaled by 2ρ(1+η)) keeps the filter a strict
	// superset selection: lanes it drops provably cannot enter the
	// top-K.
	scalar   bool
	slack    float64
	twoRho32 float32

	// breakers is one circuit breaker per shard slot (nil when
	// Options.Breaker was nil: every scan is always admitted).
	breakers []*resil.Breaker
	// hedgeDelay is the hedged-scan floor (Options.HedgeDelay); 0
	// disables hedging.
	hedgeDelay time.Duration
	panicLog   *log.Logger

	// scanWG tracks every scan goroutine — scatter and hedge alike — so
	// Close can await stragglers instead of leaking them. closeMu
	// serialises new gathers against Close: a gather adds its scatter
	// goroutines under the read lock, Close flips closed under the write
	// lock, so scanWG.Add can never race scanWG.Wait from zero.
	scanWG  sync.WaitGroup
	closeMu sync.RWMutex
	closed  bool

	// Delta-swap counters: delta publications and how many shards each
	// rebuilt vs shared with the previous snapshot.
	deltaSwaps   *obs.Counter
	deltaRebuilt *obs.Counter
	deltaReused  *obs.Counter

	// slow, when set, is called at the start of each shard scan — a test
	// hook for injecting a wedged shard (Options.ScanHook).
	slow func(shardIdx int)
	// scanErr is the error-returning fault seam (Options.ScanErr).
	scanErr func(shardIdx int) error
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
		p:            p,
		n:            n,
		shardTimeout: opts.ShardTimeout,
		reg:          reg,
		stats:        newShardStats(reg, n),
		heaps:        make([]sync.Pool, n),
		scratch:      make([]sync.Pool, n),
		scalar:       opts.ScalarKernel,
		slack:        float64(p.Dim) * 2 * p.Rho * (1 + p.Eta) * 1.2e-3,
		twoRho32:     float32(2 * p.Rho),
		hedgeDelay:   opts.HedgeDelay,
		panicLog:     opts.PanicLog,
		slow:         opts.ScanHook,
		scanErr:      opts.ScanErr,
	}
	e.deltaSwaps = reg.Counter("halk_shard_delta_swaps_total", "Delta snapshot publications (Source.Dirty fast path).")
	e.deltaRebuilt = reg.Counter("halk_shard_delta_shards_rebuilt_total", "Shards rebuilt across delta swaps.")
	e.deltaReused = reg.Counter("halk_shard_delta_shards_reused_total", "Shards shared with the previous snapshot across delta swaps.")
	if opts.Breaker != nil {
		e.breakers = make([]*resil.Breaker, n)
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
func (e *Engine) Close() {
	e.closeMu.Lock()
	e.closed = true
	e.closeMu.Unlock()
	e.scanWG.Wait()
}

// Breakers returns the per-shard circuit breakers, or nil when breakers
// are disabled.
func (e *Engine) Breakers() []*resil.Breaker { return e.breakers }

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
		snap, rebuilt, err := deltaSnapshot(e.p, src, cur, !e.scalar)
		if err != nil {
			return err
		}
		e.snap.Store(snap)
		e.deltaSwaps.Inc()
		e.deltaRebuilt.Add(uint64(rebuilt))
		e.deltaReused.Add(uint64(len(cur.shards) - rebuilt))
		return nil
	}
	snap, err := buildSnapshot(e.p, e.n, src, !e.scalar)
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
// reads: the queries and their float32 kernel tables (nil on the scalar
// path).
type batchSpec struct {
	items []BatchItem
	kern  [][]kernArc
}

// localBatch is one shard's contribution to a gather: the sorted local
// top-K of every query in the batch, or the shard-level outcome flags
// (a shard skips or fails as a unit — one scan serves the whole batch).
type localBatch struct {
	d       [][]float64
	id      [][]int32
	skipped bool
	// failed marks a shard-local fault (deadline miss, scan error,
	// panic) that should count against the shard's circuit breaker.
	failed bool
	// tripped marks a shard skipped up front by an open breaker; it
	// reports no outcome (the shard was never called).
	tripped bool
}

// TopK scatters the prepared arcs to every shard, scans all of them in
// parallel and merges the local heaps into the global k best entities.
// Scans poll ctx; a cancelled query returns ctx.Err(). Shards that miss
// Options.ShardTimeout are skipped and the result is marked Partial.
func (e *Engine) TopK(ctx context.Context, arcs []Arc, k int) (*Result, error) {
	return e.run(ctx, arcs, k, math.Inf(1))
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
	return e.run(ctx, arcs, k, bound)
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
	for i := range items {
		if items[i].K <= 0 {
			return nil, fmt.Errorf("shard: batch item %d: k must be positive, got %d", i, items[i].K)
		}
		if len(items[i].Arcs) == 0 {
			return nil, fmt.Errorf("shard: batch item %d has no arcs to rank", i)
		}
	}
	return e.runBatch(ctx, items, math.Inf(1))
}

// run is the single-query entry: a batch of one.
func (e *Engine) run(ctx context.Context, arcs []Arc, k int, bound float64) (*Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("shard: k must be positive, got %d", k)
	}
	if len(arcs) == 0 {
		return nil, fmt.Errorf("shard: no arcs to rank")
	}
	res, err := e.runBatch(ctx, []BatchItem{{Arcs: arcs, K: k}}, bound)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

func (e *Engine) runBatch(ctx context.Context, items []BatchItem, bound float64) ([]*Result, error) {
	snap := e.snap.Load()
	if snap == nil {
		return nil, ErrNoSnapshot
	}

	spec := &batchSpec{items: items}
	if !e.scalar {
		spec.kern = prepareKernel(e.p.Dim, e.p.Eta, items)
	}

	// gbounds holds each query's shared pruning bound: the smallest
	// full-heap root any shard has published for that query so far. Any
	// shard's local k-th best is an upper bound on the global k-th best,
	// so every shard may prune against it. A caller-supplied bound
	// (TopKBound) seeds it before the first scan.
	gbounds := make([]Bound, len(items))
	for qi := range gbounds {
		gbounds[qi].Init()
		if bound > 0 && !math.IsInf(bound, 1) {
			gbounds[qi].Update(bound)
		}
	}

	tr := obs.FromContext(ctx)
	locals := make([]localBatch, len(snap.shards))
	scatterStart := time.Now()
	var wg sync.WaitGroup
	e.closeMu.RLock()
	if e.closed {
		e.closeMu.RUnlock()
		return nil, ErrClosed
	}
	for i := range snap.shards {
		if e.breakers != nil && !e.breakers[i].Allow() {
			// Open breaker: skip the shard up front — the response
			// degrades to partial immediately instead of re-paying the
			// deadline on a shard that keeps failing.
			locals[i].skipped = true
			locals[i].tripped = true
			e.stats[i].recordBreakerSkip()
			continue
		}
		wg.Add(1)
		e.scanWG.Add(1)
		go func(i int) {
			defer e.scanWG.Done()
			defer wg.Done()
			e.runShard(ctx, snap, i, spec, gbounds, &locals[i])
		}(i)
	}
	e.closeMu.RUnlock()
	wg.Wait()
	tr.Observe(obs.StageShardScatter, time.Since(scatterStart))
	if err := ctx.Err(); err != nil {
		// The whole query died; shard outcomes under a dead parent carry
		// no signal, so the breakers record neither success nor failure.
		// But a shard whose Allow admitted a half-open probe must release
		// it: an unreported probe would leave the breaker refusing calls
		// forever, permanently skipping a recovered shard.
		if e.breakers != nil {
			for i := range locals {
				if !locals[i].tripped {
					e.breakers[i].Cancel()
				}
			}
		}
		return nil, err
	}
	if e.breakers != nil {
		for i := range locals {
			switch {
			case locals[i].tripped:
				// Never called; no outcome.
			case locals[i].failed:
				e.breakers[i].Failure()
			case !locals[i].skipped:
				e.breakers[i].Success()
			default:
				// Skipped without a shard-local fault (the query died
				// mid-scan, or a hedge race left no attributable cause):
				// no outcome, but release an admitted probe.
				e.breakers[i].Cancel()
			}
		}
	}
	mergeStart := time.Now()
	res, err := mergeBatch(snap, locals, items)
	tr.Observe(obs.StageHeapMerge, time.Since(mergeStart))
	return res, err
}

// runShard runs one shard's scan, optionally racing a hedge: when the
// primary scan has not returned after the shard's hedge delay, a second
// identical scan is issued and the first (non-skipped) result wins.
// Both scans read the same immutable snapshot, so whichever finishes
// first returns byte-identical data.
//
// The per-shard deadline is applied once, here, and shared by the
// primary and any hedge: the hedge inherits whatever remains of the
// shard's budget rather than a fresh ShardTimeout, so a persistently
// slow shard bounds the gather at ~ShardTimeout instead of
// hedge delay + ShardTimeout.
func (e *Engine) runShard(ctx context.Context, snap *snapshot, i int, spec *batchSpec, gbounds []Bound, out *localBatch) {
	sctx := ctx
	var cancel context.CancelFunc
	if e.shardTimeout > 0 {
		sctx, cancel = context.WithTimeout(ctx, e.shardTimeout)
	} else {
		sctx, cancel = context.WithCancel(ctx)
	}
	defer cancel() // the losing scan is abandoned, not awaited
	if e.hedgeDelay <= 0 {
		e.scanShard(sctx, ctx, snap, i, spec, gbounds, out)
		return
	}

	type scanDone struct {
		local localBatch
		hedge bool
	}
	// Buffered so the losing scan's send never blocks after we return.
	results := make(chan scanDone, 2)
	launch := func(hedge bool) {
		e.scanWG.Add(1)
		go func() {
			defer e.scanWG.Done()
			var l localBatch
			e.scanShard(sctx, ctx, snap, i, spec, gbounds, &l)
			results <- scanDone{local: l, hedge: hedge}
		}()
	}
	launch(false)
	timer := time.NewTimer(e.hedgeDelayFor(i))
	defer timer.Stop()
	select {
	case r := <-results:
		*out = r.local
		return
	case <-timer.C:
		e.stats[i].recordHedge()
		launch(true)
	}
	first := <-results
	if !first.local.skipped {
		*out = first.local
		if first.hedge {
			e.stats[i].recordHedgeWin()
		}
		return
	}
	// The first finisher was a skip; give the other scan its chance.
	second := <-results
	if !second.local.skipped {
		*out = second.local
		if second.hedge {
			e.stats[i].recordHedgeWin()
		}
		return
	}
	out.skipped = true
	out.failed = first.local.failed || second.local.failed
}

// hedgeDelayFor derives shard i's hedge delay: the configured floor
// raised to the shard's observed p99 scan latency, capped at the shard
// timeout (hedging after the deadline would race a lost cause).
func (e *Engine) hedgeDelayFor(i int) time.Duration {
	d := e.hedgeDelay
	if p99 := e.stats[i].scanMs.Quantile(0.99); p99 > 0 {
		if observed := time.Duration(p99 * float64(time.Millisecond)); observed > d {
			d = observed
		}
	}
	if e.shardTimeout > 0 && d > e.shardTimeout {
		d = e.shardTimeout
	}
	return d
}

// scanShard runs one shard's local top-K scan for the whole batch under
// sctx — the shard-scoped context already carrying the per-shard
// deadline (see runShard) — and records latency/skip counters; qctx is
// the whole query's context, consulted only to classify failures. A
// panic anywhere in the scan is contained here: the shard is reported as
// skipped+failed (the gather degrades to a partial result, exactly like
// a deadline miss) and the stack is counted and logged — one poisoned
// shard never takes down the process or the query's siblings.
func (e *Engine) scanShard(sctx, qctx context.Context, snap *snapshot, i int, spec *batchSpec, gbounds []Bound, out *localBatch) {
	defer func() {
		if v := recover(); v != nil {
			out.skipped = true
			out.failed = true
			e.stats[i].recordPanic()
			logger := e.panicLog
			if logger == nil {
				logger = log.Default()
			}
			logger.Printf("shard: recovered panic in shard %d scan: %v\n%s", i, v, debug.Stack())
		}
	}()
	sd := &snap.shards[i]
	if e.slow != nil {
		e.slow(i)
	}
	if e.scanErr != nil {
		if err := e.scanErr(i); err != nil {
			out.skipped = true
			out.failed = true
			e.stats[i].recordError()
			return
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
	if spec.kern != nil && sd.cos32 != nil {
		err = e.scanBlocked(sctx, i, sd, spec, heaps, gbounds, &sc)
	} else {
		for qi := range spec.items {
			if err = e.scanRange(sctx, sd, spec.items[qi].Arcs, heaps[qi], &gbounds[qi]); err != nil {
				break
			}
		}
	}
	elapsed := float64(time.Since(start)) / float64(time.Millisecond)
	if err != nil {
		// Classify the abort: the query context dying is handled at the
		// gather (the whole request failed, no shard is at fault); the
		// shard deadline expiring is a shard-local fault (skip counter +
		// breaker failure); a plain cancellation with the query alive
		// means this scan lost a hedge race and its result is discarded —
		// neither a failure nor a stat.
		out.skipped = true
		if qctx.Err() == nil && errors.Is(sctx.Err(), context.DeadlineExceeded) {
			out.failed = true
			e.stats[i].recordSkip()
		}
		release()
		return
	}
	out.d = make([][]float64, len(heaps))
	out.id = make([][]int32, len(heaps))
	for qi, h := range heaps {
		out.d[qi], out.id[qi] = h.sorted()
	}
	release()
	e.stats[i].record(elapsed)
	e.stats[i].recordKernel(&sc)
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
