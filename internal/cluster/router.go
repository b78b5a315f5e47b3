package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/obs"
	"github.com/halk-kg/halk/internal/query"
	"github.com/halk-kg/halk/internal/resil"
	"github.com/halk-kg/halk/internal/serve"
	"github.com/halk-kg/halk/internal/shard"
)

// Config assembles a Router.
type Config struct {
	// Ranges is the replica topology: Ranges[i] lists entity range i's
	// replica endpoints ("host:port" or URLs). Required. Every replica
	// of a range must host the same [lo, hi) entity slice of the same
	// checkpoint lineage; the router picks a primary per range, fails
	// over across the set, and only degrades the answer to partial when
	// the whole set is exhausted.
	Ranges [][]string
	// Embed turns a query DAG into wire arcs; halk-serve wires the
	// model's EmbedQueryLocked. Required.
	Embed func(n *query.Node) []ArcSpec
	// ScanTimeout bounds each scan attempt; an attempt that misses it
	// fails over to the range's next replica within the query's
	// remaining budget — the cluster analogue of
	// shard.Options.ShardTimeout. 0 means attempts are bounded only by
	// the query context.
	ScanTimeout time.Duration
	// HedgeDelay enables hedged scans: when a range's primary has not
	// answered after max(HedgeDelay, its observed p99 scan latency) —
	// capped at ScanTimeout — a second identical request is issued to
	// the range's *next replica* (a different process, so a wedged node
	// cannot wedge its own hedge) and the first success wins. Replica
	// snapshots are version-pinned, so either answer is byte-identical.
	// 0 disables hedging.
	HedgeDelay time.Duration
	// Breaker, when non-nil, guards each replica with a circuit breaker
	// built from this config: replicas that keep failing are skipped up
	// front (immediate failover to a sibling) until a half-open probe
	// succeeds.
	Breaker *resil.BreakerConfig
	// HealthEvery is the Start loop's health-poll period; 0 means 2s.
	HealthEvery time.Duration
	// Metrics is the registry the per-replica counters register on; nil
	// means a private one.
	Metrics *obs.Registry
	// Client is the shared HTTP client; nil means NewHTTPClient().
	Client *http.Client
	// Seed drives the power-of-two-choices sampling; 0 means
	// time-seeded. Fix it in tests that need a reproducible pick order.
	Seed int64
	// Probe, when set, embeds the known probe query the identity probe
	// scans against a joining/blamed replica and a current active
	// replica (halk-serve wires a deterministically sampled query).
	// When unset the probe falls back to the last gather's arcs; with
	// neither available, probes admit on health alone.
	Probe func() []ArcSpec
	// ProbeBase/ProbeMax bound the prober's full-jitter backoff between
	// probe attempts; 0 means 250ms / 5s.
	ProbeBase time.Duration
	ProbeMax  time.Duration
	// Logf receives membership events (joins, leaves, probe failures,
	// re-admissions); nil is silent. halk-serve wires log.Printf.
	Logf func(format string, args ...any)
}

// replica is one endpoint of a range's replica set: the remote client,
// its circuit breaker (nil when breakers are off), its counters and
// its membership state.
type replica struct {
	addr    string
	remote  *RemoteShard
	breaker *resil.Breaker
	st      *replicaStat

	// state is the replica's ReplicaState (see membership.go): plan
	// reads it per gather, the health sweep and the prober transition
	// it.
	state atomic.Int32
	// probing is true while the replica's background prober goroutine
	// runs; ensureProber CASes it so at most one runs per replica.
	probing atomic.Bool
}

// rangeSet is one entity range's replica set plus the range-level
// routing state: the sticky primary pick and the failover/flip
// counters. The replica slice itself is a copy-on-write snapshot
// (membership.go) so gathers iterate it lock-free while joins and
// leaves swap it.
type rangeSet struct {
	index int
	reps  atomic.Pointer[[]*replica]
	// primary is the replica the last gather picked (nil before the
	// first pick); flips counts changes after the first.
	primary   atomic.Pointer[replica]
	failovers *obs.Counter
	flips     *obs.Counter
}

// lohi returns the range's hosted slice as of the last health check
// that reached any replica.
func (rs *rangeSet) lohi() (lo, hi int) {
	for _, rep := range rs.list() {
		l, h, _, healthy := rep.st.health()
		if healthy || h > l {
			return l, h
		}
	}
	return 0, 0
}

// Router scatter-gathers ranking queries across the entity ranges of a
// replicated topology and merges their local top-K lists into the
// global answer. It implements serve.Ranker, so halk-serve's caching,
// admission control, partial semantics and stats surfaces apply to a
// topology of remote nodes exactly as they apply to an in-process
// engine.
//
// Each range is served by a replica set: the router picks a primary
// per gather (power-of-two-choices on EWMA scan latency among
// version-consistent replicas), hedges to a different replica, fails
// over across the set on error/timeout/open breaker within the query's
// remaining budget, and only marks the answer partial when every
// replica of a range is exhausted — one dead node per range costs a
// failover, not answer completeness.
//
// All methods are safe for concurrent use.
type Router struct {
	cfg    Config
	ranges []*rangeSet
	reg    *obs.Registry
	hc     *http.Client

	// rng drives power-of-two-choices primary sampling.
	rngMu sync.Mutex
	rng   *rand.Rand

	// topoMu serialises membership changes (Join/Leave/SetTopology);
	// topoVersion bumps on each. Gathers never take topoMu — they read
	// copy-on-write replica snapshots.
	topoMu      sync.Mutex
	topoVersion atomic.Uint64

	// probeCtx bounds every background prober; Close cancels it before
	// awaiting scanWG so probers mid-backoff exit immediately.
	probeCtx    context.Context
	probeCancel context.CancelFunc

	// lastSpecs is the most recent gather's embedded arcs — the
	// identity probe's fallback probe query when Config.Probe is unset.
	lastSpecs atomic.Pointer[[]ArcSpec]

	// version is the quorum-agreed entity version — what SnapshotVersion
	// reports, what gathers pin replica selection to, and what the serve
	// cache namespaces keys by. It only moves forward, and only once
	// a quorum of ranges have a live replica on the new version (see
	// CheckHealth), so a half-rolled-out checkpoint never flips the
	// cache back and forth.
	version atomic.Uint64

	// scanWG tracks every remote-scan goroutine — range gathers,
	// attempts, hedges — so Close can await stragglers; closeMu
	// serialises new gathers against Close (see shard.Engine for the
	// pattern).
	scanWG  sync.WaitGroup
	closeMu sync.RWMutex
	closed  bool
}

// NewRouter validates cfg and builds the router. It performs no I/O:
// call Start (or CheckHealth) to populate replica health and the served
// version.
func NewRouter(cfg Config) (*Router, error) {
	ranges := cfg.Ranges
	if len(ranges) == 0 {
		return nil, fmt.Errorf("cluster: a topology (Config.Ranges) is required")
	}
	for i, reps := range ranges {
		if len(reps) == 0 {
			return nil, fmt.Errorf("cluster: range %d has no replicas", i)
		}
	}
	if cfg.Embed == nil {
		return nil, fmt.Errorf("cluster: Config.Embed is required")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Seed == 0 {
		cfg.Seed = time.Now().UnixNano()
	}
	hc := cfg.Client
	if hc == nil {
		hc = NewHTTPClient()
	}
	rt := &Router{
		cfg: cfg,
		reg: cfg.Metrics,
		hc:  hc,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	rt.probeCtx, rt.probeCancel = context.WithCancel(context.Background())
	rt.topoVersion.Store(1)
	rt.ranges = make([]*rangeSet, len(ranges))
	for i, reps := range ranges {
		rl := obs.L("range", strconv.Itoa(i))
		rs := &rangeSet{
			index:     i,
			failovers: cfg.Metrics.Counter("halk_replica_failovers_total", "Scan attempts re-issued to a sibling replica after a failure.", rl),
			flips:     cfg.Metrics.Counter("halk_replica_primary_flips_total", "Times the range's preferred primary replica changed.", rl),
		}
		set := make([]*replica, 0, len(reps))
		for _, addr := range reps {
			// Boot-time replicas start Active: the operator vouched for
			// the static topology, and a restarted router must serve
			// immediately. Replicas added later enter through probation.
			set = append(set, rt.newReplica(i, addr, StateActive))
		}
		rs.reps.Store(&set)
		rt.ranges[i] = rs
	}
	return rt, nil
}

// newReplica builds one replica handle with its stats and breaker;
// metric families dedupe by label, so an address that leaves and later
// rejoins continues its counter series.
func (rt *Router) newReplica(ri int, addr string, state ReplicaState) *replica {
	rl := obs.L("range", strconv.Itoa(ri))
	rep := &replica{
		addr:   addr,
		remote: NewRemoteShard(addr, rt.hc),
		st:     newReplicaStat(rt.reg, ri, addr),
	}
	rep.setState(state)
	if rt.cfg.Breaker != nil {
		b := resil.NewBreaker(*rt.cfg.Breaker)
		rep.breaker = b
		rt.reg.GaugeFunc("halk_replica_breaker_state",
			"Circuit breaker state per replica (0=closed, 1=open, 2=half-open).",
			func() float64 { return float64(b.State()) },
			obs.L("node", addr), rl)
	}
	return rep
}

// Topology reports the current replica topology: element i is range
// i's replica addresses (including probation/draining members).
func (rt *Router) Topology() [][]string {
	out := make([][]string, len(rt.ranges))
	for i, rs := range rt.ranges {
		for _, rep := range rs.list() {
			out[i] = append(out[i], rep.addr)
		}
	}
	return out
}

// quorum is how many ranges must be ready on a new entity version — a
// range is ready when at least one live replica serves it — before the
// router flips its served version, and with it the answer cache's key
// namespace, during a checkpoint rollout: a majority.
func (rt *Router) quorum() int { return len(rt.ranges)/2 + 1 }

// Start launches the health loop: an immediate sweep, then one every
// HealthEvery until ctx dies. The loop keeps per-replica liveness,
// ranges and versions fresh, and flips the served version when a quorum
// of ranges has a replica on a newer one (the coordinated
// checkpoint-rollout seam).
func (rt *Router) Start(ctx context.Context) {
	every := rt.cfg.HealthEvery
	if every <= 0 {
		every = 2 * time.Second
	}
	go func() {
		sweep := func() {
			hctx, cancel := context.WithTimeout(ctx, every)
			rt.CheckHealth(hctx)
			cancel()
		}
		sweep()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			sweep()
		}
	}()
}

// CheckHealth probes every replica's /v1/healthz concurrently, records
// per-replica liveness/range/version, advances the quorum version, and
// reports how many replicas answered. Called by the Start loop; also
// useful synchronously (process startup, tests).
//
// The rollout rule is computed over ranges, not nodes: a range is ready
// on version v when at least one of its live replicas reports v or
// newer, and the served version advances to the highest v a quorum of
// ranges is ready on. With gathers pinned to replicas matching the
// served version, a staggered rollout that keeps one replica per
// range on each version serves whole answers throughout.
func (rt *Router) CheckHealth(ctx context.Context) int {
	var wg sync.WaitGroup
	var up atomic.Int64
	for _, rs := range rt.ranges {
		for _, rep := range rs.list() {
			wg.Add(1)
			go func(rs *rangeSet, rep *replica) {
				defer wg.Done()
				h, err := rep.remote.Health(ctx)
				switch {
				case err != nil:
					rep.st.setHealth(nil, false)
					// A draining replica that stops answering has exited:
					// park it Down so a restarted process on the same
					// address re-enters through probation, not straight
					// into the pool with whatever state it booted with.
					rep.casState(StateDraining, StateDown)
				case h.Status == HealthDraining:
					// Still answering (correctly — that is the point of
					// coordinated drain) but leaving: record its health so
					// last-resort failover stays possible, stop preferring
					// it, stop probing it.
					rep.st.setHealth(h, true)
					rep.casState(StateActive, StateDraining)
					rep.casState(StateProbation, StateDraining)
					up.Add(1)
				default:
					rep.st.setHealth(h, true)
					up.Add(1)
					// A drained/dead replica answering "ok" again is a
					// restarted process: it must re-earn the pool through
					// the identity probe. Probation replicas get their
					// prober (re-)armed here too, so a prober that exited
					// (router of a crashed probe loop) self-heals.
					rep.casState(StateDraining, StateProbation)
					rep.casState(StateDown, StateProbation)
					if rep.getState() == StateProbation {
						rt.ensureProber(rs, rep)
					}
				}
			}(rs, rep)
		}
	}
	wg.Wait()

	// Quorum flip: the highest version a quorum of ranges have a
	// live replica on. rangeMax[i] is range i's best live version;
	// readiness on v is monotone in v, so scanning candidate versions
	// descending finds the flip target.
	// Only serveable replicas vouch for a version: probation members
	// are unverified (that is what probation means) and down members
	// are gone; counting either could flip the cache namespace to a
	// version no gather can actually be served from.
	rangeMax := make([]uint64, 0, len(rt.ranges))
	var candidates []uint64
	for _, rs := range rt.ranges {
		var best uint64
		for _, rep := range rs.list() {
			if s := rep.getState(); s != StateActive && s != StateDraining {
				continue
			}
			_, _, v, healthy := rep.st.health()
			if healthy {
				if v > best {
					best = v
				}
				candidates = append(candidates, v)
			}
		}
		rangeMax = append(rangeMax, best)
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] > candidates[j] })
	q := rt.quorum()
	for _, cand := range candidates {
		ready := 0
		for _, best := range rangeMax {
			if best >= cand {
				ready++
			}
		}
		if ready < q {
			continue
		}
		for {
			cur := rt.version.Load()
			if cand <= cur || rt.version.CompareAndSwap(cur, cand) {
				break
			}
		}
		break
	}
	return int(up.Load())
}

// SnapshotVersion reports the quorum-agreed entity version (0 before
// the first successful health sweep). serve namespaces answer-cache
// keys by it, so flipping it on rollout makes every pre-rollout entry
// unreachable at once; gathers pin replica selection to it, so a
// mid-rollout topology keeps answering whole from the replicas still
// (or already) on the served version.
func (rt *Router) SnapshotVersion() uint64 { return rt.version.Load() }

// NumShards reports the topology width — one "shard" per entity range.
func (rt *Router) NumShards() int { return len(rt.ranges) }

// NumReplicas reports range ri's current replica-set size.
func (rt *Router) NumReplicas(ri int) int { return len(rt.ranges[ri].list()) }

// Metrics returns the registry the router's counters live on.
func (rt *Router) Metrics() *obs.Registry { return rt.reg }

// ShardStats adapts the topology to the serve stats shape: each range
// appears as one shard with its hosted slice and the replica set's
// summed outcome counters; the breaker snapshot is the current
// primary's. Per-replica detail lives on ReplicaStats.
func (rt *Router) ShardStats() []shard.ShardStats {
	out := make([]shard.ShardStats, len(rt.ranges))
	for i, rs := range rt.ranges {
		reps := rs.list()
		lo, hi := rs.lohi()
		s := shard.ShardStats{Shard: i, Lo: lo, Hi: hi}
		var meanSum float64
		for _, rep := range reps {
			s.Scans += rep.st.scans.Value()
			s.Skips += rep.st.timeouts.Value()
			s.Errors += rep.st.errors.Value()
			s.BreakerSkips += rep.st.breakerSkips.Value()
			s.Hedges += rep.st.hedges.Value()
			s.HedgeWins += rep.st.hedgeWins.Value()
			if ms := rep.st.lastMs.Value(); ms > s.LastScanMs {
				s.LastScanMs = ms
			}
			if ms := rep.st.maxMs.Value(); ms > s.MaxScanMs {
				s.MaxScanMs = ms
			}
			meanSum += rep.st.scanMs.Mean()
		}
		if len(reps) > 0 {
			s.MeanScanMs = meanSum / float64(len(reps))
		}
		if p := rs.primary.Load(); p != nil && p.breaker != nil {
			bs := p.breaker.Stats()
			s.Breaker = &bs
		} else if len(reps) > 0 && reps[0].breaker != nil {
			bs := reps[0].breaker.Stats()
			s.Breaker = &bs
		}
		out[i] = s
	}
	return out
}

// ReplicaStats reports the replica topology for /v1/stats: per range,
// the hosted slice, current primary, failover/flip counters and every
// replica's health, version, outcome counters and latency EWMA.
func (rt *Router) ReplicaStats() []serve.RangeReplicaStats {
	out := make([]serve.RangeReplicaStats, len(rt.ranges))
	for i, rs := range rt.ranges {
		reps := rs.list()
		lo, hi := rs.lohi()
		rr := serve.RangeReplicaStats{
			Range:        i,
			Lo:           lo,
			Hi:           hi,
			Failovers:    rs.failovers.Value(),
			PrimaryFlips: rs.flips.Value(),
		}
		p := rs.primary.Load()
		if p == nil && len(reps) > 0 {
			p = reps[0]
		}
		if p != nil {
			rr.Primary = p.addr
		}
		for _, rep := range reps {
			_, _, version, healthy := rep.st.health()
			snap := serve.ReplicaSnapshot{
				Node:          rep.addr,
				Healthy:       healthy,
				State:         rep.getState().String(),
				EntityVersion: version,
				Primary:       rep == p,
				Scans:         rep.st.scans.Value(),
				Timeouts:      rep.st.timeouts.Value(),
				Errors:        rep.st.errors.Value(),
				BreakerSkips:  rep.st.breakerSkips.Value(),
				Hedges:        rep.st.hedges.Value(),
				HedgeWins:     rep.st.hedgeWins.Value(),
				EwmaMs:        rep.st.ewmaMs(),
				QueueDepth:    rep.st.depth.Load(),
				Probes:        rep.st.probes.Value(),
				Admissions:    rep.st.admissions.Value(),
			}
			if rep.breaker != nil {
				bs := rep.breaker.Stats()
				snap.Breaker = &bs
			}
			rr.Replicas = append(rr.Replicas, snap)
		}
		out[i] = rr
	}
	return out
}

// Close waits for every in-flight remote scan — gathers, attempts,
// hedges, membership probers — to drain, then drops the client's idle
// connections. Rankings issued after Close begins are refused with
// shard.ErrClosed. Idempotent.
func (rt *Router) Close() {
	rt.closeMu.Lock()
	rt.closed = true
	rt.closeMu.Unlock()
	rt.probeCancel()
	rt.scanWG.Wait()
	rt.hc.CloseIdleConnections()
}

// remoteLocal is one range's contribution to a gather — the cluster
// analogue of the engine's per-shard localTopK.
type remoteLocal struct {
	ids     []kg.EntityID
	d       []float64
	version uint64
	partial bool // replica answered but degraded (local sub-shard skipped)
	skipped bool // the whole replica set was exhausted
	failed  bool // at least one replica-local fault contributed
}

// RankTopK embeds the query, scatters the wire arcs to every range's
// replica set, and merges the local top-K lists into the global k best
// — the serve.Ranker entry point. Within a range, failures fail over
// across the replica set; the result degrades to Partial only when a
// whole set is exhausted, and the gather fails
// (shard.ErrAllShardsSkipped) only when every range is lost.
func (rt *Router) RankTopK(ctx context.Context, n *query.Node, k int) (*shard.Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("cluster: k must be positive, got %d", k)
	}
	specs := rt.cfg.Embed(n)
	if len(specs) == 0 {
		return nil, fmt.Errorf("cluster: query embedded to no arcs")
	}
	// Remember the arcs: the identity probe falls back to replaying the
	// last real query when no probe query is configured.
	rt.lastSpecs.Store(&specs)

	// gb is the gather's shared pruning bound: the smallest k-th best
	// distance any range has returned so far this query. Requests ship
	// its current value so late scans (hedges, failover attempts) prune
	// server-side.
	var gb shard.Bound
	gb.Init()
	tr := obs.FromContext(ctx)
	locals := make([]remoteLocal, len(rt.ranges))
	scatterStart := time.Now()
	var wg sync.WaitGroup
	rt.closeMu.RLock()
	if rt.closed {
		rt.closeMu.RUnlock()
		return nil, shard.ErrClosed
	}
	for i := range rt.ranges {
		wg.Add(1)
		rt.scanWG.Add(1)
		go func(i int) {
			defer rt.scanWG.Done()
			defer wg.Done()
			rt.runRange(ctx, rt.ranges[i], specs, k, &gb, &locals[i])
		}(i)
	}
	rt.closeMu.RUnlock()
	wg.Wait()
	tr.Observe(obs.StageShardScatter, time.Since(scatterStart))
	if err := ctx.Err(); err != nil {
		// The whole query died; per-attempt breaker accounting already
		// classifies outcomes under a dead parent as no-blame.
		return nil, err
	}
	mergeStart := time.Now()
	res, err := rt.merge(locals, k)
	tr.Observe(obs.StageHeapMerge, time.Since(mergeStart))
	return res, err
}

// plan orders range rs's replicas for one gather. Replicas fall into
// tiers by membership state and version pinning:
//
//	tier 0  active, last-known entity version matches the served one
//	tier 1  active, version lagging/leading (the merge's skew guard
//	        flags a mixed answer, and it is never cached)
//	tier 2  draining — still correct, used only when every active
//	        replica is exhausted (the coordinated-drain contract:
//	        prefer not to, rather than degrade the answer to partial)
//	tier 3  down — a drained process that exited; attempted dead last
//	        in case the health view is stale
//	(excluded)  probation — never serves a gather until its identity
//	            probe passes
//
// The primary is power-of-two-choices over the best populated tier,
// comparing queue-depth-weighted latency (replicaStat.score: EWMA ×
// (1 + reported queue depth)); the rest follow ascending by
// (tier, score). Failover and hedging walk this order. nil when every
// replica is in probation — the range is skipped outright.
func (rt *Router) plan(rs *rangeSet) []*replica {
	reps := rs.list()
	pinned := rt.version.Load()
	match := func(rep *replica) bool {
		return pinned == 0 || rep.st.version.Load() == pinned
	}
	tierOf := func(rep *replica) int {
		switch rep.getState() {
		case StateActive:
			if match(rep) {
				return 0
			}
			return 1
		case StateDraining:
			return 2
		case StateDown:
			return 3
		default: // StateProbation
			return -1
		}
	}
	serveable := make([]*replica, 0, len(reps))
	tiers := make(map[*replica]int, len(reps))
	best := 4
	for _, rep := range reps {
		t := tierOf(rep)
		if t < 0 {
			continue
		}
		serveable = append(serveable, rep)
		tiers[rep] = t
		if t < best {
			best = t
		}
	}
	if len(serveable) == 0 {
		return nil
	}
	if len(serveable) == 1 {
		return serveable
	}
	pool := make([]*replica, 0, len(serveable))
	for _, rep := range serveable {
		if tiers[rep] == best {
			pool = append(pool, rep)
		}
	}
	primary := pool[0]
	if len(pool) > 1 {
		rt.rngMu.Lock()
		i := rt.rng.Intn(len(pool))
		j := rt.rng.Intn(len(pool) - 1)
		rt.rngMu.Unlock()
		if j >= i {
			j++
		}
		primary = pool[i]
		if pool[j].st.score() < primary.st.score() {
			primary = pool[j]
		}
	}
	if old := rs.primary.Swap(primary); old != nil && old != primary {
		rs.flips.Inc()
	}
	order := make([]*replica, 0, len(serveable))
	order = append(order, primary)
	rest := make([]*replica, 0, len(serveable)-1)
	for _, rep := range serveable {
		if rep != primary {
			rest = append(rest, rep)
		}
	}
	sort.SliceStable(rest, func(a, b int) bool {
		if ta, tb := tiers[rest[a]], tiers[rest[b]]; ta != tb {
			return ta < tb
		}
		ea, eb := rest[a].st.score(), rest[b].st.score()
		if ea != eb {
			return ea < eb
		}
		return rest[a].addr < rest[b].addr
	})
	return append(order, rest...)
}

// attemptResult is one replica attempt's outcome inside a range gather.
type attemptResult struct {
	local remoteLocal
	rep   *replica
	hedge bool
}

// runRange gathers one range's local top-K from its replica set: the
// planned primary scans first; a failure fails over to the next
// replica in plan order (within the query's remaining budget), an
// unanswered primary is hedged to the next replica after the hedge
// delay — a single-replica range hedges back to its only node, the
// pre-replica behavior — and the first successful attempt wins. The
// range is skipped — degrading the merged answer to partial — only
// when every replica is exhausted. Each attempt runs under its own
// ScanTimeout-derived deadline; losing attempts are abandoned
// (cancelled), not awaited.
func (rt *Router) runRange(ctx context.Context, rs *rangeSet, specs []ArcSpec, k int, gb *shard.Bound, out *remoteLocal) {
	members := rs.reps.Load()
	order := rt.plan(rs)
	if len(order) == 0 {
		// Every replica is in probation (e.g. a cluster-file swap
		// replaced the whole set at once): nothing may serve yet.
		out.skipped = true
		return
	}
	// +1: a single-replica range's hedge re-targets its only node, so
	// attempts can exceed len(order); every attempt must be able to
	// deliver without blocking after runRange returns.
	results := make(chan attemptResult, len(order)+1)
	next := 0
	inflight := 0
	var cancels []context.CancelFunc
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()

	// spawn starts one attempt against rep if its breaker admits it.
	spawn := func(rep *replica, hedge bool) bool {
		if rep.breaker != nil && !rep.breaker.Allow() {
			rep.st.breakerSkips.Inc()
			return false
		}
		actx := ctx
		var cancel context.CancelFunc
		if rt.cfg.ScanTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, rt.cfg.ScanTimeout)
		} else {
			actx, cancel = context.WithCancel(ctx)
		}
		cancels = append(cancels, cancel)
		inflight++
		rt.scanWG.Add(1)
		go func() {
			defer rt.scanWG.Done()
			var l remoteLocal
			rt.scanReplica(actx, ctx, rep, specs, k, gb, &l)
			rt.settleAttempt(rs, rep, &l, ctx)
			results <- attemptResult{local: l, rep: rep, hedge: hedge}
		}()
		return true
	}

	// launch starts the next breaker-admitted replica in plan order,
	// returning it (nil when the order is exhausted). Attempts refused
	// by an open breaker are skipped and counted, which is itself a
	// failover step: the request goes straight to the next sibling.
	launch := func(hedge bool) *replica {
		for next < len(order) {
			rep := order[next]
			next++
			if spawn(rep, hedge) {
				return rep
			}
		}
		return nil
	}

	first := launch(false)
	if first == nil && inflight == 0 {
		// Every replica sat behind an open breaker: immediate skip.
		out.skipped = true
		return
	}
	var hedgeC <-chan time.Time
	if rt.cfg.HedgeDelay > 0 && first != nil {
		timer := time.NewTimer(rt.hedgeDelayFor(first))
		defer timer.Stop()
		hedgeC = timer.C
	}
	failed := false
	for inflight > 0 {
		select {
		case r := <-results:
			inflight--
			if !r.local.skipped {
				*out = r.local
				if r.hedge {
					r.rep.st.hedgeWins.Inc()
				}
				return
			}
			failed = failed || r.local.failed
			if ctx.Err() != nil {
				out.skipped, out.failed = true, failed
				return
			}
			// Failover: the attempt is lost, the budget lives — walk to
			// the next replica of the set.
			if rep := launch(false); rep != nil {
				rs.failovers.Inc()
			}
		case <-hedgeC:
			hedgeC = nil
			rep := launch(true)
			if rep == nil && len(order) == 1 && spawn(order[0], true) {
				// Single-replica range: no sibling to hedge to, so the
				// hedge re-issues to the same node (PR 6 behavior).
				rep = order[0]
			}
			if rep != nil {
				rep.st.hedges.Inc()
			}
		case <-ctx.Done():
			out.skipped, out.failed = true, failed
			return
		}
	}
	if rs.reps.Load() != members && ctx.Err() == nil {
		// The plan is exhausted but the range's membership moved under
		// it: a gather descheduled across a replica roll finds everyone
		// it planned on gone while the replacements serve. Plan again.
		rt.runRange(ctx, rs, specs, k, gb, out)
		return
	}
	out.skipped, out.failed = true, failed
}

// settleAttempt feeds one attempt's outcome to the replica's breaker
// and the membership machinery: success closes/credits the breaker —
// and reseeds the latency EWMA when that success was the half-open
// probe that closed it, so the stale pre-trip EWMA neither dogpiles
// nor shuns the recovered replica — a replica-local fault counts
// against the breaker AND arms the read-repair prober (re-admission
// off the query path, instead of waiting out the cool-down or the next
// health sweep), and an attempt abandoned without an outcome (the
// query died, or a hedge race was lost) releases any half-open probe
// it was admitted as.
func (rt *Router) settleAttempt(rs *rangeSet, rep *replica, l *remoteLocal, qctx context.Context) {
	switch {
	case !l.skipped:
		if rep.breaker != nil {
			wasTripped := rep.breaker.State() != resil.Closed
			rep.breaker.Success()
			if wasTripped && rep.breaker.State() == resil.Closed {
				rep.st.seedEwma(rs.peerEwmaMean(rep))
			}
		}
	case l.failed && qctx.Err() == nil:
		if rep.breaker != nil {
			rep.breaker.Failure()
		}
		rt.ensureProber(rs, rep)
	default:
		if rep.breaker != nil {
			rep.breaker.Cancel()
		}
	}
}

// hedgeDelayFor derives a replica's hedge delay: the configured floor
// raised to its observed p99 scan latency, capped at the scan timeout.
func (rt *Router) hedgeDelayFor(rep *replica) time.Duration {
	d := rt.cfg.HedgeDelay
	if p99 := rep.st.scanMs.Quantile(0.99); p99 > 0 {
		if observed := time.Duration(p99 * float64(time.Millisecond)); observed > d {
			d = observed
		}
	}
	if rt.cfg.ScanTimeout > 0 && d > rt.cfg.ScanTimeout {
		d = rt.cfg.ScanTimeout
	}
	return d
}

// scanReplica issues one scan attempt under actx (the attempt-scoped
// context carrying the per-attempt deadline) and classifies the
// outcome; qctx is the whole query's context, consulted to tell "this
// replica is slow" (replica-local fault, feeds failover and the
// breaker) from "the query died" and "a hedge race was lost" (no
// outcome, no blame).
func (rt *Router) scanReplica(actx, qctx context.Context, rep *replica, specs []ArcSpec, k int, gb *shard.Bound, out *remoteLocal) {
	req := &ScanRequest{Arcs: specs, K: k}
	// On the wire 0 means no bound yet (no range has answered).
	if b := gb.Load(); !math.IsInf(b, 1) {
		req.Bound = b
	}
	if dl, ok := actx.Deadline(); ok {
		if ms := int(time.Until(dl) / time.Millisecond); ms > 0 {
			req.TimeoutMS = ms
		}
	}
	start := time.Now()
	resp, err := rep.remote.Scan(actx, req)
	elapsed := float64(time.Since(start)) / float64(time.Millisecond)
	if err != nil {
		out.skipped = true
		switch {
		case qctx.Err() != nil:
			// The whole query died; no replica is at fault.
		case errors.Is(err, context.DeadlineExceeded):
			out.failed = true
			rep.st.timeouts.Inc()
		case errors.Is(err, context.Canceled):
			// Lost a hedge/failover race; the result is discarded, not
			// blamed.
		default:
			out.failed = true
			rep.st.errors.Inc()
		}
		return
	}
	out.ids, out.d = resp.IDs, resp.Dists
	out.version = resp.Version
	out.partial = resp.Partial
	rep.st.setVersion(resp.Version)
	rep.st.setDepth(resp.Queue)
	if len(resp.Dists) == k && !resp.Partial {
		// A full non-degraded local list: its k-th best upper-bounds the
		// global k-th best, so later scans (hedges, failovers) can prune
		// against it.
		gb.Update(resp.Dists[k-1])
	}
	rep.st.record(elapsed)
}

// merge folds the ranges' sorted local lists into the global top k with
// the engine's (distance, ID) ordering. The result is Partial when any
// range was skipped (its whole replica set exhausted), any range
// answered degraded, or the answering ranges disagree on their snapshot
// version (mid-rollout skew that pinning could not avoid: the merged
// list would mix two embedding tables, so it must be flagged and never
// cached).
func (rt *Router) merge(locals []remoteLocal, k int) (*shard.Result, error) {
	res := &shard.Result{Version: rt.version.Load()}
	ds := make([][]float64, 0, len(locals))
	ids := make([][]kg.EntityID, 0, len(locals))
	skew := false
	for i := range locals {
		if locals[i].skipped {
			res.Skipped = append(res.Skipped, i)
			continue
		}
		if locals[i].partial {
			res.Partial = true
		}
		if len(res.Answered) > 0 && locals[i].version != locals[res.Answered[0]].version {
			skew = true
		}
		res.Answered = append(res.Answered, i)
		ds = append(ds, locals[i].d)
		ids = append(ids, locals[i].ids)
	}
	if len(res.Answered) == 0 {
		return nil, shard.ErrAllShardsSkipped
	}
	if len(res.Skipped) > 0 || skew {
		res.Partial = true
	}
	res.IDs, res.Dists = shard.MergeSorted(k, ds, ids)
	return res, nil
}
