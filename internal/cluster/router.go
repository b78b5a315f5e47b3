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
	// model's EmbedQuery, which reads the served view without a lock.
	// Required.
	Embed func(n *query.Node) []ArcSpec
	// ScanTimeout bounds each scan attempt; an attempt that misses it
	// fails over to the range's next replica within the query's
	// remaining budget — the cluster analogue of
	// shard.Options.ShardTimeout. 0 means attempts are bounded only by
	// the query context.
	ScanTimeout time.Duration
	// HedgeDelay enables hedged scans: a range's primary that has not
	// answered after max(HedgeDelay, its p99), capped at ScanTimeout, is
	// raced by the next replica (a wedged node cannot wedge its own
	// hedge; a 1-replica range hedges its only node) and the first
	// success wins, byte-identical as snapshots are version-pinned. 0
	// disables hedging.
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
	// Seed drives the power-of-two-choices sampling; 0 means
	// time-seeded. Fix it in tests that need a reproducible pick order.
	Seed int64
	// Probe embeds the known query the identity probe scans against a
	// joining/blamed replica and a current active replica (halk-serve
	// wires a deterministically sampled query). Required.
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

	// topoMu serialises membership changes (Join/Leave/SetTopology, all
	// through edit); topoVersion bumps on each. Gathers never take
	// topoMu — they read copy-on-write replica snapshots.
	topoMu      sync.Mutex
	topoVersion atomic.Uint64

	// probeCtx bounds every background prober; Close cancels it before
	// draining so probers mid-backoff exit immediately.
	probeCtx    context.Context
	probeCancel context.CancelFunc

	// version is the quorum-agreed entity version — what SnapshotVersion
	// reports, what gathers pin replica selection to, and what the serve
	// cache namespaces keys by. It only moves forward, and only once
	// a quorum of ranges have a live replica on the new version (see
	// CheckHealth), so a half-rolled-out checkpoint never flips the
	// cache back and forth.
	version atomic.Uint64

	// drain tracks every gather, attempt and membership prober, so Close
	// can refuse new work and await stragglers.
	drain resil.Drain
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
	if cfg.Probe == nil {
		return nil, fmt.Errorf("cluster: Config.Probe is required")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Seed == 0 {
		cfg.Seed = time.Now().UnixNano()
	}
	rt := &Router{
		cfg: cfg,
		reg: cfg.Metrics,
		hc:  NewHTTPClient(),
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
		lo, hi := rs.boundsExcept(nil)
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
		lo, hi := rs.boundsExcept(nil)
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
	rt.probeCancel()
	rt.drain.Close()
	rt.hc.CloseIdleConnections()
}

// remoteLocal is one range's contribution to a gather — the cluster
// analogue of the engine's per-shard localBatch.
type remoteLocal struct {
	ids     []kg.EntityID
	d       []float64
	version uint64
	partial bool // replica answered but degraded (local sub-shard skipped)
	skipped bool // the whole replica set was exhausted
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
	// gb is the gather's shared pruning bound: the smallest k-th best
	// distance any range has returned so far this query. Requests ship
	// its current value so late scans (hedges, failover attempts) prune
	// server-side.
	var gb shard.Bound
	gb.Init()
	tr := obs.FromContext(ctx)
	locals := make([]remoteLocal, len(rt.ranges))
	scatterStart := time.Now()
	// Each range is a race over its planned replicas (resil.Race): the
	// primary first, hedge and failover down the order, the first whole
	// answer wins. An empty plan (every replica in probation) loses at
	// once. An exhausted plan whose range membership moved since — a
	// gather descheduled across a replica roll finds everyone it planned
	// on gone while the replacements serve — is planned again.
	if !rt.drain.Scatter(len(rt.ranges), func(i int) {
		r := &rangeRace{rt: rt, rs: rt.ranges[i], qctx: ctx, specs: specs, k: k, gb: &gb}
		for {
			members := r.rs.reps.Load()
			l, ok := resil.Race[*replica, remoteLocal](&rt.drain, ctx, ctx, rt.plan(r.rs), r)
			if ok || r.rs.reps.Load() == members || ctx.Err() != nil {
				l.skipped = !ok
				locals[i] = l
				return
			}
		}
	}) {
		return nil, shard.ErrClosed
	}
	tr.Observe(obs.StageShardScatter, time.Since(scatterStart))
	if err := ctx.Err(); err != nil {
		// The whole query died; the races settled every breaker they
		// asked without blame.
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

// rangeRace is one range's resil.Target within a gather: the candidates
// are its planned replicas.
type rangeRace struct {
	rt    *Router
	rs    *rangeSet
	qctx  context.Context
	specs []ArcSpec
	k     int
	gb    *shard.Bound
}

func (r *rangeRace) Breaker(rep *replica) *resil.Breaker { return rep.breaker }

func (r *rangeRace) HedgeDelay(rep *replica) time.Duration {
	p99 := time.Duration(rep.st.scanMs.Quantile(0.99) * float64(time.Millisecond))
	return resil.HedgeDelay(r.rt.cfg.HedgeDelay, r.rt.cfg.ScanTimeout, p99)
}

// Note counts the race's steps and runs the membership hooks: a win that
// closed a tripped breaker reseeds the stale EWMA to the siblings' mean;
// blame arms the read-repair prober to re-admit off the query path.
func (r *rangeRace) Note(rep *replica, ev resil.Event) {
	switch ev {
	case resil.Refused:
		rep.st.breakerSkips.Inc()
	case resil.Hedged:
		rep.st.hedges.Inc()
	case resil.HedgeWon:
		rep.st.hedgeWins.Inc()
	case resil.FailedOver:
		r.rs.failovers.Inc()
	case resil.Blamed:
		r.rt.ensureProber(r.rs, rep)
	case resil.Reclosed:
		rep.st.seedEwma(r.rs.peerEwmaMean(rep))
	}
}

// Attempt issues one scan to rep under the router's deadline policy — a
// fresh ScanTimeout per attempt, carved from the query's budget: a
// sibling replica is an independent machine, so a failover is worth a
// full budget, unlike the engine's hedge re-reading the same memory —
// and tells a replica-local fault (failover, breaker) from a dead query
// or a lost hedge race (no blame).
func (r *rangeRace) Attempt(actx context.Context, rep *replica) (remoteLocal, resil.Outcome) {
	if to := r.rt.cfg.ScanTimeout; to > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(actx, to)
		defer cancel()
	}
	req := &ScanRequest{Arcs: r.specs, K: r.k}
	// On the wire 0 means no bound yet (no range has answered).
	if b := r.gb.Load(); !math.IsInf(b, 1) {
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
		switch {
		case r.qctx.Err() != nil:
			// The whole query died; no replica is at fault.
		case errors.Is(err, context.DeadlineExceeded):
			rep.st.timeouts.Inc()
			return remoteLocal{}, resil.Failed
		case errors.Is(err, context.Canceled):
			// Lost a hedge/failover race; the result is discarded, not
			// blamed.
		default:
			rep.st.errors.Inc()
			return remoteLocal{}, resil.Failed
		}
		return remoteLocal{}, resil.Lost
	}
	rep.st.setVersion(resp.Version)
	rep.st.setDepth(resp.Queue)
	if k := r.k; len(resp.Dists) == k && !resp.Partial {
		// A full non-degraded local list: its k-th best upper-bounds the
		// global k-th best, so later scans (hedges, failovers) can prune
		// against it.
		r.gb.Update(resp.Dists[k-1])
	}
	rep.st.record(elapsed)
	return remoteLocal{ids: resp.IDs, d: resp.Dists, version: resp.Version, partial: resp.Partial}, resil.Won
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
