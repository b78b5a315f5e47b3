package cluster

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"

	"github.com/halk-kg/halk/internal/resil"
	"github.com/halk-kg/halk/internal/shard"
)

// ReplicaState is a replica's position in the membership state machine:
//
//	probation → active ⇄ (blamed, probed, re-admitted)
//	   ↑           ↓
//	   └── down ← draining
//
// Boot-time replicas start Active (the operator vouched for the static
// topology, and a router restart must serve immediately — the PR 6/9
// behavior). Replicas added at runtime (Join, SetTopology, a cluster
// file reload) start in Probation and are invisible to gathers until
// the identity probe passes: a correct health report with the range's
// exact [lo, hi) bounds, the served entity version, and a probe scan
// byte-identical to a current active replica's. Draining replicas are
// routed to only as a last resort (they still answer correctly — that
// is the point of coordinated drain) and Down replicas — drained
// processes that exited — only after those; when either answers health
// checks with "ok" again it re-enters through Probation.
type ReplicaState int32

const (
	// StateActive replicas form the primary/failover pool.
	StateActive ReplicaState = iota
	// StateProbation replicas never serve a gather; a background prober
	// re-scans them until the identity probe passes.
	StateProbation
	// StateDraining replicas asked to be taken out of rotation; they
	// still answer correctly, so failover may use them last-resort.
	StateDraining
	// StateDown replicas stopped answering health checks after a drain;
	// kept in the topology so a restarted process can rejoin in place.
	StateDown
)

func (s ReplicaState) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateProbation:
		return "probation"
	case StateDraining:
		return "draining"
	case StateDown:
		return "down"
	default:
		return "unknown"
	}
}

func (rep *replica) getState() ReplicaState  { return ReplicaState(rep.state.Load()) }
func (rep *replica) setState(s ReplicaState) { rep.state.Store(int32(s)) }
func (rep *replica) casState(from, to ReplicaState) bool {
	return rep.state.CompareAndSwap(int32(from), int32(to))
}

// memberError is a membership-operation failure that knows the HTTP
// status the serve endpoints should answer with (serve cannot import
// this package, so the status rides the error value itself — see
// serve.StatusCoder).
type memberError struct {
	msg  string
	code int
}

func (e *memberError) Error() string   { return e.msg }
func (e *memberError) HTTPStatus() int { return e.code }

// Membership errors. Wrap with %w for detail; errors.Is against these
// sentinels, and errors.As(*, StatusCoder) for the HTTP mapping.
var (
	// ErrUnknownReplica: Leave named an endpoint no range contains.
	ErrUnknownReplica = &memberError{"cluster: unknown replica", http.StatusNotFound}
	// ErrDuplicateReplica: Join named an endpoint already in the topology.
	ErrDuplicateReplica = &memberError{"cluster: replica already in topology", http.StatusConflict}
	// ErrLastReplica: Leave would empty a range — a range with zero
	// replicas can never answer, so the request is refused; join a
	// replacement first.
	ErrLastReplica = &memberError{"cluster: cannot remove a range's last replica", http.StatusConflict}
	// ErrUnknownRange: Join named a range index outside the topology.
	// Range boundaries are fixed at router start; only replica-set
	// composition changes at runtime.
	ErrUnknownRange = &memberError{"cluster: unknown range", http.StatusBadRequest}
	// ErrRangeCountChange: SetTopology tried to change the number of
	// ranges. Range boundary changes require a router restart (they
	// change what a "whole" answer means mid-query).
	ErrRangeCountChange = &memberError{"cluster: range-count changes require a router restart", http.StatusConflict}
	// ErrBadReplica: an empty or duplicate endpoint in the request.
	ErrBadReplica = &memberError{"cluster: bad replica endpoint", http.StatusBadRequest}
)

// list returns the range's current replica-set snapshot. The slice is
// copy-on-write: membership operations swap in a fresh slice under the
// router's topoMu, so holders of a snapshot (gathers in flight, the
// health sweep) iterate stably without locks.
func (rs *rangeSet) list() []*replica { return *rs.reps.Load() }

func (rs *rangeSet) contains(rep *replica) bool {
	for _, r := range rs.list() {
		if r == rep {
			return true
		}
	}
	return false
}

// boundsExcept returns the range's hosted [lo, hi) as known from any
// healthy replica other than skip — the ground truth a joining
// replica's reported bounds are checked against (its own report must
// not vouch for itself).
func (rs *rangeSet) boundsExcept(skip *replica) (lo, hi int) {
	for _, rep := range rs.list() {
		if rep == skip {
			continue
		}
		l, h, _, healthy := rep.st.health()
		if healthy || h > l {
			return l, h
		}
	}
	return 0, 0
}

// activePeer returns a healthy active replica other than skip — the
// reference answer for an identity probe — or nil.
func (rs *rangeSet) activePeer(skip *replica) *replica {
	for _, rep := range rs.list() {
		if rep == skip || rep.getState() != StateActive {
			continue
		}
		if _, _, _, healthy := rep.st.health(); healthy {
			return rep
		}
	}
	return nil
}

// peerEwmaMean is the mean seeded latency EWMA of the range's active
// replicas other than skip: the neutral value a re-admitted replica's
// EWMA is reseeded to. 0 (reset to unseeded) when no peer has one.
func (rs *rangeSet) peerEwmaMean(skip *replica) float64 {
	var sum float64
	n := 0
	for _, rep := range rs.list() {
		if rep == skip || rep.getState() != StateActive {
			continue
		}
		if e := rep.st.ewmaMs(); e > 0 {
			sum += e
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TopologyVersion reports the monotone topology-snapshot version: it
// bumps on every membership change (join, leave, cluster-file swap),
// never on state transitions. Serve's /v1/stats and the topology
// endpoints surface it so operators can confirm a change was observed.
func (rt *Router) TopologyVersion() uint64 { return rt.topoVersion.Load() }

// Join adds addr to range ri's replica set in Probation: it is
// invisible to gathers until the background identity probe passes (see
// probeOnce), at which point it enters the failover pool with a fresh
// EWMA and breaker. The range's boundaries are fixed — a joining
// replica must host exactly the range's [lo, hi) slice or it stays in
// probation forever (visible in /v1/stats).
func (rt *Router) Join(ri int, addr string) error {
	addr = strings.TrimSpace(addr)
	if addr == "" {
		return fmt.Errorf("%w: empty address", ErrBadReplica)
	}
	rt.closeMu.RLock()
	closed := rt.closed
	rt.closeMu.RUnlock()
	if closed {
		return shard.ErrClosed
	}
	rt.topoMu.Lock()
	defer rt.topoMu.Unlock()
	if ri < 0 || ri >= len(rt.ranges) {
		return fmt.Errorf("%w: range %d of %d", ErrUnknownRange, ri, len(rt.ranges))
	}
	for _, rs := range rt.ranges {
		for _, rep := range rs.list() {
			if rep.addr == addr {
				return fmt.Errorf("%w: %s already serves range %d", ErrDuplicateReplica, addr, rs.index)
			}
		}
	}
	rs := rt.ranges[ri]
	rep := rt.newReplica(ri, addr, StateProbation)
	cur := rs.list()
	next := make([]*replica, 0, len(cur)+1)
	next = append(append(next, cur...), rep)
	rs.reps.Store(&next)
	rt.topoVersion.Add(1)
	rt.logf("cluster: replica %s joined range %d in probation (topology v%d)", addr, ri, rt.topoVersion.Load())
	rt.ensureProber(rs, rep)
	return nil
}

// Leave removes addr from the topology. In-flight gathers holding the
// old snapshot may still attempt it (and fail over normally); new
// gathers never see it. Removing a range's last replica is refused —
// drain it and join its replacement first.
func (rt *Router) Leave(addr string) error {
	addr = strings.TrimSpace(addr)
	if addr == "" {
		return fmt.Errorf("%w: empty address", ErrBadReplica)
	}
	rt.topoMu.Lock()
	defer rt.topoMu.Unlock()
	for _, rs := range rt.ranges {
		cur := rs.list()
		for i, rep := range cur {
			if rep.addr != addr {
				continue
			}
			if len(cur) == 1 {
				return fmt.Errorf("%w: %s is range %d's only replica; join a replacement first", ErrLastReplica, addr, rs.index)
			}
			next := make([]*replica, 0, len(cur)-1)
			next = append(append(next, cur[:i]...), cur[i+1:]...)
			rs.reps.Store(&next)
			rs.primary.CompareAndSwap(rep, nil)
			rt.topoVersion.Add(1)
			rt.logf("cluster: replica %s left range %d (topology v%d)", addr, rs.index, rt.topoVersion.Load())
			return nil
		}
	}
	return fmt.Errorf("%w: %s", ErrUnknownReplica, addr)
}

// SetTopology swaps the whole replica topology to ranges — the
// cluster-file reload seam (mtime watch, SIGHUP). The range count must
// match the running topology (boundary changes are rejected); within a
// range, kept replicas keep their state, stats and breaker, removed
// replicas vanish from new gathers, and added replicas enter in
// Probation exactly like Join. The swap is atomic per range and all
// validation happens before any range changes.
func (rt *Router) SetTopology(ranges [][]string) error {
	if len(ranges) != len(rt.ranges) {
		return fmt.Errorf("%w: running %d ranges, new topology has %d", ErrRangeCountChange, len(rt.ranges), len(ranges))
	}
	seen := make(map[string]int, len(ranges))
	for i, reps := range ranges {
		if len(reps) == 0 {
			return fmt.Errorf("%w: range %d has no replicas", ErrBadReplica, i)
		}
		for _, addr := range reps {
			if strings.TrimSpace(addr) == "" {
				return fmt.Errorf("%w: range %d has an empty address", ErrBadReplica, i)
			}
			if prev, dup := seen[addr]; dup {
				return fmt.Errorf("%w: %s appears in ranges %d and %d", ErrDuplicateReplica, addr, prev, i)
			}
			seen[addr] = i
		}
	}
	rt.closeMu.RLock()
	closed := rt.closed
	rt.closeMu.RUnlock()
	if closed {
		return shard.ErrClosed
	}
	rt.topoMu.Lock()
	defer rt.topoMu.Unlock()
	changed := false
	type added struct {
		rs  *rangeSet
		rep *replica
	}
	var joins []added
	for i, want := range ranges {
		rs := rt.ranges[i]
		cur := rs.list()
		keep := make(map[string]*replica, len(cur))
		for _, rep := range cur {
			keep[rep.addr] = rep
		}
		next := make([]*replica, 0, len(want))
		rangeChanged := len(want) != len(cur)
		for _, addr := range want {
			if rep, ok := keep[addr]; ok {
				next = append(next, rep)
				delete(keep, addr)
				continue
			}
			rep := rt.newReplica(i, addr, StateProbation)
			next = append(next, rep)
			joins = append(joins, added{rs, rep})
			rangeChanged = true
		}
		if !rangeChanged {
			continue
		}
		for _, rep := range keep { // removed: clear a stale primary pick
			rs.primary.CompareAndSwap(rep, nil)
		}
		rs.reps.Store(&next)
		changed = true
	}
	if changed {
		rt.topoVersion.Add(1)
		rt.logf("cluster: topology swapped to v%d (%d ranges, %d joining in probation)",
			rt.topoVersion.Load(), len(ranges), len(joins))
	}
	for _, j := range joins {
		rt.ensureProber(j.rs, j.rep)
	}
	return nil
}

// ensureProber starts rep's background prober unless one is already
// running (at most one per replica). Triggered by Join/SetTopology
// (probation admission), by the health sweep seeing a probation/
// returned replica, and by a gather blaming the replica (read-repair:
// the prober re-admits it off the query path instead of waiting out
// the breaker cool-down or the next health sweep).
func (rt *Router) ensureProber(rs *rangeSet, rep *replica) {
	if !rep.probing.CompareAndSwap(false, true) {
		return
	}
	rt.closeMu.RLock()
	if rt.closed {
		rt.closeMu.RUnlock()
		rep.probing.Store(false)
		return
	}
	rt.scanWG.Add(1)
	rt.closeMu.RUnlock()
	go rt.probeLoop(rs, rep)
}

// probeSeed derives a per-replica jitter seed so a fleet of probers
// does not fire in lockstep.
func probeSeed(base int64, addr string) int64 {
	var h int64 = 1469598103934665603
	for i := 0; i < len(addr); i++ {
		h = (h ^ int64(addr[i])) * 1099511628211
	}
	return base ^ h
}

// probeLoop re-scans rep with full-jitter backoff until the identity
// probe passes (→ admit), the replica leaves the topology, it begins
// draining, or the router closes. It never touches the query path: the
// probe is a plain remote scan whose result is compared and discarded.
func (rt *Router) probeLoop(rs *rangeSet, rep *replica) {
	defer rt.scanWG.Done()
	defer rep.probing.Store(false)
	base, max := rt.cfg.ProbeBase, rt.cfg.ProbeMax
	if base <= 0 {
		base = 250 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	bo := resil.NewBackoff(base, max, probeSeed(rt.cfg.Seed, rep.addr))
	for attempt := 0; ; attempt++ {
		if rt.probeCtx.Err() != nil {
			return
		}
		if !rs.contains(rep) {
			return // left the topology; nothing to re-admit
		}
		if s := rep.getState(); s == StateDraining {
			return // draining replicas are on their way out, not in
		}
		err := rt.probeOnce(rs, rep)
		if err == nil {
			rt.admit(rs, rep)
			return
		}
		rep.st.probeFails.Inc()
		rt.logf("cluster: probe of %s (range %d, %s) failed: %v", rep.addr, rs.index, rep.getState(), err)
		t := time.NewTimer(bo.Delay(attempt))
		select {
		case <-rt.probeCtx.Done():
			t.Stop()
			return
		case <-t.C:
		}
	}
}

// probeOnce runs one identity probe against rep:
//
//  1. health: the node answers /v1/healthz with status "ok";
//  2. boundary: its reported [lo, hi) equals the range's known bounds
//     (from a peer — a replica cannot vouch for its own slice);
//  3. version: its entity version equals the router's served version
//     (a lagging or leading checkpoint keeps it out until the quorum
//     flip catches up — version-pinned gathers could never use it);
//  4. identity: a probe scan (the configured probe query, falling back
//     to the last gather's arcs) answers byte-identically — IDs, exact
//     distance bits, snapshot version — to a current active replica.
//
// Checks that have no ground truth available (no peer, no probe arcs)
// are skipped rather than failed: a range whose every replica died
// must be able to re-admit its first returnee on health alone.
func (rt *Router) probeOnce(rs *rangeSet, rep *replica) error {
	rep.st.probes.Inc()
	to := rt.cfg.ScanTimeout
	if to <= 0 {
		to = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(rt.probeCtx, to)
	defer cancel()
	h, err := rep.remote.Health(ctx)
	if err != nil {
		return err
	}
	if h.Status != "ok" {
		return fmt.Errorf("status %q", h.Status)
	}
	if lo, hi := rs.boundsExcept(rep); hi > lo && (h.Lo != lo || h.Hi != hi) {
		return fmt.Errorf("boundary mismatch: node hosts [%d, %d), range serves [%d, %d)", h.Lo, h.Hi, lo, hi)
	}
	if v := rt.version.Load(); v != 0 && h.EntityVersion != v {
		return fmt.Errorf("entity version %d != served %d", h.EntityVersion, v)
	}
	specs := rt.probeSpecs()
	ref := rs.activePeer(rep)
	if len(specs) == 0 || ref == nil {
		// No probe query or no reference replica: health is the best
		// available evidence. Record it and admit.
		rep.st.setHealth(h, true)
		return nil
	}
	req := &ScanRequest{Arcs: specs, K: probeK}
	got, err := rep.remote.Scan(ctx, req)
	if err != nil {
		return fmt.Errorf("probe scan: %w", err)
	}
	want, err := ref.remote.Scan(ctx, req)
	if err != nil {
		return fmt.Errorf("reference scan against %s: %w", ref.addr, err)
	}
	if got.Partial || want.Partial {
		return fmt.Errorf("probe scan degraded (candidate partial=%v, reference partial=%v)", got.Partial, want.Partial)
	}
	if got.Version != want.Version {
		return fmt.Errorf("probe scan version %d != reference %d", got.Version, want.Version)
	}
	if len(got.IDs) != len(want.IDs) {
		return fmt.Errorf("probe scan returned %d answers, reference %d", len(got.IDs), len(want.IDs))
	}
	for i := range got.IDs {
		if got.IDs[i] != want.IDs[i] || math.Float64bits(got.Dists[i]) != math.Float64bits(want.Dists[i]) {
			return fmt.Errorf("probe scan diverges from reference %s at rank %d", ref.addr, i)
		}
	}
	rep.st.setHealth(h, true)
	return nil
}

// probeSpecs resolves the arcs an identity probe scans: the configured
// probe query when set, else the last gather's embedded arcs (captured
// by RankTopK), else nil.
func (rt *Router) probeSpecs() []ArcSpec {
	if rt.cfg.Probe != nil {
		if specs := rt.cfg.Probe(); len(specs) > 0 {
			return specs
		}
	}
	if p := rt.lastSpecs.Load(); p != nil {
		return *p
	}
	return nil
}

// probeK is the identity probe scan's K.
const probeK = 8

// admit moves rep into the failover pool after a passed probe: its
// latency EWMA is reseeded to the active peers' mean (a stale EWMA
// would dogpile or shun it — see replicaStat.seedEwma), its breaker is
// force-closed, and probation/down replicas turn Active. An already-
// active replica (read-repair after transient blame) keeps its state.
func (rt *Router) admit(rs *rangeSet, rep *replica) {
	rep.st.seedEwma(rs.peerEwmaMean(rep))
	if rep.breaker != nil {
		rep.breaker.Reset()
	}
	was := rep.getState()
	if was == StateProbation || was == StateDown {
		rep.casState(was, StateActive)
	}
	rep.st.admissions.Inc()
	rt.logf("cluster: replica %s re-admitted to range %d (was %s, topology v%d)",
		rep.addr, rs.index, was, rt.topoVersion.Load())
}

// logf writes to the configured membership log (silent when unset).
func (rt *Router) logf(format string, args ...any) {
	if rt.cfg.Logf != nil {
		rt.cfg.Logf(format, args...)
	}
}
