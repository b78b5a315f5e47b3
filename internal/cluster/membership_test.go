package cluster

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/halk-kg/halk/internal/obs"
	"github.com/halk-kg/halk/internal/query"
	"github.com/halk-kg/halk/internal/resil"
	"github.com/halk-kg/halk/internal/shard"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// findReplica returns range ri's replica with the given address.
func findReplica(t *testing.T, rt *Router, ri int, addr string) *replica {
	t.Helper()
	for _, rep := range rt.ranges[ri].list() {
		if rep.addr == addr {
			return rep
		}
	}
	t.Fatalf("replica %s not in range %d", addr, ri)
	return nil
}

// fastProbes shrinks the prober backoff so membership tests converge in
// milliseconds instead of the production 250ms floor.
func fastProbes(c *Config) {
	c.ProbeBase = 2 * time.Millisecond
	c.ProbeMax = 10 * time.Millisecond
}

// sampleQuery draws a deterministic test-split query.
func sampleQuery(t *testing.T, ds interface {
	Sample(kind string) (*query.Node, bool)
}, kind string) *query.Node {
	t.Helper()
	q, ok := ds.Sample(kind)
	if !ok {
		t.Fatalf("sampling %s failed", kind)
	}
	return q
}

// TestJoinProbationNeverServes is the probation acceptance gate: a
// replica joined at runtime whose identity probe cannot pass (here: it
// hosts the wrong entity slice) must never serve a gather — the
// router-side scan counter stays zero however much traffic flows — and
// every answer stays whole and byte-identical to the pre-join baseline.
func TestJoinProbationNeverServes(t *testing.T) {
	m, ds := testModel(61)
	nodes := startReplicatedTopology(t, m, ds, 1, 1, nil)
	rt := newReplicaRouter(t, m, nodes, func(c *Config) {
		c.ScanTimeout = 2 * time.Second
		fastProbes(c)
	})
	ents := ds.Train.NumEntities()

	s := query.NewSampler(ds.Test, rand.New(rand.NewSource(62)))
	q := sampleQuery(t, s, "2p")
	want, err := rt.RankTopK(context.Background(), q, 10)
	if err != nil {
		t.Fatalf("baseline gather: %v", err)
	}

	// The joiner hosts only half the range's slice: the boundary check
	// (against the active peer's report, never the joiner's own) fails
	// every probe, so it stays in probation forever.
	wrong := startNode(t, m, ds, 0, ents/2, nil)
	if err := rt.Join(0, wrong.addr()); err != nil {
		t.Fatalf("Join: %v", err)
	}
	joiner := findReplica(t, rt, 0, wrong.addr())
	if got := joiner.getState(); got != StateProbation {
		t.Fatalf("joined replica state = %v, want probation", got)
	}
	if rt.NumReplicas(0) != 2 {
		t.Fatalf("NumReplicas(0) = %d, want 2", rt.NumReplicas(0))
	}

	waitFor(t, 2*time.Second, "a failed probe", func() bool {
		return joiner.st.probeFails.Value() > 0
	})
	for i := 0; i < 10; i++ {
		got, err := rt.RankTopK(context.Background(), q, 10)
		if err != nil {
			t.Fatalf("gather %d: %v", i, err)
		}
		if got.Partial {
			t.Fatalf("gather %d partial with an active replica up", i)
		}
		if len(got.IDs) != len(want.IDs) {
			t.Fatalf("gather %d: %d answers, want %d", i, len(got.IDs), len(want.IDs))
		}
		for j := range want.IDs {
			if got.IDs[j] != want.IDs[j] || math.Float64bits(got.Dists[j]) != math.Float64bits(want.Dists[j]) {
				t.Fatalf("gather %d diverges from baseline at rank %d", i, j)
			}
		}
	}
	if n := joiner.st.scans.Value(); n != 0 {
		t.Fatalf("probation replica served %d gather scans; probation must serve none", n)
	}
	if joiner.getState() != StateProbation {
		t.Fatalf("mismatched replica left probation: %v", joiner.getState())
	}

	// The stats surface reports it so an operator can see why it is not
	// taking traffic.
	stats := rt.ReplicaStats()
	found := false
	for _, snap := range stats[0].Replicas {
		if snap.Node == wrong.addr() {
			found = true
			if snap.State != "probation" {
				t.Fatalf("stats state = %q, want probation", snap.State)
			}
			if snap.Probes == 0 {
				t.Fatal("stats report zero probes for a probing replica")
			}
		}
	}
	if !found {
		t.Fatal("joined replica missing from ReplicaStats")
	}
}

// TestJoinAdmitsAfterProbe drives the happy path: a correct replica
// joined at runtime passes the identity probe (health, boundary,
// version, byte-identical probe scan) and enters the pool with a
// peer-seeded EWMA; once preferred it serves gathers byte-identically.
func TestJoinAdmitsAfterProbe(t *testing.T) {
	m, ds := testModel(61)
	nodes := startReplicatedTopology(t, m, ds, 1, 1, nil)
	rt := newReplicaRouter(t, m, nodes, func(c *Config) {
		c.ScanTimeout = 2 * time.Second
		fastProbes(c)
	})
	ents := ds.Train.NumEntities()

	s := query.NewSampler(ds.Test, rand.New(rand.NewSource(62)))
	q := sampleQuery(t, s, "2p")
	want, err := rt.RankTopK(context.Background(), q, 10)
	if err != nil {
		t.Fatalf("baseline gather: %v", err)
	}

	v0 := rt.TopologyVersion()
	tn := startNode(t, m, ds, 0, ents, nil)
	if err := rt.Join(0, tn.addr()); err != nil {
		t.Fatalf("Join: %v", err)
	}
	if rt.TopologyVersion() != v0+1 {
		t.Fatalf("topology version = %d after join, want %d", rt.TopologyVersion(), v0+1)
	}
	joiner := findReplica(t, rt, 0, tn.addr())
	waitFor(t, 2*time.Second, "probe admission", func() bool {
		return joiner.getState() == StateActive
	})
	if joiner.st.admissions.Value() == 0 || joiner.st.probes.Value() == 0 {
		t.Fatalf("admissions = %d, probes = %d; want both > 0",
			joiner.st.admissions.Value(), joiner.st.probes.Value())
	}
	// The EWMA was seeded to the active peer's mean — the baseline gather
	// gave the peer one — so the newcomer is neither dogpiled nor shunned.
	if joiner.st.ewmaMs() <= 0 {
		t.Fatal("admitted replica's EWMA not seeded from its peer")
	}

	preferReplica(rt, 0, 1)
	base := joiner.st.scans.Value()
	got, err := rt.RankTopK(context.Background(), q, 10)
	if err != nil {
		t.Fatalf("post-admission gather: %v", err)
	}
	if got.Partial {
		t.Fatal("post-admission gather partial")
	}
	for j := range want.IDs {
		if got.IDs[j] != want.IDs[j] || math.Float64bits(got.Dists[j]) != math.Float64bits(want.Dists[j]) {
			t.Fatalf("admitted replica's answer diverges at rank %d", j)
		}
	}
	if joiner.st.scans.Value() == base {
		t.Fatal("admitted and preferred replica served no scans")
	}
}

// TestMembershipErrors pins every membership refusal and its sentinel.
func TestMembershipErrors(t *testing.T) {
	m, ds := testModel(61)
	nodes := startReplicatedTopology(t, m, ds, 2, 2, nil)
	rt := newReplicaRouter(t, m, nodes, nil)

	if err := rt.Join(0, nodes[0][0].addr()); !errors.Is(err, ErrDuplicateReplica) {
		t.Fatalf("duplicate join err = %v, want ErrDuplicateReplica", err)
	}
	if err := rt.Join(5, "x:1"); !errors.Is(err, ErrUnknownRange) {
		t.Fatalf("unknown-range join err = %v, want ErrUnknownRange", err)
	}
	if err := rt.Join(0, "  "); !errors.Is(err, ErrBadReplica) {
		t.Fatalf("empty-address join err = %v, want ErrBadReplica", err)
	}
	if err := rt.Leave("nope:1"); !errors.Is(err, ErrUnknownReplica) {
		t.Fatalf("unknown leave err = %v, want ErrUnknownReplica", err)
	}

	v0 := rt.TopologyVersion()
	if err := rt.Leave(nodes[0][1].addr()); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	if rt.NumReplicas(0) != 1 {
		t.Fatalf("NumReplicas(0) = %d after leave, want 1", rt.NumReplicas(0))
	}
	if rt.TopologyVersion() != v0+1 {
		t.Fatalf("topology version = %d after leave, want %d", rt.TopologyVersion(), v0+1)
	}
	if err := rt.Leave(nodes[0][0].addr()); !errors.Is(err, ErrLastReplica) {
		t.Fatalf("last-replica leave err = %v, want ErrLastReplica", err)
	}

	// Every membership error carries its HTTP status for the serve
	// endpoints (serve cannot import this package).
	for _, tc := range []struct {
		err  *memberError
		code int
	}{
		{ErrUnknownReplica, 404},
		{ErrDuplicateReplica, 409},
		{ErrLastReplica, 409},
		{ErrUnknownRange, 400},
		{ErrRangeCountChange, 409},
		{ErrBadReplica, 400},
	} {
		if tc.err.HTTPStatus() != tc.code {
			t.Fatalf("%v maps to HTTP %d, want %d", tc.err, tc.err.HTTPStatus(), tc.code)
		}
	}

	rt.Close()
	if err := rt.Join(0, "late:1"); !errors.Is(err, shard.ErrClosed) {
		t.Fatalf("join after Close err = %v, want shard.ErrClosed", err)
	}
	if err := rt.Leave(nodes[1][0].addr()); !errors.Is(err, shard.ErrClosed) {
		t.Fatalf("leave after Close err = %v, want shard.ErrClosed", err)
	}
}

// TestSetTopologySwap pins the cluster-file reload semantics: the range
// count is frozen, kept replicas keep their identity (stats, breaker,
// state), removed replicas vanish, added ones enter in probation, and
// the version bumps exactly once per effective change (a no-op reload
// does not bump).
func TestSetTopologySwap(t *testing.T) {
	m, ds := testModel(61)
	nodes := startReplicatedTopology(t, m, ds, 2, 2, nil)
	rt := newReplicaRouter(t, m, nodes, func(c *Config) {
		c.ScanTimeout = 2 * time.Second
		fastProbes(c)
	})
	ents := ds.Train.NumEntities()

	if err := rt.SetTopology([][]string{{"a:1"}}); !errors.Is(err, ErrRangeCountChange) {
		t.Fatalf("range-count change err = %v, want ErrRangeCountChange", err)
	}
	if err := rt.SetTopology([][]string{{nodes[0][0].addr()}, {}}); !errors.Is(err, ErrBadReplica) {
		t.Fatalf("empty-range err = %v, want ErrBadReplica", err)
	}
	dup := nodes[0][0].addr()
	if err := rt.SetTopology([][]string{{dup}, {dup}}); !errors.Is(err, ErrDuplicateReplica) {
		t.Fatalf("duplicate err = %v, want ErrDuplicateReplica", err)
	}

	// No-op swap: same topology, no version bump, same replica handles.
	v0 := rt.TopologyVersion()
	kept := rt.ranges[0].list()[0]
	if err := rt.SetTopology(rt.Topology()); err != nil {
		t.Fatalf("no-op SetTopology: %v", err)
	}
	if rt.TopologyVersion() != v0 {
		t.Fatalf("no-op reload bumped topology version %d -> %d", v0, rt.TopologyVersion())
	}
	if rt.ranges[0].list()[0] != kept {
		t.Fatal("no-op reload rebuilt a kept replica")
	}

	// Effective swap: range 0 drops its second replica and gains a fresh
	// node; range 1 is untouched. The fresh node's health answers fail
	// until the probation state has been read, so the prober cannot
	// admit it first.
	fresh := startNode(t, m, ds, rangeLo(ents, 2, 0), rangeHi(ents, 2, 0), nil)
	fresh.inj.Set(FaultStageHealth, resil.AnyShard, resil.Fault{Kind: resil.KindError})
	next := [][]string{
		{nodes[0][0].addr(), fresh.addr()},
		{nodes[1][0].addr(), nodes[1][1].addr()},
	}
	if err := rt.SetTopology(next); err != nil {
		t.Fatalf("SetTopology: %v", err)
	}
	if rt.TopologyVersion() != v0+1 {
		t.Fatalf("topology version = %d after swap, want %d", rt.TopologyVersion(), v0+1)
	}
	if rt.ranges[0].list()[0] != kept {
		t.Fatal("swap rebuilt the kept replica (stats/breaker identity lost)")
	}
	added := findReplica(t, rt, 0, fresh.addr())
	if added.getState() != StateProbation {
		t.Fatalf("added replica state = %v, want probation", added.getState())
	}
	for _, rep := range rt.ranges[0].list() {
		if rep.addr == nodes[0][1].addr() {
			t.Fatal("removed replica still in the snapshot")
		}
	}

	// The added replica is correct, so once its health answers, its
	// probe admits it.
	fresh.inj.Clear()
	rt.CheckHealth(context.Background())
	waitFor(t, 2*time.Second, "swap-added replica admission", func() bool {
		return added.getState() == StateActive
	})
}

// rangeHi returns Partition's hi for range i — a readability helper for
// tests building explicit replacement nodes.
func rangeHi(ents, n, i int) int {
	_, hi := Partition(ents, n, i)
	return hi
}

// TestReadRepairReadmits is the read-repair tentpole: a replica blamed
// by failover (breaker open, long cool-down) is re-probed off the query
// path and re-admitted as soon as it answers correctly again — without
// any query traffic and long before the breaker's own cool-down would
// have let a half-open probe through.
func TestReadRepairReadmits(t *testing.T) {
	m, ds := testModel(61)
	nodes := startReplicatedTopology(t, m, ds, 1, 2, nil)
	rt := newReplicaRouter(t, m, nodes, func(c *Config) {
		c.ScanTimeout = 250 * time.Millisecond
		fastProbes(c)
		c.Breaker = &resil.BreakerConfig{
			Window:            8,
			ConsecutiveMisses: 2,
			// A cool-down far beyond the test's lifetime: only the
			// read-repair prober's Reset can close the breaker again.
			OpenBase: time.Hour,
			OpenMax:  time.Hour,
			Seed:     1,
		}
	})
	rt.CheckHealth(context.Background())
	preferReplica(rt, 0, 0)
	blamed := rt.ranges[0].list()[0]

	s := query.NewSampler(ds.Test, rand.New(rand.NewSource(62)))
	q := sampleQuery(t, s, "1p")

	nodes[0][0].inj.Set(FaultStageScan, resil.AnyShard, resil.Fault{Kind: resil.KindError})
	for i := 0; blamed.breaker.State() == resil.Closed; i++ {
		if i >= 20 {
			t.Fatal("breaker never opened under persistent faults")
		}
		res, err := rt.RankTopK(context.Background(), q, 5)
		if err != nil {
			t.Fatalf("gather %d: %v", i, err)
		}
		if res.Partial {
			t.Fatalf("gather %d partial despite a healthy sibling", i)
		}
	}

	// Heal the node. No more queries: re-admission must happen entirely
	// off the query path, and the hour-long cool-down means the breaker
	// can only close through the prober's force-Reset.
	nodes[0][0].inj.Clear()
	waitFor(t, 3*time.Second, "read-repair re-admission", func() bool {
		return blamed.breaker.State() == resil.Closed && blamed.st.admissions.Value() > 0
	})
	if blamed.getState() != StateActive {
		t.Fatalf("re-admitted replica state = %v, want active", blamed.getState())
	}
	// Its poisoned EWMA (preferReplica seeded 0.01ms, then timeouts) was
	// reseeded from the sibling so it re-enters at a neutral score.
	if e := blamed.st.ewmaMs(); e <= 0 {
		t.Fatal("re-admitted replica's EWMA not reseeded")
	}

	// It serves again when preferred.
	preferReplica(rt, 0, 0)
	base := blamed.st.scans.Value()
	res, err := rt.RankTopK(context.Background(), q, 5)
	if err != nil || res.Partial {
		t.Fatalf("post-repair gather: err=%v partial=%v", err, res.Partial)
	}
	if blamed.st.scans.Value() == base {
		t.Fatal("re-admitted replica still not serving")
	}
}

// TestDrainIsLastResort pins the coordinated-drain routing contract: a
// draining replica stops being preferred immediately, but remains a
// last-resort failover target — killing its sibling must fail over to
// it and still produce a whole answer, never a partial one.
func TestDrainIsLastResort(t *testing.T) {
	m, ds := testModel(61)
	nodes := startReplicatedTopology(t, m, ds, 1, 2, nil)
	rt := newReplicaRouter(t, m, nodes, func(c *Config) {
		c.ScanTimeout = 2 * time.Second
	})
	rt.CheckHealth(context.Background())

	nodes[0][0].node.Drain()
	rt.CheckHealth(context.Background())
	draining := rt.ranges[0].list()[0]
	if got := draining.getState(); got != StateDraining {
		t.Fatalf("drained node's replica state = %v, want draining", got)
	}

	s := query.NewSampler(ds.Test, rand.New(rand.NewSource(62)))
	q := sampleQuery(t, s, "1p")
	base := draining.st.scans.Value()
	for i := 0; i < 5; i++ {
		res, err := rt.RankTopK(context.Background(), q, 5)
		if err != nil || res.Partial {
			t.Fatalf("gather %d with active sibling: err=%v partial=%v", i, err, res.Partial)
		}
	}
	if draining.st.scans.Value() != base {
		t.Fatal("draining replica served gathers while an active sibling was up")
	}

	// Kill the active sibling: the draining replica is all that is left,
	// and it still answers correctly — that is the point of coordinated
	// drain. The answer must stay whole.
	nodes[0][1].ts.Close()
	res, err := rt.RankTopK(context.Background(), q, 5)
	if err != nil {
		t.Fatalf("gather with only the draining replica: %v", err)
	}
	if res.Partial {
		t.Fatal("failover to the draining replica degraded the answer to partial")
	}
	if draining.st.scans.Value() == base {
		t.Fatal("draining replica did not serve the last-resort failover")
	}
}

// TestDrainedExitReentersViaProbation walks the back half of the state
// machine: draining → down when the process exits, down → probation
// when an "ok" health report returns, probation → active when the probe
// passes — a rolling restart needs no manual step.
func TestDrainedExitReentersViaProbation(t *testing.T) {
	m, ds := testModel(61)
	nodes := startReplicatedTopology(t, m, ds, 1, 2, nil)
	rt := newReplicaRouter(t, m, nodes, func(c *Config) {
		c.ScanTimeout = 2 * time.Second
		fastProbes(c)
	})
	rt.CheckHealth(context.Background())

	rep := rt.ranges[0].list()[0]
	nodes[0][0].node.Drain()
	rt.CheckHealth(context.Background())
	if rep.getState() != StateDraining {
		t.Fatalf("state after drain = %v, want draining", rep.getState())
	}

	// The process exits mid-drain: health checks fail, the replica parks
	// Down (not removed — a restart on the same address rejoins in place).
	nodes[0][0].ts.Close()
	rt.CheckHealth(context.Background())
	if rep.getState() != StateDown {
		t.Fatalf("state after exit = %v, want down", rep.getState())
	}

	// "Restart" the process: un-drain the node behind a fresh listener is
	// not possible with httptest, so assert the observable contract on
	// the sibling instead — the down replica re-enters probation when a
	// health check answers ok again. Simulate by draining+restoring the
	// sibling's state transitions directly through CheckHealth against
	// the still-running node 1.
	sibling := rt.ranges[0].list()[1]
	sibling.setState(StateDown)
	rt.CheckHealth(context.Background())
	if got := sibling.getState(); got != StateProbation && got != StateActive {
		t.Fatalf("down replica answering ok = %v, want probation (or already active)", got)
	}
	waitFor(t, 2*time.Second, "returned replica re-admission", func() bool {
		return sibling.getState() == StateActive
	})
	if sibling.st.admissions.Value() == 0 {
		t.Fatal("no admission recorded for the returned replica")
	}
}

// TestQueueDepthWeightsPrimary pins the balancing rule: primary
// selection compares EWMA × (1 + queue depth), so of two equally fast
// replicas the backed-up one sheds new primaries before its latency
// EWMA ever degrades.
func TestQueueDepthWeightsPrimary(t *testing.T) {
	m, ds := testModel(61)
	nodes := startReplicatedTopology(t, m, ds, 1, 2, nil)
	rt := newReplicaRouter(t, m, nodes, nil)
	rt.CheckHealth(context.Background())

	shallow, deep := rt.ranges[0].list()[0], rt.ranges[0].list()[1]
	shallow.st.seedEwma(1.0)
	deep.st.seedEwma(1.0)
	shallow.st.setDepth(0)
	deep.st.setDepth(7)
	if got, want := deep.st.score(), 8.0; got != want {
		t.Fatalf("score = %v, want ewma*(1+depth) = %v", got, want)
	}
	for i := 0; i < 20; i++ {
		order := rt.plan(rt.ranges[0])
		if order[0] != shallow {
			t.Fatalf("plan %d preferred the backed-up replica (depth 7) over its idle twin", i)
		}
	}
	// Depth ties break back to the EWMA comparison.
	deep.st.setDepth(0)
	deep.st.seedEwma(0.5)
	for i := 0; i < 20; i++ {
		order := rt.plan(rt.ranges[0])
		if order[0] != deep {
			t.Fatalf("plan %d ignored the faster replica after depths equalised", i)
		}
	}
	_ = ds
}

// TestGatherReplansWhenMembershipMoved pins the failure the rolling
// restart below hit about once in ten runs: a gather plans on a range's
// replica set, is descheduled, and by the time its attempts run every
// replica it planned on has been rolled out while a replacement serves.
// Here the stall is made certain — the only planned replica performs
// the roll itself (join a replacement, wait for admission, leave) from
// inside the scan it then fails — and the answer must still be whole.
func TestGatherReplansWhenMembershipMoved(t *testing.T) {
	m, ds := testModel(61)
	ents := ds.Train.NumEntities()
	old := startNode(t, m, ds, 0, ents, nil)
	fresh := startNode(t, m, ds, 0, ents, nil)

	// The first scan after arming rolls the range and fails; everything
	// else (health checks, the admission probe's reference scan) is the
	// old node answering normally.
	var rt *Router
	var armed atomic.Bool
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/scan" || !armed.CompareAndSwap(true, false) {
			old.node.Handler().ServeHTTP(w, r)
			return
		}
		if err := rt.Join(0, fresh.addr()); err != nil {
			t.Errorf("Join: %v", err)
			http.Error(w, "join failed", http.StatusInternalServerError)
			return
		}
		// Join appended the replacement; wait for its admission probe.
		// (No t.Fatal helpers here: this is not the test's goroutine.)
		reps := rt.ranges[0].list()
		rep := reps[len(reps)-1]
		for deadline := time.Now().Add(5 * time.Second); rep.getState() != StateActive && time.Now().Before(deadline); {
			time.Sleep(2 * time.Millisecond)
		}
		if err := rt.Leave("http://" + r.Host); err != nil {
			t.Errorf("Leave: %v", err)
		}
		http.Error(w, "rolled out", http.StatusServiceUnavailable)
	}))
	defer front.Close()

	q := sampleQuery(t, query.NewSampler(ds.Test, rand.New(rand.NewSource(62))), "2i")
	want, err := newReplicaRouter(t, m, [][]*testNode{{fresh}}, nil).RankTopK(context.Background(), q, 10)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	router, err := NewRouter(Config{
		Ranges: [][]string{{front.URL}}, Embed: m.EmbedQuery, Metrics: obs.NewRegistry(), Seed: 1,
		ScanTimeout: 2 * time.Second, ProbeBase: 2 * time.Millisecond, ProbeMax: 10 * time.Millisecond,
		Probe: func() []ArcSpec { return m.EmbedQuery(q) },
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	defer router.Close()
	router.CheckHealth(context.Background())
	rt = router
	armed.Store(true)

	got, err := rt.RankTopK(context.Background(), q, 10)
	if err != nil {
		t.Fatalf("gather across the roll: %v", err)
	}
	if got.Partial || len(got.IDs) != len(want.IDs) {
		t.Fatalf("gather across the roll: partial=%v, %d answers, want whole and %d", got.Partial, len(got.IDs), len(want.IDs))
	}
	for i := range want.IDs {
		if got.IDs[i] != want.IDs[i] || math.Float64bits(got.Dists[i]) != math.Float64bits(want.Dists[i]) {
			t.Fatalf("rank %d deviates from the healthy baseline", i)
		}
	}
}

// TestMembershipChaosRollingRestart is the PR's acceptance chaos suite:
// under sustained query load, every replica of every range is rolled —
// drained, removed from the topology, killed, and replaced by a fresh
// process that joins through probation — and not one answer may be
// partial or deviate by a byte from the healthy baseline.
func TestMembershipChaosRollingRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite in -short mode")
	}
	const nRanges, nReplicas = 3, 2
	m, ds := testModel(61)
	nodes := startReplicatedTopology(t, m, ds, nRanges, nReplicas, nil)
	probeQ := func() *query.Node {
		s := query.NewSampler(ds.Test, rand.New(rand.NewSource(1)))
		q, _ := s.Sample("1p")
		return q
	}()
	rt := newReplicaRouter(t, m, nodes, func(c *Config) {
		c.ScanTimeout = 2 * time.Second
		fastProbes(c)
		c.Probe = func() []ArcSpec { return m.EmbedQuery(probeQ) }
		c.Logf = t.Logf
	})
	rt.CheckHealth(context.Background())
	ents := ds.Train.NumEntities()

	// Baseline answers for the whole load mix, from the healthy topology.
	s := query.NewSampler(ds.Test, rand.New(rand.NewSource(62)))
	type ref struct {
		q    *query.Node
		ids  []uint64
		bits []uint64
	}
	var refs []ref
	for _, kind := range []string{"1p", "2p", "2i"} {
		q := sampleQuery(t, s, kind)
		res, err := rt.RankTopK(context.Background(), q, 10)
		if err != nil {
			t.Fatalf("baseline %s: %v", kind, err)
		}
		r := ref{q: q}
		for i := range res.IDs {
			r.ids = append(r.ids, uint64(res.IDs[i]))
			r.bits = append(r.bits, math.Float64bits(res.Dists[i]))
		}
		refs = append(refs, r)
	}

	// Sustained load: every gather must be whole and byte-identical.
	var (
		stop     atomic.Bool
		gathers  atomic.Int64
		partials atomic.Int64
		wg       sync.WaitGroup
	)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				r := refs[(w+i)%len(refs)]
				res, err := rt.RankTopK(context.Background(), r.q, 10)
				if err != nil {
					t.Errorf("load gather: %v", err)
					return
				}
				gathers.Add(1)
				if res.Partial {
					partials.Add(1)
					continue
				}
				if len(res.IDs) != len(r.ids) {
					t.Errorf("load gather: %d answers, want %d", len(res.IDs), len(r.ids))
					return
				}
				for j := range r.ids {
					if uint64(res.IDs[j]) != r.ids[j] || math.Float64bits(res.Dists[j]) != r.bits[j] {
						t.Errorf("load gather deviates from baseline at rank %d", j)
						return
					}
				}
			}
		}(w)
	}

	// Roll every replica of every range: drain → leave → kill → join a
	// replacement → wait for its probe to admit it. Each range always
	// keeps at least one serving replica, so no gather ever degrades.
	health := func() { rt.CheckHealth(context.Background()) }
	for ri := 0; ri < nRanges; ri++ {
		for j := 0; j < nReplicas; j++ {
			old := nodes[ri][j]
			old.node.Drain()
			health()

			if err := rt.Leave(old.addr()); err != nil {
				t.Fatalf("Leave(%s): %v", old.addr(), err)
			}
			old.ts.Close()

			fresh := startNode(t, m, ds, rangeLo(ents, nRanges, ri), rangeHi(ents, nRanges, ri), nil)
			nodes[ri][j] = fresh
			if err := rt.Join(ri, fresh.addr()); err != nil {
				t.Fatalf("Join(%d, %s): %v", ri, fresh.addr(), err)
			}
			rep := findReplica(t, rt, ri, fresh.addr())
			waitFor(t, 5*time.Second, "replacement admission", func() bool {
				return rep.getState() == StateActive
			})
		}
	}

	stop.Store(true)
	wg.Wait()
	if g := gathers.Load(); g < 10 {
		t.Fatalf("load loop completed only %d gathers; chaos schedule outpaced it", g)
	}
	if p := partials.Load(); p != 0 {
		t.Fatalf("%d of %d gathers were partial during the rolling restart; want zero", p, gathers.Load())
	}
	t.Logf("rolling restart: %d whole, byte-identical gathers, %d replicas rolled", gathers.Load(), nRanges*nReplicas)
}

// rangeLo is rangeHi's twin.
func rangeLo(ents, n, i int) int {
	lo, _ := Partition(ents, n, i)
	return lo
}
