package cluster

import (
	"context"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/halk-kg/halk/internal/halk"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/obs"
	"github.com/halk-kg/halk/internal/query"
	"github.com/halk-kg/halk/internal/resil"
	"github.com/halk-kg/halk/internal/shard"
)

func testModel(seed int64) (*halk.Model, *kg.Dataset) {
	ds := kg.SynthFB237(seed)
	cfg := halk.DefaultConfig(seed)
	cfg.Dim, cfg.Hidden, cfg.NumGroups = 8, 16, 4
	return halk.New(ds.Train, cfg), ds
}

func embedFn(m *halk.Model) func(n *query.Node) []ArcSpec {
	return func(n *query.Node) []ArcSpec {
		arcs := m.EmbedQueryLocked(n)
		specs := make([]ArcSpec, len(arcs))
		for i, a := range arcs {
			specs[i] = ArcSpec{C: a.C, L: a.L, Hot: a.Hot}
		}
		return specs
	}
}

// testNode is one loopback shard node: a RangeRanker over [lo, hi) of
// its model, fronted by the Node HTTP handler on an httptest listener.
type testNode struct {
	ts     *httptest.Server
	node   *Node
	ranker *halk.RangeRanker
	inj    *resil.Injector
	reg    *obs.Registry
}

func (tn *testNode) addr() string { return tn.ts.URL }

func startNode(t *testing.T, m *halk.Model, ds *kg.Dataset, lo, hi int, mutate func(*NodeConfig)) *testNode {
	t.Helper()
	ranker, err := m.NewRangeRanker(lo, hi, shard.Options{Shards: 1})
	if err != nil {
		t.Fatalf("NewRangeRanker(%d, %d): %v", lo, hi, err)
	}
	inj := resil.NewInjector()
	reg := obs.NewRegistry()
	cfg := NodeConfig{
		Engine:    ranker.Engine(),
		Params:    m.ShardParams(),
		Metrics:   reg,
		ModelName: "FB237",
		Entities:  ds.Train.Entities,
		Relations: ds.Train.Relations,
		Graph:     ds.Test,
		Embed:     embedFn(m),
		Faults:    inj,
		PanicLog:  log.New(io.Discard, "", 0),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	node, err := NewNode(cfg)
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	ts := httptest.NewServer(node.Handler())
	tn := &testNode{ts: ts, node: node, ranker: ranker, inj: inj, reg: reg}
	t.Cleanup(func() {
		ts.Close()
		node.Close()
	})
	return tn
}

// startTopology partitions one model's entity table across n loopback
// nodes with the same remainder-first split the in-process engine uses.
func startTopology(t *testing.T, m *halk.Model, ds *kg.Dataset, n int, mutate func(*NodeConfig)) []*testNode {
	t.Helper()
	ents := ds.Train.NumEntities()
	nodes := make([]*testNode, n)
	for i := 0; i < n; i++ {
		lo, hi := Partition(ents, n, i)
		nodes[i] = startNode(t, m, ds, lo, hi, mutate)
	}
	return nodes
}

// rep0 returns range ri's sole replica — legacy tests drive 1-replica
// topologies where startTopology maps one node per range.
func rep0(rt *Router, ri int) *replica { return rt.ranges[ri].list()[0] }

func newTestRouter(t *testing.T, m *halk.Model, nodes []*testNode, mutate func(*Config)) *Router {
	t.Helper()
	ranges := make([][]string, len(nodes)) // one 1-replica range per node
	for i, tn := range nodes {
		ranges[i] = []string{tn.addr()}
	}
	cfg := Config{
		Ranges:  ranges,
		Embed:   embedFn(m),
		Metrics: obs.NewRegistry(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	t.Cleanup(rt.Close)
	rt.CheckHealth(context.Background())
	return rt
}

// TestPartition asserts the node split matches the engine's sub-shard
// split: contiguous, covering, remainder-first.
func TestPartition(t *testing.T) {
	for _, tc := range []struct{ ents, nodes int }{{10, 3}, {9, 3}, {7, 1}, {5, 5}, {100, 7}} {
		prev := 0
		for i := 0; i < tc.nodes; i++ {
			lo, hi := Partition(tc.ents, tc.nodes, i)
			if lo != prev {
				t.Fatalf("Partition(%d,%d,%d): lo = %d, want %d", tc.ents, tc.nodes, i, lo, prev)
			}
			if hi <= lo {
				t.Fatalf("Partition(%d,%d,%d): empty range [%d,%d)", tc.ents, tc.nodes, i, lo, hi)
			}
			prev = hi
		}
		if prev != tc.ents {
			t.Fatalf("Partition(%d,%d): ranges cover %d entities", tc.ents, tc.nodes, prev)
		}
	}
}

// TestLoopbackByteIdentity is the tentpole acceptance test: a 3-node
// loopback topology must return byte-identical top-K lists — IDs and
// bit-exact distances — to a single-process 3-shard engine over the
// same model, across the full benchmark structure matrix. This is what
// makes router mode a deployment choice rather than an accuracy trade:
// raw arcs survive the JSON round-trip exactly, node-side PrepareArc
// reproduces the router-side preparation, and the k-way merge uses the
// same ordering.
func TestLoopbackByteIdentity(t *testing.T) {
	m, ds := testModel(61)
	nodes := startTopology(t, m, ds, 3, nil)
	rt := newTestRouter(t, m, nodes, nil)

	ref, err := m.NewShardedRanker(shard.Options{Shards: 3})
	if err != nil {
		t.Fatalf("NewShardedRanker: %v", err)
	}
	defer ref.Close()

	s := query.NewSampler(ds.Test, rand.New(rand.NewSource(62)))
	const k = 12
	for _, structure := range query.StructureNames() {
		q, ok := s.Sample(structure)
		if !ok {
			t.Fatalf("sampling %s failed", structure)
		}
		want, err := ref.RankTopK(context.Background(), q, k)
		if err != nil {
			t.Fatalf("%s: reference RankTopK: %v", structure, err)
		}
		got, err := rt.RankTopK(context.Background(), q, k)
		if err != nil {
			t.Fatalf("%s: router RankTopK: %v", structure, err)
		}
		if got.Partial {
			t.Fatalf("%s: unexpected partial result", structure)
		}
		if len(got.IDs) != len(want.IDs) {
			t.Fatalf("%s: got %d answers, want %d", structure, len(got.IDs), len(want.IDs))
		}
		for i := range want.IDs {
			if got.IDs[i] != want.IDs[i] {
				t.Fatalf("%s: answer %d = %d, want %d", structure, i, got.IDs[i], want.IDs[i])
			}
			if math.Float64bits(got.Dists[i]) != math.Float64bits(want.Dists[i]) {
				t.Fatalf("%s: dist %d = %x, want %x (not byte-identical)",
					structure, i, math.Float64bits(got.Dists[i]), math.Float64bits(want.Dists[i]))
			}
		}
		if got.Version != want.Version {
			t.Fatalf("%s: version %d, want %d", structure, got.Version, want.Version)
		}
	}
}

// TestNodeScanBound asserts shipping a valid global bound — an upper
// bound on the k-th best distance, which is all the router ever ships
// (a sibling's full k-th best) — changes nothing about the answer:
// pruning only skips entities that provably cannot enter the top-K, so
// the bounded scan is byte-identical to the unbounded one.
func TestNodeScanBound(t *testing.T) {
	m, ds := testModel(61)
	tn := startNode(t, m, ds, 0, ds.Train.NumEntities(), nil)
	remote := NewRemoteShard(tn.addr(), nil)

	s := query.NewSampler(ds.Test, rand.New(rand.NewSource(62)))
	q, ok := s.Sample("2p")
	if !ok {
		t.Fatal("sampling 2p failed")
	}
	specs := embedFn(m)(q)

	full, err := remote.Scan(context.Background(), &ScanRequest{Arcs: specs, K: 10})
	if err != nil {
		t.Fatalf("unbounded scan: %v", err)
	}
	if len(full.IDs) != 10 {
		t.Fatalf("unbounded scan returned %d answers, want 10", len(full.IDs))
	}
	bounded, err := remote.Scan(context.Background(), &ScanRequest{Arcs: specs, K: 10, Bound: full.Dists[9]})
	if err != nil {
		t.Fatalf("bounded scan: %v", err)
	}
	if len(bounded.IDs) != len(full.IDs) {
		t.Fatalf("bounded scan returned %d answers, want %d", len(bounded.IDs), len(full.IDs))
	}
	for i := range bounded.IDs {
		if bounded.IDs[i] != full.IDs[i] || math.Float64bits(bounded.Dists[i]) != math.Float64bits(full.Dists[i]) {
			t.Fatalf("bounded scan answer %d = (%d, %x), want (%d, %x)",
				i, bounded.IDs[i], math.Float64bits(bounded.Dists[i]), full.IDs[i], math.Float64bits(full.Dists[i]))
		}
	}
}

// TestNodeHealthz asserts the readiness report carries the hosted range
// and entity version the router's discovery loop depends on.
func TestNodeHealthz(t *testing.T) {
	m, ds := testModel(61)
	ents := ds.Train.NumEntities()
	lo, hi := Partition(ents, 3, 1)
	tn := startNode(t, m, ds, lo, hi, nil)
	h, err := NewRemoteShard(tn.addr(), nil).Health(context.Background())
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if h.Status != "ok" || h.Lo != lo || h.Hi != hi || h.Entities != hi-lo {
		t.Fatalf("Health = %+v, want ok over [%d, %d)", h, lo, hi)
	}
	if h.EntityVersion != m.EntityVersion() {
		t.Fatalf("EntityVersion = %d, want %d", h.EntityVersion, m.EntityVersion())
	}
	if !h.CkptLoaded {
		t.Fatal("CkptLoaded = false for a published snapshot")
	}
}

// TestRouterPartialOnNodeKill asserts the degradation contract: killing
// one node mid-topology yields Partial=true with the surviving nodes'
// answers (every returned ID outside the dead node's range), and the
// dead node's error counter moves.
func TestRouterPartialOnNodeKill(t *testing.T) {
	m, ds := testModel(61)
	nodes := startTopology(t, m, ds, 3, nil)
	rt := newTestRouter(t, m, nodes, func(c *Config) {
		c.ScanTimeout = 2 * time.Second
	})

	deadLo, deadHi, _, _ := rep0(rt, 1).st.health()
	if deadHi <= deadLo {
		t.Fatal("health sweep did not record node 1's range")
	}
	nodes[1].ts.Close() // connection refused from here on

	s := query.NewSampler(ds.Test, rand.New(rand.NewSource(62)))
	q, ok := s.Sample("2i")
	if !ok {
		t.Fatal("sampling 2i failed")
	}
	res, err := rt.RankTopK(context.Background(), q, 10)
	if err != nil {
		t.Fatalf("RankTopK with one node down: %v", err)
	}
	if !res.Partial {
		t.Fatal("result not marked partial with a node down")
	}
	if len(res.Answered) != 2 || len(res.Skipped) != 1 || res.Skipped[0] != 1 {
		t.Fatalf("Answered = %v, Skipped = %v; want nodes 0,2 answering and node 1 skipped", res.Answered, res.Skipped)
	}
	if len(res.IDs) == 0 {
		t.Fatal("no answers from surviving nodes")
	}
	for _, id := range res.IDs {
		if int(id) >= deadLo && int(id) < deadHi {
			t.Fatalf("answer %d falls in the dead node's range [%d, %d)", id, deadLo, deadHi)
		}
	}
	if got := rep0(rt, 1).st.errors.Value(); got == 0 {
		t.Fatal("dead node's error counter did not move")
	}
}

// TestRouterBreakerOpensOnDeadNode asserts repeated failures trip the
// dead node's breaker: later gathers skip it up front (breakerSkips
// moves) and still answer partial from the survivors.
func TestRouterBreakerOpensOnDeadNode(t *testing.T) {
	m, ds := testModel(61)
	nodes := startTopology(t, m, ds, 3, nil)
	rt := newTestRouter(t, m, nodes, func(c *Config) {
		c.ScanTimeout = 2 * time.Second
		c.Breaker = &resil.BreakerConfig{
			Window:            8,
			FailureRate:       0.5,
			ConsecutiveMisses: 2,
			OpenBase:          time.Minute, // stays open for the whole test
			OpenMax:           time.Minute,
			Seed:              1,
		}
	})
	nodes[0].ts.Close()

	s := query.NewSampler(ds.Test, rand.New(rand.NewSource(62)))
	q, ok := s.Sample("1p")
	if !ok {
		t.Fatal("sampling 1p failed")
	}
	for i := 0; i < 4; i++ {
		res, err := rt.RankTopK(context.Background(), q, 5)
		if err != nil {
			t.Fatalf("gather %d: %v", i, err)
		}
		if !res.Partial {
			t.Fatalf("gather %d: not partial with node 0 dead", i)
		}
	}
	if rep0(rt, 0).breaker.State() == resil.Closed {
		t.Fatal("node 0's breaker still closed after repeated failures")
	}
	if rep0(rt, 0).st.breakerSkips.Value() == 0 {
		t.Fatal("no breaker skips recorded after the breaker opened")
	}
	if rep0(rt, 1).breaker.State() != resil.Closed || rep0(rt, 2).breaker.State() != resil.Closed {
		t.Fatal("a healthy node's breaker opened")
	}
}

// TestQuorumVersionRollout drives a staggered checkpoint rollout across
// three nodes with identically-seeded models: the router's served
// version must hold at the old version while a minority has reloaded,
// flip once a quorum reports the new version, and mark answers partial
// while the answering nodes disagree (mixed-version lists must never be
// cached).
func TestQuorumVersionRollout(t *testing.T) {
	ms := make([]*halk.Model, 3)
	var ds *kg.Dataset
	for i := range ms {
		ms[i], ds = testModel(61) // same seed: identical synthetic dataset and parameters
	}
	ents := ds.Train.NumEntities()
	nodes := make([]*testNode, 3)
	for i := range nodes {
		lo, hi := Partition(ents, 3, i)
		nodes[i] = startNode(t, ms[i], ds, lo, hi, nil)
	}
	rt := newTestRouter(t, ms[0], nodes, nil)

	v0 := ms[0].EntityVersion()
	if got := rt.SnapshotVersion(); got != v0 {
		t.Fatalf("initial served version = %d, want %d", got, v0)
	}

	bump := func(i int) {
		ms[i].MarkEntitiesUpdated()
		if err := nodes[i].ranker.Refresh(); err != nil {
			t.Fatalf("node %d refresh: %v", i, err)
		}
	}

	// Minority rollout: node 0 reloads. Served version must hold.
	bump(0)
	rt.CheckHealth(context.Background())
	if got := rt.SnapshotVersion(); got != v0 {
		t.Fatalf("served version flipped at 1/3 nodes: %d, want %d", got, v0)
	}

	// While versions are skewed, merged answers are partial — the
	// rollout analogue of the partial-never-cached invariant.
	s := query.NewSampler(ds.Test, rand.New(rand.NewSource(62)))
	q, ok := s.Sample("1p")
	if !ok {
		t.Fatal("sampling 1p failed")
	}
	res, err := rt.RankTopK(context.Background(), q, 5)
	if err != nil {
		t.Fatalf("RankTopK mid-rollout: %v", err)
	}
	if !res.Partial {
		t.Fatal("mixed-version answer not marked partial")
	}

	// Quorum: node 1 reloads too (2/3) — the served version flips.
	bump(1)
	rt.CheckHealth(context.Background())
	if got, want := rt.SnapshotVersion(), ms[0].EntityVersion(); got != want {
		t.Fatalf("served version after quorum = %d, want %d", got, want)
	}

	// Rollout completes; answers are whole again.
	bump(2)
	rt.CheckHealth(context.Background())
	res, err = rt.RankTopK(context.Background(), q, 5)
	if err != nil {
		t.Fatalf("RankTopK post-rollout: %v", err)
	}
	if res.Partial {
		t.Fatal("post-rollout answer still partial")
	}
	if res.Version != ms[0].EntityVersion() {
		t.Fatalf("post-rollout result version = %d, want %d", res.Version, ms[0].EntityVersion())
	}
}

// TestRouterClosedRefuses asserts the lifecycle contract: gathers
// issued after Close are refused with shard.ErrClosed, matching the
// engine the serve layer already maps to 503.
func TestRouterClosedRefuses(t *testing.T) {
	m, ds := testModel(61)
	nodes := startTopology(t, m, ds, 2, nil)
	rt := newTestRouter(t, m, nodes, nil)
	rt.Close()

	s := query.NewSampler(ds.Test, rand.New(rand.NewSource(62)))
	q, ok := s.Sample("1p")
	if !ok {
		t.Fatal("sampling 1p failed")
	}
	if _, err := rt.RankTopK(context.Background(), q, 5); err != shard.ErrClosed {
		t.Fatalf("RankTopK after Close: %v, want shard.ErrClosed", err)
	}
}
