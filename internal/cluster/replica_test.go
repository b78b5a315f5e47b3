package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/halk-kg/halk/internal/halk"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/obs"
	"github.com/halk-kg/halk/internal/query"
	"github.com/halk-kg/halk/internal/resil"
	"github.com/halk-kg/halk/internal/serve"
	"github.com/halk-kg/halk/internal/shard"
)

// startReplicatedTopology starts nReplicas loopback nodes per range,
// every replica of a range hosting the same [lo, hi) slice of the same
// model — the process layout of a replicated deployment.
func startReplicatedTopology(t *testing.T, m *halk.Model, ds *kg.Dataset, nRanges, nReplicas int, mutate func(*NodeConfig)) [][]*testNode {
	t.Helper()
	ents := ds.Train.NumEntities()
	nodes := make([][]*testNode, nRanges)
	for i := 0; i < nRanges; i++ {
		lo, hi := Partition(ents, nRanges, i)
		for j := 0; j < nReplicas; j++ {
			nodes[i] = append(nodes[i], startNode(t, m, ds, lo, hi, mutate))
		}
	}
	return nodes
}

func rangesOf(nodes [][]*testNode) [][]string {
	out := make([][]string, len(nodes))
	for i, reps := range nodes {
		for _, tn := range reps {
			out[i] = append(out[i], tn.addr())
		}
	}
	return out
}

func newReplicaRouter(t *testing.T, m *halk.Model, nodes [][]*testNode, mutate func(*Config)) *Router {
	t.Helper()
	cfg := Config{
		Ranges:  rangesOf(nodes),
		Embed:   m.EmbedQuery,
		Probe:   fixedProbe(m),
		Metrics: obs.NewRegistry(),
		Seed:    1,
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

// preferReplica seeds the EWMAs so plan() deterministically picks
// range ri's replica pi as primary (the seeded replica looks fast,
// its siblings slow) — the handle chaos tests use to aim a fault at
// the replica the router will actually try first.
func preferReplica(rt *Router, ri, pi int) {
	for j, rep := range rt.ranges[ri].list() {
		if j == pi {
			rep.st.record(0.01)
		} else {
			rep.st.record(1000)
		}
	}
}

// TestReplicaFailoverByteIdentity is the tentpole acceptance test: in a
// 2-replica 3-range topology with one replica per range faulty — and
// deliberately preferred as primary — every query must fail over to the
// sibling and return Partial=false answers byte-identical to a
// single-process 3-shard engine. One dead node per range costs a
// failover, never answer completeness.
func TestReplicaFailoverByteIdentity(t *testing.T) {
	const scanTimeout = 250 * time.Millisecond
	kinds := []struct {
		name  string
		fault *resil.Fault // nil = kill the listener outright
	}{
		{"kill", nil},
		{"panic", &resil.Fault{Kind: resil.KindPanic}},
		{"delay", &resil.Fault{Kind: resil.KindDelay, Delay: 10 * scanTimeout}},
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			m, ds := testModel(61)
			nodes := startReplicatedTopology(t, m, ds, 3, 2, nil)
			rt := newReplicaRouter(t, m, nodes, func(c *Config) {
				c.ScanTimeout = scanTimeout
			})
			for ri := range nodes {
				preferReplica(rt, ri, 0)
				if kind.fault != nil {
					nodes[ri][0].inj.Set(FaultStageScan, resil.AnyShard, *kind.fault)
				} else {
					nodes[ri][0].ts.Close()
				}
			}

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
					t.Fatalf("%s: partial answer despite a live sibling in every range", structure)
				}
				if len(got.IDs) != len(want.IDs) {
					t.Fatalf("%s: got %d answers, want %d", structure, len(got.IDs), len(want.IDs))
				}
				for i := range want.IDs {
					if got.IDs[i] != want.IDs[i] || math.Float64bits(got.Dists[i]) != math.Float64bits(want.Dists[i]) {
						t.Fatalf("%s: answer %d = (%d, %x), want (%d, %x)", structure, i,
							got.IDs[i], math.Float64bits(got.Dists[i]), want.IDs[i], math.Float64bits(want.Dists[i]))
					}
				}
			}
			var failovers uint64
			for _, rs := range rt.ranges {
				failovers += rs.failovers.Value()
			}
			if failovers == 0 {
				t.Fatal("no failovers recorded while every preferred primary was faulty")
			}
		})
	}
}

// TestReplicaAllReplicasDownPartial pins the degradation floor: with
// every replica of one range dead, the answer degrades to Partial=true
// with that range skipped — exactly the 1-replica contract — while the
// other ranges still answer.
func TestReplicaAllReplicasDownPartial(t *testing.T) {
	m, ds := testModel(61)
	nodes := startReplicatedTopology(t, m, ds, 3, 2, nil)
	rt := newReplicaRouter(t, m, nodes, func(c *Config) {
		c.ScanTimeout = 2 * time.Second
	})
	deadLo, deadHi, _, _ := rt.ranges[1].list()[0].st.health()
	if deadHi <= deadLo {
		t.Fatal("health sweep did not record range 1")
	}
	nodes[1][0].ts.Close()
	nodes[1][1].ts.Close()

	s := query.NewSampler(ds.Test, rand.New(rand.NewSource(62)))
	q, ok := s.Sample("2i")
	if !ok {
		t.Fatal("sampling 2i failed")
	}
	res, err := rt.RankTopK(context.Background(), q, 10)
	if err != nil {
		t.Fatalf("RankTopK with a whole replica set down: %v", err)
	}
	if !res.Partial {
		t.Fatal("result not partial with every replica of range 1 dead")
	}
	if len(res.Skipped) != 1 || res.Skipped[0] != 1 {
		t.Fatalf("Skipped = %v, want [1]", res.Skipped)
	}
	for _, id := range res.IDs {
		if int(id) >= deadLo && int(id) < deadHi {
			t.Fatalf("answer %d falls in the dead range [%d, %d)", id, deadLo, deadHi)
		}
	}
	if rt.ranges[1].failovers.Value() == 0 {
		t.Fatal("no failover recorded before the set was exhausted")
	}
}

// TestReplicaBreakerSiblingServes asserts the breaker composes with
// failover: repeated failures open the dead replica's breaker, later
// gathers skip it up front and go straight to the sibling, and the
// answers stay whole throughout — the breaker never opens on the
// healthy sibling.
func TestReplicaBreakerSiblingServes(t *testing.T) {
	m, ds := testModel(61)
	nodes := startReplicatedTopology(t, m, ds, 2, 2, nil)
	rt := newReplicaRouter(t, m, nodes, func(c *Config) {
		c.ScanTimeout = 2 * time.Second
		c.Breaker = &resil.BreakerConfig{
			Window:            8,
			ConsecutiveMisses: 2,
			OpenBase:          time.Minute, // stays open for the whole test
			OpenMax:           time.Minute,
			Seed:              1,
		}
	})
	preferReplica(rt, 0, 0)
	nodes[0][0].ts.Close()

	s := query.NewSampler(ds.Test, rand.New(rand.NewSource(62)))
	q, ok := s.Sample("1p")
	if !ok {
		t.Fatal("sampling 1p failed")
	}
	for i := 0; i < 5; i++ {
		res, err := rt.RankTopK(context.Background(), q, 5)
		if err != nil {
			t.Fatalf("gather %d: %v", i, err)
		}
		if res.Partial {
			t.Fatalf("gather %d: partial despite a live sibling", i)
		}
	}
	dead, sibling := rt.ranges[0].list()[0], rt.ranges[0].list()[1]
	if dead.breaker.State() == resil.Closed {
		t.Fatal("dead replica's breaker still closed after repeated failures")
	}
	if dead.st.breakerSkips.Value() == 0 {
		t.Fatal("no breaker skips recorded after the breaker opened")
	}
	if sibling.breaker.State() != resil.Closed {
		t.Fatal("healthy sibling's breaker opened")
	}
	if rt.ranges[0].failovers.Value() == 0 {
		t.Fatal("no failovers recorded for the dead primary")
	}
}

// TestReplicaHedgeGoesToSibling asserts the hedging upgrade: in a
// replica set the hedge is issued to a *different* replica, so a wedged
// node cannot wedge its own hedge. The wedged primary's hedge counter
// must stay zero while the sibling records both the hedge and the win.
func TestReplicaHedgeGoesToSibling(t *testing.T) {
	m, ds := testModel(61)
	nodes := startReplicatedTopology(t, m, ds, 2, 2, nil)
	rt := newReplicaRouter(t, m, nodes, func(c *Config) {
		c.ScanTimeout = 5 * time.Second
		c.HedgeDelay = 30 * time.Millisecond
	})
	preferReplica(rt, 0, 0)
	// Wedge every scan on the preferred primary: only the sibling can
	// answer range 0, and only via the hedge (the primary never fails
	// fast, so failover never fires).
	nodes[0][0].inj.Set(FaultStageScan, resil.AnyShard, resil.Fault{Kind: resil.KindDelay, Delay: 2 * time.Second})

	s := query.NewSampler(ds.Test, rand.New(rand.NewSource(62)))
	q, ok := s.Sample("1p")
	if !ok {
		t.Fatal("sampling 1p failed")
	}
	start := time.Now()
	res, err := rt.RankTopK(context.Background(), q, 10)
	if err != nil {
		t.Fatalf("RankTopK: %v", err)
	}
	if res.Partial {
		t.Fatal("hedged gather partial")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("gather took %v; the sibling hedge should have answered well before the wedged primary", elapsed)
	}
	primary, sibling := rt.ranges[0].list()[0], rt.ranges[0].list()[1]
	if sibling.st.hedges.Value() == 0 || sibling.st.hedgeWins.Value() == 0 {
		t.Fatalf("sibling hedges = %d, wins = %d; want both > 0",
			sibling.st.hedges.Value(), sibling.st.hedgeWins.Value())
	}
	if primary.st.hedges.Value() != 0 {
		t.Fatal("hedge was issued back to the wedged primary")
	}
}

// TestReplicaMixedVersionRollout drives a staggered checkpoint rollout
// where one replica per range lags: the served version flips as soon as
// every range has a replica on the new version (range quorum), gathers
// pin to version-consistent replicas, and the answers stay whole —
// Partial=false — through every stage. A mixed-version merge must never
// happen silently.
func TestReplicaMixedVersionRollout(t *testing.T) {
	const nRanges, nReplicas = 3, 2
	// Distinct identically-seeded models per replica so entity versions
	// bump independently, as across real processes.
	ms := make([][]*halk.Model, nRanges)
	var ds *kg.Dataset
	nodes := make([][]*testNode, nRanges)
	for i := 0; i < nRanges; i++ {
		ms[i] = make([]*halk.Model, nReplicas)
		for j := 0; j < nReplicas; j++ {
			ms[i][j], ds = testModel(61)
		}
	}
	ents := ds.Train.NumEntities()
	for i := 0; i < nRanges; i++ {
		lo, hi := Partition(ents, nRanges, i)
		for j := 0; j < nReplicas; j++ {
			nodes[i] = append(nodes[i], startNode(t, ms[i][j], ds, lo, hi, nil))
		}
	}
	rt := newReplicaRouter(t, ms[0][0], nodes, nil)

	v0 := ms[0][0].EntityVersion()
	if got := rt.SnapshotVersion(); got != v0 {
		t.Fatalf("initial served version = %d, want %d", got, v0)
	}
	whole := func(stage string) *shard.Result {
		t.Helper()
		s := query.NewSampler(ds.Test, rand.New(rand.NewSource(62)))
		q, ok := s.Sample("2p")
		if !ok {
			t.Fatal("sampling 2p failed")
		}
		res, err := rt.RankTopK(context.Background(), q, 8)
		if err != nil {
			t.Fatalf("%s: RankTopK: %v", stage, err)
		}
		if res.Partial {
			t.Fatalf("%s: answer partial — a gather mixed entity versions or lost a range", stage)
		}
		return res
	}
	bump := func(i, j int) {
		ms[i][j].MarkEntitiesUpdated()
		if err := nodes[i][j].ranker.Refresh(); err != nil {
			t.Fatalf("replica (%d,%d) refresh: %v", i, j, err)
		}
	}

	// Stage 1: replica 1 of range 0 upgrades. No quorum (ranges 1 and 2
	// have no upgraded replica): the served version holds and gathers
	// pin to the v0 replicas.
	bump(0, 1)
	rt.CheckHealth(context.Background())
	if got := rt.SnapshotVersion(); got != v0 {
		t.Fatalf("served version flipped with 1/3 ranges upgraded: %d, want %d", got, v0)
	}
	if res := whole("one range upgraded"); res.Version != v0 {
		t.Fatalf("mid-rollout result version = %d, want %d", res.Version, v0)
	}

	// Stage 2: one replica per range is on the new version, its sibling
	// lags. Every range is quorum-ready, so the served version flips and
	// gathers pin to the upgraded replicas — whole answers on the new
	// version while half the fleet still runs the old one.
	bump(1, 1)
	bump(2, 1)
	rt.CheckHealth(context.Background())
	v1 := ms[0][1].EntityVersion()
	if got := rt.SnapshotVersion(); got != v1 {
		t.Fatalf("served version after range quorum = %d, want %d", got, v1)
	}
	if res := whole("one replica per range lagging"); res.Version != v1 {
		t.Fatalf("post-flip result version = %d, want %d", res.Version, v1)
	}
	for ri := 0; ri < nRanges; ri++ {
		if p := rt.ranges[ri].primary.Load(); p != rt.ranges[ri].list()[1] {
			t.Fatalf("range %d primary = %v; gathers must pin to the v%d replica", ri, p, v1)
		}
	}

	// Stage 3: the laggards catch up; nothing changes for clients.
	bump(0, 0)
	bump(1, 0)
	bump(2, 0)
	rt.CheckHealth(context.Background())
	if res := whole("rollout complete"); res.Version != v1 {
		t.Fatalf("post-rollout result version = %d, want %d", res.Version, v1)
	}
}

// TestReplicaMergeRefusesVersionSkew pins the invariant directly on the
// merge: local lists from two entity versions must never fold into a
// clean answer — the result is flagged Partial (and therefore never
// cached), whatever pinning failed to prevent it.
func TestReplicaMergeRefusesVersionSkew(t *testing.T) {
	m, ds := testModel(61)
	nodes := startReplicatedTopology(t, m, ds, 2, 1, nil)
	rt := newReplicaRouter(t, m, nodes, nil)
	locals := []remoteLocal{
		{ids: []kg.EntityID{1}, d: []float64{0.1}, version: 7},
		{ids: []kg.EntityID{2}, d: []float64{0.2}, version: 8},
	}
	res, err := rt.merge(locals, 2)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if !res.Partial {
		t.Fatal("mixed-version merge not marked partial")
	}
}

// TestReplicaServeCacheWithReplicaKilled is the acceptance check across
// the serve stack: with one replica killed in every range, /v1/query
// and /v1/batch answer Partial=false, the answers enter the cache, and
// /v1/stats exposes the replica topology with the failovers that kept
// the answers whole.
func TestReplicaServeCacheWithReplicaKilled(t *testing.T) {
	m, ds := testModel(61)
	nodes := startReplicatedTopology(t, m, ds, 3, 2, nil)
	rt := newReplicaRouter(t, m, nodes, func(c *Config) {
		c.ScanTimeout = 2 * time.Second
	})
	srv, err := serve.New(serve.Config{
		Model:     m,
		Entities:  ds.Train.Entities,
		Relations: ds.Train.Relations,
		Graph:     ds.Test,
		Ranker:    rt,
	})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	for ri := range nodes {
		preferReplica(rt, ri, 0)
		nodes[ri][0].ts.Close()
	}

	post := func(path string, body map[string]any) map[string]any {
		t.Helper()
		b, _ := json.Marshal(body)
		res, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: HTTP %d", path, res.StatusCode)
		}
		var out map[string]any
		if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
		return out
	}

	// /v1/query: whole despite the dead primaries, then served from
	// cache — the exact opposite of the 1-replica contract, where a dead
	// node means partial-and-never-cached.
	q := map[string]any{"structure": "2p", "seed": 5, "k": 8}
	if out := post("/v1/query", q); out["partial"] == true {
		t.Fatal("/v1/query partial with a live sibling in every range")
	}
	if out := post("/v1/query", q); out["cached"] != true {
		t.Fatal("whole answer over a degraded topology was not cached")
	}

	// /v1/batch: same contract per slot.
	batch := map[string]any{"queries": []map[string]any{{"structure": "2i", "seed": 7}, {"structure": "1p", "seed": 9}}, "k": 6}
	out := post("/v1/batch", batch)
	for i, r := range out["results"].([]any) {
		if r.(map[string]any)["partial"] == true {
			t.Fatalf("batch slot %d partial with a live sibling in every range", i)
		}
	}
	out = post("/v1/batch", batch)
	for i, r := range out["results"].([]any) {
		if r.(map[string]any)["cached"] != true {
			t.Fatalf("batch slot %d not cached on repeat", i)
		}
	}

	// /v1/stats: the ranges block reports the topology and the failovers
	// that kept the answers whole.
	res, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	defer res.Body.Close()
	var stats struct {
		Ranges []serve.RangeReplicaStats `json:"ranges"`
	}
	if err := json.NewDecoder(res.Body).Decode(&stats); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if len(stats.Ranges) != 3 {
		t.Fatalf("stats report %d ranges, want 3", len(stats.Ranges))
	}
	var failovers uint64
	for _, rr := range stats.Ranges {
		if len(rr.Replicas) != 2 {
			t.Fatalf("range %d reports %d replicas, want 2", rr.Range, len(rr.Replicas))
		}
		failovers += rr.Failovers
	}
	if failovers == 0 {
		t.Fatal("stats report no failovers despite dead primaries")
	}
}

// TestRouterCloseDrainsReplicaScans is the leak regression test for the
// replica path: gathers that already returned to the caller — answered
// by a failover or a hedge while a wedged attempt still sleeps — must
// not leak their attempt goroutines past Close.
func TestRouterCloseDrainsReplicaScans(t *testing.T) {
	m, ds := testModel(61)
	nodes := startReplicatedTopology(t, m, ds, 2, 2, nil)
	rt := newReplicaRouter(t, m, nodes, func(c *Config) {
		c.ScanTimeout = 5 * time.Second
		c.HedgeDelay = 10 * time.Millisecond
	})
	s := query.NewSampler(ds.Test, rand.New(rand.NewSource(62)))

	// Baseline after a clean warm-up gather, so the topology's own
	// steady-state goroutines — httptest accept loops, keep-alive
	// connections — are not mistaken for leaks.
	if q, ok := s.Sample("1p"); !ok {
		t.Fatal("sampling 1p failed")
	} else if _, err := rt.RankTopK(context.Background(), q, 5); err != nil {
		t.Fatalf("warm-up gather: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	// Both preferred primaries wedge for 400ms: each range answers via
	// its sibling's hedge while the primary attempt is still in flight.
	for ri := range nodes {
		preferReplica(rt, ri, 0)
		nodes[ri][0].inj.Set(FaultStageScan, resil.AnyShard, resil.Fault{Kind: resil.KindDelay, Delay: 400 * time.Millisecond})
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		q, ok := s.Sample("1p")
		if !ok {
			t.Fatal("sampling 1p failed")
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := rt.RankTopK(context.Background(), q, 5)
			if err != nil || res.Partial {
				t.Errorf("hedged gather: err = %v, partial = %v", err, res != nil && res.Partial)
			}
		}()
	}
	wg.Wait()

	closeStart := time.Now()
	rt.Close()
	waited := time.Since(closeStart)
	// The gathers answered via hedges long before the wedged primaries'
	// 400ms sleeps finished; a Close that truly awaits stragglers must
	// have blocked for a noticeable part of the remainder.
	if waited > 2*time.Second {
		t.Fatalf("Close blocked %v; stragglers should clear within their scan sleep", waited)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline+3 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines after Close: %d, baseline %d — replica scans leaked", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestParseTopology pins the flag and file formats, including the
// pre-replica 1-address forms that must parse unchanged.
func TestParseTopology(t *testing.T) {
	for _, tc := range []struct {
		name string
		list string
		want [][]string
	}{
		{"legacy-flat", "a:1,b:1,c:1", [][]string{{"a:1"}, {"b:1"}, {"c:1"}}},
		{"replicated", "a:1|b:1,a:2|b:2", [][]string{{"a:1", "b:1"}, {"a:2", "b:2"}}},
		{"ragged", "a:1|b:1|c:1,a:2", [][]string{{"a:1", "b:1", "c:1"}, {"a:2"}}},
	} {
		got, err := ParseTopology(tc.list, "")
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(got) != len(tc.want) {
			t.Fatalf("%s: %d ranges, want %d", tc.name, len(got), len(tc.want))
		}
		for i := range tc.want {
			if len(got[i]) != len(tc.want[i]) {
				t.Fatalf("%s: range %d = %v, want %v", tc.name, i, got[i], tc.want[i])
			}
			for j := range tc.want[i] {
				if got[i][j] != tc.want[i][j] {
					t.Fatalf("%s: range %d = %v, want %v", tc.name, i, got[i], tc.want[i])
				}
			}
		}
	}

	if _, err := ParseTopology("a:1", "somefile"); err == nil {
		t.Fatal("list+file accepted; want mutual-exclusion error")
	}
	if got, err := ParseTopology("", ""); got != nil || err != nil {
		t.Fatalf("empty config = (%v, %v), want (nil, nil)", got, err)
	}
	if _, err := ParseTopology(",,", ""); err == nil {
		t.Fatal("empty topology accepted")
	}

	dir := t.TempDir()
	file := dir + "/cluster.txt"
	content := "# range 0\na:1 b:1\n\n# range 1\na:2|b:2\nc:3  # trailing comment\n"
	if err := os.WriteFile(file, []byte(content), 0o644); err != nil {
		t.Fatalf("write cluster file: %v", err)
	}
	got, err := ParseTopology("", file)
	if err != nil {
		t.Fatalf("ParseTopology(file): %v", err)
	}
	want := [][]string{{"a:1", "b:1"}, {"a:2", "b:2"}, {"c:3"}}
	if len(got) != len(want) {
		t.Fatalf("file topology = %v, want %v", got, want)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("file range %d = %v, want %v", i, got[i], want[i])
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("file range %d = %v, want %v", i, got[i], want[i])
			}
		}
	}
}
