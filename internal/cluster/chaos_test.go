package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/halk-kg/halk/internal/query"
	"github.com/halk-kg/halk/internal/resil"
	"github.com/halk-kg/halk/internal/serve"
	"github.com/halk-kg/halk/internal/shard"
)

// TestChaosMatrix drives the full fault matrix through a 3-node
// loopback topology: {node panic, node slow, node 500} × {one node,
// every node}. One faulty node must degrade the gather to a partial
// answer assembled from the survivors — with the faulty node's range
// absent and its failure counter moving — while every node faulty must
// fail the gather with the engine's all-shards-skipped sentinel (the
// serve layer maps it to 504 exactly as in single-process mode).
func TestChaosMatrix(t *testing.T) {
	const scanTimeout = 150 * time.Millisecond
	kinds := []struct {
		name  string
		fault resil.Fault
		// counter picks the router-side series the fault must move.
		counter func(st *replicaStat) uint64
	}{
		{"panic", resil.Fault{Kind: resil.KindPanic}, func(st *replicaStat) uint64 { return st.errors.Value() }},
		{"slow", resil.Fault{Kind: resil.KindDelay, Delay: 10 * scanTimeout}, func(st *replicaStat) uint64 { return st.timeouts.Value() }},
		{"500", resil.Fault{Kind: resil.KindError}, func(st *replicaStat) uint64 { return st.errors.Value() }},
	}
	for _, kind := range kinds {
		for _, allNodes := range []bool{false, true} {
			scope := "one-node"
			if allNodes {
				scope = "all-nodes"
			}
			t.Run(kind.name+"/"+scope, func(t *testing.T) {
				t.Parallel()
				m, ds := testModel(61)
				nodes := startTopology(t, m, ds, 3, nil)
				rt := newTestRouter(t, m, nodes, func(c *Config) {
					c.ScanTimeout = scanTimeout
				})
				faulty := []int{0}
				if allNodes {
					faulty = []int{0, 1, 2}
				}
				for _, i := range faulty {
					nodes[i].inj.Set(FaultStageScan, resil.AnyShard, kind.fault)
				}

				s := query.NewSampler(ds.Test, rand.New(rand.NewSource(62)))
				q, ok := s.Sample("2i")
				if !ok {
					t.Fatal("sampling 2i failed")
				}
				res, err := rt.RankTopK(context.Background(), q, 10)
				if allNodes {
					if !errors.Is(err, shard.ErrAllShardsSkipped) {
						t.Fatalf("all nodes faulty: err = %v, want shard.ErrAllShardsSkipped", err)
					}
					return
				}
				if err != nil {
					t.Fatalf("one node faulty: %v", err)
				}
				if !res.Partial {
					t.Fatal("one node faulty: result not partial")
				}
				if len(res.Answered) != 2 || len(res.Skipped) != 1 || res.Skipped[0] != 0 {
					t.Fatalf("Answered = %v, Skipped = %v; want node 0 skipped", res.Answered, res.Skipped)
				}
				lo, hi, _, _ := rep0(rt, 0).st.health()
				for _, id := range res.IDs {
					if int(id) >= lo && int(id) < hi {
						t.Fatalf("answer %d falls in the faulty node's range [%d, %d)", id, lo, hi)
					}
				}
				if kind.counter(rep0(rt, 0).st) == 0 {
					t.Fatalf("%s: faulty node's failure counter did not move", kind.name)
				}
				if kind.fault.Kind == resil.KindPanic {
					// The panic was recovered by the node's middleware — one
					// request died, the node survived and counted it.
					if got := nodes[0].node.panics.Value(); got == 0 {
						t.Fatal("node panic counter did not move")
					}
					if _, err := NewRemoteShard(nodes[0].addr(), nil).Health(context.Background()); err != nil {
						t.Fatalf("node did not survive its handler panic: %v", err)
					}
				}
			})
		}
	}
}

// TestRouterHedgeRecoversSlowScan asserts the hedging path end to end
// over HTTP: when a node's first scan wedges, the hedge launched after
// the hedge delay answers instead, and the gather completes whole — no
// partial, no timeout — with the hedge counters moving.
func TestRouterHedgeRecoversSlowScan(t *testing.T) {
	m, ds := testModel(61)
	nodes := startTopology(t, m, ds, 3, nil)
	rt := newTestRouter(t, m, nodes, func(c *Config) {
		c.ScanTimeout = 5 * time.Second
		c.HedgeDelay = 30 * time.Millisecond
	})
	// Exactly one wedged scan: the primary burns the fault, the hedge
	// runs clean.
	nodes[1].inj.Set(FaultStageScan, resil.AnyShard, resil.Fault{Kind: resil.KindDelay, Delay: 2 * time.Second, Count: 1})

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
		t.Fatal("hedged gather still partial")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("gather took %v; the hedge should have answered well before the wedged primary", elapsed)
	}
	if rep0(rt, 1).st.hedges.Value() == 0 {
		t.Fatal("no hedge recorded for the wedged node")
	}
}

// TestRouterHedgeAnswersWedgedProbe: a 1-replica range hedges its only
// node, and that hedge rides on the primary's breaker admission. With
// the breaker half-open, the gather's primary is its probe; when the
// probe wedges, the same-node hedge must still go out (a second Allow
// would be refused while the probe is in flight), answer, and close the
// breaker — the gather neither waits out the probe nor turns partial.
func TestRouterHedgeAnswersWedgedProbe(t *testing.T) {
	m, ds := testModel(61)
	nodes := startTopology(t, m, ds, 2, nil)
	rt := newTestRouter(t, m, nodes, func(c *Config) {
		c.ScanTimeout = 5 * time.Second
		c.HedgeDelay = 30 * time.Millisecond
		c.Breaker = &resil.BreakerConfig{ConsecutiveMisses: 1, OpenBase: time.Millisecond, OpenMax: time.Millisecond}
	})
	rep := rep0(rt, 1)
	rep.breaker.Allow()
	rep.breaker.Failure() // open; once the cool-down passes, the next Allow is the probe
	time.Sleep(10 * time.Millisecond)
	nodes[1].inj.Set(FaultStageScan, resil.AnyShard, resil.Fault{Kind: resil.KindDelay, Delay: 2 * time.Second, Count: 1})

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
		t.Fatal("gather partial behind a wedged probe")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("gather took %v; the same-node hedge should have answered well before the wedged probe", elapsed)
	}
	if rep.st.hedgeWins.Value() == 0 || rep.st.breakerSkips.Value() != 0 {
		t.Fatalf("hedge wins = %d, breaker skips = %d; want the hedge admitted and winning",
			rep.st.hedgeWins.Value(), rep.st.breakerSkips.Value())
	}
	if st := rep.breaker.State(); st != resil.Closed {
		t.Fatalf("breaker %v after the probe's hedge answered, want closed", st)
	}
}

// TestServePartialNeverCached wires the router into the serve stack and
// asserts the invariant extends across the network seam: answers
// assembled while a node is down are served partial and never enter the
// answer cache, so the degraded list disappears as soon as the node
// returns.
func TestServePartialNeverCached(t *testing.T) {
	m, ds := testModel(61)
	nodes := startTopology(t, m, ds, 3, nil)
	rt := newTestRouter(t, m, nodes, func(c *Config) {
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

	post := func() (partial, cached bool) {
		t.Helper()
		body, _ := json.Marshal(map[string]any{"structure": "2p", "seed": 5, "k": 8})
		res, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST /v1/query: %v", err)
		}
		defer res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/query: HTTP %d", res.StatusCode)
		}
		var qr struct {
			Partial bool `json:"partial"`
			Cached  bool `json:"cached"`
		}
		if err := json.NewDecoder(res.Body).Decode(&qr); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return qr.Partial, qr.Cached
	}

	// Healthy topology: the first answer fills the cache, the repeat
	// hits it.
	if partial, _ := post(); partial {
		t.Fatal("healthy topology answered partial")
	}
	if _, cached := post(); !cached {
		t.Fatal("repeat of a whole answer was not cached")
	}

	// Kill a node and ask a fresh query (different k dodges the cached
	// whole answer): every repetition must stay partial and uncached.
	nodes[2].ts.Close()
	postPartial := func() (partial, cached bool) {
		t.Helper()
		body, _ := json.Marshal(map[string]any{"structure": "2p", "seed": 5, "k": 9})
		res, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST /v1/query: %v", err)
		}
		defer res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/query: HTTP %d", res.StatusCode)
		}
		var qr struct {
			Partial bool `json:"partial"`
			Cached  bool `json:"cached"`
		}
		if err := json.NewDecoder(res.Body).Decode(&qr); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return qr.Partial, qr.Cached
	}
	for i := 0; i < 3; i++ {
		partial, cached := postPartial()
		if !partial {
			t.Fatalf("request %d with a node down: not partial", i)
		}
		if cached {
			t.Fatalf("request %d: partial answer was served from cache", i)
		}
	}
}
