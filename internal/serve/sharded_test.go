package serve

import (
	"context"
	"net/http"
	"testing"
	"time"

	"github.com/halk-kg/halk/internal/halk"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/obs"
	"github.com/halk-kg/halk/internal/query"
	"github.com/halk-kg/halk/internal/shard"
)

// TestStaleAnswersNotServedAfterEntityUpdate is the regression test for
// the cache-staleness bug: before version-namespaced cache keys, an
// entity update left old answer lists in the cache and identical
// follow-up queries were served embeddings-stale answers until an
// explicit FlushCache.
func TestStaleAnswersNotServedAfterEntityUpdate(t *testing.T) {
	_, m, ds, ts := newTestServer(t, nil)
	root := sampleQuery(t, ds, "1p", 9)
	req := QueryRequest{Structure: "1p", Seed: 9, K: 5}

	first, code := postQuery(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if first.Cached {
		t.Fatal("first query unexpectedly cached")
	}
	again, _ := postQuery(t, ts, req)
	if !again.Cached {
		t.Fatal("repeat query should hit the cache")
	}

	// Move the best answer's embedding far away — its distance, and
	// likely the ranking, change. No FlushCache call.
	moved := first.Answers[0].ID
	angles := append([]float64(nil), m.EntityAngles(moved)...)
	for j := range angles {
		angles[j] += 2.5
	}
	if err := m.SetEntityAnglesBatch([]halk.EntityUpdate{{E: moved, Angles: angles}}); err != nil {
		t.Fatalf("SetEntityAnglesBatch: %v", err)
	}

	fresh, code := postQuery(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if fresh.Cached {
		t.Fatal("query after entity update served a stale cached answer")
	}
	// The served answers must match a live ranking of the updated model.
	want := m.TopK(root, 5)
	for i := range want {
		if fresh.Answers[i].ID != want[i] {
			t.Fatalf("answer %d = %d, want %d (stale ranking?)", i, fresh.Answers[i].ID, want[i])
		}
	}
	// And the new result is cacheable under the new version.
	cached, _ := postQuery(t, ts, req)
	if !cached.Cached {
		t.Fatal("post-update repeat query should hit the cache under the new version")
	}
}

// TestShardedServingMatchesModel serves exact queries through a real
// ShardedRanker and checks the answers equal the model's own TopK, and
// that /v1/stats reports per-shard counters.
func TestShardedServingMatchesModel(t *testing.T) {
	_, m, ds, ts := newTestServer(t, func(cfg *Config) {
		r, err := cfg.Model.(*halk.Model).NewShardedRanker(shard.Options{Shards: 3})
		if err != nil {
			t.Fatalf("NewShardedRanker: %v", err)
		}
		cfg.Ranker = r
	})
	root := sampleQuery(t, ds, "2i", 7)

	qr, code := postQuery(t, ts, QueryRequest{Structure: "2i", Seed: 7, K: 12})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if qr.Partial {
		t.Fatal("unexpected partial response")
	}
	want := m.TopK(root, 12)
	if len(qr.Answers) != len(want) {
		t.Fatalf("got %d answers, want %d", len(qr.Answers), len(want))
	}
	dist := m.Distances(root)
	for i := range want {
		if qr.Answers[i].ID != want[i] {
			t.Fatalf("answer %d = %d, want %d", i, qr.Answers[i].ID, want[i])
		}
		if qr.Answers[i].Distance == nil || *qr.Answers[i].Distance != dist[want[i]] {
			t.Fatalf("answer %d distance mismatch", i)
		}
	}
	// Repeat is a cache hit even on the sharded path.
	again, _ := postQuery(t, ts, QueryRequest{Structure: "2i", Seed: 7, K: 12})
	if !again.Cached {
		t.Fatal("repeat sharded query should hit the cache")
	}

	stats := getStats(t, ts)
	if stats.NumShards != 3 {
		t.Fatalf("stats.NumShards = %d, want 3", stats.NumShards)
	}
	if len(stats.Shards) != 3 {
		t.Fatalf("stats.Shards has %d entries, want 3", len(stats.Shards))
	}
	var scans uint64
	for _, ss := range stats.Shards {
		scans += ss.Scans
	}
	if scans == 0 {
		t.Fatal("no shard scans recorded after a served query")
	}
}

// stubRanker scripts sharded results, letting the handler's
// partial-response behaviour be tested without timing dependence.
type stubRanker struct {
	results []*shard.Result
	calls   int
}

func (s *stubRanker) RankTopK(ctx context.Context, n *query.Node, k int) (*shard.Result, error) {
	if s.calls >= len(s.results) {
		t := s.results[len(s.results)-1]
		return t, nil
	}
	r := s.results[s.calls]
	s.calls++
	return r, nil
}

func (s *stubRanker) SnapshotVersion() uint64        { return 1 }
func (s *stubRanker) NumShards() int                 { return 2 }
func (s *stubRanker) ShardStats() []shard.ShardStats { return nil }

// TestPartialResponseNotCached asserts a degraded (partial) sharded
// response is surfaced with partial metadata and never stored in the
// answer cache: once the slow shard recovers, the full answer is
// recomputed rather than the degraded list being replayed.
func TestPartialResponseNotCached(t *testing.T) {
	d1, d2 := 0.25, 0.5
	partial := &shard.Result{
		IDs: []kg.EntityID{3}, Dists: []float64{d2},
		Partial: true, Answered: []int{0}, Skipped: []int{1}, Version: 1,
	}
	full := &shard.Result{
		IDs: []kg.EntityID{7, 3}, Dists: []float64{d1, d2},
		Answered: []int{0, 1}, Version: 1,
	}
	stub := &stubRanker{results: []*shard.Result{partial, full}}
	_, _, _, ts := newTestServer(t, func(cfg *Config) { cfg.Ranker = stub })

	req := QueryRequest{Structure: "1p", Seed: 11, K: 2}
	got, code := postQuery(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !got.Partial {
		t.Fatal("response not marked partial")
	}
	if len(got.ShardsAnswered) != 1 || got.ShardsAnswered[0] != 0 {
		t.Fatalf("ShardsAnswered = %v, want [0]", got.ShardsAnswered)
	}
	if got.Cached {
		t.Fatal("partial response claims to be cached")
	}
	if len(got.Answers) != 1 || got.Answers[0].ID != 3 {
		t.Fatalf("partial answers = %+v, want the single degraded answer", got.Answers)
	}

	// The shard recovered: the same query must be recomputed (the partial
	// list was not cached) and now returns the full ranking.
	got2, _ := postQuery(t, ts, req)
	if got2.Cached {
		t.Fatal("second query served from cache: the partial response was cached")
	}
	if got2.Partial || len(got2.Answers) != 2 || got2.Answers[0].ID != 7 {
		t.Fatalf("second response = %+v, want the full 2-answer ranking", got2)
	}

	// The full response is cacheable.
	got3, _ := postQuery(t, ts, req)
	if !got3.Cached {
		t.Fatal("third query should hit the cache with the full answer")
	}
	if got3.Partial || len(got3.Answers) != 2 {
		t.Fatalf("cached response = %+v, want the full ranking", got3)
	}
}

// TestDeadlinePartialEndToEnd drives the deadline/partial-result path
// through a real engine rather than a stub: shard 1 of 2 sleeps past its
// per-shard deadline on every scan, so each response must degrade to
// partial=true with shards_answered=[0], must never populate the answer
// cache, and the skip must land in the per-shard counters.
func TestDeadlinePartialEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	_, _, _, ts := newTestServer(t, func(cfg *Config) {
		cfg.Metrics = reg
		r, err := cfg.Model.(*halk.Model).NewShardedRanker(shard.Options{
			Shards:       2,
			ShardTimeout: 10 * time.Millisecond,
			Metrics:      reg,
			ScanHook: func(i int) error {
				if i == 1 {
					time.Sleep(100 * time.Millisecond)
				}
				return nil
			},
		})
		if err != nil {
			t.Fatalf("NewShardedRanker: %v", err)
		}
		cfg.Ranker = r
	})

	req := QueryRequest{Structure: "1p", Seed: 5, K: 6}
	for attempt := 1; attempt <= 2; attempt++ {
		qr, code := postQuery(t, ts, req)
		if code != http.StatusOK {
			t.Fatalf("attempt %d: status %d", attempt, code)
		}
		if !qr.Partial {
			t.Fatalf("attempt %d: response not marked partial", attempt)
		}
		if len(qr.ShardsAnswered) != 1 || qr.ShardsAnswered[0] != 0 {
			t.Fatalf("attempt %d: ShardsAnswered = %v, want [0]", attempt, qr.ShardsAnswered)
		}
		// Never a cache hit: partial answers must not be stored, so the
		// second identical query recomputes instead of replaying.
		if qr.Cached {
			t.Fatalf("attempt %d: partial response served from cache", attempt)
		}
		if len(qr.Answers) == 0 {
			t.Fatalf("attempt %d: partial response carried no answers from the live shard", attempt)
		}
	}

	stats := getStats(t, ts)
	if stats.Cache.Size != 0 {
		t.Fatalf("answer cache holds %d entries after partial-only traffic, want 0", stats.Cache.Size)
	}
	var skips uint64
	for _, ss := range stats.Shards {
		if ss.Shard == 1 {
			skips = ss.Skips
		}
	}
	if skips < 2 {
		t.Fatalf("shard 1 skips = %d, want >= 2", skips)
	}
}

// TestTiedDistancesRankInIDOrder: with the group penalty off (Xi = 0),
// entities that share one angle row score the same bits, and every
// exact ranker must order them by ID — Model.TopK, the default full-scan
// ranker and a one-shard engine return the same IDs at k = |E|.
func TestTiedDistancesRankInIDOrder(t *testing.T) {
	ds := kg.SynthFB237(67)
	cfg := halk.DefaultConfig(67)
	cfg.Dim, cfg.Hidden, cfg.NumGroups, cfg.Xi = 8, 16, 4, 0
	m := halk.New(ds.Train, cfg)
	n := ds.Train.NumEntities()
	row := append([]float64(nil), m.EntityAngles(0)...)
	var ups []halk.EntityUpdate
	for e := 0; e < n; e += 3 {
		ups = append(ups, halk.EntityUpdate{E: kg.EntityID(e), Angles: row})
	}
	if err := m.SetEntityAnglesBatch(ups); err != nil {
		t.Fatal(err)
	}
	r, err := m.NewShardedRanker(shard.Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, structure := range []string{"1p", "2i", "3p"} {
		root := sampleQuery(t, ds, structure, 5)
		want := m.TopK(root, n)
		for name, rk := range map[string]Ranker{"full scan": fullScan{m}, "one-shard engine": r} {
			res, err := rk.RankTopK(context.Background(), root, n)
			if err != nil {
				t.Fatalf("%s %s: %v", structure, name, err)
			}
			if len(res.IDs) != len(want) {
				t.Fatalf("%s %s: %d answers, want %d", structure, name, len(res.IDs), len(want))
			}
			for i := range want {
				if res.IDs[i] != want[i] {
					t.Fatalf("%s %s: answer %d = %d, Model.TopK has %d", structure, name, i, res.IDs[i], want[i])
				}
			}
		}
	}
}
