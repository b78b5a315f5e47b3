package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/halk-kg/halk/internal/halk"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/query"
	"github.com/halk-kg/halk/internal/resil"
	"github.com/halk-kg/halk/internal/shard"
)

func postBatch(t *testing.T, ts *httptest.Server, req batchRequest) (batchResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/batch: %v", err)
	}
	defer res.Body.Close()
	var br batchResponse
	if res.StatusCode == http.StatusOK {
		if err := json.NewDecoder(res.Body).Decode(&br); err != nil {
			t.Fatalf("decode batch response: %v", err)
		}
	}
	return br, res.StatusCode
}

// assertBatchSlotEqualsQuery checks one batch slot against the same
// query answered alone through /v1/query: same answers, same distances,
// bit for bit (both paths serialise float64 distances through the same
// JSON encoder, so string-equal JSON implies bit-equal values).
func assertBatchSlotEqualsQuery(t *testing.T, label string, slot batchResult, lone QueryResponse) {
	t.Helper()
	if slot.Canonical != lone.Canonical {
		t.Fatalf("%s: canonical %q, lone query %q", label, slot.Canonical, lone.Canonical)
	}
	if len(slot.Answers) != len(lone.Answers) {
		t.Fatalf("%s: %d answers, lone query %d", label, len(slot.Answers), len(lone.Answers))
	}
	for i := range lone.Answers {
		if slot.Answers[i].ID != lone.Answers[i].ID {
			t.Errorf("%s: answer %d = %d, lone query %d", label, i, slot.Answers[i].ID, lone.Answers[i].ID)
		}
		sd, ld := slot.Answers[i].Distance, lone.Answers[i].Distance
		switch {
		case (sd == nil) != (ld == nil):
			t.Errorf("%s: answer %d distance presence differs", label, i)
		case sd != nil && *sd != *ld:
			t.Errorf("%s: answer %d distance %v, lone query %v", label, i, *sd, *ld)
		}
	}
}

// TestBatchMatchesSingleQueries is the endpoint's identity contract on
// the batched sharded path: every slot of a /v1/batch answered through
// ShardedRanker.RankBatch must equal the same query through /v1/query.
func TestBatchMatchesSingleQueries(t *testing.T) {
	_, _, _, ts := newTestServer(t, func(cfg *Config) {
		r, err := cfg.Model.(*halk.Model).NewShardedRanker(shard.Options{Shards: 3})
		if err != nil {
			t.Fatalf("NewShardedRanker: %v", err)
		}
		cfg.Ranker = r
	})

	req := batchRequest{
		K: 7,
		Queries: []batchItem{
			{Structure: "1p", Seed: 3},
			{Structure: "2i", Seed: 5, K: 12}, // per-item k override
			{Structure: "pi", Seed: 9},
			{Structure: "2u", Seed: 4, K: 3},
		},
	}
	br, code := postBatch(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if br.Count != len(req.Queries) || len(br.Results) != len(req.Queries) {
		t.Fatalf("count=%d results=%d, want %d", br.Count, len(br.Results), len(req.Queries))
	}
	if br.CacheHits != 0 {
		t.Fatalf("first batch reported %d cache hits", br.CacheHits)
	}
	wantK := []int{7, 12, 7, 3}
	for i, it := range req.Queries {
		slot := br.Results[i]
		if slot.K != wantK[i] {
			t.Fatalf("slot %d: k=%d, want %d", i, slot.K, wantK[i])
		}
		if slot.Cached || slot.Partial {
			t.Fatalf("slot %d: cached=%v partial=%v on a fresh full batch", i, slot.Cached, slot.Partial)
		}
		// The lone query below hits the cache entry the batch created —
		// proof the two endpoints share one key namespace — and equals
		// the batch slot.
		lone, code := postQuery(t, ts, QueryRequest{Structure: it.Structure, Seed: it.Seed, K: wantK[i]})
		if code != http.StatusOK {
			t.Fatalf("lone query %d: status %d", i, code)
		}
		if !lone.Cached {
			t.Errorf("slot %d: lone /v1/query missed the cache entry the batch stored", i)
		}
		assertBatchSlotEqualsQuery(t, fmt.Sprintf("slot %d (%s)", i, it.Structure), slot, lone)
	}

	// A repeat of the same batch is answered entirely from the cache.
	again, code := postBatch(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("repeat status %d", code)
	}
	if again.CacheHits != len(req.Queries) {
		t.Fatalf("repeat batch: %d cache hits, want %d", again.CacheHits, len(req.Queries))
	}
	for i := range again.Results {
		if !again.Results[i].Cached {
			t.Errorf("repeat slot %d not served from cache", i)
		}
	}

	stats := getStats(t, ts)
	if stats.Endpoints["/v1/batch"].Requests < 2 {
		t.Errorf("stats saw %d /v1/batch requests, want >= 2", stats.Endpoints["/v1/batch"].Requests)
	}
}

// TestBatchFallbackWithoutBatchRanker serves /v1/batch with no Ranker
// at all: every miss ranks through the same single-query path
// /v1/query uses, and the answers still agree slot for slot.
func TestBatchFallbackWithoutBatchRanker(t *testing.T) {
	_, _, ds, ts := newTestServer(t, nil)

	items := []batchItem{
		{Query: dslFor(ds, 1, 4)},
		{Query: dslFor(ds, 3, 17), K: 9},
	}
	br, code := postBatch(t, ts, batchRequest{Queries: items, K: 5})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for i, it := range items {
		k := it.K
		if k == 0 {
			k = 5
		}
		lone, code := postQuery(t, ts, QueryRequest{Query: it.Query, K: k})
		if code != http.StatusOK {
			t.Fatalf("lone query %d: status %d", i, code)
		}
		assertBatchSlotEqualsQuery(t, fmt.Sprintf("fallback slot %d", i), br.Results[i], lone)
	}
}

// TestBatchMixedCacheHits pre-warms one query through /v1/query, then
// batches it with a cold one: the warm slot must come from the cache,
// the cold one from ranking.
func TestBatchMixedCacheHits(t *testing.T) {
	_, _, ds, ts := newTestServer(t, nil)

	warm := QueryRequest{Query: dslFor(ds, 2, 8), K: 6}
	if _, code := postQuery(t, ts, warm); code != http.StatusOK {
		t.Fatalf("warm query failed")
	}
	br, code := postBatch(t, ts, batchRequest{
		K: 6,
		Queries: []batchItem{
			{Query: warm.Query},
			{Query: dslFor(ds, 4, 21)},
		},
	})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !br.Results[0].Cached || br.Results[1].Cached {
		t.Fatalf("cached flags = %v, %v; want true, false", br.Results[0].Cached, br.Results[1].Cached)
	}
	if br.CacheHits != 1 {
		t.Fatalf("CacheHits = %d, want 1", br.CacheHits)
	}
}

// partialRanker is a BatchRanker stub whose every ranking is partial,
// to pin the per-slot partial semantics: partial slots carry their
// answered-shard list and are never cached.
type partialRanker struct{}

func (partialRanker) rank(k int) *shard.Result {
	ids := make([]kg.EntityID, k)
	dists := make([]float64, k)
	for i := range ids {
		ids[i] = kg.EntityID(i)
		dists[i] = float64(i)
	}
	return &shard.Result{IDs: ids, Dists: dists, Partial: true, Answered: []int{0}, Version: 1}
}

func (p partialRanker) RankTopK(_ context.Context, _ *query.Node, k int) (*shard.Result, error) {
	return p.rank(k), nil
}

func (p partialRanker) RankBatch(_ context.Context, roots []*query.Node, ks []int) ([]*shard.Result, error) {
	out := make([]*shard.Result, len(roots))
	for i := range roots {
		out[i] = p.rank(ks[i])
	}
	return out, nil
}

func (partialRanker) SnapshotVersion() uint64        { return 1 }
func (partialRanker) NumShards() int                 { return 2 }
func (partialRanker) ShardStats() []shard.ShardStats { return nil }

func TestBatchPartialSlotsNeverCached(t *testing.T) {
	_, _, ds, ts := newTestServer(t, func(cfg *Config) {
		cfg.Ranker = partialRanker{}
	})
	req := batchRequest{K: 4, Queries: []batchItem{{Query: dslFor(ds, 0, 2)}}}
	br, code := postBatch(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	slot := br.Results[0]
	if !slot.Partial || len(slot.ShardsAnswered) != 1 || slot.ShardsAnswered[0] != 0 {
		t.Fatalf("slot = %+v, want partial with shards_answered=[0]", slot)
	}
	if slot.Cached {
		t.Fatal("partial slot marked cached")
	}
	// A partial answer must not have been stored: the repeat still ranks.
	again, _ := postBatch(t, ts, req)
	if again.Results[0].Cached {
		t.Fatal("repeat of a partial slot was served from cache")
	}
}

// loneRanker hides its inner ranker's RankBatch, leaving a Ranker that
// is not a BatchRanker (the cluster router's shape).
type loneRanker struct{ Ranker }

// TestOnePipelineAcrossRankers pins that /v1/query is a batch of one:
// for every kind of ranker, the same query through /v1/query, a one-item
// /v1/batch and a three-item /v1/batch returns identical answers, the
// endpoints share one cache entry whichever ran first, a partial slot is
// never cached, and the cache-get / rank / cache-put fault seams fire
// exactly once per looked-up / ranked / stored query on both endpoints.
func TestOnePipelineAcrossRankers(t *testing.T) {
	sharded := func(t *testing.T, cfg *Config) Ranker {
		r, err := cfg.Model.(*halk.Model).NewShardedRanker(shard.Options{Shards: 2})
		if err != nil {
			t.Fatalf("NewShardedRanker: %v", err)
		}
		return r
	}
	cases := []struct {
		name    string
		ranker  func(*testing.T, *Config) Ranker
		partial bool
	}{
		{name: "full-scan default", ranker: func(*testing.T, *Config) Ranker { return nil }},
		{name: "sharded", ranker: sharded},
		{name: "partial stub", ranker: func(*testing.T, *Config) Ranker { return partialRanker{} }, partial: true},
		{name: "no RankBatch", ranker: func(t *testing.T, cfg *Config) Ranker { return loneRanker{sharded(t, cfg)} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inj := resil.NewInjector()
			// A zero-length delay is a no-op fault that Fired still counts.
			for _, stage := range []string{FaultStageCacheGet, FaultStageRank, FaultStageCachePut} {
				inj.Set(stage, 0, resil.Fault{Kind: resil.KindDelay})
			}
			srv, _, ds, ts := newTestServer(t, func(cfg *Config) {
				cfg.Faults = inj
				cfg.Ranker = tc.ranker(t, cfg)
			})
			const k = 5
			a, b, c := dslFor(ds, 1, 4), dslFor(ds, 3, 17), dslFor(ds, 2, 8)
			one := func(q string) QueryResponse {
				t.Helper()
				qr, code := postQuery(t, ts, QueryRequest{Query: q, K: k})
				if code != http.StatusOK {
					t.Fatalf("/v1/query: status %d", code)
				}
				return qr
			}
			batch := func(qs ...string) []batchResult {
				t.Helper()
				req := batchRequest{K: k}
				for _, q := range qs {
					req.Queries = append(req.Queries, batchItem{Query: q})
				}
				br, code := postBatch(t, ts, req)
				if code != http.StatusOK {
					t.Fatalf("/v1/batch: status %d", code)
				}
				return br.Results
			}
			// ranked asserts a slot came from ranking, not the cache.
			ranked := func(label string, cached, partial bool) {
				t.Helper()
				if cached || partial != tc.partial {
					t.Fatalf("%s: cached=%v partial=%v, want a ranked slot with partial=%v", label, cached, partial, tc.partial)
				}
			}
			// shared asserts a repeat hit the entry the other endpoint
			// stored — or, for a partial ranking, that nothing was stored.
			shared := func(label string, cached bool) {
				t.Helper()
				if cached == tc.partial {
					t.Fatalf("%s: cached=%v with partial=%v", label, cached, tc.partial)
				}
			}

			lone := one(a)
			ranked("query", lone.Cached, lone.Partial)
			shared("query after query", one(a).Cached)

			srv.FlushCache()
			b1 := batch(a)
			ranked("batch of one", b1[0].Cached, b1[0].Partial)
			assertBatchSlotEqualsQuery(t, "batch of one", b1[0], lone)
			shared("query after batch", one(a).Cached)

			srv.FlushCache()
			b3 := batch(a, b, c)
			for i := range b3 {
				ranked(fmt.Sprintf("batch of three slot %d", i), b3[i].Cached, b3[i].Partial)
			}
			assertBatchSlotEqualsQuery(t, "batch of three", b3[0], lone)
			shared("batch after batch", batch(a)[0].Cached)
			again := one(b)
			shared("query after batch of three", again.Cached)
			assertBatchSlotEqualsQuery(t, "batch of three slot 1", b3[1], again)

			// Nine queries were looked up. Without partials five of them
			// ranked (one + one + three) and were stored; a partial ranker
			// stores nothing, so all nine ranked.
			wantRank, wantPut := uint64(5), uint64(5)
			if tc.partial {
				wantRank, wantPut = 9, 0
			}
			for _, w := range []struct {
				stage string
				want  uint64
			}{{FaultStageCacheGet, 9}, {FaultStageRank, wantRank}, {FaultStageCachePut, wantPut}} {
				if got := inj.Fired(w.stage); got != w.want {
					t.Errorf("%s fired %d times, want %d", w.stage, got, w.want)
				}
			}
		})
	}
}

// TestBatchValidation covers the endpoint's error contract.
func TestBatchValidation(t *testing.T) {
	_, _, ds, ts := newTestServer(t, func(cfg *Config) { cfg.MaxBatch = 2 })

	if _, code := postBatch(t, ts, batchRequest{}); code != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", code)
	}
	over := batchRequest{Queries: []batchItem{
		{Query: dslFor(ds, 0, 1)}, {Query: dslFor(ds, 0, 2)}, {Query: dslFor(ds, 0, 3)},
	}}
	if _, code := postBatch(t, ts, over); code != http.StatusBadRequest {
		t.Errorf("over-limit batch: status %d, want 400", code)
	}
	bad := batchRequest{Queries: []batchItem{
		{Query: dslFor(ds, 0, 1)},
		{Query: "p[r?](nope)"}, // malformed item fails the whole batch
	}}
	if _, code := postBatch(t, ts, bad); code != http.StatusBadRequest {
		t.Errorf("malformed item: status %d, want 400", code)
	}
	res, err := http.Get(ts.URL + "/v1/batch")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", res.StatusCode)
	}
}
