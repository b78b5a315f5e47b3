package serve

import (
	"context"
	"fmt"
	"net/http"

	"github.com/halk-kg/halk/internal/query"
	"github.com/halk-kg/halk/internal/shard"
)

// BatchRanker is the optional batched extension of Ranker: when
// Config.Ranker implements it, a request with more than one
// cache-missing query ranks them through one RankBatch call, so every
// shard sweeps its entity blocks once for the whole batch instead of
// once per query. halk.ShardedRanker implements it; rankers that do not
// (the default full scan; the cluster router, whose backends are
// remote) are served by a per-query RankTopK loop with identical
// results.
type BatchRanker interface {
	Ranker
	// RankBatch ranks roots[i] at ks[i] for every i in one shard
	// gather. Each returned Result must be bit-identical to
	// RankTopK(ctx, roots[i], ks[i]) on the same snapshot.
	RankBatch(ctx context.Context, roots []*query.Node, ks []int) ([]*shard.Result, error)
}

// batchItem is one query of a POST /v1/batch request. Exactly one of
// SPARQL, Query or Structure must be set, as in /v1/query.
type batchItem struct {
	SPARQL    string `json:"sparql,omitempty"`
	Query     string `json:"query,omitempty"`
	Structure string `json:"structure,omitempty"`
	// Seed drives structure sampling; defaults to 1.
	Seed int64 `json:"seed,omitempty"`
	// K overrides the batch-level k for this query only.
	K int `json:"k,omitempty"`
}

// batchRequest is the POST /v1/batch body. The batch always ranks in
// exact mode — batching is a property of the blocked exact-scan kernel;
// approx queries gain nothing from it and go through /v1/query.
type batchRequest struct {
	Queries []batchItem `json:"queries"`
	// K is the answer count for items that set no k of their own;
	// defaults to the server's DefaultK, capped at MaxK.
	K int `json:"k,omitempty"`
	// TimeoutMS bounds the whole batch end to end (queue wait + ranking);
	// defaults to the server's DefaultTimeout.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// batchResult is one query's slot in the request pipeline (see
// request.answer) and, through its exported fields, in the POST
// /v1/batch reply, in request order. Partial-result semantics are per
// query: a shard deadline miss degrades only the queries ranked in that
// gather, and a partial slot is never cached.
type batchResult struct {
	Query          string   `json:"query"`
	Canonical      string   `json:"canonical"`
	Structure      string   `json:"structure,omitempty"`
	K              int      `json:"k"`
	Cached         bool     `json:"cached"`
	Partial        bool     `json:"partial,omitempty"`
	ShardsAnswered []int    `json:"shards_answered,omitempty"`
	Answers        []Answer `json:"answers"`

	root *query.Node
	key  string // answer-cache key
}

// batchResponse is the POST /v1/batch reply.
type batchResponse struct {
	Count     int           `json:"count"`
	CacheHits int           `json:"cache_hits"`
	ElapsedMs float64       `json:"elapsed_ms"`
	Results   []batchResult `json:"results"`
	Debug     *debugInfo    `json:"debug,omitempty"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	q := s.begin(w, r, "/v1/batch", "batch")
	defer q.done()
	var req batchRequest
	if !q.decode(&req) {
		return
	}
	if len(req.Queries) == 0 {
		q.fail(http.StatusBadRequest, "\"queries\" must list at least one query")
		return
	}
	if len(req.Queries) > s.cfg.MaxBatch {
		q.fail(http.StatusBadRequest, "batch of %d queries exceeds the %d-query limit", len(req.Queries), s.cfg.MaxBatch)
		return
	}

	// Compile every item up front: one malformed query fails the whole
	// batch before any ranking work is spent, so a 200 always carries a
	// slot for every requested query.
	slots := make([]batchResult, len(req.Queries))
	for i, it := range req.Queries {
		root, err := Compile(QueryForm{SPARQL: it.SPARQL, Query: it.Query, Structure: it.Structure, Seed: it.Seed},
			s.cfg.Entities, s.cfg.Relations, s.cfg.Graph)
		if err != nil {
			q.fail(http.StatusBadRequest, "queries[%d]: %v", i, err)
			return
		}
		k := it.K
		if k <= 0 {
			k = req.K
		}
		slots[i] = batchResult{root: root, Structure: it.Structure, K: k}
	}

	hits, ok := q.answer("exact", req.TimeoutMS, slots)
	s.metrics.observeBatch(len(slots), hits)
	if !ok {
		return
	}
	q.finish(&batchResponse{Count: len(slots), CacheHits: hits, Results: slots})
}

func (resp *batchResponse) stamp(elapsedMs float64, debug *debugInfo) {
	resp.ElapsedMs, resp.Debug = elapsedMs, debug
}

func (resp *batchResponse) slowLine() string {
	return fmt.Sprintf("%d queries, %d cached,", resp.Count, resp.CacheHits)
}
