package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/halk-kg/halk/internal/obs"
	"github.com/halk-kg/halk/internal/query"
	"github.com/halk-kg/halk/internal/shard"
)

// request is one ranking request moving through the pipeline /v1/query
// and /v1/batch share: the handlers decode their own body into
// batchResult slots, answer fills the slots, and finish encodes the
// handler's reply shape.
type request struct {
	s        *Server
	w        http.ResponseWriter
	r        *http.Request
	endpoint string
	// noun names the request ("query", "batch") in the deadline error and
	// the slow log.
	noun   string
	start  time.Time
	tr     *obs.Trace
	status int
}

func (s *Server) begin(w http.ResponseWriter, r *http.Request, endpoint, noun string) *request {
	return &request{s: s, w: w, r: r, endpoint: endpoint, noun: noun,
		start: time.Now(), tr: obs.NewTrace(), status: http.StatusOK}
}

// done records the request against its endpoint's counters; defer it.
func (q *request) done() {
	q.s.metrics.observe(q.endpoint, time.Since(q.start), q.status >= 400)
}

func (q *request) fail(code int, format string, args ...any) {
	q.status = code
	WriteJSON(q.w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// decode checks the method and reads the JSON body into v, opening the
// parse stage (which runs until answer is called, so it covers the
// handler's compile step too). On false the failure is already written.
func (q *request) decode(v any) bool {
	if q.r.Method != http.MethodPost {
		q.fail(http.StatusMethodNotAllowed, "POST required")
		return false
	}
	q.tr.Begin(obs.StageParse)
	if code, err := DecodeBody(q.w, q.r, maxBodyBytes, v); err != nil {
		q.fail(code, "%v", err)
		return false
	}
	return true
}

// answer fills every slot (the handler set root, Structure and the
// requested K): it resolves k, derives the version-namespaced cache key
// — one namespace for both endpoints, so a query answered through either
// warms the cache for both — probes the cache per slot, and ranks the
// misses as one unit of work under one limiter slot. It reports how
// many of the request's slots the cache covered; on false the failure
// response is already written.
func (q *request) answer(timeoutMS int, slots []batchResult) (hits int, ok bool) {
	s := q.s
	q.tr.Begin(obs.StageCanonicalize)
	// Keys are namespaced by the ranker's snapshot version: a publish
	// bumps it, so stale cached answers become unreachable, never served.
	version := s.cfg.Ranker.SnapshotVersion()
	for i := range slots {
		sl := &slots[i]
		if sl.K <= 0 {
			sl.K = s.cfg.DefaultK
		}
		if sl.K > s.cfg.MaxK {
			sl.K = s.cfg.MaxK
		}
		sl.Query = sl.root.String()
		sl.Canonical = query.CanonicalKey(sl.root)
		sl.key = fmt.Sprintf("v%d|%s|k=%d", version, sl.Canonical, sl.K)
	}

	q.tr.Begin(obs.StageCacheLookup)
	for i := range slots {
		sl := &slots[i]
		// An injected cache-get error degrades to a miss: the request is
		// answered by ranking, never failed by its cache.
		if err := s.cfg.Faults.Fire(FaultStageCacheGet, 0); err == nil {
			sl.Answers, sl.Cached = s.cache.Get(sl.key)
		}
		if sl.Cached {
			hits++
		}
	}
	q.tr.End()
	if hits == len(slots) {
		return hits, true
	}

	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(q.r.Context(), timeout)
	defer cancel()

	// The trace rides the context so the limiter (queue_wait) and the
	// ranking layers (sharded engine, full scan) annotate their own
	// stages onto it.
	ctx = obs.NewContext(ctx, q.tr)
	if err := s.lim.Do(ctx, func() error { return s.rankMisses(ctx, slots) }); err != nil {
		var shed *shedError
		var pe *PanicError
		switch {
		case errors.As(err, &shed):
			q.w.Header().Set("Retry-After", strconv.Itoa(int(shed.wait/time.Second)+1))
			q.fail(http.StatusTooManyRequests,
				"expected queue wait %v exceeds the request deadline; retry later", shed.wait.Round(time.Millisecond))
		case errors.As(err, &pe):
			// Recovered where it ran; this request is the only casualty.
			s.metrics.workerPanics.Inc()
			s.cfg.PanicLog.Printf("serve: recovered panic while ranking: %v\n%s", pe.Value, pe.Stack)
			q.fail(http.StatusInternalServerError, "internal error while ranking")
		case errors.Is(err, errClosed):
			q.fail(http.StatusServiceUnavailable, "server is draining")
		case errors.Is(err, shard.ErrAllShardsSkipped):
			q.fail(http.StatusGatewayTimeout, "every shard missed its deadline")
		case errors.Is(err, context.DeadlineExceeded):
			q.fail(http.StatusGatewayTimeout, "%s exceeded its %v deadline", q.noun, timeout)
		default:
			q.fail(http.StatusServiceUnavailable, "%v", err)
		}
		return hits, false
	}

	for i := range slots {
		sl := &slots[i]
		if sl.Cached || sl.Partial {
			// A partial ranking is a degraded answer, valid for this response
			// only: caching it would keep serving the degraded list even once
			// the slow shard recovers. Breaker-skipped shards and lost hedges
			// surface as Partial too, so results produced under an open
			// breaker are likewise never cached.
			continue
		}
		// An injected cache-put error skips the store; the response is
		// still served.
		if err := s.cfg.Faults.Fire(FaultStageCachePut, 0); err == nil {
			s.cache.Put(sl.key, sl.Answers)
		}
	}
	return hits, true
}

// rankMisses runs while the request holds its limiter slot and fills
// every request slot the cache did not cover: one query embedding plus
// one entity ranking each. More than one miss goes through a single
// RankBatch gather when the ranker batches (BatchRanker); otherwise each
// miss ranks alone through RankTopK, with identical results.
func (s *Server) rankMisses(ctx context.Context, slots []batchResult) error {
	var miss []*batchResult
	for i := range slots {
		if slots[i].Cached {
			continue
		}
		if err := s.cfg.Faults.Fire(FaultStageRank, 0); err != nil {
			return err
		}
		miss = append(miss, &slots[i])
	}
	// The ranker traces its own stages (rank_scan, or prepare/scatter/
	// merge) through the context; only the answer labelling is ours,
	// counted toward the encode stage.
	results := make([]*shard.Result, len(miss))
	if br, ok := s.cfg.Ranker.(BatchRanker); ok && len(miss) > 1 {
		roots := make([]*query.Node, len(miss))
		ks := make([]int, len(miss))
		for j, sl := range miss {
			roots[j], ks[j] = sl.root, sl.K
		}
		var err error
		if results, err = br.RankBatch(ctx, roots, ks); err != nil {
			return err
		}
	} else {
		for j, sl := range miss {
			var err error
			if results[j], err = s.cfg.Ranker.RankTopK(ctx, sl.root, sl.K); err != nil {
				return err
			}
		}
	}
	begin := time.Now()
	for j, sl := range miss {
		res := results[j]
		sl.Answers = make([]Answer, len(res.IDs))
		for i, e := range res.IDs {
			sl.Answers[i] = Answer{ID: e, Entity: s.cfg.Entities.Name(int32(e)), Distance: &res.Dists[i]}
		}
		if res.Partial {
			sl.Partial = true
			sl.ShardsAnswered = res.Answered
		}
	}
	obs.FromContext(ctx).Observe(obs.StageEncode, time.Since(begin))
	return nil
}

// reply is an endpoint's response shape, as finish needs it.
type reply interface {
	// stamp sets the elapsed time and, when the request asked for it,
	// the stage trace.
	stamp(elapsedMs float64, debug *debugInfo)
	// slowLine is the endpoint-specific part of the slow-log line.
	slowLine() string
}

// finish stamps the elapsed time (and, on ?debug=trace, the stage trace)
// onto resp, encodes it, folds the trace into the per-stage latency
// histograms, and emits the slow-log line when the request blew the
// threshold.
func (q *request) finish(resp reply) {
	elapsed := q.tr.TotalMs()
	var debug *debugInfo
	if q.r.URL.Query().Get("debug") == "trace" {
		debug = &debugInfo{Trace: q.tr.Stages(), TotalMs: elapsed}
	}
	resp.stamp(elapsed, debug)
	encStart := time.Now()
	WriteJSON(q.w, http.StatusOK, resp)
	q.tr.Observe(obs.StageEncode, time.Since(encStart))
	q.s.metrics.observeTrace(q.tr)
	if thr := q.s.cfg.SlowQuery; thr > 0 && elapsed >= float64(thr)/float64(time.Millisecond) {
		q.s.metrics.slow.Inc()
		q.s.cfg.SlowLog.Printf("serve: slow %s (%.1fms >= %v): %s trace: %s",
			q.noun, elapsed, thr, resp.slowLine(), q.tr)
	}
}
