// Package serve implements the online query-serving subsystem: a
// long-lived Server that owns a trained embedding model and answers
// logical queries over HTTP/JSON. This is the paper's online
// answer-identification phase (Sec. III-H) run as a service — the
// checkpoint is loaded once, the entity trig tables stay warm, and each
// request costs one query embedding plus one exact ranking of every
// entity.
//
// /v1/query and /v1/batch are one pipeline (request.answer): resolve k →
// version-namespaced cache key → cache probe → one limiter slot, ranking
// the misses through Config.Ranker on the request's own goroutine →
// partial answers never cached → trace fold and slow log. A /v1/query is
// a batch of one; the handlers only decode and encode their own shapes.
//
// The Server composes:
//
//   - a slot limiter sized to GOMAXPROCS, so concurrent requests share
//     the ranking hot loop without ranking more at once than there are
//     cores, behind an optional deadline-aware admission gate;
//   - one exact Ranker: Config.Ranker, or by default a full scan over
//     Config.Model behind the same interface;
//   - an LRU answer cache keyed by query.CanonicalKey, so logically
//     equivalent phrasings (i(a,b) vs i(b,a)) share one entry;
//   - per-endpoint request counters and latency quantiles at /v1/stats;
//   - per-request deadlines through context.Context.
package serve

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/halk-kg/halk/internal/ckpt"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/obs"
	"github.com/halk-kg/halk/internal/query"
	"github.com/halk-kg/halk/internal/resil"
	"github.com/halk-kg/halk/internal/shard"
)

// Ranker is the exact ranking interface every "exact" request is served
// through. halk.ShardedRanker implements it by scatter-gather — each
// shard scans concurrently under its own deadline, and a missed shard
// degrades the response to a partial result instead of failing the
// request — cluster.Router by remote scatter-gather, and the default
// (Config.Ranker nil) by a single-threaded full scan over Config.Model.
type Ranker interface {
	// RankTopK ranks the k best answers; Result carries exact distances,
	// the snapshot version answered from, and partial-result metadata.
	RankTopK(ctx context.Context, n *query.Node, k int) (*shard.Result, error)
	// SnapshotVersion is the entity version of the published snapshot;
	// the answer cache namespaces its keys by it.
	SnapshotVersion() uint64
	// NumShards reports the scatter width (exported at /v1/healthz and
	// /v1/stats); 0 means an unsharded full scan.
	NumShards() int
	// ShardStats reports per-shard scan counters (exported at /v1/stats).
	ShardStats() []shard.ShardStats
}

// Model is what the Server asks of the served model; *halk.Model
// implements it.
type Model interface {
	// Name labels /v1/healthz and /v1/stats.
	Name() string
	// DistancesContext scores every entity against n for the default
	// full scan, aborting with the context's error once it is done.
	DistancesContext(ctx context.Context, n *query.Node) ([]float64, error)
	// EntityVersion is the entity-table version the default full scan
	// answers from. An embedding update (halk.Model.SetEntityAnglesBatch)
	// moves it, so the answer cache, which namespaces keys by it, never
	// serves an answer computed from the old table.
	EntityVersion() uint64
}

// Config assembles a Server.
type Config struct {
	// Model names the served model and, when Ranker is nil, answers
	// "exact" requests by a full scan through DistancesContext, so the
	// request deadline bounds the scan too. Required.
	Model Model
	// Entities and Relations resolve names in SPARQL / DSL requests and
	// label answers. Required.
	Entities  *kg.Dict
	Relations *kg.Dict
	// Graph, when set, enables the "structure" request mode: a query of
	// the named benchmark structure is sampled from this graph
	// (typically the test split).
	Graph *kg.Graph
	// Ranker serves "exact" requests. Nil means a full scan over Model
	// behind the same interface; a sharded ranker returns results
	// identical to that scan on the same snapshot, and may mark responses
	// partial when shards miss their deadline.
	Ranker Ranker
	// Workers bounds ranking concurrency; 0 means GOMAXPROCS.
	Workers int
	// CacheSize is the LRU answer-cache capacity in entries; 0 means
	// DefaultCacheSize, negative disables caching.
	CacheSize int
	// DefaultK is the answer count when a request omits k; 0 means 10.
	DefaultK int
	// MaxK caps per-request k; 0 means 1000.
	MaxK int
	// DefaultTimeout bounds a request that names no timeout_ms; 0 means
	// 10s.
	DefaultTimeout time.Duration
	// Metrics is the obs registry all serving counters register on,
	// exposed in Prometheus text format at /metrics. Pass the process
	// registry to aggregate with other subsystems (the shard engine's
	// per-shard counters, training metrics); nil means a private one.
	Metrics *obs.Registry
	// SlowQuery is the slow-query log threshold: any /v1/query slower
	// than this logs its canonical form and per-stage trace through
	// SlowLog. 0 disables the slow-query log.
	SlowQuery time.Duration
	// SlowLog receives slow-query lines; nil means log.Default().
	SlowLog *log.Logger
	// MaxQueueWait enables admission control: a request whose expected
	// wait for a ranking slot exceeds min(MaxQueueWait, its own remaining
	// deadline) is shed up front with 429 and a Retry-After hint instead
	// of queueing toward a timeout. 0 disables the gate.
	MaxQueueWait time.Duration
	// Faults is the fault-injection harness: when non-nil, the serving
	// pipeline fires it at the cache and ranking seams (see the
	// FaultStage* constants) so chaos tests can inject panics, stalls and
	// errors. Nil — the production configuration — is inert.
	Faults *resil.Injector
	// PanicLog receives the stack traces of recovered panics (ranking
	// and HTTP handlers); nil means log.Default().
	PanicLog *log.Logger
	// Ckpt, when set, surfaces checkpoint freshness in /v1/stats (path,
	// training step, load time, reload and reload-failure counters).
	// halk-serve shares one ckpt.Status between this server and its
	// -ckpt-watch reload loop, and registers its gauges on Metrics.
	Ckpt *ckpt.Status
	// Edges, when set, enables POST /v1/edges: accepted batches are
	// durably logged by the sink (an ingest.Ingester) and folded into the
	// model asynchronously. Nil answers the endpoint with 503.
	Edges EdgeSink
	// MaxBatch caps the query count of one POST /v1/batch request; an
	// oversized batch is refused with 400. 0 means DefaultMaxBatch.
	MaxBatch int
}

// DefaultCacheSize is the answer-cache capacity when Config leaves
// CacheSize zero.
const DefaultCacheSize = 1024

// DefaultMaxBatch is the /v1/batch query-count cap when Config leaves
// MaxBatch zero: large enough for bulk evaluation sweeps, small enough
// that one request cannot monopolise a worker for unbounded time.
const DefaultMaxBatch = 256

// maxBodyBytes caps every mutating request body (/v1/query, /v1/batch,
// /v1/edges, the topology endpoints); an oversized body is refused with
// 413.
const maxBodyBytes = 1 << 20

// Server is a long-lived query-answering service over one trained model.
// All methods are safe for concurrent use.
type Server struct {
	cfg     Config
	lim     *limiter
	cache   *answerCache
	metrics *metrics
	mux     *http.ServeMux
}

// New validates cfg and assembles the server with its slot limiter,
// cache, metrics and routes.
func New(cfg Config) (*Server, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("serve: Config.Model is required")
	}
	if cfg.Entities == nil || cfg.Relations == nil {
		return nil, fmt.Errorf("serve: Config.Entities and Config.Relations are required")
	}
	if cfg.Ranker == nil {
		cfg.Ranker = fullScan{cfg.Model}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.CacheSize == 0:
		cfg.CacheSize = DefaultCacheSize
	case cfg.CacheSize < 0:
		cfg.CacheSize = 0
	}
	if cfg.DefaultK <= 0 {
		cfg.DefaultK = 10
	}
	if cfg.MaxK <= 0 {
		cfg.MaxK = 1000
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 10 * time.Second
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.SlowLog == nil {
		cfg.SlowLog = log.Default()
	}
	if cfg.PanicLog == nil {
		cfg.PanicLog = log.Default()
	}
	obs.RegisterProcessMetrics(cfg.Metrics)
	cfg.Metrics.Gauge("halk_workers", "Ranking slots: requests that may rank at once.").Set(float64(cfg.Workers))
	cfg.Metrics.Gauge("halk_entities", "Entities in the served model.").Set(float64(cfg.Entities.Len()))

	s := &Server{
		cfg:     cfg,
		cache:   newAnswerCache(cfg.CacheSize, cfg.Metrics),
		metrics: newMetrics(cfg.Metrics),
		lim:     newLimiter(cfg.Workers, cfg.MaxQueueWait, cfg.Metrics),
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("/v1/query", s.recoverHandler("/v1/query", s.handleQuery))
	s.mux.HandleFunc("/v1/batch", s.recoverHandler("/v1/batch", s.handleBatch))
	s.mux.HandleFunc("/v1/edges", s.recoverHandler("/v1/edges", s.handleEdges))
	s.mux.HandleFunc("/v1/healthz", s.recoverHandler("/v1/healthz", s.handleHealthz))
	s.mux.HandleFunc("/v1/stats", s.recoverHandler("/v1/stats", s.handleStats))
	s.mux.HandleFunc("/v1/topology/join", s.recoverHandler("/v1/topology/join", s.handleTopologyJoin))
	s.mux.HandleFunc("/v1/topology/leave", s.recoverHandler("/v1/topology/leave", s.handleTopologyLeave))
	s.mux.Handle("/metrics", cfg.Metrics.Handler())
	return s, nil
}

// committedWriter wraps a ResponseWriter and records whether the
// handler has committed any part of the response (status or body), so
// the panic recovery knows whether a 500 can still be written cleanly.
type committedWriter struct {
	http.ResponseWriter
	committed bool
}

func (w *committedWriter) WriteHeader(code int) {
	w.committed = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *committedWriter) Write(b []byte) (int, error) {
	w.committed = true
	return w.ResponseWriter.Write(b)
}

// Recover is the serve stack's outermost defence line, exported so the
// other HTTP frontends (the cluster scan nodes) mount the identical
// policy: a panic escaping a handler is recovered, counted on panics
// (nil skips the count), stack-logged on plog (nil means the process
// default), and answered with a 500 instead of crashing the
// connection's goroutine (which would kill the process). The 500 body
// is written only while the response is still pristine: a handler that
// panicked after committing status or body would otherwise get a
// superfluous WriteHeader plus error JSON appended to a partial
// response the client already started reading.
func Recover(name string, panics *obs.Counter, plog *log.Logger, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		cw := &committedWriter{ResponseWriter: w}
		defer func() {
			if v := recover(); v != nil {
				if panics != nil {
					panics.Inc()
				}
				logger := plog
				if logger == nil {
					logger = log.Default()
				}
				logger.Printf("serve: recovered panic in %s handler: %v\n%s", name, v, debug.Stack())
				if !cw.committed {
					WriteJSON(cw, http.StatusInternalServerError, ErrorResponse{Error: "internal server error"})
				}
			}
		}()
		h(cw, r)
	}
}

// recoverHandler wires Recover with the server's panic counter and log.
func (s *Server) recoverHandler(name string, h http.HandlerFunc) http.HandlerFunc {
	return Recover(name, s.metrics.handlerPanics, s.cfg.PanicLog, h)
}

// Metrics returns the registry the server's counters live on — the one
// passed in Config.Metrics, or the private default. Useful for mounting
// the same registry elsewhere (a debug listener) or reading counters in
// tests.
func (s *Server) Metrics() *obs.Registry { return s.cfg.Metrics }

// Handler returns the HTTP handler exposing /v1/query, /v1/healthz and
// /v1/stats; mount it on an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Workers reports the resolved number of ranking slots.
func (s *Server) Workers() int { return s.cfg.Workers }

// FlushCache drops every cached answer list. Embedding updates already
// make old entries unreachable — cache keys are namespaced by the
// ranker's snapshot version, the model's entity version under the
// default full scan — so this is only needed to reclaim memory.
func (s *Server) FlushCache() { s.cache.Flush() }

// Close drains the limiter — in-flight rankings finish, queued and
// future requests are refused with 503 — then drains the ranker's scan
// goroutines (hedged and scatter scans that outlived their gather), so
// a closed server leaks nothing. Shut the http.Server down first so no
// new requests are accepted while the limiter drains.
func (s *Server) Close() {
	s.lim.drain.Close()
	if c, ok := s.cfg.Ranker.(interface{ Close() }); ok {
		c.Close()
	}
}
