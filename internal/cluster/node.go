package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/halk-kg/halk/internal/ckpt"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/obs"
	"github.com/halk-kg/halk/internal/query"
	"github.com/halk-kg/halk/internal/resil"
	"github.com/halk-kg/halk/internal/serve"
	"github.com/halk-kg/halk/internal/shard"
)

// FaultStageScan is the node-side fault-injection seam, fired once per
// /v1/scan request before the engine scan (shard index 0). KindError
// turns the scan into a 500, KindDelay wedges it (exercising the
// router's deadline/hedge paths), KindPanic exercises the recovery
// middleware — the chaos matrix drives all three.
const FaultStageScan = "cluster.node.scan"

// NodeConfig assembles a shard node frontend.
type NodeConfig struct {
	// Engine hosts the node's entity range (halk.RangeRanker.Engine()).
	// Required.
	Engine *shard.Engine
	// Params are the scoring constants wire arcs are prepared with —
	// must equal the engine's (halk.Model.ShardParams()). Required.
	Params shard.Params
	// Metrics is the node's registry (serving /metrics); nil means a
	// private one.
	Metrics *obs.Registry
	// Ckpt, when set, feeds the checkpoint fields of /v1/healthz.
	Ckpt *ckpt.Status
	// ModelName labels health reports (e.g. "HaLk").
	ModelName string
	// Entities/Relations, when both set together with Embed, enable the
	// debugging POST /v1/query endpoint (answers over the hosted range
	// only — halk-query -server works against a lone node).
	Entities  *kg.Dict
	Relations *kg.Dict
	// Embed turns a compiled query into wire arcs for /v1/query.
	Embed func(n *query.Node) []ArcSpec
	// Graph, when set, enables /v1/query structure sampling (same seeded
	// sampler as halk-serve, so node answers line up with router answers
	// for the same structure+seed).
	Graph *kg.Graph
	// DefaultTimeout bounds a scan when the request carries no
	// timeout_ms; 0 means 10s. MaxK caps requested K; 0 means 1000.
	DefaultTimeout time.Duration
	MaxK           int
	// Faults is the node's fault-injection plan (tests only; nil in
	// production).
	Faults *resil.Injector
	// PanicLog receives recovered handler panics; nil means the default
	// logger.
	PanicLog *log.Logger
}

// Node is the HTTP frontend of a shard-hosting process: the /v1/scan
// API the router's RemoteShard client speaks, plus the readiness,
// stats and metrics surfaces of the serve stack. Every handler runs
// under the serve recovery middleware, so a panicked scan costs one
// request, not the node.
type Node struct {
	cfg    NodeConfig
	mux    *http.ServeMux
	reg    *obs.Registry
	panics *obs.Counter
	scans  *obs.Counter

	// inflight counts /v1/scan requests currently being served; its
	// value rides every scan response and health report as queue_depth,
	// feeding the router's queue-weighted balancing.
	inflight atomic.Int64

	// draining flips once, on POST /v1/drain or the process's SIGTERM
	// path: /v1/healthz turns 503 ("draining") so routers and load
	// balancers stop sending new work, while /v1/scan keeps answering —
	// in-flight and straggler scans complete instead of degrading some
	// gather to a partial answer. drainC is closed at the same moment so
	// the serving process can sequence its shutdown off it.
	draining  atomic.Bool
	drainOnce sync.Once
	drainC    chan struct{}
}

// NewNode validates cfg and builds the frontend.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("cluster: NodeConfig.Engine is required")
	}
	if cfg.Params.Dim <= 0 {
		return nil, fmt.Errorf("cluster: NodeConfig.Params is required")
	}
	if (cfg.Entities != nil) != (cfg.Relations != nil) {
		return nil, fmt.Errorf("cluster: Entities and Relations must be set together")
	}
	if cfg.Entities != nil && cfg.Embed == nil {
		return nil, fmt.Errorf("cluster: Embed is required when the query endpoint is enabled")
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 10 * time.Second
	}
	if cfg.MaxK <= 0 {
		cfg.MaxK = 1000
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	n := &Node{
		cfg:    cfg,
		mux:    http.NewServeMux(),
		reg:    cfg.Metrics,
		panics: cfg.Metrics.Counter("halk_node_panics_total", "Handler panics recovered by the node frontend."),
		scans:  cfg.Metrics.Counter("halk_node_scans_total", "Remote scan requests served."),
		drainC: make(chan struct{}),
	}
	cfg.Metrics.GaugeFunc("halk_node_draining", "1 once the node has begun a coordinated drain, else 0.",
		func() float64 {
			if n.draining.Load() {
				return 1
			}
			return 0
		})
	cfg.Metrics.GaugeFunc("halk_node_inflight_scans", "Scan requests currently being served.",
		func() float64 { return float64(n.inflight.Load()) })
	wrap := func(name string, h http.HandlerFunc) http.HandlerFunc {
		return serve.Recover(name, n.panics, cfg.PanicLog, h)
	}
	n.mux.HandleFunc("/v1/scan", wrap("/v1/scan", n.handleScan))
	n.mux.HandleFunc("/v1/healthz", wrap("/v1/healthz", n.handleHealthz))
	n.mux.HandleFunc("/v1/drain", wrap("/v1/drain", n.handleDrain))
	n.mux.HandleFunc("/v1/stats", wrap("/v1/stats", n.handleStats))
	n.mux.Handle("/metrics", n.reg.Handler())
	if cfg.Entities != nil {
		n.mux.HandleFunc("/v1/query", wrap("/v1/query", n.handleQuery))
	}
	return n, nil
}

// Handler returns the node's HTTP handler, ready for http.Server.
func (n *Node) Handler() http.Handler { return n.mux }

// Close drains the engine's in-flight scans.
func (n *Node) Close() { n.cfg.Engine.Close() }

// Drain begins a coordinated shutdown: readiness fails from the next
// /v1/healthz poll on (503, status "draining") while /v1/scan keeps
// serving, and DrainC is closed so the hosting process can sequence
// grace period → listener shutdown → engine close. Idempotent; there is
// no way back — a drained node is expected to exit and, if it returns,
// rejoin through the router's probation probe.
func (n *Node) Drain() {
	n.draining.Store(true)
	n.drainOnce.Do(func() { close(n.drainC) })
}

// Draining reports whether Drain has been called.
func (n *Node) Draining() bool { return n.draining.Load() }

// DrainC is closed on the first Drain call (HTTP /v1/drain or the
// process signal path) — the hosting process selects on it next to its
// signal context.
func (n *Node) DrainC() <-chan struct{} { return n.drainC }

// handleDrain is POST /v1/drain: flip the node into coordinated drain.
func (n *Node) handleDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		fail(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	n.Drain()
	serve.WriteJSON(w, http.StatusOK, map[string]string{"status": HealthDraining})
}

type errorResponse struct {
	Error string `json:"error"`
}

func fail(w http.ResponseWriter, code int, format string, args ...any) {
	serve.WriteJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// rankErrStatus maps an engine error to the HTTP status the router's
// typed failure classification expects: 504 for deadline-shaped
// failures, 503 for lifecycle states a retry can outwait, 500 for the
// rest.
func rankErrStatus(err error) int {
	switch {
	case errors.Is(err, shard.ErrAllShardsSkipped), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, shard.ErrNoSnapshot), errors.Is(err, shard.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// handleScan is POST /v1/scan: prepare the wire arcs with the node's
// own constants and scan the hosted range, seeding the engine's prune
// bound with the router's global bound when one was shipped.
func (n *Node) handleScan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		fail(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	n.inflight.Add(1)
	defer n.inflight.Add(-1)
	var req ScanRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		fail(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	if req.K <= 0 {
		fail(w, http.StatusBadRequest, "k must be positive, got %d", req.K)
		return
	}
	k := req.K
	if k > n.cfg.MaxK {
		k = n.cfg.MaxK
	}
	if len(req.Arcs) == 0 {
		fail(w, http.StatusBadRequest, "at least one arc is required")
		return
	}
	d := n.cfg.Params.Dim
	arcs := make([]shard.Arc, len(req.Arcs))
	for i, a := range req.Arcs {
		if len(a.C) != d || len(a.L) != d {
			fail(w, http.StatusBadRequest, "arc %d: want %d dimensions, got c=%d l=%d", i, d, len(a.C), len(a.L))
			return
		}
		arcs[i] = shard.PrepareArc(n.cfg.Params, a.C, a.L, a.Hot)
	}
	if err := n.cfg.Faults.Fire(FaultStageScan, 0); err != nil {
		fail(w, http.StatusInternalServerError, "injected scan fault: %v", err)
		return
	}

	timeout := n.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		if t := time.Duration(req.TimeoutMS) * time.Millisecond; t < timeout {
			timeout = t
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	res, err := n.cfg.Engine.TopKBound(ctx, arcs, k, req.Bound)
	if err != nil {
		fail(w, rankErrStatus(err), "%v", err)
		return
	}
	n.scans.Inc()
	lo, hi := n.cfg.Engine.EntityRange()
	// Queue excludes this scan: what a router sending the *next* request
	// would wait behind.
	queue := int(n.inflight.Load()) - 1
	if queue < 0 {
		queue = 0
	}
	serve.WriteJSON(w, http.StatusOK, &ScanResponse{
		IDs:     res.IDs,
		Dists:   res.Dists,
		Partial: res.Partial,
		Version: res.Version,
		Lo:      lo,
		Hi:      hi,
		Queue:   queue,
	})
}

// handleHealthz is GET /v1/healthz: the node's readiness report in the
// same shape halk-serve answers, plus the hosted range. A draining node
// answers 503 with the same body and Status "draining": readiness
// fails (load balancers take it out of rotation) while the router can
// still read the full report and sequence its own drain handling.
func (n *Node) handleHealthz(w http.ResponseWriter, r *http.Request) {
	lo, hi := n.cfg.Engine.EntityRange()
	h := Health{
		Status:        "ok",
		Model:         n.cfg.ModelName,
		Entities:      hi - lo,
		EntityVersion: n.cfg.Engine.Version(),
		Shards:        n.cfg.Engine.NumShards(),
		Lo:            lo,
		Hi:            hi,
		Queue:         int(n.inflight.Load()),
	}
	if n.cfg.Ckpt != nil {
		snap := n.cfg.Ckpt.Snapshot()
		h.CkptLoaded = snap.Path != ""
		h.CkptStep = snap.Step
		h.CkptPath = snap.Path
	} else {
		h.CkptLoaded = h.EntityVersion > 0
	}
	code := http.StatusOK
	if n.draining.Load() {
		h.Status = HealthDraining
		code = http.StatusServiceUnavailable
	}
	serve.WriteJSON(w, code, h)
}

// handleStats is GET /v1/stats: the hosted range plus the engine's
// per-(local-)shard counters, mirroring halk-serve's stats shape.
func (n *Node) handleStats(w http.ResponseWriter, r *http.Request) {
	lo, hi := n.cfg.Engine.EntityRange()
	resp := map[string]any{
		"model":      n.cfg.ModelName,
		"lo":         lo,
		"hi":         hi,
		"entities":   hi - lo,
		"num_shards": n.cfg.Engine.NumShards(),
		"shards":     n.cfg.Engine.Stats(),
		"scans":      n.scans.Value(),
		"queue":      n.inflight.Load(),
		"draining":   n.draining.Load(),
	}
	if n.cfg.Ckpt != nil {
		resp["checkpoint"] = n.cfg.Ckpt.Snapshot()
	}
	serve.WriteJSON(w, http.StatusOK, resp)
}

// handleQuery is POST /v1/query, the node's debugging endpoint: compile
// the query, embed it with the node's model, and answer over the hosted
// range only. It exists so halk-query -server can point at a lone shard
// node; topology-wide answers come from the router.
func (n *Node) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		fail(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		fail(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	root, err := serve.Compile(serve.QueryForm{SPARQL: req.SPARQL, Query: req.Query, Structure: req.Structure, Seed: req.Seed},
		n.cfg.Entities, n.cfg.Relations, n.cfg.Graph)
	if err != nil {
		fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	k := req.K
	if k <= 0 {
		k = 10
	}
	if k > n.cfg.MaxK {
		k = n.cfg.MaxK
	}
	specs := n.cfg.Embed(root)
	if len(specs) == 0 {
		fail(w, http.StatusBadRequest, "query embedded to no arcs")
		return
	}
	arcs := make([]shard.Arc, len(specs))
	for i, a := range specs {
		arcs[i] = shard.PrepareArc(n.cfg.Params, a.C, a.L, a.Hot)
	}
	timeout := n.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	res, err := n.cfg.Engine.TopKBound(ctx, arcs, k, 0)
	if err != nil {
		fail(w, rankErrStatus(err), "%v", err)
		return
	}
	lo, hi := n.cfg.Engine.EntityRange()
	answers := make([]QueryAnswer, len(res.IDs))
	for i, e := range res.IDs {
		dist := res.Dists[i]
		answers[i] = QueryAnswer{ID: e, Entity: n.cfg.Entities.Name(int32(e)), Distance: &dist}
	}
	serve.WriteJSON(w, http.StatusOK, &QueryResponse{
		Query:     root.String(),
		Canonical: query.CanonicalKey(root),
		Mode:      "exact",
		K:         k,
		ElapsedMs: float64(time.Since(start)) / float64(time.Millisecond),
		Partial:   res.Partial,
		Lo:        lo,
		Hi:        hi,
		Version:   res.Version,
		Answers:   answers,
	})
}
