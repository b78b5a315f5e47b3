package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"github.com/halk-kg/halk/internal/ckpt"
	"github.com/halk-kg/halk/internal/ingest"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/obs"
	"github.com/halk-kg/halk/internal/query"
	"github.com/halk-kg/halk/internal/shard"
	"github.com/halk-kg/halk/internal/sparql"
)

// QueryRequest is the POST /v1/query body of halk-serve and of a shard
// node (cluster.Node), and what halk-query -server posts. Exactly one of
// SPARQL, Query (prefix DSL) or Structure must be set.
type QueryRequest struct {
	// SPARQL is a SPARQL query compiled through the adaptor of Sec. IV-F.
	SPARQL string `json:"sparql,omitempty"`
	// Query is a query in the prefix DSL, e.g. "i(p[r003](e0007), p[r010](e0042))".
	Query string `json:"query,omitempty"`
	// Structure samples one query of the named benchmark structure
	// (e.g. "pi") from the server's sampling graph.
	Structure string `json:"structure,omitempty"`
	// Seed drives structure sampling; defaults to 1.
	Seed int64 `json:"seed,omitempty"`
	// K is the number of answers to return; defaults to the server's
	// DefaultK, capped at MaxK.
	K int `json:"k,omitempty"`
	// Mode may be omitted or "exact", the only answering mode: every
	// query ranks the whole entity table.
	Mode string `json:"mode,omitempty"`
	// TimeoutMS bounds the request end to end (queue wait + ranking);
	// defaults to the server's DefaultTimeout.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// Answer is one ranked answer entity. Distance is the model's
// entity-to-query distance (lower = more likely).
type Answer struct {
	ID       kg.EntityID `json:"id"`
	Entity   string      `json:"entity"`
	Distance *float64    `json:"distance,omitempty"`
}

// QueryResponse is the POST /v1/query reply. A shard node answers the
// same shape plus its hosted range (cluster.RangeQueryResponse).
type QueryResponse struct {
	Query     string  `json:"query"`
	Canonical string  `json:"canonical"`
	Structure string  `json:"structure,omitempty"`
	Mode      string  `json:"mode"`
	K         int     `json:"k"`
	Cached    bool    `json:"cached"`
	ElapsedMs float64 `json:"elapsed_ms"`
	// Partial marks a sharded response in which one or more shards
	// missed their deadline: Answers covers only the shards listed in
	// ShardsAnswered. Partial responses are never cached.
	Partial        bool     `json:"partial,omitempty"`
	ShardsAnswered []int    `json:"shards_answered,omitempty"`
	Answers        []Answer `json:"answers"`
	// Debug carries the per-stage pipeline trace when the request asked
	// for it with ?debug=trace.
	Debug *debugInfo `json:"debug,omitempty"`
}

// debugInfo is the ?debug=trace response section: the stage timings
// recorded up to response assembly (the final JSON encode is observed
// into the halk_stage_duration_ms histogram and the slow-query log, but
// cannot appear in the payload it produces).
type debugInfo struct {
	Trace   []obs.StageTiming `json:"trace"`
	TotalMs float64           `json:"total_ms"`
}

// ErrorResponse is the JSON body of a refused or failed request, here
// and on a shard node.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Fault-injection stages: the seam names Config.Faults fires at. The
// shard value passed to Fire is always 0 — these are per-request seams,
// not per-shard ones (shard-level faults go through shard.Options.ScanHook).
const (
	// FaultStageCacheGet fires on every answer-cache lookup. An injected
	// error degrades to a cache miss; an injected panic surfaces the
	// handler recovery path.
	FaultStageCacheGet = "serve.cache.get"
	// FaultStageCachePut fires before storing an answer; an injected
	// error skips the store (the response is still served).
	FaultStageCachePut = "serve.cache.put"
	// FaultStageRank fires in the request's ranking slot before ranking;
	// an injected panic exercises the ranking recovery path.
	FaultStageRank = "serve.rank"
)

// WriteJSON encodes v as the response body with the given status.
// Exported for the cluster node frontend, which shares the serve
// stack's response conventions.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := s.begin(w, r, "/v1/query", "query")
	defer q.done()
	var req QueryRequest
	if !q.decode(&req) {
		return
	}
	root, err := Compile(QueryForm{SPARQL: req.SPARQL, Query: req.Query, Structure: req.Structure, Seed: req.Seed},
		s.cfg.Entities, s.cfg.Relations, s.cfg.Graph)
	if err != nil {
		q.fail(http.StatusBadRequest, "%v", err)
		return
	}
	if req.Mode != "" && req.Mode != "exact" {
		q.fail(http.StatusBadRequest, "unknown mode %q (want \"exact\")", req.Mode)
		return
	}

	slots := []batchResult{{root: root, Structure: req.Structure, K: req.K}}
	if _, ok := q.answer(req.TimeoutMS, slots); !ok {
		return
	}
	sl := &slots[0]
	q.finish(&QueryResponse{
		Query:          sl.Query,
		Canonical:      sl.Canonical,
		Structure:      sl.Structure,
		Mode:           "exact",
		K:              sl.K,
		Cached:         sl.Cached,
		Partial:        sl.Partial,
		ShardsAnswered: sl.ShardsAnswered,
		Answers:        sl.Answers,
	})
}

func (resp *QueryResponse) stamp(elapsedMs float64, debug *debugInfo) {
	resp.ElapsedMs, resp.Debug = elapsedMs, debug
}

func (resp *QueryResponse) slowLine() string {
	return fmt.Sprintf("%s mode=%s k=%d partial=%v", resp.Canonical, resp.Mode, resp.K, resp.Partial)
}

// QueryForm names a query in one of the three request forms; exactly
// one of SPARQL, Query (prefix DSL) or Structure must be set. Seed
// drives structure sampling and defaults to 1.
type QueryForm struct {
	SPARQL    string
	Query     string
	Structure string
	Seed      int64
}

// MaxDisjuncts caps query.DNFWidth of a served query. The DNF rewrite
// multiplies disjuncts across an intersection, so a body of a few
// hundred bytes (an intersection of 16 two-way unions) would expand to
// 65 536 disjuncts and each further union doubles that, until the
// process runs out of memory. Every structure of the paper's benchmark
// has at most 2. Exported for the cluster node, whose /v1/scan refuses
// more arcs than this.
const MaxDisjuncts = 64

// Compile turns the form into a query computation DAG against the
// serving dictionaries. graph may be nil, which disables the structure
// form. A query whose DNF rewrite builds more than MaxDisjuncts
// disjuncts at some node is refused. Exported for the cluster node
// frontend, whose /v1/query accepts the same forms.
func Compile(f QueryForm, entities, relations *kg.Dict, graph *kg.Graph) (*query.Node, error) {
	root, err := compileForm(f, entities, relations, graph)
	if err != nil {
		return nil, err
	}
	if w := query.DNFWidth(root); w > MaxDisjuncts {
		return nil, fmt.Errorf("query expands to more than %d disjuncts in its DNF rewrite", MaxDisjuncts)
	}
	return root, nil
}

func compileForm(f QueryForm, entities, relations *kg.Dict, graph *kg.Graph) (*query.Node, error) {
	forms := 0
	for _, set := range []bool{f.SPARQL != "", f.Query != "", f.Structure != ""} {
		if set {
			forms++
		}
	}
	if forms != 1 {
		return nil, fmt.Errorf("exactly one of \"sparql\", \"query\" or \"structure\" must be set")
	}
	switch {
	case f.SPARQL != "":
		pq, err := sparql.Parse(f.SPARQL)
		if err != nil {
			return nil, err
		}
		return (&sparql.Adaptor{Entities: entities, Relations: relations}).Compile(pq)
	case f.Query != "":
		return query.Parse(f.Query, entities, relations)
	default:
		if graph == nil {
			return nil, fmt.Errorf("structure sampling is not enabled on this server")
		}
		if !query.HasStructure(f.Structure) {
			return nil, fmt.Errorf("unknown structure %q; known: %v", f.Structure, query.StructureNames())
		}
		seed := f.Seed
		if seed == 0 {
			seed = 1
		}
		sampler := query.NewSampler(graph, rand.New(rand.NewSource(seed)))
		root, ok := sampler.Sample(f.Structure)
		if !ok {
			return nil, fmt.Errorf("could not sample a %q query from the serving graph", f.Structure)
		}
		return root, nil
	}
}

// Health is the GET /v1/healthz readiness report: enough for a
// load balancer (or the cluster router's node-discovery loop) to decide
// whether this process can answer, and at which entity-table version.
// A shard node answers it embedded in cluster.Health, which adds the
// hosted range and queue depth, so one prober serves both kinds of
// backend.
type Health struct {
	Status   string `json:"status"`
	Model    string `json:"model"`
	Entities int    `json:"entities"`
	// EntityVersion is the version exact answers are currently served
	// from (the ranker's published snapshot; the live model table for the
	// default full scan). The router compares it across nodes
	// to detect checkpoint-rollout skew.
	EntityVersion uint64 `json:"entity_version"`
	// Shards is the exact path's scatter width (0 = unsharded full scan).
	Shards int `json:"shards,omitempty"`
	// Checkpoint provenance, when the process wired a ckpt.Status.
	CkptLoaded bool   `json:"ckpt_loaded"`
	CkptStep   int    `json:"ckpt_step,omitempty"`
	CkptPath   string `json:"ckpt_path,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	resp := Health{
		Status:        "ok",
		Model:         s.cfg.Model.Name(),
		Entities:      s.cfg.Entities.Len(),
		EntityVersion: s.cfg.Ranker.SnapshotVersion(),
		Shards:        s.cfg.Ranker.NumShards(),
	}
	if s.cfg.Ckpt != nil {
		snap := s.cfg.Ckpt.Snapshot()
		resp.CkptLoaded = snap.Path != ""
		resp.CkptStep = snap.Step
		resp.CkptPath = snap.Path
	} else {
		// No checkpoint lifecycle wired: the model was constructed
		// in-process (tests, library embedding) and is ready by
		// definition.
		resp.CkptLoaded = true
	}
	WriteJSON(w, http.StatusOK, resp)
	s.metrics.observe("/v1/healthz", time.Since(start), false)
}

// statsResponse is the GET /v1/stats reply.
type statsResponse struct {
	Model     string                      `json:"model"`
	Entities  int                         `json:"entities"`
	UptimeS   float64                     `json:"uptime_s"`
	Workers   int                         `json:"workers"`
	Endpoints map[string]endpointSnapshot `json:"endpoints"`
	Cache     cacheStats                  `json:"cache"`
	// NumShards and Shards describe the sharded ranking engine when
	// Config.Ranker is one: shard count, ID ranges, scan counts, deadline skips,
	// circuit-breaker and hedging counters, and scan-latency summaries
	// per shard.
	NumShards int                `json:"num_shards,omitempty"`
	Shards    []shard.ShardStats `json:"shards,omitempty"`
	// Ranges describes the replica topology when the Ranker routes to
	// replicated entity ranges (cluster router mode): per range, the
	// replica set, current primary, failover/primary-flip counters and
	// per-replica breaker states. TopologyVersion is the membership
	// snapshot version, bumped on every join/leave/reload.
	Ranges          []RangeReplicaStats `json:"ranges,omitempty"`
	TopologyVersion uint64              `json:"topology_version,omitempty"`
	// Admission describes the load-shedding gate when one is configured.
	Admission *admissionSnapshot `json:"admission,omitempty"`
	// Checkpoint reports the served checkpoint's freshness when the
	// process wired a ckpt.Status: file, training step, load time, and
	// hot-reload outcome counters.
	Checkpoint *ckpt.StatusSnapshot `json:"checkpoint,omitempty"`
	// Ingest reports live-edge ingest progress when an EdgeSink is wired:
	// WAL backlog, applied edges, fine-tune steps, and publish outcomes.
	Ingest *ingest.Stats `json:"ingest,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	endpoints, uptime := s.metrics.snapshot()
	resp := statsResponse{
		Model:     s.cfg.Model.Name(),
		Entities:  s.cfg.Entities.Len(),
		UptimeS:   uptime,
		Workers:   s.cfg.Workers,
		Endpoints: endpoints,
		Cache:     s.cache.stats(),
		NumShards: s.cfg.Ranker.NumShards(),
		Shards:    s.cfg.Ranker.ShardStats(),
		Admission: s.lim.snapshot(),
	}
	if s.cfg.Ckpt != nil {
		snap := s.cfg.Ckpt.Snapshot()
		resp.Checkpoint = &snap
	}
	if rs, ok := s.cfg.Ranker.(ReplicaStatser); ok {
		resp.Ranges = rs.ReplicaStats()
	}
	if tm, ok := s.cfg.Ranker.(TopologyManager); ok {
		resp.TopologyVersion = tm.TopologyVersion()
	}
	if s.cfg.Edges != nil {
		st := s.cfg.Edges.Stats()
		resp.Ingest = &st
	}
	WriteJSON(w, http.StatusOK, resp)
	s.metrics.observe("/v1/stats", time.Since(start), false)
}
