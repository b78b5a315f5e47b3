package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"
)

// Canonical stage names of the query pipeline, in pipeline order. The
// serve handlers open the request-side stages; the ranking layers
// (halk.ShardedRanker, shard.Engine) record their own stages through
// the trace carried in the request context, so one trace tiles the
// whole request regardless of which ranking path served it.
const (
	StageParse        = "parse"         // body decode + compile to a query DAG
	StageCanonicalize = "canonicalize"  // canonical key + cache key derivation
	StageCacheLookup  = "cache_lookup"  // answer-cache probe
	StageQueueWait    = "queue_wait"    // waiting for a ranking worker
	StagePrepareArcs  = "prepare_arcs"  // query embedding + arc preparation
	StageShardScatter = "shard_scatter" // parallel shard scans (sharded path)
	StageHeapMerge    = "heap_merge"    // k-way merge of per-shard heaps
	StageRankScan     = "rank_scan"     // single-threaded full scan + top-K
	StageEncode       = "encode"        // response labelling + JSON encode
)

// StageTiming is one recorded pipeline stage.
type StageTiming struct {
	Stage string  `json:"stage"`
	Ms    float64 `json:"ms"`
}

// Trace records per-stage timings of one query through the pipeline.
// Stages are recorded either sequentially (Begin ends the previous
// stage) or directly (Observe). A nil *Trace is valid and records
// nothing, so instrumentation points need no nil checks — tracing costs
// two time.Now calls per stage when enabled, nothing when not.
//
// A trace is handed between the HTTP goroutine and the ranking worker,
// but never used by both at once (the handler blocks on the pool);
// the mutex makes misuse safe rather than racy.
type Trace struct {
	mu       sync.Mutex
	start    time.Time
	stages   []StageTiming
	cur      string
	curStart time.Time
}

// NewTrace starts a trace; the total clock runs from this call.
func NewTrace() *Trace {
	now := time.Now()
	return &Trace{start: now}
}

// Begin ends the current stage (if any) and starts the named one.
func (t *Trace) Begin(name string) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.endLocked(now)
	t.cur, t.curStart = name, now
	t.mu.Unlock()
}

// End closes the current stage without opening another.
func (t *Trace) End() {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.endLocked(now)
	t.mu.Unlock()
}

func (t *Trace) endLocked(now time.Time) {
	if t.cur == "" {
		return
	}
	t.observeLocked(t.cur, float64(now.Sub(t.curStart))/float64(time.Millisecond))
	t.cur = ""
}

// Observe records a stage duration directly — used by pipeline layers
// that measure their own windows (shard scatter, heap merge) rather
// than delimiting sequential stages.
func (t *Trace) Observe(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.observeLocked(name, float64(d)/float64(time.Millisecond))
	t.mu.Unlock()
}

// observeLocked merges repeated stage names (a re-entered stage sums),
// preserving first-occurrence order.
func (t *Trace) observeLocked(name string, ms float64) {
	for i := range t.stages {
		if t.stages[i].Stage == name {
			t.stages[i].Ms += ms
			return
		}
	}
	t.stages = append(t.stages, StageTiming{Stage: name, Ms: ms})
}

// Stages closes the current stage and returns a copy of the recorded
// stage timings in first-occurrence order.
func (t *Trace) Stages() []StageTiming {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	t.endLocked(now)
	out := append([]StageTiming(nil), t.stages...)
	t.mu.Unlock()
	return out
}

// TotalMs is the wall time since NewTrace.
func (t *Trace) TotalMs() float64 {
	if t == nil {
		return 0
	}
	return float64(time.Since(t.start)) / float64(time.Millisecond)
}

// String renders the trace one stage per "name=1.23ms" token — the slow
// query log format.
func (t *Trace) String() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	for i, s := range t.Stages() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.3fms", s.Stage, s.Ms)
	}
	return b.String()
}

type traceKey struct{}

// NewContext returns ctx carrying the trace.
func NewContext(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// FromContext returns the trace carried by ctx, or nil (every Trace
// method accepts a nil receiver, so callers use the result directly).
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
