package serve

import (
	"sync"
	"time"

	"github.com/halk-kg/halk/internal/obs"
)

// metrics is the serving side's view into the obs registry: request and
// error counters plus a latency histogram per endpoint, and a per-stage
// query-pipeline latency histogram. The registry is the single source
// of truth — the same series back the Prometheus exposition at /metrics
// and the JSON snapshot at /v1/stats.
type metrics struct {
	reg   *obs.Registry
	start time.Time

	mu        sync.Mutex
	endpoints map[string]*endpointMetrics
	stages    map[string]*obs.Histogram
	// batchSizes distributes /v1/batch request sizes in queries;
	// batchQueries and batchCached count the queries inside batches and
	// how many of them the answer cache covered.
	batchSizes   *obs.Histogram
	batchQueries *obs.Counter
	batchCached  *obs.Counter
	slow         *obs.Counter
	// workerPanics counts panics recovered on pool workers (the request
	// got a 500); handlerPanics counts panics recovered at the HTTP
	// middleware (e.g. a poisoned cache layer).
	workerPanics  *obs.Counter
	handlerPanics *obs.Counter
}

type endpointMetrics struct {
	requests *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		reg:       reg,
		start:     time.Now(),
		endpoints: make(map[string]*endpointMetrics),
		stages:    make(map[string]*obs.Histogram),
		batchSizes: reg.Histogram("halk_batch_size",
			"Query counts of /v1/batch requests.", obs.SizeBuckets),
		batchQueries: reg.Counter("halk_batch_queries_total",
			"Queries received inside /v1/batch requests."),
		batchCached: reg.Counter("halk_batch_cache_hits_total",
			"Batch queries answered from the cache without ranking."),
		slow: reg.Counter("halk_slow_queries_total", "Queries slower than the slow-query threshold."),
		workerPanics: reg.Counter("halk_panics_total",
			"Panics recovered while serving, by recovery site.", obs.L("where", "worker")),
		handlerPanics: reg.Counter("halk_panics_total",
			"Panics recovered while serving, by recovery site.", obs.L("where", "handler")),
	}
}

// endpoint returns (creating on first use) the registry handles for one
// endpoint label.
func (mt *metrics) endpoint(name string) *endpointMetrics {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	em, ok := mt.endpoints[name]
	if !ok {
		l := obs.L("endpoint", name)
		em = &endpointMetrics{
			requests: mt.reg.Counter("halk_http_requests_total", "HTTP requests served, by endpoint.", l),
			errors:   mt.reg.Counter("halk_http_errors_total", "HTTP requests answered with a 4xx/5xx status.", l),
			latency:  mt.reg.Histogram("halk_http_request_duration_ms", "End-to-end request latency in milliseconds.", obs.LatencyBuckets, l),
		}
		mt.endpoints[name] = em
	}
	return em
}

// observe records one request against the endpoint: its latency, and
// whether it failed (any non-2xx response).
func (mt *metrics) observe(endpoint string, elapsed time.Duration, failed bool) {
	em := mt.endpoint(endpoint)
	em.requests.Inc()
	if failed {
		em.errors.Inc()
	}
	em.latency.Observe(float64(elapsed) / float64(time.Millisecond))
}

// observeTrace folds a finished query trace into the per-stage latency
// histograms (halk_stage_duration_ms{stage=...}).
func (mt *metrics) observeTrace(tr *obs.Trace) {
	for _, st := range tr.Stages() {
		mt.stage(st.Stage).Observe(st.Ms)
	}
}

func (mt *metrics) stage(name string) *obs.Histogram {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	h, ok := mt.stages[name]
	if !ok {
		h = mt.reg.Histogram("halk_stage_duration_ms", "Per-stage query pipeline latency in milliseconds.", obs.LatencyBuckets, obs.L("stage", name))
		mt.stages[name] = h
	}
	return h
}

// observeBatch records one /v1/batch request: its query count and how
// many of those queries the answer cache covered.
func (mt *metrics) observeBatch(size, cached int) {
	mt.batchSizes.Observe(float64(size))
	mt.batchQueries.Add(uint64(size))
	mt.batchCached.Add(uint64(cached))
}

// endpointSnapshot is the /v1/stats view of one endpoint.
type endpointSnapshot struct {
	Requests  uint64  `json:"requests"`
	Errors    uint64  `json:"errors"`
	LatencyMs latency `json:"latency_ms"`
}

type latency struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
}

// snapshot renders the JSON view over the registry: per-endpoint
// counters with histogram-interpolated latency quantiles, and uptime.
func (mt *metrics) snapshot() (map[string]endpointSnapshot, float64) {
	mt.mu.Lock()
	names := make([]string, 0, len(mt.endpoints))
	for name := range mt.endpoints {
		names = append(names, name)
	}
	mt.mu.Unlock()

	eps := make(map[string]endpointSnapshot, len(names))
	for _, name := range names {
		em := mt.endpoint(name)
		eps[name] = endpointSnapshot{
			Requests: em.requests.Value(),
			Errors:   em.errors.Value(),
			LatencyMs: latency{
				P50: em.latency.Quantile(0.50),
				P90: em.latency.Quantile(0.90),
				P99: em.latency.Quantile(0.99),
			},
		}
	}
	return eps, time.Since(mt.start).Seconds()
}
