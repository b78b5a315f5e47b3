package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/halk-kg/halk/internal/halk"
	"github.com/halk-kg/halk/internal/obs"
	"github.com/halk-kg/halk/internal/shard"
)

// postQueryURL posts to an arbitrary query URL (lets tests append
// ?debug=trace).
func postQueryURL(t *testing.T, url string, req QueryRequest) (QueryResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer res.Body.Close()
	var qr QueryResponse
	if res.StatusCode == http.StatusOK {
		if err := json.NewDecoder(res.Body).Decode(&qr); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return qr, res.StatusCode
}

func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	res, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	b, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMetricsEndpoint is the acceptance check for the unified registry:
// one /metrics scrape covers cache hit/miss counters, per-stage latency
// histograms, per-endpoint request counters and per-shard scan counters,
// all in Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	_, _, _, ts := newTestServer(t, func(cfg *Config) {
		cfg.Metrics = reg
		r, err := cfg.Model.(*halk.Model).NewShardedRanker(shard.Options{Shards: 3, Metrics: reg})
		if err != nil {
			t.Fatalf("NewShardedRanker: %v", err)
		}
		cfg.Ranker = r
	})

	req := QueryRequest{Structure: "2i", Seed: 7, K: 8}
	postQuery(t, ts, req)
	postQuery(t, ts, req) // cache hit

	out := waitForMetrics(t, ts.URL, []string{
		"# TYPE halk_http_requests_total counter",
		`halk_http_requests_total{endpoint="/v1/query"} 2`,
		"# TYPE halk_cache_hits_total counter",
		"halk_cache_hits_total 1",
		"halk_cache_misses_total 1",
		"# TYPE halk_stage_duration_ms histogram",
		`halk_stage_duration_ms_bucket{stage="parse",le="+Inf"}`,
		`halk_stage_duration_ms_bucket{stage="shard_scatter",le="+Inf"}`,
		`halk_stage_duration_ms_bucket{stage="cache_lookup",le="+Inf"}`,
		"# TYPE halk_shard_scans_total counter",
		`halk_shard_scans_total{shard="0"} 1`,
		`halk_shard_scans_total{shard="2"} 1`,
		"# TYPE halk_http_request_duration_ms histogram",
		"halk_process_uptime_seconds",
		"halk_cache_size 1",
	})
	_ = out
}

// waitForMetrics scrapes /metrics until every wanted substring appears
// (counters recorded after the response is written need a beat to
// land), failing the test with the last scrape if they never do.
func waitForMetrics(t *testing.T, url string, wants []string) string {
	t.Helper()
	var out string
	deadline := time.Now().Add(3 * time.Second)
	for {
		out = scrapeMetrics(t, url)
		missing := ""
		for _, want := range wants {
			if !strings.Contains(out, want) {
				missing = want
				break
			}
		}
		if missing == "" {
			return out
		}
		if time.Now().After(deadline) {
			t.Fatalf("/metrics never contained %q; last scrape:\n%s", missing, out)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDebugTraceStagesSumToTotal is the acceptance check for query
// tracing: ?debug=trace returns per-stage timings whose sum is within
// 10%% of the reported total latency, on both the sharded and the
// full-scan path. One untraced request warms the server first, and the
// bound applies to the closest of five traced requests, so a single
// cold or descheduled request on a contended host does not fail it;
// every traced request must still carry every stage, each timed above
// 0 ms.
func TestDebugTraceStagesSumToTotal(t *testing.T) {
	run := func(t *testing.T, mutate func(*Config), wantStage string) {
		_, _, _, ts := newTestServer(t, mutate)
		if _, code := postQuery(t, ts, QueryRequest{Structure: "2i", Seed: 6, K: 8}); code != http.StatusOK {
			t.Fatalf("warm-up: status %d", code)
		}
		bestGap, bestSum, bestTotal := math.Inf(1), 0.0, 0.0
		var bestTrace []obs.StageTiming
		for i := 0; i < 5; i++ {
			// Distinct seeds and k: every traced request misses the cache
			// and ranks.
			qr, code := postQueryURL(t, ts.URL+"/v1/query?debug=trace", QueryRequest{Structure: "2i", Seed: int64(7 + i), K: 9 + i})
			if code != http.StatusOK {
				t.Fatalf("status %d", code)
			}
			if qr.Debug == nil {
				t.Fatal("?debug=trace returned no debug section")
			}
			sum := 0.0
			stages := map[string]float64{}
			for _, st := range qr.Debug.Trace {
				sum += st.Ms
				stages[st.Stage] += st.Ms
			}
			// A stage that is opened but never timed reads 0 ms; no real
			// stage takes no time.
			for _, s := range []string{obs.StageParse, obs.StageCanonicalize, obs.StageCacheLookup, obs.StageQueueWait, wantStage} {
				if stages[s] <= 0 {
					t.Errorf("request %d: trace stage %q missing or 0 ms: %+v", i, s, qr.Debug.Trace)
				}
			}
			if qr.Debug.TotalMs <= 0 {
				t.Fatalf("request %d: total_ms = %v", i, qr.Debug.TotalMs)
			}
			if gap := math.Abs(sum - qr.Debug.TotalMs); gap < bestGap {
				bestGap, bestSum, bestTotal, bestTrace = gap, sum, qr.Debug.TotalMs, qr.Debug.Trace
			}
		}
		// 10% relative, with an absolute floor: on a sub-millisecond test
		// query the untraced slack between stages (scheduler wakeups,
		// handler glue) is tens of microseconds of pure noise, which a
		// purely relative bound flags spuriously.
		if bestGap > 0.1*bestTotal && bestGap > 0.25 {
			t.Errorf("closest of 5: stage sum %.4fms vs total %.4fms: outside 10%% (%+v)", bestSum, bestTotal, bestTrace)
		}
		// A plain query carries no debug payload.
		plain, _ := postQuery(t, ts, QueryRequest{Structure: "2i", Seed: 8, K: 8})
		if plain.Debug != nil {
			t.Error("debug section present without ?debug=trace")
		}
	}

	t.Run("full-scan", func(t *testing.T) { run(t, nil, obs.StageRankScan) })
	t.Run("sharded", func(t *testing.T) {
		run(t, func(cfg *Config) {
			r, err := cfg.Model.(*halk.Model).NewShardedRanker(shard.Options{Shards: 2})
			if err != nil {
				t.Fatalf("NewShardedRanker: %v", err)
			}
			cfg.Ranker = r
		}, obs.StageShardScatter)
	})
}

// syncWriter lets the test read the slow-query log without racing the
// handler goroutine that writes it.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

func TestSlowQueryLog(t *testing.T) {
	var sw syncWriter
	_, _, _, ts := newTestServer(t, func(cfg *Config) {
		cfg.SlowQuery = time.Nanosecond // every query is "slow"
		cfg.SlowLog = log.New(&sw, "", 0)
	})
	postQuery(t, ts, QueryRequest{Structure: "1p", Seed: 3, K: 4})

	// The log line lands after the response is written; wait for it.
	var out string
	deadline := time.Now().Add(3 * time.Second)
	for {
		out = sw.String()
		if strings.Contains(out, "slow query") || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(out, "slow query") || !strings.Contains(out, "trace:") {
		t.Fatalf("slow-query log entry missing or malformed: %q", out)
	}
	if !strings.Contains(out, obs.StageRankScan+"=") {
		t.Errorf("slow-query log lacks stage breakdown: %q", out)
	}
	waitForMetrics(t, ts.URL, []string{"halk_slow_queries_total 1"})
}
