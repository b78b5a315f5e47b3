package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/halk-kg/halk/internal/halk"
	"github.com/halk-kg/halk/internal/obs"
	"github.com/halk-kg/halk/internal/query"
	"github.com/halk-kg/halk/internal/resil"
	"github.com/halk-kg/halk/internal/shard"
)

// faultScanStage is the injector stage name the chaos tests arm for
// per-shard scan faults (wired through shard.Options.ScanHook).
const faultScanStage = "shard.scan"

func discardLog() *log.Logger { return log.New(io.Discard, "", 0) }

// newChaosServer builds a server over a 3-shard ranker with the
// injector wired into both the shard scan seam (shard.Options.ScanHook)
// and the serve seams (Config.Faults). Shard timeout is 50ms so "slow"
// faults (200ms) read as deadline misses.
func newChaosServer(t *testing.T, inj *resil.Injector, mutate func(*Config, *shard.Options)) (*Server, *httptest.Server) {
	t.Helper()
	opts := shard.Options{
		Shards:       3,
		ShardTimeout: 50 * time.Millisecond,
		ScanHook:     inj.ScanErrHook(faultScanStage),
		PanicLog:     discardLog(),
	}
	s, _, _, ts := newTestServer(t, func(cfg *Config) {
		cfg.Faults = inj
		cfg.PanicLog = discardLog()
		if mutate != nil {
			mutate(cfg, &opts)
		}
		r, err := cfg.Model.(*halk.Model).NewShardedRanker(opts)
		if err != nil {
			t.Fatalf("NewShardedRanker: %v", err)
		}
		cfg.Ranker = r
	})
	return s, ts
}

// postRaw posts the query and returns status, headers and decoded body
// without failing on non-200s (chaos tests assert on error statuses).
func postRaw(t *testing.T, ts *httptest.Server, req QueryRequest) (int, http.Header, QueryResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/query: %v", err)
	}
	defer res.Body.Close()
	var qr QueryResponse
	if res.StatusCode == http.StatusOK {
		if err := json.NewDecoder(res.Body).Decode(&qr); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	} else {
		_, _ = io.Copy(io.Discard, res.Body)
	}
	return res.StatusCode, res.Header, qr
}

// checkHealthy asserts the server still answers: /v1/healthz is 200 and
// a clean query (faults cleared by the caller) returns a full result.
func checkHealthy(t *testing.T, ts *httptest.Server) {
	t.Helper()
	res, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatalf("healthz after fault: %v", err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("healthz after fault = %d", res.StatusCode)
	}
	code, _, qr := postRaw(t, ts, QueryRequest{Structure: "1p", Seed: 99, K: 3})
	if code != http.StatusOK || qr.Partial {
		t.Fatalf("post-fault query = %d partial=%v; server did not recover", code, qr.Partial)
	}
}

// TestChaosMatrix drives the {panic, slow, error} × {one shard, all
// shards, cache layer} fault matrix and asserts the blast-radius
// contract: a fault in one shard degrades that response to a well-formed
// partial; a fault in every shard fails that request with a well-formed
// 504; a cache-layer fault costs at most that one request (500 on
// panic, a cache miss otherwise) — and in every cell the process
// survives and the next clean request is answered in full.
func TestChaosMatrix(t *testing.T) {
	faults := map[string]resil.Fault{
		"panic": {Kind: resil.KindPanic},
		"slow":  {Kind: resil.KindDelay, Delay: 200 * time.Millisecond},
		"error": {Kind: resil.KindError},
	}
	for kindName, fault := range faults {
		for _, scope := range []string{"one-shard", "all-shards", "cache"} {
			t.Run(kindName+"/"+scope, func(t *testing.T) {
				inj := resil.NewInjector()
				_, ts := newChaosServer(t, inj, nil)
				req := QueryRequest{Structure: "1p", Seed: 9, K: 5}

				switch scope {
				case "one-shard":
					inj.Set(faultScanStage, 1, fault)
				case "all-shards":
					inj.Set(faultScanStage, resil.AnyShard, fault)
				case "cache":
					inj.Set(FaultStageCacheGet, 0, fault)
				}

				code, _, qr := postRaw(t, ts, req)
				switch scope {
				case "one-shard":
					if code != http.StatusOK {
						t.Fatalf("one faulted shard: status %d, want 200 partial", code)
					}
					if !qr.Partial || len(qr.ShardsAnswered) != 2 {
						t.Fatalf("one faulted shard: partial=%v shards_answered=%v, want partial with 2 shards",
							qr.Partial, qr.ShardsAnswered)
					}
					if len(qr.Answers) == 0 {
						t.Fatal("partial response carried no answers")
					}
				case "all-shards":
					if code != http.StatusGatewayTimeout {
						t.Fatalf("all shards faulted: status %d, want 504", code)
					}
				case "cache":
					switch kindName {
					case "panic":
						if code != http.StatusInternalServerError {
							t.Fatalf("cache panic: status %d, want 500", code)
						}
					default:
						// Slow and error cache faults degrade to a miss: the
						// request is still answered by ranking.
						if code != http.StatusOK || qr.Partial {
							t.Fatalf("cache %s fault: status %d partial=%v, want full 200", kindName, code, qr.Partial)
						}
					}
				}

				if fired := inj.Fired(faultScanStage) + inj.Fired(FaultStageCacheGet); fired == 0 {
					t.Fatal("fault never fired; the test asserted nothing")
				}
				inj.Clear()
				checkHealthy(t, ts)
			})
		}
	}
}

// TestWorkerPanicIsolated pins the ranking recovery path: a panic while
// ranking answers that request with a 500, increments
// halk_panics_total{where="worker"}, and releases the request's slot so
// the next request is served.
func TestWorkerPanicIsolated(t *testing.T) {
	inj := resil.NewInjector()
	_, ts := newChaosServer(t, inj, func(cfg *Config, _ *shard.Options) {
		cfg.Workers = 1 // one slot: if the panic kept it, the next request would time out
	})
	inj.Set(FaultStageRank, 0, resil.Fault{Kind: resil.KindPanic, Count: 1})

	code, _, _ := postRaw(t, ts, QueryRequest{Structure: "1p", Seed: 9, K: 5})
	if code != http.StatusInternalServerError {
		t.Fatalf("panicked ranking: status %d, want 500", code)
	}
	if code, _, _ := postRaw(t, ts, QueryRequest{Structure: "1p", Seed: 10, K: 5, TimeoutMS: 2000}); code != http.StatusOK {
		t.Fatalf("request after the panic: status %d, want 200 within its deadline", code)
	}

	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsText, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if !strings.Contains(string(metricsText), `halk_panics_total{where="worker"} 1`) {
		t.Fatalf("worker panic not counted; /metrics:\n%s", metricsText)
	}
	checkHealthy(t, ts)
}

// blockingRanker holds every RankTopK until release is closed (or the
// request's deadline passes) and records how many ran and how many at
// once.
type blockingRanker struct {
	release chan struct{}

	mu                   sync.Mutex
	calls, running, peak int
}

func (b *blockingRanker) RankTopK(ctx context.Context, _ *query.Node, _ int) (*shard.Result, error) {
	b.mu.Lock()
	b.calls++
	b.running++
	b.peak = max(b.peak, b.running)
	b.mu.Unlock()
	defer func() {
		b.mu.Lock()
		b.running--
		b.mu.Unlock()
	}()
	select {
	case <-b.release:
		return &shard.Result{}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (b *blockingRanker) counts() (calls, peak int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.calls, b.peak
}

func (*blockingRanker) SnapshotVersion() uint64        { return 0 }
func (*blockingRanker) NumShards() int                 { return 0 }
func (*blockingRanker) ShardStats() []shard.ShardStats { return nil }

// postStatus posts the query and returns the response status; unlike
// postRaw it may run off the test goroutine.
func postStatus(ts *httptest.Server, req QueryRequest) (int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	res, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer res.Body.Close()
	_, _ = io.Copy(io.Discard, res.Body)
	return res.StatusCode, nil
}

// TestRankingSlotsAndClose pins the ranking concurrency contract: with
// Workers = 2, five concurrent cache misses run at most two rankings at
// once while the admission count reads all five, and Close while two
// rank and three wait lets the two finish with 200 and refuses the
// three, like every later request, with 503.
func TestRankingSlotsAndClose(t *testing.T) {
	br := &blockingRanker{release: make(chan struct{})}
	s, _, _, ts := newTestServer(t, func(cfg *Config) {
		cfg.Workers = 2
		cfg.Ranker = br
		// A gate that sheds nothing here (it predicts at most 200ms of
		// wait from its 100ms cold-start estimate), for its count.
		cfg.MaxQueueWait = time.Minute
	})
	codes := make(chan int, 5)
	for i := range 5 {
		go func() {
			code, err := postStatus(ts, QueryRequest{Structure: "1p", Seed: int64(1 + i), K: 3})
			if err != nil {
				t.Error(err)
			}
			codes <- code
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		calls, _ := br.counts()
		admitted := getStats(t, ts).Admission.Inflight
		if calls == 2 && admitted == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d rankings started and %d requests admitted, want 2 and 5", calls, admitted)
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	// Close has begun once a later request is refused; until then a
	// short-deadline request times out waiting for a slot.
	for {
		code, err := postStatus(ts, QueryRequest{Structure: "1p", Seed: 100, K: 3, TimeoutMS: 500})
		if err != nil {
			t.Fatal(err)
		}
		if code == http.StatusServiceUnavailable {
			break
		}
		if code != http.StatusGatewayTimeout || time.Now().After(deadline) {
			t.Fatalf("request while Close begins: status %d, want 504 then 503", code)
		}
	}
	close(br.release)
	<-closed

	got := map[int]int{}
	for range 5 {
		got[<-codes]++
	}
	if got[http.StatusOK] != 2 || got[http.StatusServiceUnavailable] != 3 {
		t.Fatalf("statuses %v, want two 200 and three 503", got)
	}
	if calls, peak := br.counts(); calls != 2 || peak != 2 {
		t.Fatalf("%d rankings, %d at once; want 2 and 2", calls, peak)
	}
}

// TestBreakerOpensAndRecoversEndToEnd drives the circuit breaker
// through the full HTTP path: repeated shard faults open the breaker
// (responses degrade to partial without calling the shard), and once
// the fault clears a half-open probe closes it again.
func TestBreakerOpensAndRecoversEndToEnd(t *testing.T) {
	inj := resil.NewInjector()
	_, ts := newChaosServer(t, inj, func(_ *Config, opts *shard.Options) {
		opts.Breaker = &resil.BreakerConfig{
			ConsecutiveMisses: 2,
			OpenBase:          20 * time.Millisecond,
			OpenMax:           40 * time.Millisecond,
		}
	})
	inj.Set(faultScanStage, 0, resil.Fault{Kind: resil.KindError})

	// Two failing gathers trip shard 0's breaker. Distinct seeds defeat
	// the answer cache (partials are never cached anyway, but be explicit).
	for seed := int64(1); seed <= 2; seed++ {
		code, _, qr := postRaw(t, ts, QueryRequest{Structure: "1p", Seed: seed, K: 5})
		if code != http.StatusOK || !qr.Partial {
			t.Fatalf("seed %d: status %d partial=%v, want 200 partial", seed, code, qr.Partial)
		}
	}
	st := getStats(t, ts)
	if st.Shards[0].Breaker == nil || st.Shards[0].Breaker.State != "open" {
		t.Fatalf("shard 0 breaker = %+v, want open", st.Shards[0].Breaker)
	}

	// Under the open breaker the shard is skipped without being called.
	fired := inj.Fired(faultScanStage)
	code, _, qr := postRaw(t, ts, QueryRequest{Structure: "1p", Seed: 3, K: 5})
	if code != http.StatusOK || !qr.Partial {
		t.Fatalf("open-breaker query = %d partial=%v", code, qr.Partial)
	}
	if got := inj.Fired(faultScanStage); got != fired {
		t.Fatalf("open breaker still called the shard (%d → %d fires)", fired, got)
	}

	// Heal the shard; the half-open probe closes the breaker and full
	// responses resume.
	inj.Clear()
	deadline := time.Now().Add(2 * time.Second)
	for {
		code, _, qr = postRaw(t, ts, QueryRequest{Structure: "1p", Seed: 4, K: 5})
		if code != http.StatusOK {
			t.Fatalf("recovery query = %d", code)
		}
		if !qr.Partial {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never recovered; stats: %+v", getStats(t, ts).Shards[0])
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := getStats(t, ts); st.Shards[0].Breaker.State != "closed" {
		t.Fatalf("breaker after recovery = %+v, want closed", st.Shards[0].Breaker)
	}
}

// TestOpenBreakerResponsesNeverCached is the regression test for the
// "partial is never cached" invariant extended to breaker-skipped
// results: answers computed while a breaker holds a shard out must not
// be served from the cache once the shard recovers.
func TestOpenBreakerResponsesNeverCached(t *testing.T) {
	inj := resil.NewInjector()
	_, ts := newChaosServer(t, inj, func(_ *Config, opts *shard.Options) {
		opts.Breaker = &resil.BreakerConfig{
			ConsecutiveMisses: 1, // trip on the first miss
			OpenBase:          30 * time.Millisecond,
			OpenMax:           60 * time.Millisecond,
		}
	})
	inj.Set(faultScanStage, 0, resil.Fault{Kind: resil.KindError})
	req := QueryRequest{Structure: "1p", Seed: 9, K: 5}

	// Trip the breaker, then issue the same query twice under the open
	// breaker: the degraded answer must be recomputed, never cached.
	if _, _, qr := postRaw(t, ts, req); !qr.Partial {
		t.Fatalf("tripping query not partial: %+v", qr)
	}
	for i := 0; i < 2; i++ {
		code, _, qr := postRaw(t, ts, req)
		if code != http.StatusOK {
			t.Fatalf("open-breaker repeat %d: status %d", i, code)
		}
		if !qr.Partial {
			// The breaker may have probed and recovered between requests
			// only after the fault cleared; with the fault still armed a
			// probe fails, so the response stays partial.
			t.Fatalf("open-breaker repeat %d not partial: %+v", i, qr)
		}
		if qr.Cached {
			t.Fatalf("degraded answer served from cache on repeat %d", i)
		}
	}

	// After recovery the full answer is computed fresh (not the cached
	// degraded list) and only then becomes cacheable.
	inj.Clear()
	deadline := time.Now().Add(2 * time.Second)
	var qr QueryResponse
	for {
		_, _, qr = postRaw(t, ts, req)
		if !qr.Partial {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never recovered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if qr.Cached {
		t.Fatal("first full answer after recovery claimed to be cached — a degraded entry leaked into the cache")
	}
	if full, _ := postQuery(t, ts, req); !full.Cached {
		t.Fatal("full answer after recovery did not become cacheable")
	}
}

// TestAdmissionShedsWith429 pins the admission gate: with one worker
// busy on a slow ranking and an expected queue wait far beyond
// MaxQueueWait, the next request is shed immediately with 429 and a
// Retry-After hint instead of queueing toward its deadline.
func TestAdmissionShedsWith429(t *testing.T) {
	inj := resil.NewInjector()
	_, ts := newChaosServer(t, inj, func(cfg *Config, opts *shard.Options) {
		cfg.Workers = 1
		cfg.MaxQueueWait = time.Millisecond
		cfg.CacheSize = -1 // every request must actually rank
		opts.Shards = 1
		opts.ShardTimeout = 0 // the injected delay must not read as a deadline miss
	})
	// Every scan stalls 150ms: the first request primes the service-time
	// EWMA, the second occupies the only worker.
	inj.Set(faultScanStage, resil.AnyShard, resil.Fault{Kind: resil.KindDelay, Delay: 150 * time.Millisecond})

	if code, _, _ := postRaw(t, ts, QueryRequest{Structure: "1p", Seed: 1, K: 3}); code != http.StatusOK {
		t.Fatalf("priming request: status %d", code)
	}

	occupied := make(chan int, 1)
	go func() {
		code, _, _ := postRaw(t, ts, QueryRequest{Structure: "1p", Seed: 2, K: 3})
		occupied <- code
	}()
	time.Sleep(50 * time.Millisecond) // the worker is now mid-rank

	start := time.Now()
	code, hdr, _ := postRaw(t, ts, QueryRequest{Structure: "1p", Seed: 3, K: 3})
	shedLatency := time.Since(start)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overloaded request: status %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	if shedLatency > 50*time.Millisecond {
		t.Fatalf("shed took %v; admission must refuse up front, not queue", shedLatency)
	}
	if code := <-occupied; code != http.StatusOK {
		t.Fatalf("occupying request: status %d", code)
	}
	if st := getStats(t, ts); st.Admission == nil || st.Admission.Shed == 0 {
		t.Fatalf("admission stats = %+v, want shed > 0", st.Admission)
	}
}

// TestServerCloseDrainsHedgedScans is the graceful-drain regression
// test: a hedged gather returns to the client while the stalled primary
// scan is still running; Server.Close must wait for that goroutine (via
// the ranker's Close) instead of leaking it.
func TestServerCloseDrainsHedgedScans(t *testing.T) {
	baseline := runtime.NumGoroutine()
	inj := resil.NewInjector()
	inj.Set(faultScanStage, 0, resil.Fault{Kind: resil.KindDelay, Delay: 400 * time.Millisecond, Count: 1})

	m, ds := testHalkModel(61)
	r, err := m.NewShardedRanker(shard.Options{
		Shards:     2,
		HedgeDelay: time.Millisecond,
		ScanHook:   inj.ScanErrHook(faultScanStage),
		PanicLog:   discardLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Model:     m,
		Entities:  ds.Train.Entities,
		Relations: ds.Train.Relations,
		Graph:     ds.Test,
		Ranker:    r,
		PanicLog:  discardLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	qStart := time.Now()
	code, _, qr := postRaw(t, ts, QueryRequest{Structure: "1p", Seed: 9, K: 5})
	if code != http.StatusOK || qr.Partial {
		t.Fatalf("hedged query = %d partial=%v", code, qr.Partial)
	}
	responded := time.Since(qStart)

	ts.Close()
	closeStart := time.Now()
	s.Close()
	waited := time.Since(closeStart)

	// The hedge answered the request long before the stalled primary's
	// 400ms sleep finished, so a Close that truly awaits the straggler
	// must block for the remainder.
	if remaining := 400*time.Millisecond - responded; waited < remaining-100*time.Millisecond {
		t.Fatalf("Close returned after %v with a scan goroutine still sleeping (~%v left) — drain does not await hedges",
			waited, remaining)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline+3 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines after Close: %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRecoverHandlerCommittedResponse pins the panic-recovery write
// discipline: a handler that panics after committing status or body
// must not get a superfluous WriteHeader and error JSON appended to the
// response the client already started reading; a handler that panics on
// a pristine response still gets the clean 500.
func TestRecoverHandlerCommittedResponse(t *testing.T) {
	s, _, _, _ := newTestServer(t, func(cfg *Config) { cfg.PanicLog = discardLog() })

	h := s.recoverHandler("/test", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		if _, err := w.Write([]byte(`{"answers":[`)); err != nil {
			t.Errorf("Write: %v", err)
		}
		panic("fault injected mid-encode")
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/test", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("committed status rewritten to %d", rec.Code)
	}
	if got := rec.Body.String(); got != `{"answers":[` {
		t.Fatalf("garbage appended to committed response: %q", got)
	}

	h = s.recoverHandler("/test", func(w http.ResponseWriter, r *http.Request) {
		panic("fault injected before any write")
	})
	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/test", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("pristine panic answered %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "internal server error") {
		t.Fatalf("500 without the error body: %q", rec.Body.String())
	}
}

// TestAdmissionColdStartSheds pins the gate's cold-start behaviour:
// before any ranking has seeded the service-time EWMA, the gate must
// fall back to a conservative estimate and still shed a deep queue —
// not admit without bound because the predicted wait is 0.
func TestAdmissionColdStartSheds(t *testing.T) {
	g := newLimiter(2, 10*time.Millisecond, obs.NewRegistry())
	admitted := int64(0)
	for i := 0; i < 3; i++ {
		if _, ok := g.admit(context.Background(), admitted+1); !ok {
			// The third admit holds the first queue slot; with the
			// cold-start estimate even one queued request may shed under
			// a 10ms budget — both outcomes before the probe are fine.
			break
		}
		admitted++
	}
	if retry, ok := g.admit(context.Background(), admitted+1); ok {
		t.Fatal("cold gate admitted into a saturated queue (predicted wait 0)")
	} else if retry <= 0 {
		t.Fatalf("shed without a Retry-After hint: %v", retry)
	}
}
