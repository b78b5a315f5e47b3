package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/halk-kg/halk/internal/halk"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/query"
)

func testHalkModel(seed int64) (*halk.Model, *kg.Dataset) {
	ds := kg.SynthFB237(seed)
	cfg := halk.DefaultConfig(seed)
	cfg.Dim, cfg.Hidden, cfg.NumGroups = 8, 16, 4
	return halk.New(ds.Train, cfg), ds
}

func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *halk.Model, *kg.Dataset, *httptest.Server) {
	t.Helper()
	m, ds := testHalkModel(61)
	cfg := Config{
		Model:     m,
		Entities:  ds.Train.Entities,
		Relations: ds.Train.Relations,
		Graph:     ds.Test,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, m, ds, ts
}

func postQuery(t *testing.T, ts *httptest.Server, req QueryRequest) (QueryResponse, int) {
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
	}
	return qr, res.StatusCode
}

func getStats(t *testing.T, ts *httptest.Server) statsResponse {
	t.Helper()
	res, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	defer res.Body.Close()
	var sr statsResponse
	if err := json.NewDecoder(res.Body).Decode(&sr); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	return sr
}

// dslFor renders a 1p query over the given entity/relation IDs in the
// prefix DSL using the dataset's names.
func dslFor(ds *kg.Dataset, r kg.RelationID, e kg.EntityID) string {
	return fmt.Sprintf("p[%s](%s)", ds.Train.Relations.Name(int32(r)), ds.Train.Entities.Name(int32(e)))
}

// sampleQuery draws a test-split query of the given structure.
func sampleQuery(t *testing.T, ds *kg.Dataset, structure string, seed int64) *query.Node {
	t.Helper()
	s := query.NewSampler(ds.Test, rand.New(rand.NewSource(seed)))
	q, ok := s.Sample(structure)
	if !ok {
		t.Fatalf("sampling %s failed", structure)
	}
	return q
}

func TestServedAnswersMatchModelTopK(t *testing.T) {
	_, m, ds, ts := newTestServer(t, nil)
	// Structure sampling is seeded, so the server draws exactly the
	// query we sample locally.
	root := sampleQuery(t, ds, "2i", 7)

	qr, code := postQuery(t, ts, QueryRequest{Structure: "2i", Seed: 7, K: 15})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if qr.Query != root.String() {
		t.Fatalf("server sampled %s, local sampler drew %s", qr.Query, root)
	}
	want := m.TopK(root, 15)
	if len(qr.Answers) != len(want) {
		t.Fatalf("got %d answers, want %d", len(qr.Answers), len(want))
	}
	for i, a := range qr.Answers {
		if a.ID != want[i] {
			t.Errorf("answer %d: id %d, want %d", i, a.ID, want[i])
		}
		if a.Entity != ds.Train.Entities.Name(int32(want[i])) {
			t.Errorf("answer %d: entity %q mismatched", i, a.Entity)
		}
		if a.Distance == nil {
			t.Errorf("answer %d: missing distance in exact mode", i)
		}
	}
	if qr.Cached {
		t.Error("first request reported cached=true")
	}
}

func TestRepeatQueryIsCacheHit(t *testing.T) {
	_, _, ds, ts := newTestServer(t, nil)
	req := QueryRequest{Query: dslFor(ds, 3, 12), K: 5}

	first, code := postQuery(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	second, code := postQuery(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if first.Cached || !second.Cached {
		t.Fatalf("cached flags = %v, %v; want false, true", first.Cached, second.Cached)
	}
	if len(second.Answers) != len(first.Answers) {
		t.Fatal("cached answers differ in length")
	}
	for i := range first.Answers {
		if second.Answers[i].ID != first.Answers[i].ID {
			t.Fatalf("cached answer %d differs", i)
		}
	}

	stats := getStats(t, ts)
	if stats.Cache.Hits < 1 {
		t.Errorf("stats report %d cache hits, want >= 1", stats.Cache.Hits)
	}
	if stats.Cache.Misses < 1 {
		t.Errorf("stats report %d cache misses, want >= 1", stats.Cache.Misses)
	}
	if stats.Endpoints["/v1/query"].Requests < 2 {
		t.Errorf("stats report %d /v1/query requests, want >= 2", stats.Endpoints["/v1/query"].Requests)
	}
}

func TestEquivalentPhrasingsShareCacheEntry(t *testing.T) {
	_, _, ds, ts := newTestServer(t, nil)
	a := dslFor(ds, 2, 9)
	b := dslFor(ds, 5, 31)

	first, code := postQuery(t, ts, QueryRequest{Query: fmt.Sprintf("i(%s, %s)", a, b), K: 5})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	swapped, code := postQuery(t, ts, QueryRequest{Query: fmt.Sprintf("i(%s, %s)", b, a), K: 5})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !swapped.Cached {
		t.Error("i(b, a) missed the cache entry created by i(a, b)")
	}
	if first.Canonical != swapped.Canonical {
		t.Errorf("canonical keys differ: %s vs %s", first.Canonical, swapped.Canonical)
	}
}

func TestSPARQLAndStructureModes(t *testing.T) {
	_, _, ds, ts := newTestServer(t, nil)

	// SPARQL through the shared per-server adaptor. Entity/relation
	// names are e0007-style in the synthetic datasets.
	rel := ds.Train.Relations.Name(0)
	ent := ds.Train.Entities.Name(7)
	sparqlSrc := fmt.Sprintf("SELECT ?x WHERE { :%s :%s ?x }", ent, rel)
	if qr, code := postQuery(t, ts, QueryRequest{SPARQL: sparqlSrc, K: 3}); code != http.StatusOK {
		t.Fatalf("sparql mode: status %d", code)
	} else if len(qr.Answers) != 3 {
		t.Fatalf("sparql mode: %d answers", len(qr.Answers))
	}

	if qr, code := postQuery(t, ts, QueryRequest{Structure: "2p", Seed: 11, K: 4}); code != http.StatusOK {
		t.Fatalf("structure mode: status %d", code)
	} else if qr.Structure != "2p" || len(qr.Answers) != 4 {
		t.Fatalf("structure mode: structure=%q answers=%d", qr.Structure, len(qr.Answers))
	}
}

func TestRequestValidation(t *testing.T) {
	_, _, ds, ts := newTestServer(t, nil)
	cases := []QueryRequest{
		{},                                     // no input form
		{Query: "p[r?](nope)"},                 // unparseable DSL
		{Query: dslFor(ds, 0, 1), SPARQL: "x"}, // two forms
		{Structure: "no-such-structure"},
		{Query: dslFor(ds, 0, 1), Mode: "fuzzy"},
		{Query: dslFor(ds, 0, 1), Mode: "approx"}, // exact is the only mode
	}
	for i, req := range cases {
		if _, code := postQuery(t, ts, req); code != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, code)
		}
	}
}

// TestCompileBoundsDNF: a short body whose DNF rewrite would multiply
// out (an intersection of 16 two-way unions, 65 536 disjuncts) is
// refused with 400 before anything expands it; a query at the bound is
// served, and every benchmark structure compiles.
func TestCompileBoundsDNF(t *testing.T) {
	_, _, ds, ts := newTestServer(t, nil)
	unions := func(n int) string {
		parts := make([]string, n)
		for i := range parts {
			parts[i] = fmt.Sprintf("u(%s,%s)", dslFor(ds, 0, 1), dslFor(ds, 1, 2))
		}
		return "i(" + strings.Join(parts, ",") + ")"
	}
	begin := time.Now()
	if _, code := postQuery(t, ts, QueryRequest{Query: unions(16), K: 3}); code != http.StatusBadRequest {
		t.Fatalf("16 unions under one intersection: status %d, want 400", code)
	}
	if d := time.Since(begin); d > 2*time.Second {
		t.Errorf("refusing the 16-union body took %v", d)
	}
	if _, code := postQuery(t, ts, QueryRequest{Query: unions(7), K: 3}); code != http.StatusBadRequest {
		t.Errorf("128 disjuncts: status %d, want 400", code)
	}
	if _, code := postQuery(t, ts, QueryRequest{Query: unions(6), K: 3}); code != http.StatusOK {
		t.Errorf("64 disjuncts, the bound: status %d, want 200", code)
	}
	for _, name := range query.StructureNames() {
		for seed := int64(1); seed <= 5; seed++ {
			if _, err := Compile(QueryForm{Structure: name, Seed: seed}, ds.Train.Entities, ds.Train.Relations, ds.Test); err != nil {
				t.Errorf("structure %s seed %d: %v", name, seed, err)
			}
		}
	}
}

func TestHealthz(t *testing.T) {
	_, m, _, ts := newTestServer(t, nil)
	res, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
	var h map[string]any
	if err := json.NewDecoder(res.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" || h["model"] != m.Name() {
		t.Fatalf("healthz = %v", h)
	}
}

// slowModel wedges Distances until its context dies, to exercise the
// per-request deadline path.
type slowModel struct{}

func (slowModel) Name() string          { return "slow" }
func (slowModel) EntityVersion() uint64 { return 0 }
func (slowModel) DistancesContext(ctx context.Context, _ *query.Node) ([]float64, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func TestRequestTimeout(t *testing.T) {
	_, _, ds, ts := newTestServer(t, func(c *Config) {
		c.Model = slowModel{}
	})
	_, code := postQuery(t, ts, QueryRequest{Query: dslFor(ds, 0, 1), TimeoutMS: 30})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", code)
	}
}

// TestConcurrentServingDuringEntityUpdate is the acceptance scenario:
// many requests in flight on the pool while the entity table is being
// patched through the thread-safe update entry point. Run with -race.
func TestConcurrentServingDuringEntityUpdate(t *testing.T) {
	srv, m, ds, ts := newTestServer(t, func(c *Config) { c.Workers = 4 })

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				req := QueryRequest{Structure: "2i", Seed: int64(100 + w*6 + i), K: 5}
				if _, code := postQuery(t, ts, req); code != http.StatusOK {
					t.Errorf("worker %d: status %d", w, code)
					return
				}
			}
		}(w)
	}

	angles := make([]float64, 8)
	for i := 0; i < 40; i++ {
		for j := range angles {
			angles[j] += 0.05
		}
		if err := m.SetEntityAnglesBatch([]halk.EntityUpdate{{E: kg.EntityID(i % ds.Train.NumEntities()), Angles: angles}}); err != nil {
			t.Errorf("SetEntityAnglesBatch: %v", err)
			break
		}
		srv.FlushCache()
	}
	wg.Wait()

	stats := getStats(t, ts)
	if stats.Endpoints["/v1/query"].Requests < 24 {
		t.Errorf("stats saw %d query requests, want >= 24", stats.Endpoints["/v1/query"].Requests)
	}
}

func TestCloseDrainsAndRefuses(t *testing.T) {
	m, ds := testHalkModel(67)
	s, err := New(Config{Model: m, Entities: ds.Train.Entities, Relations: ds.Train.Relations})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	err = s.lim.Do(context.Background(), func() error { return nil })
	if err != errClosed {
		t.Fatalf("Do after Close: %v, want errClosed", err)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(QueryRequest{Query: dslFor(ds, 0, 1)})
	res, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 while draining", res.StatusCode)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	m, ds := testHalkModel(68)
	if _, err := New(Config{Model: m}); err == nil {
		t.Error("missing dictionaries accepted")
	}
	s, err := New(Config{Model: m, Entities: ds.Train.Entities, Relations: ds.Train.Relations})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Workers() < 1 {
		t.Error("workers not defaulted")
	}
	// Structure mode without a graph must 400, not panic.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(QueryRequest{Structure: "1p"})
	res, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Errorf("structure without graph: status %d, want 400", res.StatusCode)
	}
}

func TestStatsLatencyQuantilesPopulated(t *testing.T) {
	_, _, ds, ts := newTestServer(t, nil)
	for i := 0; i < 5; i++ {
		postQuery(t, ts, QueryRequest{Query: dslFor(ds, 1, kg.EntityID(i)), K: 3})
	}
	stats := getStats(t, ts)
	q := stats.Endpoints["/v1/query"]
	if q.Requests != 5 {
		t.Fatalf("requests = %d", q.Requests)
	}
	if q.LatencyMs.P50 <= 0 || q.LatencyMs.P99 < q.LatencyMs.P50 {
		t.Errorf("latency quantiles implausible: %+v", q.LatencyMs)
	}
	if time.Duration(stats.UptimeS*float64(time.Second)) <= 0 {
		t.Error("uptime not reported")
	}
}
