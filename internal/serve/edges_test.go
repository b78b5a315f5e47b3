package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/halk-kg/halk/internal/halk"
	"github.com/halk-kg/halk/internal/ingest"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/query"
)

// newIngestServer builds a server whose Edges sink is a live Ingester
// fine-tuning the served model, with the drain loop running.
func newIngestServer(t *testing.T, mutate func(*Config)) (*Server, *halk.Model, *kg.Dataset, *httptest.Server, *ingest.Ingester) {
	t.Helper()
	m, ds := testHalkModel(61)
	w, err := ingest.OpenWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	in, err := ingest.New(ingest.Config{
		Model:    m,
		WAL:      w,
		Interval: 5 * time.Millisecond,
		FineTune: halk.FineTuneConfig{Seed: 42},
		// The unsharded server answers from the live model table, so
		// publication has nothing to swap — but the publish path still
		// runs so its counters and dirty-set bookkeeping are exercised.
		Publish: func([]kg.EntityID) error { return nil },
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	in.Start()
	t.Cleanup(in.Close)
	cfg := Config{
		Model:     m,
		Entities:  ds.Train.Entities,
		Relations: ds.Train.Relations,
		Graph:     ds.Test,
		Edges:     in,
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
	return s, m, ds, ts, in
}

func postEdges(t *testing.T, ts *httptest.Server, req edgesRequest) (edgesResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(ts.URL+"/v1/edges", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/edges: %v", err)
	}
	defer res.Body.Close()
	var er edgesResponse
	if res.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(res.Body).Decode(&er); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return er, res.StatusCode
}

// nonEdgeSpec finds a (h, r, t) not present in the graph, with h having
// at least one r-successor so the 1p query p[r](h) is meaningful.
func nonEdgeSpec(t *testing.T, ds *kg.Dataset) (kg.EntityID, kg.RelationID, kg.EntityID) {
	t.Helper()
	g := ds.Train
	n := kg.EntityID(g.Entities.Len())
	for h := kg.EntityID(0); h < n; h++ {
		for r := kg.RelationID(0); int(r) < g.Relations.Len(); r++ {
			succ := g.Successors(h, r)
			if len(succ) == 0 {
				continue
			}
			have := make(map[kg.EntityID]struct{}, len(succ))
			for _, s := range succ {
				have[s] = struct{}{}
			}
			for cand := kg.EntityID(0); cand < n; cand++ {
				if _, ok := have[cand]; !ok && cand != h {
					return h, r, cand
				}
			}
		}
	}
	t.Fatal("no non-edge found")
	return 0, 0, 0
}

func TestEdgesEndpointValidation(t *testing.T) {
	// Without a sink the endpoint is disabled.
	_, _, _, bare := newTestServer(t, nil)
	if _, code := postEdges(t, bare, edgesRequest{Add: []edgeSpec{{H: "e0000", R: "r000", T: "e0001"}}}); code != http.StatusServiceUnavailable {
		t.Fatalf("no-sink status = %d, want 503", code)
	}

	_, _, ds, ts, _ := newIngestServer(t, nil)
	h := ds.Train.Entities.Name(0)
	rel := ds.Train.Relations.Name(0)
	tail := ds.Train.Entities.Name(1)

	res, err := http.Get(ts.URL + "/v1/edges")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d, want 405", res.StatusCode)
	}

	if _, code := postEdges(t, ts, edgesRequest{}); code != http.StatusBadRequest {
		t.Fatalf("empty batch status = %d, want 400", code)
	}
	for _, bad := range []edgesRequest{
		{Add: []edgeSpec{{H: "no-such-entity", R: rel, T: tail}}},
		{Add: []edgeSpec{{H: h, R: "no-such-relation", T: tail}}},
		{Remove: []edgeSpec{{H: h, R: rel, T: "no-such-entity"}}},
	} {
		if _, code := postEdges(t, ts, bad); code != http.StatusBadRequest {
			t.Fatalf("unknown-name batch %+v: status = %d, want 400", bad, code)
		}
	}
	// A batch of valid names is accepted and durably sequenced.
	er, code := postEdges(t, ts, edgesRequest{Add: []edgeSpec{{H: h, R: rel, T: tail}}})
	if code != http.StatusAccepted {
		t.Fatalf("valid batch status = %d, want 202", code)
	}
	if er.Seq == 0 || er.Added != 1 {
		t.Fatalf("ack = %+v, want seq>0 added=1", er)
	}
}

// TestBodySizeLimit: every mutating endpoint refuses a body of 1 MiB + 1
// byte with 413 instead of buffering it.
func TestBodySizeLimit(t *testing.T) {
	_, _, ds, ts, _ := newIngestServer(t, nil)

	// Valid JSON that is simply too large: padding inside a string field
	// keeps the request well-formed so only the limit can reject it.
	oversized := func(head, tail string) string {
		return head + strings.Repeat("x", 1<<20+1-len(head)-len(tail)) + tail
	}
	for _, c := range []struct{ path, body string }{
		{"/v1/query", oversized(`{"query": "p[r000](e0000) `, `"}`)},
		{"/v1/batch", oversized(`{"queries": [{"query": "p[r000](e0000) `, `"}]}`)},
		{"/v1/edges", oversized(`{"add":[{"h":"e0000","r":"r000","t":"e0001"}],"remove":[{"h":"`, `","r":"r000","t":"e0001"}]}`)},
	} {
		res, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: %d-byte body status = %d, want 413", c.path, len(c.body), res.StatusCode)
		}
	}

	// An in-limit request on the same server still succeeds.
	if _, code := postQuery(t, ts, QueryRequest{Query: dslFor(ds, 0, 0), K: 3}); code != http.StatusOK {
		t.Fatalf("in-limit query status = %d, want 200", code)
	}
}

// TestCacheNeverServedAcrossBump is the satellite-1 regression: once the
// entity table version bumps, a cached answer computed from the old
// table must be unreachable — the repeat query recomputes on the new
// table and only then becomes cacheable under the new version.
func TestCacheNeverServedAcrossBump(t *testing.T) {
	_, m, ds, ts := newTestServer(t, nil)
	req := QueryRequest{Query: dslFor(ds, 3, 12), K: 5}

	if qr, code := postQuery(t, ts, req); code != http.StatusOK || qr.Cached {
		t.Fatalf("first query: code=%d cached=%v", code, qr.Cached)
	}
	if qr, _ := postQuery(t, ts, req); !qr.Cached {
		t.Fatal("repeat query not cached")
	}

	// Bump the entity version through every mutation path in turn; after
	// each bump the old cached answer must not be served.
	bump := func(name string, f func()) {
		t.Helper()
		before := m.EntityVersion()
		f()
		if m.EntityVersion() == before {
			t.Fatalf("%s did not bump the entity version", name)
		}
		qr, code := postQuery(t, ts, req)
		if code != http.StatusOK {
			t.Fatalf("%s: post-bump query status %d", name, code)
		}
		if qr.Cached {
			t.Fatalf("%s: cached answer served across a version bump", name)
		}
		if qr2, _ := postQuery(t, ts, req); !qr2.Cached {
			t.Fatalf("%s: post-bump repeat not cached under the new version", name)
		}
	}

	angles := append([]float64(nil), m.EntityAngles(12)...)
	for i := range angles {
		angles[i] += 0.01
	}
	bump("SetEntityAnglesBatch (first)", func() {
		if err := m.SetEntityAnglesBatch([]halk.EntityUpdate{{E: 12, Angles: angles}}); err != nil {
			t.Fatal(err)
		}
	})
	for i := range angles {
		angles[i] += 0.01
	}
	bump("SetEntityAnglesBatch", func() {
		if err := m.SetEntityAnglesBatch([]halk.EntityUpdate{{E: 12, Angles: angles}}); err != nil {
			t.Fatal(err)
		}
	})
	h, r, tail := nonEdgeSpec(t, ds)
	bump("FineTuneEdges", func() {
		if _, err := m.FineTuneEdges([]kg.Triple{{H: h, R: r, T: tail}}, nil, halk.FineTuneConfig{Seed: 9}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestEdgesEndToEndDelta is the ISSUE acceptance test (parts a and b):
// edges submitted over HTTP are durably logged, fine-tuned in the
// background, and published such that (a) untouched embeddings are
// byte-identical and (b) post-publish answers reflect the fine-tuned
// table with zero stale cache hits.
func TestEdgesEndToEndDelta(t *testing.T) {
	_, m, ds, ts, _ := newIngestServer(t, nil)
	h, r, tail := nonEdgeSpec(t, ds)
	name := func(e kg.EntityID) string { return ds.Train.Entities.Name(int32(e)) }
	req := QueryRequest{Query: dslFor(ds, r, h), K: 5}

	// Warm the cache on the pre-update table.
	if qr, code := postQuery(t, ts, req); code != http.StatusOK || qr.Cached {
		t.Fatalf("warm query: code=%d cached=%v", code, qr.Cached)
	}
	if qr, _ := postQuery(t, ts, req); !qr.Cached {
		t.Fatal("warm repeat not cached")
	}

	// Snapshot every embedding row and the query's distance to the new
	// tail before the update.
	numEnt := ds.Train.Entities.Len()
	before := make([][]float64, numEnt)
	for e := 0; e < numEnt; e++ {
		before[e] = append([]float64(nil), m.EntityAngles(kg.EntityID(e))...)
	}
	q, err := query.Parse(req.Query, ds.Train.Entities, ds.Train.Relations)
	if err != nil {
		t.Fatal(err)
	}
	distBefore := m.Distances(q)[tail]
	v0 := m.EntityVersion()

	er, code := postEdges(t, ts, edgesRequest{Add: []edgeSpec{{H: name(h), R: ds.Train.Relations.Name(int32(r)), T: name(tail)}}})
	if code != http.StatusAccepted {
		t.Fatalf("edges status = %d, want 202", code)
	}
	if er.Seq == 0 {
		t.Fatalf("ack seq = 0")
	}

	// Wait for the background drain to apply and bump the version.
	deadline := time.Now().Add(10 * time.Second)
	for m.EntityVersion() == v0 {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the ingest drain to apply")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// (a) Untouched embeddings are byte-identical: only the dirty set —
	// head, tail, and the bounded negative sample — may move.
	changed := 0
	for e := 0; e < numEnt; e++ {
		row := m.EntityAngles(kg.EntityID(e))
		same := true
		for i := range row {
			if row[i] != before[e][i] {
				same = false
				break
			}
		}
		if !same {
			changed++
		}
	}
	maxDirty := 2 + 8 // head + tail + default NegSamples
	if changed == 0 || changed > maxDirty {
		t.Fatalf("changed rows = %d, want in [1, %d] (dirty-set fine-tune)", changed, maxDirty)
	}

	// The fine-tune pulled the asserted tail toward the query.
	if distAfter := m.Distances(q)[tail]; distAfter >= distBefore {
		t.Fatalf("distance to asserted tail did not shrink: %.6f -> %.6f", distBefore, distAfter)
	}

	// (b) Zero stale cache hits: the post-publish query recomputes on the
	// new table and matches the live model exactly.
	qr, code := postQuery(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("post-publish query status = %d", code)
	}
	if qr.Cached {
		t.Fatal("stale cached answer served after the delta publish")
	}
	want := m.TopK(q, 5)
	if len(qr.Answers) != len(want) {
		t.Fatalf("got %d answers, want %d", len(qr.Answers), len(want))
	}
	for i, a := range qr.Answers {
		if a.ID != want[i] {
			t.Fatalf("answer %d: id %d, want %d (stale table?)", i, a.ID, want[i])
		}
	}
	if qr2, _ := postQuery(t, ts, req); !qr2.Cached {
		t.Fatal("repeat under the new version not cached")
	}

	// The ingest stats surface the applied batch.
	st := getStats(t, ts)
	if st.Ingest == nil {
		t.Fatal("stats missing ingest section")
	}
	if st.Ingest.AppliedEdges == 0 || st.Ingest.Publishes == 0 {
		t.Fatalf("ingest stats = %+v, want applied edges and publishes > 0", st.Ingest)
	}
}
