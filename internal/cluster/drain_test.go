package cluster

import (
	"context"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"github.com/halk-kg/halk/internal/query"
	"github.com/halk-kg/halk/internal/resil"
)

// TestNodeDrainHealthz pins the drain wire contract: POST /v1/drain
// flips readiness to 503 with a full "draining" health body — which the
// Health client decodes as a report, not an error — while the drain
// channel fires exactly once however many times drain is requested.
func TestNodeDrainHealthz(t *testing.T) {
	m, ds := testModel(61)
	tn := startNode(t, m, ds, 0, ds.Train.NumEntities(), nil)
	remote := NewRemoteShard(tn.addr(), nil)

	h, err := remote.Health(context.Background())
	if err != nil || h.Status != "ok" {
		t.Fatalf("pre-drain Health = (%+v, %v), want ok", h, err)
	}
	if tn.node.Draining() {
		t.Fatal("node draining before any drain request")
	}
	select {
	case <-tn.node.DrainC():
		t.Fatal("drain channel fired before any drain request")
	default:
	}

	if err := remote.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !tn.node.Draining() {
		t.Fatal("node not draining after POST /v1/drain")
	}
	select {
	case <-tn.node.DrainC():
	case <-time.After(time.Second):
		t.Fatal("drain channel did not fire")
	}
	// Idempotent: a second request (HTTP or direct) is a no-op.
	if err := remote.Drain(context.Background()); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
	tn.node.Drain()

	// The raw endpoint answers 503 with the full health body...
	res, err := http.Get(tn.addr() + "/v1/healthz")
	if err != nil {
		t.Fatalf("GET /v1/healthz: %v", err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status = %d, want 503", res.StatusCode)
	}
	// ...and the router's client reads it as a draining report, not an
	// error — that distinction drives the draining-vs-down state split.
	h, err = remote.Health(context.Background())
	if err != nil {
		t.Fatalf("Health of a draining node: %v", err)
	}
	if h.Status != HealthDraining {
		t.Fatalf("draining Health.Status = %q, want %q", h.Status, HealthDraining)
	}
	if h.Lo != 0 || h.Hi != ds.Train.NumEntities() {
		t.Fatalf("draining health lost the hosted range: [%d, %d)", h.Lo, h.Hi)
	}
}

// TestNodeDrainKeepsServingScans is the mid-scan-kill regression: a
// drain arriving while a scan is in flight must not kill it, and scans
// issued after the drain (failover last resorts, stragglers of a
// gather already routed here) still answer — readiness fails first,
// the data path fails never.
func TestNodeDrainKeepsServingScans(t *testing.T) {
	m, ds := testModel(61)
	tn := startNode(t, m, ds, 0, ds.Train.NumEntities(), nil)
	remote := NewRemoteShard(tn.addr(), nil)

	s := query.NewSampler(ds.Test, rand.New(rand.NewSource(62)))
	q, ok := s.Sample("1p")
	if !ok {
		t.Fatal("sampling 1p failed")
	}
	specs := m.EmbedQuery(q)

	want, err := remote.Scan(context.Background(), &ScanRequest{Arcs: specs, K: 5})
	if err != nil {
		t.Fatalf("baseline scan: %v", err)
	}

	// Wedge the next scan long enough to drain mid-flight.
	tn.inj.Set(FaultStageScan, resil.AnyShard, resil.Fault{Kind: resil.KindDelay, Delay: 150 * time.Millisecond, Count: 1})
	var wg sync.WaitGroup
	wg.Add(1)
	var midResp *ScanResponse
	var midErr error
	go func() {
		defer wg.Done()
		midResp, midErr = remote.Scan(context.Background(), &ScanRequest{Arcs: specs, K: 5})
	}()
	time.Sleep(30 * time.Millisecond)
	tn.node.Drain()
	wg.Wait()
	if midErr != nil {
		t.Fatalf("scan in flight when drain arrived: %v", midErr)
	}
	if midResp.Partial {
		t.Fatal("mid-drain scan degraded to partial")
	}

	// A scan issued after the drain still answers byte-identically.
	got, err := remote.Scan(context.Background(), &ScanRequest{Arcs: specs, K: 5})
	if err != nil {
		t.Fatalf("post-drain scan: %v", err)
	}
	if len(got.IDs) != len(want.IDs) {
		t.Fatalf("post-drain scan: %d answers, want %d", len(got.IDs), len(want.IDs))
	}
	for i := range want.IDs {
		if got.IDs[i] != want.IDs[i] || math.Float64bits(got.Dists[i]) != math.Float64bits(want.Dists[i]) {
			t.Fatalf("post-drain scan diverges at rank %d", i)
		}
	}
}

// TestNodeQueueDepthReported asserts the inflight gauge rides the wire:
// a node with wedged concurrent scans reports a positive queue depth on
// /v1/healthz, and an idle node reports zero on both surfaces.
func TestNodeQueueDepthReported(t *testing.T) {
	m, ds := testModel(61)
	tn := startNode(t, m, ds, 0, ds.Train.NumEntities(), nil)
	remote := NewRemoteShard(tn.addr(), nil)

	s := query.NewSampler(ds.Test, rand.New(rand.NewSource(62)))
	q, ok := s.Sample("1p")
	if !ok {
		t.Fatal("sampling 1p failed")
	}
	specs := m.EmbedQuery(q)

	// Idle: a lone scan reports no other work queued behind it.
	resp, err := remote.Scan(context.Background(), &ScanRequest{Arcs: specs, K: 5})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if resp.Queue != 0 {
		t.Fatalf("lone scan reported queue depth %d, want 0", resp.Queue)
	}

	// Wedge two scans and watch the health report see them.
	tn.inj.Set(FaultStageScan, resil.AnyShard, resil.Fault{Kind: resil.KindDelay, Delay: 300 * time.Millisecond, Count: 2})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			remote.Scan(context.Background(), &ScanRequest{Arcs: specs, K: 5}) //nolint:errcheck
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	sawDepth := false
	for time.Now().Before(deadline) {
		h, err := remote.Health(context.Background())
		if err == nil && h.Queue >= 1 {
			sawDepth = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	wg.Wait()
	if !sawDepth {
		t.Fatal("healthz never reported the wedged scans' queue depth")
	}

	// Back to idle.
	h, err := remote.Health(context.Background())
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if h.Queue != 0 {
		t.Fatalf("idle queue depth = %d, want 0", h.Queue)
	}
}
