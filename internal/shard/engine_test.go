package shard

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/halk-kg/halk/internal/geometry"
)

// testTable builds a random entity table and a couple of value-level
// arcs, returning the raw (center, length, hot) triples the reference
// scorer needs alongside the prepared arcs.
type testArc struct {
	c, l, hot []float64
}

func testSetup(seed int64, ents, dim, numArcs, groups int) (Params, Source, []testArc, []Arc) {
	rng := rand.New(rand.NewSource(seed))
	p := Params{Dim: dim, Rho: 1, Eta: 0.02, Xi: 10}
	src := Source{
		Angles:  make([]float64, ents*dim),
		Group:   make([]int32, ents),
		Version: 1,
	}
	for i := range src.Angles {
		src.Angles[i] = rng.Float64() * geometry.TwoPi
	}
	for i := range src.Group {
		src.Group[i] = int32(rng.Intn(groups))
	}
	raw := make([]testArc, numArcs)
	pre := make([]Arc, numArcs)
	for a := range raw {
		c := make([]float64, dim)
		l := make([]float64, dim)
		hot := make([]float64, groups)
		for j := range c {
			c[j] = rng.Float64() * geometry.TwoPi
			l[j] = rng.Float64() * p.Rho
		}
		for g := range hot {
			if rng.Float64() < 0.5 {
				hot[g] = 1
			}
		}
		raw[a] = testArc{c, l, hot}
		pre[a] = PrepareArc(p, c, l, hot)
	}
	return p, src, raw, pre
}

// refDistance scores one entity with the closed-form geometry functions
// — an implementation independent of the scan loop.
func refDistance(p Params, src Source, arcs []testArc, e int) float64 {
	point := src.Angles[e*p.Dim : (e+1)*p.Dim]
	best := math.Inf(1)
	for _, a := range arcs {
		d := geometry.Distance(p.Rho, p.Eta, point, a.c, a.l)
		if pen := 1 - a.hot[src.Group[e]]; pen > 0 {
			d += p.Xi * pen
		}
		if d < best {
			best = d
		}
	}
	return best
}

func refRanking(p Params, src Source, arcs []testArc, k int) ([]float64, []int32) {
	ents := len(src.Angles) / p.Dim
	d := make([]float64, ents)
	id := make([]int32, ents)
	for e := 0; e < ents; e++ {
		d[e] = refDistance(p, src, arcs, e)
		id[e] = int32(e)
	}
	return refTopK(d, id, k)
}

func newTestEngine(t *testing.T, p Params, src Source, opts Options) *Engine {
	t.Helper()
	e := NewEngine(p, opts)
	if err := e.Swap(src); err != nil {
		t.Fatalf("Swap: %v", err)
	}
	return e
}

// TestShardCountsAgree is the scatter-gather correctness core: the same
// table ranked through 1, 2 and 7 shards (103 entities — not divisible
// by either) must return identical top-K IDs and distances, and both
// must match the closed-form reference ranking.
func TestShardCountsAgree(t *testing.T) {
	const k = 17
	p, src, raw, pre := testSetup(11, 103, 6, 2, 4)
	wantD, wantID := refRanking(p, src, raw, k)

	for _, n := range []int{1, 2, 7} {
		e := newTestEngine(t, p, src, Options{Shards: n})
		res, err := e.TopK(context.Background(), pre, k)
		if err != nil {
			t.Fatalf("shards=%d: %v", n, err)
		}
		if res.Partial || len(res.Skipped) != 0 || len(res.Answered) != n {
			t.Fatalf("shards=%d: unexpected partial state %+v", n, res)
		}
		if res.Version != src.Version {
			t.Fatalf("shards=%d: version %d, want %d", n, res.Version, src.Version)
		}
		if len(res.IDs) != len(wantID) {
			t.Fatalf("shards=%d: %d answers, want %d", n, len(res.IDs), len(wantID))
		}
		for i := range wantID {
			if int32(res.IDs[i]) != wantID[i] {
				t.Errorf("shards=%d: rank %d = entity %d, want %d", n, i, res.IDs[i], wantID[i])
			}
			if math.Abs(res.Dists[i]-wantD[i]) > 1e-9 {
				t.Errorf("shards=%d: rank %d dist %.12f, want %.12f", n, i, res.Dists[i], wantD[i])
			}
		}
	}
}

// TestShardCountsByteIdentical pins the stronger guarantee: N>1 and N=1
// produce byte-identical distances (same float operations in the same
// order), not merely values within a tolerance.
func TestShardCountsByteIdentical(t *testing.T) {
	const k = 25
	p, src, _, pre := testSetup(13, 257, 8, 3, 5)
	base := newTestEngine(t, p, src, Options{Shards: 1})
	want, err := base.TopK(context.Background(), pre, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 4, 7} {
		e := newTestEngine(t, p, src, Options{Shards: n})
		got, err := e.TopK(context.Background(), pre, k)
		if err != nil {
			t.Fatalf("shards=%d: %v", n, err)
		}
		for i := range want.IDs {
			if got.IDs[i] != want.IDs[i] || got.Dists[i] != want.Dists[i] {
				t.Fatalf("shards=%d: rank %d = (%d, %v), want (%d, %v)",
					n, i, got.IDs[i], got.Dists[i], want.IDs[i], want.Dists[i])
			}
		}
	}
}

func TestKLargerThanTable(t *testing.T) {
	p, src, _, pre := testSetup(17, 10, 4, 1, 3)
	e := newTestEngine(t, p, src, Options{Shards: 3})
	res, err := e.TopK(context.Background(), pre, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 10 {
		t.Fatalf("got %d answers for k=50 over 10 entities", len(res.IDs))
	}
}

func TestMoreShardsThanEntities(t *testing.T) {
	p, src, _, pre := testSetup(19, 3, 4, 1, 3)
	e := newTestEngine(t, p, src, Options{Shards: 8})
	res, err := e.TopK(context.Background(), pre, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 3 {
		t.Fatalf("got %d answers, want 3", len(res.IDs))
	}
}

// TestPartialResultOnSlowShard injects a wedged shard: the result must
// be marked partial, name the shards that answered, and contain no
// entity from the skipped shard's range.
func TestPartialResultOnSlowShard(t *testing.T) {
	p, src, _, pre := testSetup(23, 120, 6, 2, 4)
	e := NewEngine(p, Options{Shards: 3, ShardTimeout: 30 * time.Millisecond})
	if err := e.Swap(src); err != nil {
		t.Fatal(err)
	}
	e.opts.ScanHook = func(i int) {
		if i == 1 {
			time.Sleep(150 * time.Millisecond)
		}
	}
	res, err := e.TopK(context.Background(), pre, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("result not marked partial with a wedged shard")
	}
	if len(res.Skipped) != 1 || res.Skipped[0] != 1 {
		t.Fatalf("skipped = %v, want [1]", res.Skipped)
	}
	if len(res.Answered) != 2 {
		t.Fatalf("answered = %v, want shards 0 and 2", res.Answered)
	}
	snap := e.snap.Load()
	lo, hi := snap.shards[1].lo, snap.shards[1].hi
	for _, id := range res.IDs {
		if int(id) >= lo && int(id) < hi {
			t.Fatalf("answer %d came from the skipped shard [%d, %d)", id, lo, hi)
		}
	}

	stats := e.Stats()
	if stats[1].Skips != 1 {
		t.Errorf("shard 1 skip counter = %d, want 1", stats[1].Skips)
	}
	if stats[0].Scans != 1 || stats[2].Scans != 1 {
		t.Errorf("scan counters = %d, %d, want 1, 1", stats[0].Scans, stats[2].Scans)
	}
	if stats[0].LastScanMs < 0 || stats[0].MeanScanMs < 0 {
		t.Errorf("implausible latency stats: %+v", stats[0])
	}
}

func TestAllShardsSkipped(t *testing.T) {
	p, src, _, pre := testSetup(29, 60, 6, 1, 4)
	e := NewEngine(p, Options{Shards: 2, ShardTimeout: 10 * time.Millisecond})
	if err := e.Swap(src); err != nil {
		t.Fatal(err)
	}
	e.opts.ScanHook = func(int) { time.Sleep(80 * time.Millisecond) }
	if _, err := e.TopK(context.Background(), pre, 5); err != ErrAllShardsSkipped {
		t.Fatalf("err = %v, want ErrAllShardsSkipped", err)
	}
}

func TestQueryContextCancellation(t *testing.T) {
	p, src, _, pre := testSetup(31, 60, 6, 1, 4)
	e := newTestEngine(t, p, src, Options{Shards: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.TopK(ctx, pre, 5); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRankingBeforeSwap(t *testing.T) {
	p, _, _, pre := testSetup(37, 10, 4, 1, 3)
	e := NewEngine(p, Options{Shards: 2})
	if _, err := e.TopK(context.Background(), pre, 3); err != ErrNoSnapshot {
		t.Fatalf("err = %v, want ErrNoSnapshot", err)
	}
}

// TestSwapPublishesNewVersion checks the versioned-snapshot contract:
// a Swap changes subsequent rankings, an out-of-order (older) Swap is
// ignored, and the result reports the version it ran on.
func TestSwapPublishesNewVersion(t *testing.T) {
	p, src, _, pre := testSetup(41, 80, 6, 1, 4)
	e := newTestEngine(t, p, src, Options{Shards: 2})

	before, err := e.TopK(context.Background(), pre, 5)
	if err != nil {
		t.Fatal(err)
	}

	moved := Source{
		Angles:  make([]float64, len(src.Angles)),
		Group:   src.Group,
		Version: 2,
	}
	rng := rand.New(rand.NewSource(99))
	for i := range moved.Angles {
		moved.Angles[i] = rng.Float64() * geometry.TwoPi
	}
	if err := e.Swap(moved); err != nil {
		t.Fatal(err)
	}
	after, err := e.TopK(context.Background(), pre, 5)
	if err != nil {
		t.Fatal(err)
	}
	if after.Version != 2 {
		t.Fatalf("version after swap = %d, want 2", after.Version)
	}
	same := len(before.IDs) == len(after.IDs)
	if same {
		for i := range before.IDs {
			if before.IDs[i] != after.IDs[i] || before.Dists[i] != after.Dists[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("ranking unchanged after swapping a re-randomised table")
	}

	// An older version must not roll the table back.
	if err := e.Swap(Source{Angles: src.Angles, Group: src.Group, Version: 1}); err != nil {
		t.Fatal(err)
	}
	if e.Version() != 2 {
		t.Fatalf("stale swap rolled version back to %d", e.Version())
	}
}

// TestConcurrentSwapDuringScan is the -race acceptance scenario: rankers
// in flight while new snapshot versions are published. Every ranking
// must succeed and report a version that was actually published.
func TestConcurrentSwapDuringScan(t *testing.T) {
	p, src, _, pre := testSetup(43, 150, 6, 2, 4)
	e := newTestEngine(t, p, src, Options{Shards: 4})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := e.TopK(context.Background(), pre, 7)
				if err != nil {
					t.Errorf("TopK during swaps: %v", err)
					return
				}
				if res.Version < 1 {
					t.Errorf("implausible version %d", res.Version)
					return
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(17))
	angles := src.Angles
	for v := uint64(2); v <= 40; v++ {
		// Each version is a new array: the engine keeps the published
		// one and scans in flight still read it.
		angles = append([]float64(nil), angles...)
		for i := 0; i < 20; i++ {
			angles[rng.Intn(len(angles))] = rng.Float64() * geometry.TwoPi
		}
		if err := e.Swap(Source{Angles: angles, Group: src.Group, Version: v}); err != nil {
			t.Errorf("Swap v%d: %v", v, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if e.Version() != 40 {
		t.Fatalf("final version = %d, want 40", e.Version())
	}
}
