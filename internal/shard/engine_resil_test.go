package shard

import (
	"context"
	"errors"
	"io"
	"log"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/halk-kg/halk/internal/resil"
)

// quietPanicLog keeps recovered-panic stacks out of the test output.
func quietPanicLog() *log.Logger { return log.New(io.Discard, "", 0) }

func TestScanPanicYieldsPartial(t *testing.T) {
	const k = 10
	p, src, _, pre := testSetup(11, 103, 6, 2, 4)
	inj := resil.NewInjector()
	inj.Set("scan", 1, resil.Fault{Kind: resil.KindPanic})
	e := newTestEngine(t, p, src, Options{
		Shards:   3,
		ScanHook: inj.ScanErrHook("scan"),
		PanicLog: quietPanicLog(),
	})

	res, err := e.TopK(context.Background(), pre, k)
	if err != nil {
		t.Fatalf("TopK after shard panic: %v", err)
	}
	if !res.Partial || len(res.Skipped) != 1 || res.Skipped[0] != 1 {
		t.Fatalf("result = partial=%v skipped=%v, want partial with shard 1 skipped", res.Partial, res.Skipped)
	}
	if len(res.Answered) != 2 {
		t.Fatalf("answered = %v, want the 2 healthy shards", res.Answered)
	}
	if got := e.Stats()[1].Panics; got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}

	// The engine is not poisoned: with the fault cleared the same query
	// answers fully.
	inj.Clear()
	res, err = e.TopK(context.Background(), pre, k)
	if err != nil || res.Partial {
		t.Fatalf("recovery query = %+v, %v; want full result", res, err)
	}
}

func TestScanErrSeamFailsShard(t *testing.T) {
	p, src, _, pre := testSetup(7, 64, 4, 2, 3)
	sentinel := errors.New("disk on fire")
	e := newTestEngine(t, p, src, Options{
		Shards: 2,
		ScanHook: func(i int) error {
			if i == 0 {
				return sentinel
			}
			return nil
		},
	})
	res, err := e.TopK(context.Background(), pre, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || len(res.Skipped) != 1 || res.Skipped[0] != 0 {
		t.Fatalf("result = %+v, want shard 0 skipped", res)
	}
	if got := e.Stats()[0].Errors; got != 1 {
		t.Fatalf("errors counter = %d, want 1", got)
	}
}

func TestAllShardsFaultedIsAllSkipped(t *testing.T) {
	p, src, _, pre := testSetup(7, 64, 4, 2, 3)
	inj := resil.NewInjector()
	inj.Set("scan", resil.AnyShard, resil.Fault{Kind: resil.KindPanic})
	e := newTestEngine(t, p, src, Options{
		Shards:   2,
		ScanHook: inj.ScanErrHook("scan"),
		PanicLog: quietPanicLog(),
	})
	if _, err := e.TopK(context.Background(), pre, 5); !errors.Is(err, ErrAllShardsSkipped) {
		t.Fatalf("err = %v, want ErrAllShardsSkipped", err)
	}
}

func TestBreakerOpensThenRecovers(t *testing.T) {
	p, src, _, pre := testSetup(5, 80, 4, 2, 3)
	inj := resil.NewInjector()
	inj.Set("scan", 0, resil.Fault{Kind: resil.KindError})
	e := newTestEngine(t, p, src, Options{
		Shards:   2,
		ScanHook: inj.ScanErrHook("scan"),
		Breaker: &resil.BreakerConfig{
			ConsecutiveMisses: 2,
			OpenBase:          10 * time.Millisecond,
			OpenMax:           10 * time.Millisecond,
		},
	})
	ctx := context.Background()

	// Two failing gathers trip shard 0's breaker.
	for i := 0; i < 2; i++ {
		res, err := e.TopK(ctx, pre, 5)
		if err != nil || !res.Partial {
			t.Fatalf("gather %d = %+v, %v; want partial", i, res, err)
		}
	}
	st := e.Stats()[0]
	if st.Breaker == nil || st.Breaker.State != "open" {
		t.Fatalf("breaker after 2 misses = %+v, want open", st.Breaker)
	}

	// While open, the shard is skipped up front: the error seam is not
	// even called.
	fired := inj.Fired("scan")
	res, err := e.TopK(ctx, pre, 5)
	if err != nil || !res.Partial {
		t.Fatalf("gather under open breaker = %+v, %v", res, err)
	}
	if got := inj.Fired("scan"); got != fired {
		t.Fatalf("open breaker still called the shard (%d → %d fires)", fired, got)
	}
	if e.Stats()[0].BreakerSkips == 0 {
		t.Fatal("breaker skip not counted")
	}

	// Heal the shard and wait out the cool-down: the half-open probe
	// succeeds and the breaker closes.
	inj.Clear()
	deadline := time.Now().Add(2 * time.Second)
	for {
		res, err = e.TopK(ctx, pre, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Partial {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never recovered; stats = %+v", e.Stats()[0])
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := e.Stats()[0]; st.Breaker.State != "closed" {
		t.Fatalf("breaker after recovery = %+v, want closed", st.Breaker)
	}
}

func TestHedgedScanByteIdentical(t *testing.T) {
	const k = 17
	p, src, _, pre := testSetup(13, 103, 6, 2, 4)
	base := newTestEngine(t, p, src, Options{Shards: 3})
	want, err := base.TopK(context.Background(), pre, k)
	if err != nil {
		t.Fatal(err)
	}

	inj := resil.NewInjector()
	// The first scan of shard 0 stalls well past the hedge delay; the
	// hedge re-scan sees no fault (Count: 1) and wins.
	inj.Set("scan", 0, resil.Fault{Kind: resil.KindDelay, Delay: 200 * time.Millisecond, Count: 1})
	e := newTestEngine(t, p, src, Options{
		Shards:     3,
		HedgeDelay: time.Millisecond,
		ScanHook:   inj.ScanErrHook("scan"),
	})

	res, err := e.TopK(context.Background(), pre, k)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatalf("hedged result partial: %+v", res)
	}
	if len(res.IDs) != len(want.IDs) {
		t.Fatalf("%d answers, want %d", len(res.IDs), len(want.IDs))
	}
	for i := range want.IDs {
		if res.IDs[i] != want.IDs[i] || res.Dists[i] != want.Dists[i] {
			t.Fatalf("rank %d = (%d, %v), want (%d, %v) — hedge result diverged",
				i, res.IDs[i], res.Dists[i], want.IDs[i], want.Dists[i])
		}
	}
	st := e.Stats()[0]
	if st.Hedges == 0 {
		t.Fatal("no hedge recorded despite the stalled primary")
	}
	if st.HedgeWins == 0 {
		t.Fatal("hedge win not recorded")
	}
	e.Close() // drain the stalled primary before the test returns
}

func TestEngineCloseDrainsScanGoroutines(t *testing.T) {
	p, src, _, pre := testSetup(3, 64, 4, 2, 3)
	inj := resil.NewInjector()
	inj.Set("scan", 0, resil.Fault{Kind: resil.KindDelay, Delay: 50 * time.Millisecond, Count: 1})
	e := newTestEngine(t, p, src, Options{
		Shards:     2,
		HedgeDelay: time.Millisecond,
		ScanHook:   inj.ScanErrHook("scan"),
	})
	before := runtime.NumGoroutine()
	if _, err := e.TopK(context.Background(), pre, 5); err != nil {
		t.Fatal(err)
	}
	// The gather returned while the stalled primary is still running;
	// Close must wait for it.
	e.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after Close: %d > %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCancelledProbeDoesNotWedgeBreaker is the regression test for the
// half-open wedge: the query carrying the reopen probe is cancelled
// mid-scan, so the gather returns ctx.Err() before any outcome is
// reported. The engine must release the probe (resil.Breaker.Cancel) —
// otherwise probing stays set forever, Allow refuses every call, and a
// recovered shard is skipped permanently.
func TestCancelledProbeDoesNotWedgeBreaker(t *testing.T) {
	p, src, _, pre := testSetup(5, 80, 4, 2, 3)
	inj := resil.NewInjector()
	inj.Set("scan", 0, resil.Fault{Kind: resil.KindError})
	// cancelScan, when armed, aborts the in-flight query from inside the
	// scan hook — the probe's gather then dies on ctx.Err().
	var cancelScan atomic.Value
	scanFault := inj.ScanErrHook("scan")
	e := newTestEngine(t, p, src, Options{
		Shards: 2,
		ScanHook: func(i int) error {
			if f, _ := cancelScan.Load().(context.CancelFunc); f != nil {
				f()
			}
			return scanFault(i)
		},
		Breaker: &resil.BreakerConfig{
			ConsecutiveMisses: 2,
			OpenBase:          5 * time.Millisecond,
			OpenMax:           5 * time.Millisecond,
		},
	})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := e.TopK(ctx, pre, 5); err != nil {
			t.Fatalf("tripping gather %d: %v", i, err)
		}
	}
	if st := e.breakers[0].State(); st != resil.Open {
		t.Fatalf("breaker = %v, want open", st)
	}

	// Heal the shard, then sabotage the reopen probe: every query is
	// cancelled from the scan hook until the cool-down expires and one
	// of them actually carries the probe (state reaches half-open).
	inj.Clear()
	deadline := time.Now().Add(2 * time.Second)
	for e.breakers[0].State() != resil.HalfOpen {
		if time.Now().After(deadline) {
			t.Fatal("cool-down never expired; no probe was admitted")
		}
		cctx, cancel := context.WithCancel(ctx)
		cancelScan.Store(cancel)
		if _, err := e.TopK(cctx, pre, 5); err == nil {
			t.Fatal("cancelled gather returned nil error")
		}
		cancel()
		time.Sleep(time.Millisecond)
	}

	// With the probe released, the next healthy queries must close the
	// breaker and answer in full.
	cancelScan.Store(context.CancelFunc(nil))
	for {
		res, err := e.TopK(ctx, pre, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Partial {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker wedged after cancelled probe: %+v", e.Stats()[0].Breaker)
		}
		time.Sleep(time.Millisecond)
	}
	if st := e.breakers[0].State(); st != resil.Closed {
		t.Fatalf("breaker after recovery = %v, want closed", st)
	}
}

// TestHedgeSharesShardDeadline pins the hedging deadline bound: the
// hedge inherits the remainder of the primary's per-shard budget, not a
// fresh ShardTimeout. Both scans of shard 0 block in the scan hook; the
// test releases them after the shared deadline (60ms) but before the
// point a fresh hedge deadline would expire (hedge launch 40ms + 60ms =
// 100ms). Under the old per-scan deadline the hedge would still be live
// and answer in full; with the shared deadline both scans are dead and
// the gather must degrade to a partial with shard 0 failed.
func TestHedgeSharesShardDeadline(t *testing.T) {
	p, src, _, pre := testSetup(9, 64, 4, 2, 3)
	release := make(chan struct{})
	e := newTestEngine(t, p, src, Options{
		Shards:       2,
		ShardTimeout: 60 * time.Millisecond,
		HedgeDelay:   40 * time.Millisecond,
		ScanHook: func(i int) error {
			if i == 0 {
				<-release
			}
			return nil
		},
	})
	type gatherOut struct {
		res *Result
		err error
	}
	done := make(chan gatherOut, 1)
	go func() {
		res, err := e.TopK(context.Background(), pre, 5)
		done <- gatherOut{res, err}
	}()
	time.Sleep(75 * time.Millisecond)
	close(release)
	out := <-done
	if out.err != nil {
		t.Fatalf("TopK: %v", out.err)
	}
	if !out.res.Partial || len(out.res.Skipped) != 1 || out.res.Skipped[0] != 0 {
		t.Fatalf("result = partial=%v skipped=%v; hedge extended the shard budget past ShardTimeout",
			out.res.Partial, out.res.Skipped)
	}
	st := e.Stats()[0]
	if st.Hedges == 0 {
		t.Fatal("no hedge was issued despite the stalled primary")
	}
	if st.Skips == 0 {
		t.Fatal("deadline miss not recorded as a skip")
	}
	e.Close()
}

// TestCloseRacesInFlightQueries hammers Close against concurrent
// gathers: the drain's closed flag must prevent a WaitGroup Add racing
// its Wait (WaitGroup misuse → panic under load), and queries issued
// after Close must fail with ErrClosed instead of leaking goroutines.
func TestCloseRacesInFlightQueries(t *testing.T) {
	p, src, _, pre := testSetup(3, 64, 4, 2, 3)
	e := newTestEngine(t, p, src, Options{Shards: 4, HedgeDelay: time.Microsecond})
	var wg sync.WaitGroup
	stop := make(chan struct{})
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
				if _, err := e.TopK(context.Background(), pre, 5); err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("TopK racing Close: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	e.Close()
	close(stop)
	wg.Wait()
	if _, err := e.TopK(context.Background(), pre, 5); !errors.Is(err, ErrClosed) {
		t.Fatalf("query after Close = %v, want ErrClosed", err)
	}
}
