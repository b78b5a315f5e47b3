//go:build !race

// Under the race detector sync.Pool drops a quarter of what is Put, so
// the pooled heaps are not guaranteed warm there; the ceilings are
// checked by the plain test run.

package shard

import (
	"context"
	"testing"
	"time"

	"github.com/halk-kg/halk/internal/resil"
)

// TestGatherAllocCeiling keeps the unhedged gather lean: with hedging
// off every shard's scan runs on its scatter goroutine with no timer,
// channel or extra goroutine. 2 shards, 2 000 entities × d 16, 2 arcs,
// k = 10 on the blocked kernel measured 46 allocations per TopK and 108
// per 4-item RankBatch when the ceilings were set; the hedged, breaker-
// guarded TopK (58 then) is logged, not bounded.
func TestGatherAllocCeiling(t *testing.T) {
	const k = 10
	p, src, _, pre := testSetup(21, 2000, 16, 2, 4)
	ctx := context.Background()
	items := make([]BatchItem, 4)
	for i := range items {
		items[i] = BatchItem{Arcs: pre, K: k}
	}
	run := func(e *Engine, f func()) float64 {
		f() // warm the heap pools
		return testing.AllocsPerRun(100, f)
	}

	e := newTestEngine(t, p, src, Options{Shards: 2})
	topK := run(e, func() { _, _ = e.TopK(ctx, pre, k) })
	batch := run(e, func() { _, _ = e.RankBatch(ctx, items) })
	e.Close()

	h := newTestEngine(t, p, src, Options{
		Shards:     2,
		HedgeDelay: time.Minute,
		Breaker:    &resil.BreakerConfig{},
	})
	hedged := run(h, func() { _, _ = h.TopK(ctx, pre, k) })
	h.Close()

	t.Logf("allocs: TopK %.0f, RankBatch(4) %.0f, hedged TopK %.0f", topK, batch, hedged)
	if topK > 46 {
		t.Errorf("TopK: %.0f allocs, ceiling 46", topK)
	}
	if batch > 108 {
		t.Errorf("RankBatch of 4: %.0f allocs, ceiling 108", batch)
	}
}
