package shard

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/halk-kg/halk/internal/geometry"
)

// mustRank runs TopK and fails the test on error or partial results.
func mustRank(t *testing.T, e *Engine, arcs []Arc, k int) *Result {
	t.Helper()
	res, err := e.TopK(context.Background(), arcs, k)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	if res.Partial {
		t.Fatalf("TopK: unexpected partial result")
	}
	return res
}

// assertIdentical fails unless two results carry bit-identical distances
// and the same IDs in the same order.
func assertIdentical(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.IDs) != len(want.IDs) {
		t.Fatalf("%s: %d answers, want %d", label, len(got.IDs), len(want.IDs))
	}
	for i := range want.IDs {
		if got.IDs[i] != want.IDs[i] {
			t.Errorf("%s: rank %d = entity %d, want %d", label, i, got.IDs[i], want.IDs[i])
		}
		if math.Float64bits(got.Dists[i]) != math.Float64bits(want.Dists[i]) {
			t.Errorf("%s: rank %d dist %x, want %x (Δ=%g)",
				label, i, math.Float64bits(got.Dists[i]), math.Float64bits(want.Dists[i]),
				got.Dists[i]-want.Dists[i])
		}
	}
}

// TestBlockedKernelIdentity is the core byte-identity property: for the
// same snapshot, the blocked float32-filtered kernel must return
// bit-identical distances and identical IDs to the scalar float64
// reference scan (Options.ScalarKernel), across shard counts, table
// sizes straddling block boundaries, arc counts, and k values — and
// both must agree with the closed-form reference ranking.
func TestBlockedKernelIdentity(t *testing.T) {
	cases := []struct {
		seed            int64
		ents, dim, arcs int
		k               int
	}{
		{seed: 1, ents: 5, dim: 3, arcs: 1, k: 3},                // smaller than one block
		{seed: 2, ents: blockSize, dim: 4, arcs: 2, k: 7},        // exactly one block
		{seed: 3, ents: blockSize + 1, dim: 4, arcs: 1, k: 7},    // one lane into block 2
		{seed: 4, ents: 3*blockSize - 5, dim: 6, arcs: 3, k: 13}, // ragged tail block
		{seed: 5, ents: 500, dim: 16, arcs: 2, k: 25},            // mid-size
		{seed: 6, ents: 97, dim: 5, arcs: 2, k: 97},              // k == ents: full table retained
		{seed: 7, ents: 130, dim: 8, arcs: 4, k: 1},              // k=1 tightest bound
		{seed: 8, ents: 260, dim: 7, arcs: 1, k: 300},            // k > ents
	}
	for _, tc := range cases {
		p, src, raw, pre := testSetup(tc.seed, tc.ents, tc.dim, tc.arcs, 4)
		wantD, wantID := refRanking(p, src, raw, tc.k)
		for _, shards := range []int{1, 2, 7} {
			scalar := newTestEngine(t, p, src, Options{Shards: shards, ScalarKernel: true})
			blocked := newTestEngine(t, p, src, Options{Shards: shards})
			sres := mustRank(t, scalar, pre, tc.k)
			bres := mustRank(t, blocked, pre, tc.k)
			label := "blocked vs scalar"
			assertIdentical(t, label, bres, sres)
			if len(sres.IDs) != len(wantID) {
				t.Fatalf("scalar: %d answers, want %d", len(sres.IDs), len(wantID))
			}
			for i := range wantID {
				if int32(sres.IDs[i]) != wantID[i] || math.Abs(sres.Dists[i]-wantD[i]) > 1e-9 {
					t.Errorf("scalar vs reference: rank %d = (%d, %g), want (%d, %g)",
						i, sres.IDs[i], sres.Dists[i], wantID[i], wantD[i])
				}
			}
			scalar.Close()
			blocked.Close()
		}
	}
}

// TestBlockedKernelIdentityClustered repeats the identity check on a
// table with strong per-block angular locality — entities sorted into
// clusters smaller than a block — so the per-block envelopes actually
// fire, proving envelope skips drop only provably losing blocks.
func TestBlockedKernelIdentityClustered(t *testing.T) {
	const ents, dim, k = 512, 8, 10
	rng := rand.New(rand.NewSource(42))
	p := Params{Dim: dim, Rho: 1, Eta: 0.02, Xi: 0}
	src := Source{Angles: make([]float64, ents*dim), Version: 1}
	for e := 0; e < ents; e++ {
		// One cluster center per block of entities, tiny in-cluster jitter:
		// every dimension of a block stays inside a narrow angular box.
		center := float64(e/blockSize) * 0.7
		for j := 0; j < dim; j++ {
			src.Angles[e*dim+j] = center + rng.Float64()*0.05
		}
	}
	c := make([]float64, dim)
	l := make([]float64, dim)
	for j := range c {
		c[j] = 0.2 + rng.Float64()*0.1
		l[j] = 0.3
	}
	pre := []Arc{PrepareArc(p, c, l, nil)}

	for _, shards := range []int{1, 3} {
		scalar := newTestEngine(t, p, src, Options{Shards: shards, ScalarKernel: true})
		blocked := newTestEngine(t, p, src, Options{Shards: shards})
		sres := mustRank(t, scalar, pre, k)
		bres := mustRank(t, blocked, pre, k)
		assertIdentical(t, "clustered blocked vs scalar", bres, sres)
		skips := uint64(0)
		for _, st := range blocked.Stats() {
			skips += st.EnvSkips
		}
		if skips == 0 {
			t.Errorf("shards=%d: expected envelope skips on a clustered table, got none", shards)
		}
		scalar.Close()
		blocked.Close()
	}
}

// TestRankBatchIdentity proves batching is a pure memory-traffic
// optimisation: every item of a RankBatch must be bit-identical to the
// same query ranked alone through TopK, on both kernels, including
// mixed per-item k values.
func TestRankBatchIdentity(t *testing.T) {
	const ents, dim = 300, 8
	p, src, _, _ := testSetup(9, ents, dim, 1, 4)
	rng := rand.New(rand.NewSource(10))
	items := make([]BatchItem, 5)
	for i := range items {
		numArcs := 1 + rng.Intn(3)
		arcs := make([]Arc, numArcs)
		for a := range arcs {
			c := make([]float64, dim)
			l := make([]float64, dim)
			hot := make([]float64, 4)
			for j := range c {
				c[j] = rng.Float64() * geometry.TwoPi
				l[j] = rng.Float64() * p.Rho
			}
			for g := range hot {
				if rng.Float64() < 0.5 {
					hot[g] = 1
				}
			}
			arcs[a] = PrepareArc(p, c, l, hot)
		}
		items[i] = BatchItem{Arcs: arcs, K: 1 + rng.Intn(40)}
	}
	for _, scalarKernel := range []bool{false, true} {
		for _, shards := range []int{1, 2, 5} {
			e := newTestEngine(t, p, src, Options{Shards: shards, ScalarKernel: scalarKernel})
			batch, err := e.RankBatch(context.Background(), items)
			if err != nil {
				t.Fatalf("RankBatch: %v", err)
			}
			if len(batch) != len(items) {
				t.Fatalf("RankBatch: %d results for %d items", len(batch), len(items))
			}
			for i, it := range items {
				lone := mustRank(t, e, it.Arcs, it.K)
				assertIdentical(t, "batch vs lone", batch[i], lone)
			}
			e.Close()
		}
	}
}

// TestPooledScanScratchIdentity: the blocked kernel's per-scan buffers
// come back from the engine's pool holding an earlier scan's bounds
// (NaN marks included), so every scan through a used engine — two
// different queries back to back, a batch of 16, and the single query
// after that batch — must match the same scan on a fresh engine bit for
// bit. The table is clustered so envelope skips leave NaNs behind.
func TestPooledScanScratchIdentity(t *testing.T) {
	const ents, dim = 700, 8
	rng := rand.New(rand.NewSource(21))
	p := Params{Dim: dim, Rho: 1, Eta: 0.02, Xi: 0.5}
	src := Source{Angles: make([]float64, ents*dim), Group: make([]int32, ents), Version: 1}
	for e := 0; e < ents; e++ {
		center := float64(e/blockSize) * 0.55
		for j := 0; j < dim; j++ {
			src.Angles[e*dim+j] = center + rng.Float64()*0.05
		}
		src.Group[e] = int32(rng.Intn(4))
	}
	randomItem := func() BatchItem {
		arcs := make([]Arc, 1+rng.Intn(3))
		for a := range arcs {
			c := make([]float64, dim)
			l := make([]float64, dim)
			base := rng.Float64() * 5
			for j := range c {
				c[j] = base + rng.Float64()*0.1
				l[j] = rng.Float64() * 0.4
			}
			arcs[a] = PrepareArc(p, c, l, []float64{1, 0, 1, 1})
		}
		return BatchItem{Arcs: arcs, K: 1 + rng.Intn(30)}
	}
	items := make([]BatchItem, 19)
	for i := range items {
		items[i] = randomItem()
	}
	first, second, batch, after := items[0], items[1], items[2:18], items[18]

	for _, shards := range []int{1, 2} {
		fresh := func(run func(e *Engine) []*Result) []*Result {
			e := newTestEngine(t, p, src, Options{Shards: shards})
			defer e.Close()
			return run(e)
		}
		lone := func(it BatchItem) func(e *Engine) []*Result {
			return func(e *Engine) []*Result { return []*Result{mustRank(t, e, it.Arcs, it.K)} }
		}
		many := func(e *Engine) []*Result {
			res, err := e.RankBatch(context.Background(), batch)
			if err != nil {
				t.Fatalf("RankBatch: %v", err)
			}
			return res
		}
		used := newTestEngine(t, p, src, Options{Shards: shards})
		skips := uint64(0)
		for round := 0; round < 3; round++ {
			for _, step := range []struct {
				label string
				run   func(e *Engine) []*Result
			}{
				{"first query", lone(first)},
				{"second query", lone(second)},
				{"batch of 16", many},
				{"query after the batch", lone(after)},
			} {
				got, want := step.run(used), fresh(step.run)
				for i := range want {
					assertIdentical(t, step.label, got[i], want[i])
				}
			}
		}
		for _, st := range used.Stats() {
			skips += st.EnvSkips
		}
		if skips == 0 {
			t.Errorf("shards=%d: no envelope skip ever left NaN bounds in the scratch", shards)
		}
		used.Close()
	}
}

// TestRankBatchValidation covers the batch entry's error contract.
func TestRankBatchValidation(t *testing.T) {
	p, src, _, pre := testSetup(12, 50, 4, 1, 2)
	e := newTestEngine(t, p, src, Options{Shards: 2})
	defer e.Close()
	ctx := context.Background()
	if _, err := e.RankBatch(ctx, nil); err == nil {
		t.Error("empty batch: want error")
	}
	if _, err := e.RankBatch(ctx, []BatchItem{{Arcs: pre, K: 0}}); err == nil {
		t.Error("k=0: want error")
	}
	if _, err := e.RankBatch(ctx, []BatchItem{{Arcs: nil, K: 3}}); err == nil {
		t.Error("no arcs: want error")
	}
}

// FuzzBlockedKernel fuzzes the identity property over table geometry,
// arc geometry and k: whatever the inputs, the blocked kernel's
// filtering and envelope skipping must never change the retained top-K
// versus the scalar reference scan.
func FuzzBlockedKernel(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), uint8(5), uint8(2), false)
	f.Add(int64(2), uint8(64), uint8(4), uint8(10), uint8(1), true)
	f.Add(int64(3), uint8(200), uint8(6), uint8(1), uint8(3), false)
	f.Add(int64(4), uint8(65), uint8(1), uint8(255), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed int64, entsB, dimB, kB, arcsB uint8, clustered bool) {
		ents := int(entsB)%300 + 1
		dim := int(dimB)%12 + 1
		k := int(kB)%(ents+5) + 1
		numArcs := int(arcsB)%3 + 1
		p, src, _, pre := testSetup(seed, ents, dim, numArcs, 3)
		if clustered {
			// Overwrite with a locality-heavy table so envelope skips engage.
			rng := rand.New(rand.NewSource(seed))
			for e := 0; e < ents; e++ {
				center := float64(e/blockSize) * 0.9
				for j := 0; j < dim; j++ {
					src.Angles[e*dim+j] = center + rng.Float64()*0.1
				}
			}
		}
		for _, shards := range []int{1, 3} {
			scalar := newTestEngine(t, p, src, Options{Shards: shards, ScalarKernel: true})
			blocked := newTestEngine(t, p, src, Options{Shards: shards})
			sres := mustRank(t, scalar, pre, k)
			bres := mustRank(t, blocked, pre, k)
			assertIdentical(t, "fuzz blocked vs scalar", bres, sres)
			scalar.Close()
			blocked.Close()
		}
	})
}
