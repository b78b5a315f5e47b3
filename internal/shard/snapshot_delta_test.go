package shard

import (
	"context"
	"math/rand"
	"testing"

	"github.com/halk-kg/halk/internal/geometry"
)

// mutate returns a copy of src with the given entity rows perturbed and
// Dirty/Version set for a delta swap.
func mutateSource(src Source, dim int, dirty []int32, version uint64, seed int64) Source {
	rng := rand.New(rand.NewSource(seed))
	out := src
	out.Angles = append([]float64(nil), src.Angles...)
	out.Dirty = dirty
	out.Version = version
	for _, e := range dirty {
		for j := 0; j < dim; j++ {
			out.Angles[(int(e)-src.Base)*dim+j] = rng.Float64() * geometry.TwoPi
		}
	}
	return out
}

// TestDeltaSwapByteIdentity publishes the same mutated table through the
// delta path and a full rebuild and requires identical rankings: sharing
// clean shards must never change a served answer.
func TestDeltaSwapByteIdentity(t *testing.T) {
	const ents, dim, shards = 120, 8, 5
	p, src, _, arcs := testSetup(3, ents, dim, 2, 4)

	delta := NewEngine(p, Options{Shards: shards})
	full := NewEngine(p, Options{Shards: shards})
	for _, e := range []*Engine{delta, full} {
		if err := e.Swap(src); err != nil {
			t.Fatal(err)
		}
	}

	// Touch entities in two of the five shards (rows 0-23 and 96-119 are
	// shards 0 and 4 for 120/5).
	dirty := []int32{1, 17, 99, 119}
	src2 := mutateSource(src, dim, dirty, 2, 11)
	if err := delta.Swap(src2); err != nil {
		t.Fatal(err)
	}
	fullSrc := src2
	fullSrc.Dirty = nil
	if err := full.Swap(fullSrc); err != nil {
		t.Fatal(err)
	}
	if v := delta.Version(); v != 2 {
		t.Fatalf("delta engine version = %d, want 2", v)
	}

	for _, k := range []int{1, 7, ents} {
		dr, err := delta.TopK(context.Background(), arcs, k)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := full.TopK(context.Background(), arcs, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(dr.IDs) != len(fr.IDs) {
			t.Fatalf("k=%d: delta returned %d ids, full %d", k, len(dr.IDs), len(fr.IDs))
		}
		for i := range dr.IDs {
			if dr.IDs[i] != fr.IDs[i] || dr.Dists[i] != fr.Dists[i] {
				t.Fatalf("k=%d rank %d: delta (%d, %v) != full (%d, %v)",
					k, i, dr.IDs[i], dr.Dists[i], fr.IDs[i], fr.Dists[i])
			}
		}
	}
}

// TestDeltaSwapSharesCleanShards verifies the point of the delta path:
// shards with no dirty entity share their backing arrays with the
// previous snapshot instead of being rebuilt.
func TestDeltaSwapSharesCleanShards(t *testing.T) {
	const ents, dim, shards = 100, 4, 5
	p, src, _, _ := testSetup(5, ents, dim, 1, 4)
	e := NewEngine(p, Options{Shards: shards})
	if err := e.Swap(src); err != nil {
		t.Fatal(err)
	}
	prev := e.snap.Load()

	// Dirty only entity 50 — shard 2 of [0,20) [20,40) [40,60)…
	src2 := mutateSource(src, dim, []int32{50}, 2, 13)
	if err := e.Swap(src2); err != nil {
		t.Fatal(err)
	}
	cur := e.snap.Load()
	for i := range cur.shards {
		shared := &cur.shards[i].cos32[0] == &prev.shards[i].cos32[0]
		if i == 2 && shared {
			t.Fatal("dirty shard 2 was not rebuilt")
		}
		if i != 2 && !shared {
			t.Fatalf("clean shard %d was rebuilt instead of shared", i)
		}
	}
	if got := e.deltaReused.Value(); got != 4 {
		t.Fatalf("deltaReused = %d, want 4", got)
	}
	if got := e.deltaRebuilt.Value(); got != 1 {
		t.Fatalf("deltaRebuilt = %d, want 1", got)
	}

	// A non-nil empty dirty set republishes everything untouched: a pure
	// version bump.
	src3 := src2
	src3.Dirty = []int32{}
	src3.Version = 3
	if err := e.Swap(src3); err != nil {
		t.Fatal(err)
	}
	next := e.snap.Load()
	if next.version != 3 {
		t.Fatalf("version = %d, want 3", next.version)
	}
	for i := range next.shards {
		if &next.shards[i].cos32[0] != &cur.shards[i].cos32[0] {
			t.Fatalf("empty-dirty republish rebuilt shard %d", i)
		}
	}

	// A stale-versioned delta is ignored like any other stale swap.
	stale := src2
	stale.Version = 1
	if err := e.Swap(stale); err != nil {
		t.Fatal(err)
	}
	if e.snap.Load() != next {
		t.Fatal("stale delta swap replaced the snapshot")
	}
}

// TestDeltaSwapWithBase exercises the delta path on a range-hosting
// engine (cluster node): dirty IDs are global, rows are Base-relative.
func TestDeltaSwapWithBase(t *testing.T) {
	const ents, dim, shards = 60, 4, 3
	p, src, _, arcs := testSetup(9, ents, dim, 1, 4)
	src.Base = 40 // hosts global entities [40, 100)

	delta := NewEngine(p, Options{Shards: shards})
	full := NewEngine(p, Options{Shards: shards})
	if err := delta.Swap(src); err != nil {
		t.Fatal(err)
	}
	if err := full.Swap(src); err != nil {
		t.Fatal(err)
	}
	src2 := mutateSource(src, dim, []int32{41, 95}, 2, 17)
	if err := delta.Swap(src2); err != nil {
		t.Fatal(err)
	}
	fullSrc := src2
	fullSrc.Dirty = nil
	if err := full.Swap(fullSrc); err != nil {
		t.Fatal(err)
	}
	dr, err := delta.TopK(context.Background(), arcs, ents)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := full.TopK(context.Background(), arcs, ents)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dr.IDs {
		if dr.IDs[i] != fr.IDs[i] || dr.Dists[i] != fr.Dists[i] {
			t.Fatalf("rank %d: delta (%d, %v) != full (%d, %v)",
				i, dr.IDs[i], dr.Dists[i], fr.IDs[i], fr.Dists[i])
		}
	}
	if lo, hi := delta.EntityRange(); lo != 40 || hi != 100 {
		t.Fatalf("EntityRange = [%d, %d), want [40, 100)", lo, hi)
	}
}
