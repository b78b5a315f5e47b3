package shard

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/halk-kg/halk/internal/kg"
)

// refTopK is the brute-force reference: sort all pairs by (dist, id) and
// take the first k.
func refTopK(d []float64, id []int32, k int) ([]float64, []int32) {
	type pair struct {
		d  float64
		id int32
	}
	ps := make([]pair, len(d))
	for i := range d {
		ps[i] = pair{d[i], id[i]}
	}
	sort.Slice(ps, func(a, b int) bool {
		return ps[a].d < ps[b].d || (ps[a].d == ps[b].d && ps[a].id < ps[b].id)
	})
	if k > len(ps) {
		k = len(ps)
	}
	od := make([]float64, k)
	oid := make([]int32, k)
	for i := 0; i < k; i++ {
		od[i], oid[i] = ps[i].d, ps[i].id
	}
	return od, oid
}

func TestTopKHeapMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		k := 1 + rng.Intn(20)
		d := make([]float64, n)
		id := make([]int32, n)
		h := newTopK(k)
		for i := range d {
			// Coarse quantisation forces plenty of distance ties, so the
			// ID tie-break is actually exercised.
			d[i] = float64(rng.Intn(8))
			id[i] = int32(i)
			h.push(d[i], id[i])
		}
		gd, gid := h.sorted()
		wd, wid := refTopK(d, id, k)
		if len(gd) != len(wd) {
			t.Fatalf("trial %d: got %d pairs, want %d", trial, len(gd), len(wd))
		}
		for i := range wd {
			if gd[i] != wd[i] || gid[i] != wid[i] {
				t.Fatalf("trial %d: pair %d = (%v, %d), want (%v, %d)", trial, i, gd[i], gid[i], wd[i], wid[i])
			}
		}
	}
}

func TestTopKHeapBound(t *testing.T) {
	h := newTopK(3)
	if !math.IsInf(h.bound(), 1) {
		t.Fatal("bound of a non-full heap must be +Inf")
	}
	for i, v := range []float64{5, 1, 3} {
		h.push(v, int32(i))
	}
	if h.bound() != 5 {
		t.Fatalf("bound = %v, want 5", h.bound())
	}
	h.push(2, 9)
	if h.bound() != 3 {
		t.Fatalf("bound after eviction = %v, want 3", h.bound())
	}
	// Equal distance, larger ID: must be rejected.
	if h.push(3, 10) {
		t.Error("push accepted an equal-distance larger-ID pair")
	}
	// Equal distance, smaller ID: must replace.
	if !h.push(3, 0) {
		t.Error("push rejected an equal-distance smaller-ID pair")
	}
}

func TestTopKHeapResetReusesStorage(t *testing.T) {
	h := newTopK(8)
	for i := 0; i < 20; i++ {
		h.push(float64(i), int32(i))
	}
	h.reset(4)
	if len(h.d) != 0 || h.k != 4 {
		t.Fatalf("reset left len=%d k=%d", len(h.d), h.k)
	}
	h.push(1, 1)
	if gd, gid := h.sorted(); len(gd) != 1 || gid[0] != 1 {
		t.Fatalf("heap after reset returned %v %v", gd, gid)
	}
}

// TestLowestKTieOrder pins the (distance, ID) order on ties, which a
// selection sort loses once a swap has moved an index: for [5 1 5 5 0]
// at k = 3 it returned [4 1 2]; the engine's heap and the benchmark
// oracle give [4 1 0].
func TestLowestKTieOrder(t *testing.T) {
	d := []float64{5, 1, 5, 5, 0}
	ids, dists := LowestK(d, nil, 3)
	if want := []kg.EntityID{4, 1, 0}; !slices.Equal(ids, want) {
		t.Fatalf("LowestK(%v, 3) = %v, want %v", d, ids, want)
	}
	if want := []float64{0, 1, 5}; !slices.Equal(dists, want) {
		t.Fatalf("LowestK(%v, 3) distances = %v, want %v", d, dists, want)
	}
	// Explicit IDs order ties by ID, not by position.
	ids, _ = LowestK(d, []kg.EntityID{9, 8, 7, 6, 5}, 4)
	if want := []kg.EntityID{5, 8, 6, 7}; !slices.Equal(ids, want) {
		t.Fatalf("LowestK with IDs = %v, want %v", ids, want)
	}
	if ids, _ := LowestK(d, nil, -1); len(ids) != 0 {
		t.Fatalf("LowestK(k=-1) = %v, want empty", ids)
	}
	if ids, _ := LowestK(d, nil, 9); !slices.Equal(ids, []kg.EntityID{4, 1, 0, 2, 3}) {
		t.Fatalf("LowestK(k=9) = %v, want every entity in order", ids)
	}
}
