package shard

import (
	"math"
	"sort"

	"github.com/halk-kg/halk/internal/kg"
)

// topK is a bounded binary max-heap over (distance, entity ID) pairs: it
// retains the k smallest pairs under the lexicographic order (smaller
// distance wins; equal distances break toward the smaller ID — the
// order every ranking path selects in, through LowestK on the unsharded
// ones). The root is the current worst retained pair, which doubles as
// the scan's pruning bound.
type topK struct {
	k  int
	d  []float64
	id []int32
}

func newTopK(k int) *topK {
	return &topK{k: k, d: make([]float64, 0, k), id: make([]int32, 0, k)}
}

// reset re-arms the heap for a new scan, reusing the slices when their
// capacity suffices (the per-shard scratch-buffer pool path).
func (h *topK) reset(k int) {
	h.k = k
	if cap(h.d) < k {
		h.d = make([]float64, 0, k)
		h.id = make([]int32, 0, k)
	} else {
		h.d = h.d[:0]
		h.id = h.id[:0]
	}
}

// worse reports whether element i orders after element j (larger
// distance, or equal distance and larger ID).
func (h *topK) worse(i, j int) bool {
	return h.d[i] > h.d[j] || (h.d[i] == h.d[j] && h.id[i] > h.id[j])
}

func (h *topK) swap(i, j int) {
	h.d[i], h.d[j] = h.d[j], h.d[i]
	h.id[i], h.id[j] = h.id[j], h.id[i]
}

// full reports whether the heap holds k elements (its bound is live).
func (h *topK) full() bool { return len(h.d) == h.k }

// bound returns the distance an element must beat to enter the heap:
// the root's distance once full, +Inf while filling.
func (h *topK) bound() float64 {
	if !h.full() {
		return math.Inf(1)
	}
	return h.d[0]
}

// push offers (dist, id) to the heap and reports whether it was
// retained.
func (h *topK) push(dist float64, id int32) bool {
	if len(h.d) < h.k {
		h.d = append(h.d, dist)
		h.id = append(h.id, id)
		h.siftUp(len(h.d) - 1)
		return true
	}
	// Replace the root only if (dist, id) orders strictly before it.
	if dist > h.d[0] || (dist == h.d[0] && id >= h.id[0]) {
		return false
	}
	h.d[0], h.id[0] = dist, id
	h.siftDown(0)
	return true
}

func (h *topK) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.worse(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *topK) siftDown(i int) {
	n := len(h.d)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && h.worse(l, largest) {
			largest = l
		}
		if r < n && h.worse(r, largest) {
			largest = r
		}
		if largest == i {
			return
		}
		h.swap(i, largest)
		i = largest
	}
}

// sorted returns the retained pairs in ascending (distance, ID) order as
// freshly allocated slices, so the heap can be pooled immediately.
func (h *topK) sorted() (d []float64, id []int32) {
	n := len(h.d)
	d = append([]float64(nil), h.d...)
	id = append([]int32(nil), h.id...)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return d[idx[a]] < d[idx[b]] ||
			(d[idx[a]] == d[idx[b]] && id[idx[a]] < id[idx[b]])
	})
	ds := make([]float64, n)
	ids := make([]int32, n)
	for i, j := range idx {
		ds[i], ids[i] = d[j], id[j]
	}
	return ds, ids
}

// LowestK returns the k smallest (distance, ID) pairs of a dense
// distance vector in the engine's merge order: ascending distance, ties
// toward the smaller ID. Pair i is (d[i], ids[i]), or (d[i], i) when ids
// is nil. A k outside [0, len(d)] is clamped. O(len(d)·log k).
func LowestK(d []float64, ids []kg.EntityID, k int) ([]kg.EntityID, []float64) {
	k = max(0, min(k, len(d)))
	if k == 0 {
		return []kg.EntityID{}, []float64{}
	}
	h := newTopK(k)
	for i, di := range d {
		id := int32(i)
		if ids != nil {
			id = int32(ids[i])
		}
		h.push(di, id)
	}
	dists, id := h.sorted()
	out := make([]kg.EntityID, len(id))
	for i, e := range id {
		out[i] = kg.EntityID(e)
	}
	return out, dists
}
