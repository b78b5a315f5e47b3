package shard

import (
	"context"
	"math"
	"sync/atomic"
)

// ctxCheckStride is how many entities a shard scores between
// context-cancellation checks — frequent enough to honour tight serving
// deadlines, rare enough to stay off the hot loop's profile.
const ctxCheckStride = 1024

// pruneStride is how many dimensions accumulate between bound checks in
// the inner scoring loop. Every distance term is non-negative, so once
// the running sum exceeds the pruning bound the entity cannot enter the
// top-K and the rest of the loop is skipped.
const pruneStride = 8

// Bound is a lock-free shared minimum over non-negative float64s
// (their IEEE bit patterns order like the values, so a uint64 CAS-min
// suffices): the pruning bound a gather's scans share. Exported for the
// cluster router, whose remote scans prune against the same bound.
type Bound struct{ bits atomic.Uint64 }

// Init arms the bound at +Inf (nothing pruned yet).
func (b *Bound) Init() { b.bits.Store(math.Float64bits(math.Inf(1))) }

// Load returns the current minimum.
func (b *Bound) Load() float64 { return math.Float64frombits(b.bits.Load()) }

// Update lowers the bound to v when v is smaller.
func (b *Bound) Update(v float64) {
	nb := math.Float64bits(v)
	for {
		old := b.bits.Load()
		if nb >= old {
			return
		}
		if b.bits.CompareAndSwap(old, nb) {
			return
		}
	}
}

// scanRange scores every entity of the shard against the arcs, keeping
// the local k best in a bounded heap. The accumulation order per entity
// is identical to the single-node fast path, so retained distances match
// a full scan bit for bit; pruning only skips entities whose partial sum
// already exceeds what the global top-K could admit.
func (e *Engine) scanRange(ctx context.Context, sd *shardData, arcs []Arc, h *topK, gbound *Bound) error {
	ents := sd.hi - sd.lo
	for li := 0; li < ents; li++ {
		if li%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		e.scoreLocal(sd, arcs, li, h, gbound)
	}
	return nil
}

// scoreLocal scores shard-local entity li (global ID sd.lo+li) against
// every arc, minimising over arcs, and offers the result to the heap. It
// prunes against min(local heap bound, shared global bound): terms are
// non-negative, so a partial sum strictly above the bound can neither
// improve this entity's running best nor enter the top-K.
//
// The entity row and arc tables are re-sliced to exactly dim elements up
// front so the inner loop runs free of bounds checks, and the builtin
// min/max are used over math.Min/math.Max — identical semantics for
// every float64 input (NaN propagation and signed-zero ordering
// included), but inlined instead of a call.
func (e *Engine) scoreLocal(sd *shardData, arcs []Arc, li int, h *topK, gbound *Bound) {
	dim := e.p.Dim
	twoRho := 2 * e.p.Rho
	eta := e.p.Eta
	base := li * dim
	cosR := sd.cos[base : base+dim : base+dim]
	sinR := sd.sin[base : base+dim : base+dim]
	thr := h.bound()
	if g := gbound.Load(); g < thr {
		thr = g
	}
	best := math.Inf(1)
	for ai := range arcs {
		pa := &arcs[ai]
		cosS, sinS := pa.CosS[:dim], pa.SinS[:dim]
		cosE, sinE := pa.CosE[:dim], pa.SinE[:dim]
		cosC, sinC := pa.CosC[:dim], pa.SinC[:dim]
		sh := pa.SH[:dim]
		lim := best
		if thr < lim {
			lim = thr
		}
		sum := 0.0
		pruned := false
		for j := 0; j < dim; j++ {
			cp, sp := cosR[j], sinR[j]
			cs := cp*cosS[j] + sp*sinS[j]
			ce := cp*cosE[j] + sp*sinE[j]
			cc := cp*cosC[j] + sp*sinC[j]
			do := halfSin(max(cs, ce)) // min sin == max cos
			di := min(halfSin(cc), sh[j])
			sum += twoRho * (do + eta*di)
			if j%pruneStride == pruneStride-1 && sum > lim {
				pruned = true
				break
			}
		}
		if pruned {
			continue
		}
		if sd.group != nil {
			if d := 1 - pa.Hot[sd.group[li]]; d > 0 {
				sum += e.p.Xi * d
			}
		}
		if sum < best {
			best = sum
		}
	}
	if math.IsInf(best, 1) {
		return
	}
	if h.push(best, int32(sd.lo+li)) && h.full() {
		gbound.Update(h.bound())
	}
}
