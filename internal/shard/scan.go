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
// the local k best in a bounded heap. Every entity goes through Score,
// the scorer the unsharded full scan uses too, so retained distances
// match a full scan bit for bit; pruning only skips entities whose
// partial sum already exceeds what the global top-K could admit.
func (e *Engine) scanRange(ctx context.Context, sd *shardData, arcs []Arc, h *topK, gbound *Bound) error {
	ents, dim := sd.hi-sd.lo, e.p.Dim
	for li := 0; li < ents; li++ {
		if li%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		base := li * dim
		e.scoreLocal(sd, sd.cos[base:base+dim], sd.sin[base:base+dim], arcs, li, h, gbound)
	}
	return nil
}

// scoreLocal scores shard-local entity li (global ID sd.lo+li), whose
// angles' cos/sin rows are cosRow and sinRow, against the arcs and
// offers the result to the heap, pruning against min(local heap bound,
// shared global bound).
func (e *Engine) scoreLocal(sd *shardData, cosRow, sinRow []float64, arcs []Arc, li int, h *topK, gbound *Bound) {
	thr := h.bound()
	if g := gbound.Load(); g < thr {
		thr = g
	}
	var group int32
	if sd.group != nil {
		group = sd.group[li]
	}
	best := Score(e.p, cosRow, sinRow, group, arcs, thr)
	if math.IsInf(best, 1) {
		return
	}
	if h.push(best, int32(sd.lo+li)) && h.full() {
		gbound.Update(h.bound())
	}
}

// Score is HaLk's exact entity-to-query distance (Eq. 15–16 plus the
// group penalty of Eq. 17, minimised over the query's DNF arcs) of one
// entity, given the cos/sin rows of its angles and its group id (read
// only when p.Xi > 0). It is the one place the distance is evaluated
// over cached unit vectors: the shard scan and the unsharded full scan
// behind halk.Model.Distances both call it, so every ranker returns the
// same bits.
//
// An arc whose partial sum strictly exceeds min(lim, best so far) is
// abandoned: terms are non-negative, so it can neither improve the
// entity's best nor beat lim. Score returns +Inf when every arc is
// abandoned; with lim = +Inf nothing is pruned.
//
// The rows and arc tables are re-sliced to exactly dim elements up
// front so the inner loop runs free of bounds checks, and the builtin
// min/max are used over math.Min/math.Max — identical semantics for
// every float64 input (NaN propagation and signed-zero ordering
// included), but inlined instead of a call.
func Score(p Params, cosRow, sinRow []float64, group int32, arcs []Arc, lim float64) float64 {
	dim := p.Dim
	twoRho := 2 * p.Rho
	eta := p.Eta
	cosR, sinR := cosRow[:dim], sinRow[:dim]
	best := math.Inf(1)
	for ai := range arcs {
		pa := &arcs[ai]
		cosS, sinS := pa.CosS[:dim], pa.SinS[:dim]
		cosE, sinE := pa.CosE[:dim], pa.SinE[:dim]
		cosC, sinC := pa.CosC[:dim], pa.SinC[:dim]
		sh := pa.SH[:dim]
		bound := best
		if lim < bound {
			bound = lim
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
			if j%pruneStride == pruneStride-1 && sum > bound {
				pruned = true
				break
			}
		}
		if pruned {
			continue
		}
		if p.Xi > 0 {
			if d := 1 - pa.Hot[group]; d > 0 {
				sum += p.Xi * d
			}
		}
		if sum < best {
			best = sum
		}
	}
	return best
}
