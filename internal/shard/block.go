package shard

import (
	"context"
	"math"
	"slices"
)

// The blocked scan path trades the scalar loop's per-entity float64 trig
// walk for a two-level filter over a cache-blocked float32 copy of the
// entity table:
//
//  1. Block envelopes. Entities are grouped into fixed-size blocks and
//     each block stores, per dimension, a conservative bounding box of
//     its cos/sin values. Before scoring a block against an arc, a lower
//     bound on every member's arc distance is computed from the box
//     corners; when every arc's bound exceeds the current pruning bound
//     the whole block is skipped without touching entity data.
//  2. Lane filter. Surviving blocks run a structure-of-arrays float32
//     pass: the planes are laid out dimension-major within the block
//     (plane index (b*dim+j)*blockSize + t), so the inner loop walks
//     blockSize contiguous lanes with the arc's per-dimension scalars
//     hoisted into registers — a shape the compiler keeps vectorized.
//     Every lane accumulates a float32 lower bound on its distance
//     across all dimensions in one dense sweep.
//
// Lanes whose bound beats the pruning limit are rescored exactly by the
// scalar float64 scoreLocal — in ascending order of their bounds, so the
// strongest candidates tighten the limit before their block-mates are
// re-checked against it. Retained results are bit-identical to a full
// scalar scan: float32 rounding can only misclassify a lane as a
// survivor (wasted exact work), never drop one, because the filter
// comparisons carry Engine.slack — an upper bound on how far the float32
// accumulation can overshoot the true distance (see NewEngine).

// blockSize is the number of entity lanes per block: 64 lanes × 4
// bytes keeps one dimension's plane in four cache lines, and the
// power of two lets lane indices be masked instead of bounds-checked.
const blockSize = 64

// buildBlocked derives the blocked float32 planes and per-block
// envelopes from a shard's float64 trig tables. Lanes past the last
// entity are padded with angle 0; padding never reaches scoring (the
// active-lane sets stop at the real lane count) and never widens an
// envelope.
func buildBlocked(sd *shardData, dim int) {
	ents := sd.hi - sd.lo
	if ents == 0 {
		return
	}
	blocks := (ents + blockSize - 1) / blockSize
	sd.blocks = blocks
	sd.cos32 = make([]float32, blocks*dim*blockSize)
	sd.sin32 = make([]float32, blocks*dim*blockSize)
	sd.envCosMin = make([]float32, blocks*dim)
	sd.envCosMax = make([]float32, blocks*dim)
	sd.envSinMin = make([]float32, blocks*dim)
	sd.envSinMax = make([]float32, blocks*dim)
	for b := 0; b < blocks; b++ {
		for j := 0; j < dim; j++ {
			pb := (b*dim + j) * blockSize
			cMin, cMax := math.Inf(1), math.Inf(-1)
			sMin, sMax := math.Inf(1), math.Inf(-1)
			for t := 0; t < blockSize; t++ {
				c, s := 1.0, 0.0
				if li := b*blockSize + t; li < ents {
					c, s = sd.cos[li*dim+j], sd.sin[li*dim+j]
					cMin, cMax = min(cMin, c), max(cMax, c)
					sMin, sMax = min(sMin, s), max(sMax, s)
				}
				sd.cos32[pb+t] = float32(c)
				sd.sin32[pb+t] = float32(s)
			}
			e := b*dim + j
			sd.envCosMin[e] = roundDown32(cMin)
			sd.envCosMax[e] = roundUp32(cMax)
			sd.envSinMin[e] = roundDown32(sMin)
			sd.envSinMax[e] = roundUp32(sMax)
		}
	}
}

// roundDown32 converts v to float32 rounding toward -Inf, so the float32
// envelope bound never excludes the float64 value it summarises.
func roundDown32(v float64) float32 {
	f := float32(v)
	if float64(f) > v {
		f = math.Nextafter32(f, float32(math.Inf(-1)))
	}
	return f
}

// roundUp32 is roundDown32 toward +Inf.
func roundUp32(v float64) float32 {
	f := float32(v)
	if float64(f) < v {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// kernArc is one arc's scoring tables rearranged for the lane filter's
// inner loop. The two boundary dot products and their max are folded
// into a half-sum/half-difference form,
//
//	max(cosΔS, cosΔE)/2 = cp·sumCos + sp·sumSin + |cp·difCos + sp·difSin|,
//
// with the /2 pre-applied to the tables (sum/dif carry a factor 1/4,
// the center tables a factor 1/2), so the loop needs no float max —
// Go's NaN-correct float min/max intrinsics cost several times a
// multiply and spill under register pressure. etaSh carries η·SH so
// the η-weighted inside bound is a single multiply-add.
type kernArc struct {
	sumCos, sinSum []float32 // (cosS±cosE)/4, (sinS±sinE)/4
	difCos, difSin []float32
	cosC2, sinC2   []float32 // cosC/2, sinC/2
	etaSh          []float32 // η·SH
}

func newKernArc(dim int, eta float64, a *Arc) kernArc {
	back := make([]float32, 7*dim)
	ka := kernArc{
		sumCos: back[0*dim : 1*dim], sinSum: back[1*dim : 2*dim],
		difCos: back[2*dim : 3*dim], difSin: back[3*dim : 4*dim],
		cosC2: back[4*dim : 5*dim], sinC2: back[5*dim : 6*dim],
		etaSh: back[6*dim : 7*dim],
	}
	for j := 0; j < dim; j++ {
		ka.sumCos[j] = float32((a.CosS[j] + a.CosE[j]) * 0.25)
		ka.sinSum[j] = float32((a.SinS[j] + a.SinE[j]) * 0.25)
		ka.difCos[j] = float32((a.CosS[j] - a.CosE[j]) * 0.25)
		ka.difSin[j] = float32((a.SinS[j] - a.SinE[j]) * 0.25)
		ka.cosC2[j] = float32(a.CosC[j] * 0.5)
		ka.sinC2[j] = float32(a.SinC[j] * 0.5)
		ka.etaSh[j] = float32(eta * a.SH[j])
	}
	return ka
}

// prepareKernel converts every batch item's arcs once, up front, so the
// per-block filter shares the tables across all shards and blocks.
func prepareKernel(dim int, eta float64, items []BatchItem) [][]kernArc {
	kern := make([][]kernArc, len(items))
	for qi := range items {
		arcs := items[qi].Arcs
		ks := make([]kernArc, len(arcs))
		for ai := range arcs {
			ks[ai] = newKernArc(dim, eta, &arcs[ai])
		}
		kern[qi] = ks
	}
	return kern
}

// scanCounters aggregates one scan's blocked-kernel effectiveness
// numbers, folded into the shard's stats when the scan completes.
type scanCounters struct {
	envSkips  uint64 // (block, query) pairs skipped whole by the envelope
	lanes     uint64 // lanes offered to the float32 filter
	survivors uint64 // lanes the filter passed to exact rescoring
}

// envMissLimit is how many consecutive envelope misses (per query)
// switch the envelope check off for the rest of the scan: on tables
// whose blocks have no angular locality the envelopes never fire, and
// checking them would tax every block for nothing.
const envMissLimit = 16

// scanBlocked is the blocked counterpart of scanRange. It runs in two
// phases:
//
//   - Sweep. Every query of the batch is swept through each block before
//     moving to the next, so a block's float32 planes are paid for once
//     per cache residency rather than once per query. The sweep stores
//     each lane's float32 distance lower bound; it never touches the
//     heap, because the dense filter needs no pruning bound — only the
//     envelope check consults the cross-shard bound, to skip blocks
//     wholesale.
//   - Rescore. Per query, the lanes are exact-rescored in ascending
//     order of their stored bounds across the whole shard. Globally
//     ascending order is what makes the filter sharp: the heap fills
//     with the shard's best lanes immediately, so the pruning bound
//     starts at the shard's true k-th best instead of converging toward
//     it block by block — rescoring a lane per block of warm-up that a
//     per-block rescore order would pay.
func (e *Engine) scanBlocked(ctx context.Context, i int, sd *shardData, spec *batchSpec, heaps []*topK, gbounds []Bound, sc *scanCounters) error {
	ents := sd.hi - sd.lo
	if ents == 0 {
		return nil
	}
	scr := e.getScratch(i, len(spec.items), ents)
	defer e.scratch[i].Put(scr)
	envMiss, lows, idx := scr.envMiss, scr.lows, scr.idx
	for b := 0; b < sd.blocks; b++ {
		// One check per (block × batch) keeps cancellation latency within
		// blockSize×len(items) entity scores — comparable to
		// ctxCheckStride for the batch sizes the serve layer admits.
		if err := ctx.Err(); err != nil {
			return err
		}
		base := b * blockSize
		lanes := min(ents-base, blockSize)
		for qi := range spec.items {
			e.sweepBlock(sd, spec, qi, b, lanes, lows[qi*ents+base:qi*ents+base+lanes], &gbounds[qi], &envMiss[qi], sc)
			if b == 0 && math.IsInf(gbounds[qi].Load(), 1) {
				// No bound exists anywhere yet (no other shard has
				// published, no caller seed): exact-score block 0's k
				// filter-best lanes so the envelope checks from block 1 on
				// have a bound to prune against. The full heap's root is a
				// valid upper bound on the global k-th best — it upper-
				// bounds even this block's k-th best.
				e.bootScore(sd, spec.items[qi].Arcs, spec.items[qi].K, lows[qi*ents:qi*ents+lanes], idx, heaps[qi], &gbounds[qi], sc)
			}
		}
	}
	for qi := range spec.items {
		if err := ctx.Err(); err != nil {
			return err
		}
		e.rescoreQuery(sd, spec.items[qi].Arcs, spec.items[qi].K, lows[qi*ents:(qi+1)*ents], idx, heaps[qi], &gbounds[qi], sc)
	}
	return nil
}

// scanScratch is one blocked scan's working memory, recycled through the
// engine's per-shard pool so a scan allocates none of it once warm.
type scanScratch struct {
	// envMiss counts consecutive envelope misses per query; past
	// envMissLimit the check is disabled for the rest of the scan.
	envMiss []uint8
	// lows[qi*ents+li] is query qi's float32 lower bound on lane li's
	// distance (before the 2ρ scale); NaN marks lanes the rescore must
	// never touch (envelope-skipped, or already exact-scored).
	lows []float32
	idx  []int32 // lane-selection buffer of bootScore and rescoreQuery
}

// getScratch takes shard i's scan scratch from its pool, grown where a
// previous scan's buffers are too small. envMiss starts zeroed; lows
// comes back dirty, which is sound because the sweep writes every lane
// of every (query, block) before anything reads it (see sweepBlock).
func (e *Engine) getScratch(i, items, ents int) *scanScratch {
	s, _ := e.scratch[i].Get().(*scanScratch)
	if s == nil {
		s = &scanScratch{}
	}
	s.envMiss = slices.Grow(s.envMiss[:0], items)[:items]
	clear(s.envMiss)
	s.lows = slices.Grow(s.lows[:0], items*ents)[:items*ents]
	s.idx = slices.Grow(s.idx[:0], ents)
	return s
}

// bootScore exact-scores the k lanes with the smallest float32 bounds
// in lows — ascending, so the heap tightens fastest — marking scored
// lanes NaN so no later rescore can double-score them. The scoring loop
// breaks as soon as a lane's bound clears the re-read pruning limit, so
// against an already-tight bound the whole call costs one pass over
// lows and no exact scores. Bounded insertion keeps sel the k smallest,
// ascending; NaN bounds compare false everywhere, so both guards reject
// already-scored and envelope-skipped lanes.
func (e *Engine) bootScore(sd *shardData, arcs []Arc, k int, lows []float32, idx []int32, h *topK, gbound *Bound, sc *scanCounters) {
	if k > len(lows) {
		k = len(lows)
	}
	sel := idx[:0]
	for t := range lows {
		v := lows[t]
		if v != v {
			continue
		}
		if len(sel) == k {
			if !(v < lows[sel[k-1]]) {
				continue
			}
			sel = sel[:k-1]
		}
		j := len(sel) - 1
		sel = append(sel, 0)
		for ; j >= 0 && lows[sel[j]] > v; j-- {
			sel[j+1] = sel[j]
		}
		sel[j+1] = int32(t)
	}
	nan := float32(math.NaN())
	twoRho32 := e.twoRho32
	for _, t := range sel {
		thr := h.bound()
		if g := gbound.Load(); g < thr {
			thr = g
		}
		// An infinite limit compares false against everything, so the
		// break never fires while the heap is still filling.
		if lows[t]*twoRho32 > float32(thr+e.slack) {
			break
		}
		sc.survivors++
		e.scoreLocal(sd, arcs, int(t), h, gbound)
		lows[t] = nan
	}
}

// sweepBlock runs the filter for block b of the shard against one query
// of the batch, writing each lane's float32 distance lower bound into
// dst (length lanes). Envelope-skipped blocks get NaN bounds, which no
// rescore comparison ever selects.
func (e *Engine) sweepBlock(sd *shardData, spec *batchSpec, qi, b, lanes int, dst []float32, gbound *Bound, envMiss *uint8, sc *scanCounters) {
	arcs := spec.items[qi].Arcs

	// Level 1: skip the block when every arc's envelope lower bound
	// clears the limit — no member can beat the current k-th best. Only
	// the cross-shard bound is consulted (the local heap is untouched
	// until the rescore phase); an infinite limit can never skip, so the
	// check isn't paid before some shard publishes a bound. On tables
	// with no angular locality inside blocks the envelopes never fire,
	// so after envMissLimit consecutive misses the check is retired for
	// the rest of this query's scan.
	if g := gbound.Load(); *envMiss < envMissLimit && !math.IsInf(g, 1) {
		limit := g + e.slack
		skip := true
		for ai := range arcs {
			if e.arcEnvLB(sd, &arcs[ai], b, limit) <= limit {
				skip = false
				break
			}
		}
		if skip {
			*envMiss = 0
			sc.envSkips++
			nan := float32(math.NaN())
			for t := range dst {
				dst[t] = nan
			}
			return
		}
		*envMiss++
	}

	// Level 2: float32 lane filter. Every lane of the block accumulates
	// a lower bound on its arc distance across all dimensions in one
	// dense plane sweep — no active-set indirection, because on real
	// angle tables the partial bound only crosses the limit in the last
	// few dimensions, so mid-sweep compaction prunes nothing and its
	// gather/mask bookkeeping taxes every lane. The group penalty only
	// adds, so omitting it keeps the bound valid.
	// halfEps pads the outside term's sqrt argument so it can never go
	// negative from float32 rounding (the dots overshoot |cosΔ| ≤ 1 by
	// at most a few ulps); the resulting bound overshoot is at most
	// sqrt(halfEps - 0.5) ≈ 8e-4 per dimension, inside the 1.2e-3
	// per-dim budget Engine.slack reserves (see NewEngine).
	const halfEps = 0.5 + 6e-7
	kq := spec.kern[qi]
	dim := e.p.Dim
	var sums [blockSize]float32
	clear(dst[:lanes]) // pooled scratch: still holds an earlier scan's bounds
	for ai := range kq {
		ka := &kq[ai]
		// The first arc accumulates straight into dst (just cleared);
		// later arcs accumulate into scratch and min-merge, because the
		// entity distance is the min over arcs.
		acc := dst[:lanes]
		if ai > 0 {
			sums = [blockSize]float32{}
			acc = sums[:lanes]
		}
		for j := 0; j < dim; j++ {
			pb := (b*dim + j) * blockSize
			cosP := sd.cos32[pb : pb+lanes : pb+blockSize]
			sinP := sd.sin32[pb : pb+lanes : pb+blockSize]
			aP, bP := ka.sumCos[j], ka.sinSum[j]
			aM, bM := ka.difCos[j], ka.difSin[j]
			aC, bC := ka.cosC2[j], ka.sinC2[j]
			es := ka.etaSh[j]
			for t, cp := range cosP {
				sp := sinP[t]
				// Outside term: max of the two boundary cosines via the
				// half-sum/half-difference identity (see kernArc), so the
				// loop carries no float max.
				x := halfEps - (cp*aP + sp*bP) - abs32(cp*aM+sp*bM)
				// Inside term: η·min(sqrt(y), SH) is bounded below by
				// y·(η·SH): y·SH ≤ y ≤ sqrt(y) and y·SH ≤ SH on [0, 1],
				// so the product undercuts the min — trading the second
				// sqrt and the clamps for a small η-weighted weakening.
				// y can go ~1e-7 negative from rounding, which only
				// weakens the bound, and it is not under the sqrt.
				y := 0.5 - (cp*aC + sp*bC)
				acc[t] += sqrt32(x) + y*es
			}
		}
		if ai > 0 {
			for t := 0; t < lanes; t++ {
				dst[t] = min(dst[t], sums[t])
			}
		}
	}
	sc.lanes += uint64(lanes)
}

// rescoreQuery exact-rescoring pass for one query over the whole shard:
// selects every lane whose stored float32 bound beats the pruning limit
// and rescores them ascending, so the heap tightens fastest and the
// first lane whose bound clears the re-read limit ends the scan.
func (e *Engine) rescoreQuery(sd *shardData, arcs []Arc, k int, lows []float32, idx []int32, h *topK, gbound *Bound, sc *scanCounters) {
	twoRho32 := e.twoRho32
	// Rescore the shard's k filter-best lanes first, whatever the bound:
	// the block-0 bootstrap only saw one block, so its threshold can sit
	// well above the shard's true k-th best, and selecting against a
	// loose threshold makes the sorted band below quadratically
	// expensive. bootScore's break makes this free once the bound is
	// already tight (a later shard warmed by gbound).
	e.bootScore(sd, arcs, k, lows, idx, h, gbound, sc)
	thr := h.bound()
	if g := gbound.Load(); g < thr {
		thr = g
	}
	if math.IsInf(thr, 1) {
		// k covered every real lane of the shard; all are scored.
		return
	}

	// Select the survivors against the limit (NaN bounds always fail),
	// insertion-sort them ascending — the band above the k-th best is
	// narrow, so quadratic sorting beats sort.Slice's indirection — and
	// rescore until one clears the re-read limit.
	lim32 := float32(thr + e.slack)
	sel := idx[:0]
	for t := range lows {
		if lows[t]*twoRho32 <= lim32 {
			sel = append(sel, int32(t))
		}
	}
	for i := 1; i < len(sel); i++ {
		v := sel[i]
		lv := lows[v]
		j := i - 1
		for ; j >= 0 && lows[sel[j]] > lv; j-- {
			sel[j+1] = sel[j]
		}
		sel[j+1] = v
	}
	for _, t := range sel {
		thr = h.bound()
		if g := gbound.Load(); g < thr {
			thr = g
		}
		if lows[t]*twoRho32 > float32(thr+e.slack) {
			break
		}
		sc.survivors++
		e.scoreLocal(sd, arcs, int(t), h, gbound)
	}
}

// arcEnvLB lower-bounds the arc distance of every entity in block b: a
// linear form a·cosθ + b·sinθ attains its extrema at a corner of the
// per-dimension (cos, sin) bounding box, so maximising it per dimension
// minimises the distance terms. The accumulation early-exits once the
// partial bound exceeds limit (terms are non-negative), which is the
// common case for skippable blocks.
func (e *Engine) arcEnvLB(sd *shardData, a *Arc, b int, limit float64) float64 {
	dim := e.p.Dim
	eb := b * dim
	cMin := sd.envCosMin[eb : eb+dim : eb+dim]
	cMax := sd.envCosMax[eb : eb+dim : eb+dim]
	sMin := sd.envSinMin[eb : eb+dim : eb+dim]
	sMax := sd.envSinMax[eb : eb+dim : eb+dim]
	cosS, sinS := a.CosS[:dim], a.SinS[:dim]
	cosE, sinE := a.CosE[:dim], a.SinE[:dim]
	cosC, sinC := a.CosC[:dim], a.SinC[:dim]
	sh := a.SH[:dim]
	twoRho := 2 * e.p.Rho
	eta := e.p.Eta
	acc := 0.0
	for j := 0; j < dim; j++ {
		clo, chi := float64(cMin[j]), float64(cMax[j])
		slo, shi := float64(sMin[j]), float64(sMax[j])
		cs := boxMax(cosS[j], sinS[j], clo, chi, slo, shi)
		ce := boxMax(cosE[j], sinE[j], clo, chi, slo, shi)
		cc := boxMax(cosC[j], sinC[j], clo, chi, slo, shi)
		do := halfSin(max(cs, ce))
		di := min(halfSin(cc), sh[j])
		acc += twoRho * (do + eta*di)
		if acc > limit {
			return acc
		}
	}
	return acc
}

// boxMax is max(a·c + b·s) over [clo, chi] × [slo, shi].
func boxMax(a, b, clo, chi, slo, shi float64) float64 {
	v := a * chi
	if a < 0 {
		v = a * clo
	}
	if b >= 0 {
		return v + b*shi
	}
	return v + b*slo
}

// sqrt32 compiles to a single-precision hardware square root.
func sqrt32(x float32) float32 { return float32(math.Sqrt(float64(x))) }

// abs32 clears the sign bit — branchless, NaN-free for the filter's
// finite inputs.
func abs32(x float32) float32 {
	return math.Float32frombits(math.Float32bits(x) &^ (1 << 31))
}
