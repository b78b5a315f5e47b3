// Package shard implements the sharded entity-ranking engine: the
// entity table is partitioned into N contiguous ID ranges, each shard
// owning its own cos/sin trig tables; a query scatters its prepared arc
// parameters to every shard in parallel, each shard produces a local
// top-K over an inline scoring loop with a bounded heap, and the shard
// heaps merge into the global top-K. Shards read versioned immutable
// snapshots published by Swap, so online embedding updates never block —
// or race with — in-flight scans.
//
// The scoring formula is HaLk's entity-to-arc distance (Eq. 15–16 plus
// the group penalty of Eq. 17) evaluated over cached unit vectors,
// term-for-term identical to the single-node fast path in internal/halk,
// so the sharded top-K matches the full-scan ranking exactly.
package shard

import "math"

// Params are the scoring constants shared by every shard: the embedding
// dimensionality and the distance weights of Eq. 15–17.
type Params struct {
	// Dim is the embedding dimensionality d.
	Dim int
	// Rho is the circle radius ρ.
	Rho float64
	// Eta down-weights the inside distance (Eq. 15).
	Eta float64
	// Xi weights the group penalty (Eq. 17); 0 disables it.
	Xi float64
}

// Arc is a query arc prepared for inline scoring: unit vectors of the
// start, end and center angles, the half-arc bound of the inside
// distance, and the group multi-hot vector. Prepared arcs are immutable
// and safe to share across shards.
type Arc struct {
	CosS, SinS []float64
	CosE, SinE []float64
	CosC, SinC []float64
	SH         []float64 // |sin(L/(4ρ))| — half-arc bound of d_i
	Hot        []float64
}

// PrepareArc computes the trigonometric tables of one value-level arc
// (center angles C, arclengths L, group hot vector) for inline scoring.
func PrepareArc(p Params, c, l, hot []float64) Arc {
	d := p.Dim
	a := Arc{
		CosS: make([]float64, d), SinS: make([]float64, d),
		CosE: make([]float64, d), SinE: make([]float64, d),
		CosC: make([]float64, d), SinC: make([]float64, d),
		SH:  make([]float64, d),
		Hot: hot,
	}
	for j := 0; j < d; j++ {
		s := c[j] - l[j]/(2*p.Rho)
		e := c[j] + l[j]/(2*p.Rho)
		a.CosS[j], a.SinS[j] = math.Cos(s), math.Sin(s)
		a.CosE[j], a.SinE[j] = math.Cos(e), math.Sin(e)
		a.CosC[j], a.SinC[j] = math.Cos(c[j]), math.Sin(c[j])
		a.SH[j] = math.Abs(math.Sin(l[j] / (4 * p.Rho)))
	}
	return a
}

// halfSin returns |sin(Δ/2)| from cos Δ, clamped against rounding.
func halfSin(cosD float64) float64 {
	x := (1 - cosD) / 2
	if x < 0 {
		x = 0
	}
	return math.Sqrt(x)
}
