package shard

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Source is the mutable model state a snapshot is built from: the flat
// row-major entity angle table, the group assignment per entity (ignored
// when Params.Xi is 0), and the monotonic version identifying this state
// of the embeddings.
//
// Base shifts the global entity IDs the snapshot reports: row i of
// Angles is entity Base+i. A single-process engine leaves it 0 (the
// table covers every entity); a cluster node hosting the contiguous
// range [lo, hi) slices its rows out of the full table and sets
// Base = lo, so the local scan emits globally valid IDs that merge
// directly with other nodes' results.
type Source struct {
	Angles  []float64
	Group   []int32
	Version uint64
	Base    int

	// Dirty, when non-nil, lists every global entity ID whose angle row
	// changed since the engine's currently published snapshot, enabling a
	// delta swap: shards containing no dirty entity reuse their existing
	// immutable shardData (trig tables, group slice) and only
	// dirty shards are rebuilt. The caller's contract is that rows of
	// entities NOT listed are byte-identical to the published snapshot's
	// source — streaming fine-tune guarantees this via its dirty set. A
	// non-nil empty Dirty republishes every shard untouched (version-only
	// bump). Nil means full rebuild. Ignored when no snapshot is
	// published yet or the table geometry changed.
	Dirty []int32
}

// snapshot is one immutable published version of the sharded entity
// table. In-flight scans hold the snapshot they started on; Swap only
// replaces the engine's pointer, never the snapshot's contents.
type snapshot struct {
	version     uint64
	numEntities int
	shards      []shardData
	// maxGroup is the largest group id, which every arc's Hot must index
	// (runBatch checks); -1 when the group penalty is off.
	maxGroup int32
}

func maxGroupID(p Params, src Source) int32 {
	if p.Xi > 0 && len(src.Group) > 0 {
		return slices.Max(src.Group)
	}
	return -1
}

// shardData is one shard's immutable view: the contiguous entity range
// [lo, hi) it owns, its private cos/sin trig tables over that range, and
// the local group assignments.
//
// When the blocked kernel is enabled the shard additionally carries a
// cache-blocked structure-of-arrays float32 copy of the trig tables and
// per-block min/max envelopes (see block.go); the float64 tables remain
// the source of truth for exact scoring.
type shardData struct {
	lo, hi   int
	cos, sin []float64 // (hi-lo)×dim
	group    []int32   // nil when the group penalty is disabled

	// Blocked float32 planes, laid out (block, dim, lane): element
	// (b*dim+j)*blockSize + t is lane t of block b in dimension j. nil
	// when the engine pins the scalar kernel (Options.ScalarKernel).
	blocks       int
	cos32, sin32 []float32
	// Per-(block, dim) envelope bounds over the real lanes of the block,
	// rounded outward so the float32 box always contains the float64
	// values.
	envCosMin, envCosMax []float32
	envSinMin, envSinMax []float32
}

// buildShardData computes one shard's immutable view over the source
// rows [lo, hi) (global IDs); blocked additionally derives the float32
// planes and block envelopes.
func buildShardData(p Params, lo, hi int, src Source, blocked bool) shardData {
	size := hi - lo
	sd := shardData{
		lo:  lo,
		hi:  hi,
		cos: make([]float64, size*p.Dim),
		sin: make([]float64, size*p.Dim),
	}
	// src rows are indexed from Base: row 0 is entity Base.
	angles := src.Angles[(lo-src.Base)*p.Dim : (hi-src.Base)*p.Dim]
	for j, a := range angles {
		sd.cos[j] = math.Cos(a)
		sd.sin[j] = math.Sin(a)
	}
	if p.Xi > 0 {
		sd.group = src.Group[lo-src.Base : hi-src.Base]
	}
	if blocked {
		buildBlocked(&sd, p.Dim)
	}
	return sd
}

// buildSnapshot partitions src into n contiguous shards and computes the
// per-shard trig tables. The first numEntities mod n shards are one
// entity larger, so any table size splits without gaps.
func buildSnapshot(p Params, n int, src Source, blocked bool) (*snapshot, error) {
	if p.Dim <= 0 {
		return nil, fmt.Errorf("shard: Dim must be positive")
	}
	if src.Base < 0 {
		return nil, fmt.Errorf("shard: Base must be non-negative, got %d", src.Base)
	}
	if len(src.Angles)%p.Dim != 0 {
		return nil, fmt.Errorf("shard: angle table length %d is not a multiple of dim %d", len(src.Angles), p.Dim)
	}
	ents := len(src.Angles) / p.Dim
	if p.Xi > 0 && len(src.Group) != ents {
		return nil, fmt.Errorf("shard: got %d group assignments for %d entities", len(src.Group), ents)
	}
	snap := &snapshot{
		version:     src.Version,
		numEntities: ents,
		shards:      make([]shardData, n),
		maxGroup:    maxGroupID(p, src),
	}
	per, rem := ents/n, ents%n
	lo := src.Base
	for i := range snap.shards {
		size := per
		if i < rem {
			size++
		}
		snap.shards[i] = buildShardData(p, lo, lo+size, src, blocked)
		lo += size
	}
	return snap, nil
}

// deltaSnapshot builds a snapshot from src reusing cur's shardData for
// every shard whose entity range contains no dirty ID. shardData is
// immutable after publication, so sharing it across snapshots is safe:
// in-flight scans on cur and new scans on the delta snapshot read the
// same backing arrays, which neither will ever write. Dirty shards are
// rebuilt from src exactly as buildSnapshot would (including the
// blocked planes), so a delta snapshot is byte-identical to a full rebuild whenever the caller's Dirty
// contract holds. Returns the number of shards rebuilt.
func deltaSnapshot(p Params, src Source, cur *snapshot, blocked bool) (*snapshot, int, error) {
	dirty := append([]int32(nil), src.Dirty...)
	sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })
	snap := &snapshot{
		version:     src.Version,
		numEntities: cur.numEntities,
		shards:      make([]shardData, len(cur.shards)),
		maxGroup:    maxGroupID(p, src),
	}
	rebuilt := 0
	for i := range cur.shards {
		lo, hi := cur.shards[i].lo, cur.shards[i].hi
		// First dirty ID >= lo; the shard is clean when it is also >= hi.
		j := sort.Search(len(dirty), func(j int) bool { return int(dirty[j]) >= lo })
		if j >= len(dirty) || int(dirty[j]) >= hi {
			snap.shards[i] = cur.shards[i]
			continue
		}
		snap.shards[i] = buildShardData(p, lo, hi, src, blocked)
		rebuilt++
	}
	return snap, rebuilt, nil
}
