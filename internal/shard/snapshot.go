package shard

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Source is the model state a snapshot is built from: the flat
// row-major entity angle table, the group assignment per entity (ignored
// when Params.Xi is 0), and the monotonic version identifying this state
// of the embeddings.
//
// The engine retains Angles and Group without copying them: blocked
// shards rescore their filter survivors from the angle rows, and every
// shard keeps slice headers over both. The caller must never write
// either array after passing it to Swap; a new state of the embeddings
// is published as a new array. halk's serving views guarantee this (a
// view's arrays are never written once published); offline training,
// which steps a table in place, must publish a copy.
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
	// immutable planes, envelopes and trig tables, re-pointed at this
	// Source's rows, and only dirty shards are rebuilt. The caller's
	// contract is that rows and group ids of entities NOT listed are
	// byte-identical to the published snapshot's source — streaming
	// fine-tune guarantees this via its dirty set. Re-pointing the clean
	// shards is what lets the previous Source's arrays be collected once
	// no scan holds the old snapshot. A non-nil empty Dirty republishes
	// every shard untouched (version-only bump). Nil means full rebuild.
	// Ignored when no snapshot is published yet or the table geometry
	// changed.
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
	// blocked is true when at least one shard carries the float32
	// planes, so a gather prepares the filter's kernel tables only when
	// some shard will read them.
	blocked bool
}

func maxGroupID(p Params, src Source) int32 {
	if p.Xi > 0 && len(src.Group) > 0 {
		return slices.Max(src.Group)
	}
	return -1
}

// blockedMinRows is the smallest shard the blocked kernel runs on. On
// smaller shards the float32 filter passes a large share of the lanes,
// and each survivor's exact rescore pays a Sincos per dimension, so
// they keep float64 cos/sin tables and the scalar loop instead. A sweep
// of both kernels over 2…128 shards of a 20k-row table (d = 64, model
// arcs of 1p/2i/2u queries, k = 10, 2 vCPUs) read the blocked kernel
// 0.5–0.8× the scalar loop's speed at 156–312 rows per shard, level
// (1.05–1.11×) at 625 and ahead (1.2–1.8×) from 1250. The survivor
// share grows with k, so the crossover sits above the k = 10 level
// point. A variable only so that the package's tests can run the
// blocked kernel on small tables.
var blockedMinRows = 1024

// shardData is one shard's immutable view: the contiguous entity range
// [lo, hi) it owns, its rows of the caller's angle table, and the local
// group assignments. It keeps one of two scoring layouts:
//
//   - blocked (shards of at least blockedMinRows rows, unless the engine
//     pins the scalar kernel): a cache-blocked structure-of-arrays
//     float32 copy of the rows' cos/sin and per-block min/max envelopes
//     (see block.go). The exact rescore of a filter survivor computes
//     its float64 cos/sin from angles on the spot.
//   - scalar: float64 cos/sin tables over the range, which the scalar
//     loop walks for every entity.
//
// A shard never holds both layouts, and angles and group alias the
// caller's Source (no copy).
type shardData struct {
	lo, hi int
	angles []float64 // (hi-lo)×dim, aliases Source.Angles
	group  []int32   // aliases Source.Group; nil when the group penalty is disabled

	// Scalar layout: (hi-lo)×dim, nil on a blocked shard.
	cos, sin []float64

	// Blocked float32 planes, laid out (block, dim, lane): element
	// (b*dim+j)*blockSize + t is lane t of block b in dimension j. nil
	// on a scalar shard.
	blocks       int
	cos32, sin32 []float32
	// Per-(block, dim) envelope bounds over the real lanes of the block,
	// rounded outward so the float32 box always contains the float64
	// values.
	envCosMin, envCosMax []float32
	envSinMin, envSinMax []float32
}

// buildShardData computes one shard's immutable view over the source
// rows [lo, hi) (global IDs): the blocked planes and envelopes when
// blocked is set and the shard has at least blockedMinRows rows, the
// float64 trig tables otherwise.
func buildShardData(p Params, lo, hi int, src Source, blocked bool) shardData {
	sd := shardData{lo: lo, hi: hi}
	sd.point(p, src)
	if blocked && hi-lo >= blockedMinRows {
		buildBlocked(&sd, p.Dim)
		return sd
	}
	sd.cos = make([]float64, len(sd.angles))
	sd.sin = make([]float64, len(sd.angles))
	for j, a := range sd.angles {
		sd.cos[j] = math.Cos(a)
		sd.sin[j] = math.Sin(a)
	}
	return sd
}

// point sets the shard's angle and group headers to src's rows of its
// range. src rows are indexed from Base: row 0 is entity Base.
func (sd *shardData) point(p Params, src Source) {
	sd.angles = src.Angles[(sd.lo-src.Base)*p.Dim : (sd.hi-src.Base)*p.Dim]
	if p.Xi > 0 {
		sd.group = src.Group[sd.lo-src.Base : sd.hi-src.Base]
	}
}

// buildSnapshot partitions src into n contiguous shards and builds each
// shard's scoring layout. The first numEntities mod n shards are one
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
		snap.blocked = snap.blocked || snap.shards[i].cos32 != nil
		lo += size
	}
	return snap, nil
}

// deltaSnapshot builds a snapshot from src reusing cur's planes,
// envelopes and trig tables for every shard whose entity range contains
// no dirty ID, with its angle and group headers re-pointed at src (the
// rows are byte-identical by the Dirty contract, and the old arrays
// become collectable once no scan holds cur). Those structures are
// immutable after publication, so sharing them across snapshots is
// safe: in-flight scans on cur and new scans on the delta snapshot read
// the same backing arrays, which neither will ever write. Dirty shards
// are rebuilt from src exactly as buildSnapshot would, so a delta
// snapshot is byte-identical to a full rebuild whenever the caller's
// Dirty contract holds. Returns the number of shards rebuilt.
func deltaSnapshot(p Params, src Source, cur *snapshot, blocked bool) (*snapshot, int, error) {
	if p.Xi > 0 && len(src.Group) != cur.numEntities {
		return nil, 0, fmt.Errorf("shard: got %d group assignments for %d entities", len(src.Group), cur.numEntities)
	}
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
			snap.shards[i].point(p, src)
		} else {
			snap.shards[i] = buildShardData(p, lo, hi, src, blocked)
			rebuilt++
		}
		snap.blocked = snap.blocked || snap.shards[i].cos32 != nil
	}
	return snap, rebuilt, nil
}
