package shard

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"
)

// servingBlockedMinRows is the crossover the engine serves with;
// TestMain lowers blockedMinRows so that the package's small test
// tables run the blocked kernel on every shard, as they are meant to.
var servingBlockedMinRows = blockedMinRows

func TestMain(m *testing.M) {
	blockedMinRows = 1
	os.Exit(m.Run())
}

// withServingCrossover restores the serving crossover for one test.
func withServingCrossover(t *testing.T) {
	t.Helper()
	blockedMinRows = servingBlockedMinRows
	t.Cleanup(func() { blockedMinRows = 1 })
}

// TestBlockedCrossover pins the small-shard rule: a shard below the
// crossover holds float64 cos/sin tables and is scanned by the scalar
// loop (no filter lanes); a shard at or above it holds only the float32
// planes and runs the blocked filter. Both answer like the scalar
// reference engine, bit for bit.
func TestBlockedCrossover(t *testing.T) {
	withServingCrossover(t)
	rows := blockedMinRows
	// Two shards of rows and rows-1 entities.
	p, src, _, pre := testSetup(31, 2*rows-1, 4, 2, 4)
	e := newTestEngine(t, p, src, Options{Shards: 2})
	defer e.Close()
	snap := e.snap.Load()
	big, small := &snap.shards[0], &snap.shards[1]
	if big.hi-big.lo != rows || small.hi-small.lo != rows-1 {
		t.Fatalf("shards hold %d and %d rows, want %d and %d", big.hi-big.lo, small.hi-small.lo, rows, rows-1)
	}
	if big.cos != nil || big.sin != nil || big.cos32 == nil {
		t.Errorf("shard of %d rows: float64 tables %v, float32 planes %v; want planes only", rows, big.cos != nil, big.cos32 != nil)
	}
	if small.cos == nil || small.sin == nil || small.cos32 != nil {
		t.Errorf("shard of %d rows: float64 tables %v, float32 planes %v; want tables only", rows-1, small.cos != nil, small.cos32 != nil)
	}

	scalar := newTestEngine(t, p, src, Options{Shards: 2, ScalarKernel: true})
	defer scalar.Close()
	for i, sd := range scalar.snap.Load().shards {
		if sd.cos == nil || sd.cos32 != nil {
			t.Errorf("ScalarKernel shard %d: float64 tables %v, float32 planes %v; want tables only", i, sd.cos != nil, sd.cos32 != nil)
		}
	}
	for _, k := range []int{1, 10, 200} {
		assertIdentical(t, "crossover engine vs scalar", mustRank(t, e, pre, k), mustRank(t, scalar, pre, k))
	}
	st := e.Stats()
	if st[0].FilterLanes == 0 {
		t.Errorf("shard of %d rows reported no filter lanes", rows)
	}
	if st[1].FilterLanes != 0 {
		t.Errorf("shard of %d rows reported %d filter lanes, want 0", rows-1, st[1].FilterLanes)
	}
}

// TestBlockedSwapAliasesAngles pins the memory contract of a blocked
// snapshot: its shards hold slice headers over the caller's angle and
// group arrays, and a Swap allocates the float32 planes and envelopes
// and next to nothing else — no float64 copy of the table.
func TestBlockedSwapAliasesAngles(t *testing.T) {
	withServingCrossover(t)
	const ents, dim, shards = 4096, 64, 2
	p, src, _, _ := testSetup(33, ents, dim, 1, 4)
	e := NewEngine(p, Options{Shards: shards})
	defer e.Close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := e.Swap(src); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc

	want := uint64(0)
	for i, sd := range e.snap.Load().shards {
		if sd.cos32 == nil || sd.cos != nil || sd.sin != nil {
			t.Fatalf("shard %d (%d rows) is not blocked-only", i, sd.hi-sd.lo)
		}
		if &sd.angles[0] != &src.Angles[sd.lo*dim] || len(sd.angles) != (sd.hi-sd.lo)*dim {
			t.Errorf("shard %d: angles do not alias Source.Angles rows [%d, %d)", i, sd.lo, sd.hi)
		}
		if &sd.group[0] != &src.Group[sd.lo] {
			t.Errorf("shard %d: group does not alias Source.Group", i)
		}
		planes := 2 * sd.blocks * dim * blockSize * 4
		envelopes := 4 * sd.blocks * dim * 4
		want += uint64(planes + envelopes)
	}
	limit := want + want/10
	t.Logf("Swap allocated %d bytes; planes + envelopes %d", allocated, want)
	if allocated > limit {
		t.Errorf("Swap allocated %d bytes, more than planes + envelopes + 10 %% (%d)", allocated, limit)
	}
}

// TestDeltaSwapRepointsCleanShards: after a delta swap onto fresh
// arrays every shard — the rebuilt one and the shared clean ones — reads
// the new Source's rows, so nothing keeps the previous table reachable.
func TestDeltaSwapRepointsCleanShards(t *testing.T) {
	const ents, dim, shards = 100, 4, 5
	for _, scalarKernel := range []bool{false, true} {
		p, src, _, arcs := testSetup(35, ents, dim, 2, 4)
		e := newTestEngine(t, p, src, Options{Shards: shards, ScalarKernel: scalarKernel})
		src2 := mutateSource(src, dim, []int32{50}, 2, 37)
		src2.Group = append([]int32(nil), src.Group...)
		if err := e.Swap(src2); err != nil {
			t.Fatal(err)
		}
		if got := e.deltaReused.Value(); got != shards-1 {
			t.Fatalf("scalar=%v: %d shards shared, want %d", scalarKernel, got, shards-1)
		}
		for i, sd := range e.snap.Load().shards {
			if &sd.angles[0] != &src2.Angles[sd.lo*dim] {
				t.Errorf("scalar=%v: shard %d still reads the previous angle array", scalarKernel, i)
			}
			if &sd.group[0] != &src2.Group[sd.lo] {
				t.Errorf("scalar=%v: shard %d still reads the previous group array", scalarKernel, i)
			}
		}
		full := newTestEngine(t, p, Source{Angles: src2.Angles, Group: src2.Group, Version: 2}, Options{Shards: shards, ScalarKernel: scalarKernel})
		assertIdentical(t, "delta vs full", mustRank(t, e, arcs, 20), mustRank(t, full, arcs, 20))

		// Every shard takes its group header from a delta's source, so
		// its group column must cover the table, as a full swap's must.
		short := mutateSource(src2, dim, []int32{3}, 3, 41)
		short.Group = short.Group[:ents-1]
		if err := e.Swap(short); err == nil {
			t.Errorf("scalar=%v: delta swap with %d group ids for %d entities succeeded", scalarKernel, ents-1, ents)
		}
		e.Close()
		full.Close()
	}
}

// TestSincosMatchesSinCos backs the blocked rescore's byte identity: it
// takes a survivor's cos/sin from math.Sincos, where the scalar loop's
// tables and the envelopes hold math.Cos and math.Sin of the same
// angle, so the two must agree bit for bit on every angle a table can
// hold.
func TestSincosMatchesSinCos(t *testing.T) {
	angles := []float64{0, math.Copysign(0, -1), math.Pi, 2 * math.Pi, math.Pi / 2, math.Pi / 4, -math.Pi}
	rng := rand.New(rand.NewSource(39))
	for i := 0; i < 1_000_000; i++ {
		angles = append(angles, rng.Float64()*2*math.Pi)
	}
	// Nothing wraps a table's angles into [0, 2π), so wider ones count too.
	for i := 0; i < 100_000; i++ {
		angles = append(angles, (rng.Float64()-0.5)*200)
	}
	bad := 0
	for _, a := range angles {
		s, c := math.Sincos(a)
		if math.Float64bits(s) != math.Float64bits(math.Sin(a)) || math.Float64bits(c) != math.Float64bits(math.Cos(a)) {
			if bad++; bad <= 5 {
				t.Errorf("angle %v (%#x): Sincos = (%v, %v), Sin, Cos = (%v, %v)", a, math.Float64bits(a), s, c, math.Sin(a), math.Cos(a))
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d angles differ", bad, len(angles))
	}
}
