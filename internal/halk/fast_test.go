package halk

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/query"
	"github.com/halk-kg/halk/internal/shard"
)

func TestFastDistancesMatchesReference(t *testing.T) {
	m, ds := testModel(t, 41)
	s := query.NewSampler(ds.Train, rand.New(rand.NewSource(42)))
	for _, structure := range identityStructures() {
		q, ok := s.Sample(structure)
		if !ok {
			t.Fatalf("sampling %s failed", structure)
		}
		fast := m.Distances(q)
		arcs := m.EmbedQuery(q)
		for e := 0; e < ds.Train.NumEntities(); e++ {
			slow := m.distanceTo(kg.EntityID(e), arcs)
			if math.Abs(fast[e]-slow) > 1e-9 {
				t.Fatalf("%s: entity %d: fast %.12f != slow %.12f", structure, e, fast[e], slow)
			}
		}
	}
}

// TestNegativeKReturnsEmpty: a negative k asks for no answers; every
// top-k entry point returns an empty list instead of panicking.
func TestNegativeKReturnsEmpty(t *testing.T) {
	m, ds := testModel(t, 49)
	s := query.NewSampler(ds.Train, rand.New(rand.NewSource(50)))
	q, ok := s.Sample("2p")
	if !ok {
		t.Fatal("sampling failed")
	}
	if got := m.TopK(q, -1); len(got) != 0 {
		t.Errorf("TopK(k=-1) = %v, want empty", got)
	}
	d, err := m.DistancesContext(context.Background(), q)
	if got, _ := shard.LowestK(d, nil, -1); err != nil || len(got) != 0 {
		t.Errorf("LowestK(DistancesContext, k=-1) = %v, %v; want empty, nil", got, err)
	}
}

func TestTrigCacheInvalidation(t *testing.T) {
	m, ds := testModel(t, 43)
	s := query.NewSampler(ds.Train, rand.New(rand.NewSource(44)))
	q, ok := s.Sample("1p")
	if !ok {
		t.Fatal("sampling failed")
	}
	before := m.Distances(q)
	// Mutate an entity embedding out of band (as an optimizer step does)
	// and announce it; the next ranking must read a new view whose trig
	// tables are rebuilt.
	m.ent.Data[0] += 1.0
	m.MarkEntitiesUpdated()
	after := m.Distances(q)
	same := true
	for e := range before {
		if before[e] != after[e] {
			same = false
			break
		}
	}
	// entity 0's distance must change (its point moved)
	if before[0] == after[0] && same {
		t.Error("ranking served stale trig tables after entity update")
	}
	// restore and confirm we get the original values back
	m.ent.Data[0] -= 1.0
	m.MarkEntitiesUpdated()
	restored := m.Distances(q)
	for e := range before {
		if math.Abs(before[e]-restored[e]) > 1e-12 {
			t.Fatal("distances not restored after reverting entity data")
		}
	}
}

func TestEntityVersionBumps(t *testing.T) {
	m, _ := testModel(t, 43)
	v0 := m.EntityVersion()
	if v0 == 0 {
		t.Fatal("fresh model must start at a nonzero entity version")
	}
	angles := append([]float64(nil), m.EntityAngles(0)...)
	if err := m.SetEntityAnglesBatch([]EntityUpdate{{E: 0, Angles: angles}}); err != nil {
		t.Fatalf("SetEntityAnglesBatch: %v", err)
	}
	if v := m.EntityVersion(); v <= v0 {
		t.Fatalf("SetEntityAnglesBatch did not bump version: %d -> %d", v0, v)
	}
	v1 := m.EntityVersion()
	m.MarkEntitiesUpdated()
	if v := m.EntityVersion(); v <= v1 {
		t.Fatalf("MarkEntitiesUpdated did not bump version: %d -> %d", v1, v)
	}
}

// TestConcurrentRankingAndEntityUpdate exercises the serving scenario of
// rankings in flight while the entity table is being patched: run with
// -race, it fails if a write lands in an array a published view holds.
// Every view a reader loads must hold a whole row — each update shifts
// every angle of entity 0 by the same 0.01, so a torn row would show
// two different shifts — and the final write must be visible to the
// next ranking.
func TestConcurrentRankingAndEntityUpdate(t *testing.T) {
	m, ds := testModel(t, 47)
	s := query.NewSampler(ds.Train, rand.New(rand.NewSource(48)))
	q, ok := s.Sample("2i")
	if !ok {
		t.Fatal("sampling failed")
	}
	orig := append([]float64(nil), m.EntityAngles(0)...)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				row := m.pub.Load().ent.Row(0)
				for j := range row {
					if math.Abs((row[j]-orig[j])-(row[0]-orig[0])) > 1e-9 {
						t.Errorf("torn entity row: dim %d shifted %v, dim 0 shifted %v", j, row[j]-orig[j], row[0]-orig[0])
						return
					}
				}
				if _, err := m.DistancesContext(context.Background(), q); err != nil {
					t.Errorf("DistancesContext: %v", err)
					return
				}
			}
		}()
	}

	angles := append([]float64(nil), orig...)
	for i := 0; i < 50; i++ {
		for j := range angles {
			angles[j] += 0.01
		}
		if err := m.SetEntityAnglesBatch([]EntityUpdate{{E: 0, Angles: angles}}); err != nil {
			t.Fatalf("SetEntityAnglesBatch: %v", err)
		}
	}
	close(stop)
	wg.Wait()

	// The final update must be visible to subsequent rankings.
	got := m.EntityAngles(0)
	for j := range angles {
		if got[j] != angles[j] {
			t.Fatalf("entity 0 angle %d = %v, want %v", j, got[j], angles[j])
		}
	}
	arcs := m.EmbedQuery(q)
	if d, want := m.Distances(q)[0], m.distanceTo(0, arcs); math.Abs(d-want) > 1e-9 {
		t.Fatalf("entity 0 distance after the last update = %v, want %v", d, want)
	}
}

func TestDistancesContextCancellation(t *testing.T) {
	m, ds := testModel(t, 51)
	s := query.NewSampler(ds.Train, rand.New(rand.NewSource(52)))
	q, ok := s.Sample("1p")
	if !ok {
		t.Fatal("sampling failed")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.DistancesContext(ctx, q); err != context.Canceled {
		t.Fatalf("DistancesContext on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := m.DistancesContext(context.Background(), q); err != nil {
		t.Fatalf("DistancesContext: %v", err)
	}
}

func TestSetEntityAnglesValidates(t *testing.T) {
	m, _ := testModel(t, 53)
	if err := m.SetEntityAnglesBatch([]EntityUpdate{{E: 0, Angles: make([]float64, m.cfg.Dim+1)}}); err == nil {
		t.Error("wrong dimensionality accepted")
	}
	if err := m.SetEntityAnglesBatch([]EntityUpdate{{E: kg.EntityID(m.graph.NumEntities()), Angles: make([]float64, m.cfg.Dim)}}); err == nil {
		t.Error("out-of-range entity accepted")
	}
}

func TestFastDistancesSpeed(t *testing.T) {
	m, ds := testModel(t, 45)
	s := query.NewSampler(ds.Train, rand.New(rand.NewSource(46)))
	q, _ := s.Sample("2p")
	m.Distances(q) // warm the view's trig tables
	start := time.Now()
	const reps = 20
	for i := 0; i < reps; i++ {
		m.Distances(q)
	}
	per := time.Since(start) / reps
	// Generous bound: the point is to catch accidental fallback to the
	// trig-heavy path (which is ~10x slower).
	if per > 5*time.Millisecond {
		t.Errorf("Distances took %v per query; fast path regressed?", per)
	}
	t.Logf("online ranking: %v per query (%d entities, d=%d)", per, ds.Train.NumEntities(), m.cfg.Dim)
}
