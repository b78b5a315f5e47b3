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
)

func TestFastDistancesMatchesReference(t *testing.T) {
	m, ds := testModel(t, 41)
	s := query.NewSampler(ds.Train, rand.New(rand.NewSource(42)))
	for _, structure := range []string{"1p", "2i", "2u", "dp", "2in"} {
		q, ok := s.Sample(structure)
		if !ok {
			t.Fatalf("sampling %s failed", structure)
		}
		fast := m.Distances(q)
		arcs := m.EmbedQuery(q)
		for e := 0; e < ds.Train.NumEntities(); e += 7 {
			slow := m.distanceTo(kg.EntityID(e), arcs)
			if math.Abs(fast[e]-slow) > 1e-9 {
				t.Fatalf("%s: entity %d: fast %.12f != slow %.12f", structure, e, fast[e], slow)
			}
		}
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
	// Mutate an entity embedding out of band (as a parameter load would)
	// and announce it; the version-keyed cache must rebuild.
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
		t.Error("trig cache served stale tables after entity update")
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
	if err := m.SetEntityAngles(0, angles); err != nil {
		t.Fatalf("SetEntityAngles: %v", err)
	}
	if v := m.EntityVersion(); v <= v0 {
		t.Fatalf("SetEntityAngles did not bump version: %d -> %d", v0, v)
	}
	v1 := m.EntityVersion()
	m.MarkEntitiesUpdated()
	if v := m.EntityVersion(); v <= v1 {
		t.Fatalf("MarkEntitiesUpdated did not bump version: %d -> %d", v1, v)
	}
}

// TestConcurrentRankingAndEntityUpdate exercises the serving scenario of
// rankings in-flight while the entity table is being patched: run with
// -race, it fails if the trig cache rewrites tables handed to an
// in-flight scan (the pre-copy-on-invalidate bug) or if an entity row is
// read half-written.
func TestConcurrentRankingAndEntityUpdate(t *testing.T) {
	m, ds := testModel(t, 47)
	s := query.NewSampler(ds.Train, rand.New(rand.NewSource(48)))
	q, ok := s.Sample("2i")
	if !ok {
		t.Fatal("sampling failed")
	}

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
				if _, err := m.TopKContext(context.Background(), q, 5); err != nil {
					t.Errorf("TopKContext: %v", err)
					return
				}
			}
		}()
	}

	angles := append([]float64(nil), m.EntityAngles(0)...)
	for i := 0; i < 50; i++ {
		for j := range angles {
			angles[j] += 0.01
		}
		if err := m.SetEntityAngles(0, angles); err != nil {
			t.Fatalf("SetEntityAngles: %v", err)
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
	if _, err := m.TopKContext(context.Background(), q, 3); err != nil {
		t.Fatalf("TopKContext: %v", err)
	}
}

func TestSetEntityAnglesValidates(t *testing.T) {
	m, _ := testModel(t, 53)
	if err := m.SetEntityAngles(0, make([]float64, m.cfg.Dim+1)); err == nil {
		t.Error("wrong dimensionality accepted")
	}
	if err := m.SetEntityAngles(kg.EntityID(m.graph.NumEntities()), make([]float64, m.cfg.Dim)); err == nil {
		t.Error("out-of-range entity accepted")
	}
}

func TestFastDistancesSpeed(t *testing.T) {
	m, ds := testModel(t, 45)
	s := query.NewSampler(ds.Train, rand.New(rand.NewSource(46)))
	q, _ := s.Sample("2p")
	m.Distances(q) // warm the cache
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
