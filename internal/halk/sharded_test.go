package halk

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/query"
	"github.com/halk-kg/halk/internal/shard"
)

// TestShardedRankerMatchesTopK asserts the scatter-gather path returns
// exactly the same answers (IDs and order) as the single-threaded full
// scan, across shard counts that do and do not divide the entity count.
func TestShardedRankerMatchesTopK(t *testing.T) {
	m, ds := testModel(t, 61)
	s := query.NewSampler(ds.Train, rand.New(rand.NewSource(62)))
	for _, shards := range []int{1, 2, 7} {
		r, err := m.NewShardedRanker(shard.Options{Shards: shards})
		if err != nil {
			t.Fatalf("NewShardedRanker(%d): %v", shards, err)
		}
		if r.NumShards() != shards {
			t.Fatalf("NumShards = %d, want %d", r.NumShards(), shards)
		}
		for _, structure := range []string{"1p", "2i", "2u", "dp"} {
			q, ok := s.Sample(structure)
			if !ok {
				t.Fatalf("sampling %s failed", structure)
			}
			const k = 15
			want := m.TopK(q, k)
			got, err := r.RankTopK(context.Background(), q, k)
			if err != nil {
				t.Fatalf("shards=%d %s: RankTopK: %v", shards, structure, err)
			}
			if got.Partial {
				t.Fatalf("shards=%d %s: unexpected partial result", shards, structure)
			}
			if len(got.IDs) != len(want) {
				t.Fatalf("shards=%d %s: got %d answers, want %d", shards, structure, len(got.IDs), len(want))
			}
			for i := range want {
				if got.IDs[i] != want[i] {
					t.Fatalf("shards=%d %s: answer %d = %d, want %d", shards, structure, i, got.IDs[i], want[i])
				}
			}
			// Returned distances must be the exact full-scan distances.
			dist := m.Distances(q)
			for i, id := range got.IDs {
				if got.Dists[i] != dist[id] {
					t.Fatalf("shards=%d %s: dist[%d] = %v, want %v", shards, structure, i, got.Dists[i], dist[id])
				}
			}
		}
	}
}

// TestShardedRankerRefresh asserts Refresh picks up entity updates and
// that stale rankers keep serving the old snapshot until refreshed.
func TestShardedRankerRefresh(t *testing.T) {
	m, ds := testModel(t, 63)
	s := query.NewSampler(ds.Train, rand.New(rand.NewSource(64)))
	q, ok := s.Sample("1p")
	if !ok {
		t.Fatal("sampling failed")
	}
	r, err := m.NewShardedRanker(shard.Options{Shards: 3})
	if err != nil {
		t.Fatalf("NewShardedRanker: %v", err)
	}
	v0 := r.SnapshotVersion()
	if v0 != m.EntityVersion() {
		t.Fatalf("initial snapshot version %d != model entity version %d", v0, m.EntityVersion())
	}

	before, err := r.RankTopK(context.Background(), q, 5)
	if err != nil {
		t.Fatalf("RankTopK: %v", err)
	}

	// Move the best answer far away; the un-refreshed ranker must keep
	// answering from its old snapshot.
	moved := before.IDs[0]
	angles := append([]float64(nil), m.EntityAngles(moved)...)
	for j := range angles {
		angles[j] += 2.5
	}
	if err := m.SetEntityAnglesBatch([]EntityUpdate{{E: moved, Angles: angles}}); err != nil {
		t.Fatalf("SetEntityAnglesBatch: %v", err)
	}
	stale, err := r.RankTopK(context.Background(), q, 5)
	if err != nil {
		t.Fatalf("RankTopK (stale): %v", err)
	}
	if stale.Version != v0 {
		t.Fatalf("un-refreshed ranker served version %d, want %d", stale.Version, v0)
	}

	if err := r.Refresh(); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	if r.SnapshotVersion() <= v0 {
		t.Fatalf("Refresh did not advance snapshot version past %d", v0)
	}
	after, err := r.RankTopK(context.Background(), q, 5)
	if err != nil {
		t.Fatalf("RankTopK (refreshed): %v", err)
	}
	// The refreshed sharded ranking must again match the live full scan.
	want := m.TopK(q, 5)
	for i := range want {
		if after.IDs[i] != want[i] {
			t.Fatalf("refreshed answer %d = %d, want %d", i, after.IDs[i], want[i])
		}
	}
	// Refresh with no change is a no-op.
	v1 := r.SnapshotVersion()
	if err := r.Refresh(); err != nil {
		t.Fatalf("idempotent Refresh: %v", err)
	}
	if r.SnapshotVersion() != v1 {
		t.Fatal("Refresh without entity updates rebuilt the snapshot")
	}
}

// TestShardedRankerRefreshDirty asserts a delta publish driven by a
// fine-tune dirty set converges to exactly the same ranking as a full
// rebuild, with bit-identical distances.
func TestShardedRankerRefreshDirty(t *testing.T) {
	m, ds := testModel(t, 65)
	s := query.NewSampler(ds.Train, rand.New(rand.NewSource(66)))
	q, ok := s.Sample("2i")
	if !ok {
		t.Fatal("sampling failed")
	}
	r, err := m.NewShardedRanker(shard.Options{Shards: 3})
	if err != nil {
		t.Fatalf("NewShardedRanker: %v", err)
	}
	defer r.Close()
	v0 := r.SnapshotVersion()

	edge := pickNonEdge(t, m.Graph(), 9)
	res, err := m.FineTuneEdges([]kg.Triple{edge}, nil, FineTuneConfig{Seed: 5})
	if err != nil {
		t.Fatalf("FineTuneEdges: %v", err)
	}
	if len(res.DirtyEntities) == 0 {
		t.Fatal("fine-tune touched no entities")
	}
	if err := r.RefreshDirty(res.DirtyEntities); err != nil {
		t.Fatalf("RefreshDirty: %v", err)
	}
	if r.SnapshotVersion() <= v0 {
		t.Fatalf("RefreshDirty did not advance snapshot version past %d", v0)
	}

	const k = 10
	want := m.TopK(q, k)
	got, err := r.RankTopK(context.Background(), q, k)
	if err != nil {
		t.Fatalf("RankTopK: %v", err)
	}
	dist := m.Distances(q)
	for i := range want {
		if got.IDs[i] != want[i] {
			t.Fatalf("answer %d = %d, want %d", i, got.IDs[i], want[i])
		}
		if math.Float64bits(got.Dists[i]) != math.Float64bits(dist[want[i]]) {
			t.Fatalf("dist[%d] = %v, want bit-identical %v", i, got.Dists[i], dist[want[i]])
		}
	}

	// A second delta publish with no version bump is a no-op.
	v1 := r.SnapshotVersion()
	if err := r.RefreshDirty(res.DirtyEntities); err != nil {
		t.Fatalf("idempotent RefreshDirty: %v", err)
	}
	if r.SnapshotVersion() != v1 {
		t.Fatal("RefreshDirty without entity updates rebuilt the snapshot")
	}
}

// TestReloadBetweenFineTuneAndDeltaPublish: a checkpoint reload that
// lands between a fine-tune and the delta publish of the fine-tune's
// dirty set changes rows that set does not list. The publish must see
// that and rebuild every shard, so that no row is left stale under a
// snapshot stamped with the model's current version (which a later
// Refresh would then skip).
func TestReloadBetweenFineTuneAndDeltaPublish(t *testing.T) {
	m, ds := testModel(t, 71)
	n, d := m.graph.NumEntities(), m.cfg.Dim
	orig := make([]EntityUpdate, n)
	shifted := make([]EntityUpdate, n)
	for e := range orig {
		row := append([]float64(nil), m.EntityAngles(kg.EntityID(e))...)
		moved := make([]float64, d)
		for j := range moved {
			moved[j] = math.Mod(row[j]+0.5, 2*math.Pi)
		}
		orig[e] = EntityUpdate{E: kg.EntityID(e), Angles: row}
		shifted[e] = EntityUpdate{E: kg.EntityID(e), Angles: moved}
	}
	// The checkpoint's table differs from the served one in every row.
	path := filepath.Join(t.TempDir(), "m.ckpt")
	if err := m.SetEntityAnglesBatch(shifted); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteCheckpointFile(path, "FB237", 71); err != nil {
		t.Fatal(err)
	}
	if err := m.SetEntityAnglesBatch(orig); err != nil {
		t.Fatal(err)
	}

	r, err := m.NewShardedRanker(shard.Options{Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ft, err := m.FineTuneEdges([]kg.Triple{pickNonEdge(t, m.Graph(), 72)}, nil, FineTuneConfig{Seed: 7})
	if err != nil || len(ft.DirtyEntities) == 0 {
		t.Fatalf("FineTuneEdges: %d dirty entities, err %v", len(ft.DirtyEntities), err)
	}
	if _, err := m.ReloadFromFile(path, "FB237", 71); err != nil {
		t.Fatal(err)
	}
	if err := r.RefreshDirty(ft.DirtyEntities); err != nil {
		t.Fatal(err)
	}
	if err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	if r.SnapshotVersion() != m.EntityVersion() {
		t.Fatalf("snapshot version %d, model version %d", r.SnapshotVersion(), m.EntityVersion())
	}

	s := query.NewSampler(ds.Train, rand.New(rand.NewSource(73)))
	for _, structure := range []string{"1p", "2i", "pin"} {
		q, ok := s.Sample(structure)
		if !ok {
			t.Fatalf("sampling %s failed", structure)
		}
		res, err := r.RankTopK(context.Background(), q, n)
		if err != nil {
			t.Fatal(err)
		}
		dist := m.Distances(q)
		stale := 0
		for i, e := range res.IDs {
			if math.Float64bits(res.Dists[i]) != math.Float64bits(dist[e]) {
				stale++
			}
		}
		if stale > 0 || len(res.IDs) != n {
			t.Fatalf("%s: %d of %d ranked distances differ from Distances (%d ranked)", structure, stale, n, len(res.IDs))
		}
	}
}
