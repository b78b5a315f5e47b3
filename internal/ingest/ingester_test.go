package ingest

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/halk-kg/halk/internal/halk"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/resil"
)

func testModel(t *testing.T, seed int64) (*halk.Model, *kg.Dataset) {
	t.Helper()
	ds := kg.SynthFB237(seed)
	cfg := halk.DefaultConfig(seed)
	cfg.Dim = 8
	cfg.Hidden = 16
	cfg.NumGroups = 4
	return halk.New(ds.Train, cfg), ds
}

// nonEdges returns n add-records for triples not currently in g.
func nonEdges(t *testing.T, g *kg.Graph, n int, seed int64) []Record {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, 0, n)
	seen := make(map[kg.Triple]bool)
	for len(recs) < n {
		tr := g.Triples()[rng.Intn(g.NumTriples())]
		cand := kg.Triple{H: tr.H, R: tr.R, T: kg.EntityID(rng.Intn(g.NumEntities()))}
		if seen[cand] || g.HasTriple(cand.H, cand.R, cand.T) {
			continue
		}
		seen[cand] = true
		recs = append(recs, Record{Op: OpAdd, H: cand.H, R: cand.R, T: cand.T})
	}
	return recs
}

func newIngester(t *testing.T, m *halk.Model, dir string, mutate func(*Config)) *Ingester {
	t.Helper()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Model:    m,
		WAL:      w,
		Interval: 5 * time.Millisecond,
		FineTune: halk.FineTuneConfig{Seed: 42},
		Logf:     t.Logf,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func entSnapshot(m *halk.Model) []float64 {
	out := make([]float64, 0, m.Graph().NumEntities()*8)
	for e := 0; e < m.Graph().NumEntities(); e++ {
		out = append(out, append([]float64(nil), m.EntityAngles(kg.EntityID(e))...)...)
	}
	return out
}

func TestIngesterReplayAppliesEdges(t *testing.T) {
	m, _ := testModel(t, 1)
	dir := t.TempDir()
	in := newIngester(t, m, dir, nil)
	recs := nonEdges(t, m.Graph(), 5, 2)
	before := entSnapshot(m)
	v0 := m.EntityVersion()

	seq, err := in.Submit(recs)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 {
		t.Fatalf("seq = %d, want 1", seq)
	}
	if err := in.Replay(); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if !m.Graph().HasTriple(r.H, r.R, r.T) {
			t.Fatalf("edge %+v not in graph after replay", r.Triple())
		}
	}
	if m.EntityVersion() <= v0 {
		t.Fatal("entity version did not move")
	}
	after := entSnapshot(m)
	changed := false
	for i := range before {
		if before[i] != after[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("no embedding changed")
	}
	st := in.Stats()
	if st.AppliedEdges != 5 || st.MemAppliedSeq != 1 || st.FineTuneSteps == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestIngesterCrashReplayDeterminism is the durability core: a fresh
// process (same base model, same WAL directory) replays to byte-
// identical embeddings — the in-memory fine-tune state is fully
// reconstructible from base checkpoint + WAL.
func TestIngesterCrashReplayDeterminism(t *testing.T) {
	dir := t.TempDir()
	m1, _ := testModel(t, 7)
	in1 := newIngester(t, m1, dir, nil)
	for i := 0; i < 3; i++ {
		if _, err := in1.Submit(nonEdges(t, m1.Graph(), 4, int64(100+i))); err != nil {
			t.Fatal(err)
		}
		if err := in1.Replay(); err != nil {
			t.Fatal(err)
		}
	}
	// Mixed batch with removals of freshly added edges.
	mix := []Record{}
	for _, r := range nonEdges(t, m1.Graph(), 2, 500) {
		mix = append(mix, r)
	}
	tr := m1.Graph().Triples()[0]
	mix = append(mix, Record{Op: OpRemove, H: tr.H, R: tr.R, T: tr.T})
	if _, err := in1.Submit(mix); err != nil {
		t.Fatal(err)
	}
	if err := in1.Replay(); err != nil {
		t.Fatal(err)
	}
	want := entSnapshot(m1)

	// "Crash": new model from the same seed, reopen the same WAL.
	m2, _ := testModel(t, 7)
	in2 := newIngester(t, m2, dir, nil)
	if err := in2.Replay(); err != nil {
		t.Fatal(err)
	}
	got := entSnapshot(m2)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("replay diverged at %d: %v != %v", i, got[i], want[i])
		}
	}
	if m2.Graph().HasTriple(tr.H, tr.R, tr.T) {
		t.Fatal("removed triple still present after replay")
	}
}

// TestIngesterDoubleApplyNoOp: applying the same segment twice in one
// process is a no-op — the cursor skips it and, even when forced, the
// graph operations are no-ops so no fine-tune runs.
func TestIngesterDoubleApplyNoOp(t *testing.T) {
	m, _ := testModel(t, 9)
	in := newIngester(t, m, t.TempDir(), nil)
	seq, err := in.Submit(nonEdges(t, m.Graph(), 3, 11))
	if err != nil {
		t.Fatal(err)
	}
	if did, err := in.applySegment(seq); err != nil || !did {
		t.Fatalf("first apply: did=%v err=%v", did, err)
	}
	snap := entSnapshot(m)
	v := m.EntityVersion()
	// Cursor-guarded second apply.
	if did, err := in.applySegment(seq); err != nil || did {
		t.Fatalf("second apply: did=%v err=%v, want no-op", did, err)
	}
	// Forced re-application (cursor rolled back by hand): every add is a
	// duplicate, so the model must stay byte-identical.
	in.mu.Lock()
	in.memApplied = 0
	in.mu.Unlock()
	if did, err := in.applySegment(seq); err != nil || did {
		t.Fatalf("forced re-apply: did=%v err=%v, want graph-level no-op", did, err)
	}
	after := entSnapshot(m)
	for i := range snap {
		if snap[i] != after[i] {
			t.Fatal("forced re-apply mutated embeddings")
		}
	}
	if m.EntityVersion() != v {
		t.Fatal("forced re-apply bumped version")
	}
	if in.Stats().SkippedEdges != 3 {
		t.Fatalf("skipped = %d, want 3", in.Stats().SkippedEdges)
	}
}

func TestIngesterSubmitValidation(t *testing.T) {
	m, _ := testModel(t, 13)
	in := newIngester(t, m, t.TempDir(), nil)
	n := kg.EntityID(m.Graph().NumEntities())
	cases := []Record{
		{Op: OpAdd, H: n, R: 0, T: 0},
		{Op: OpAdd, H: 0, R: kg.RelationID(m.Graph().NumRelations()), T: 1},
		{Op: 99, H: 0, R: 0, T: 1},
	}
	for _, rec := range cases {
		if _, err := in.Submit([]Record{rec}); err == nil {
			t.Fatalf("accepted invalid record %+v", rec)
		}
	}
	if in.cfg.WAL.PendingCount() != 0 {
		t.Fatal("invalid submission reached the WAL")
	}
}

func TestIngesterBackpressure(t *testing.T) {
	m, _ := testModel(t, 15)
	in := newIngester(t, m, t.TempDir(), func(c *Config) { c.MaxPending = 2 })
	recs := nonEdges(t, m.Graph(), 1, 17)
	for i := 0; i < 2; i++ {
		if _, err := in.Submit(recs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := in.Submit(recs); !errors.Is(err, ErrBacklog) {
		t.Fatalf("err = %v, want ErrBacklog", err)
	}
}

// TestIngesterBackpressureMeasuresDrainerLag: the backlog that sheds
// writes is the drainer's lag, not the durable cursor's — without a
// Persist hook, segments stay on disk forever, and counting them would
// permanently wedge the write path after MaxPending lifetime batches.
func TestIngesterBackpressureMeasuresDrainerLag(t *testing.T) {
	m, _ := testModel(t, 16)
	in := newIngester(t, m, t.TempDir(), func(c *Config) { c.MaxPending = 2 })
	// Fill, drain, and repeat well past MaxPending total batches: every
	// drained cycle must reopen admission even though nothing is pruned.
	for round := 0; round < 3; round++ {
		for i := 0; i < 2; i++ {
			if _, err := in.Submit(nonEdges(t, m.Graph(), 1, int64(100*round+i))); err != nil {
				t.Fatalf("round %d submit %d: %v", round, i, err)
			}
		}
		if _, err := in.Submit(nonEdges(t, m.Graph(), 1, int64(100*round+7))); !errors.Is(err, ErrBacklog) {
			t.Fatalf("round %d: lagging drainer did not shed: %v", round, err)
		}
		if err := in.Replay(); err != nil {
			t.Fatal(err)
		}
	}
	if pc := in.cfg.WAL.PendingCount(); pc != 6 {
		t.Fatalf("retained segments = %d, want 6 (nothing pruned without Persist)", pc)
	}
	if _, err := in.Submit(nonEdges(t, m.Graph(), 1, 999)); err != nil {
		t.Fatalf("write path wedged after %d lifetime batches: %v", 6, err)
	}
}

// TestIngesterReplayBatchSizeInvariance: the micro-batch size is pinned
// into each segment at append time, so restarting with a different
// Config.BatchSize replays already-logged segments into byte-identical
// embeddings (the (seq, batch) fine-tune seeds only reproduce the
// original update if chunk boundaries match).
func TestIngesterReplayBatchSizeInvariance(t *testing.T) {
	dir := t.TempDir()
	m1, _ := testModel(t, 21)
	in1 := newIngester(t, m1, dir, func(c *Config) { c.BatchSize = 3 })
	// 7 records -> chunks of 3+3+1 under the append-time size.
	if _, err := in1.Submit(nonEdges(t, m1.Graph(), 7, 300)); err != nil {
		t.Fatal(err)
	}
	if err := in1.Replay(); err != nil {
		t.Fatal(err)
	}
	want := entSnapshot(m1)

	// "Restart" with a much larger configured batch size: the stored
	// per-segment size must win, or the 7 records fold as one chunk and
	// every seed/boundary changes.
	m2, _ := testModel(t, 21)
	in2 := newIngester(t, m2, dir, func(c *Config) { c.BatchSize = 64 })
	if err := in2.Replay(); err != nil {
		t.Fatal(err)
	}
	got := entSnapshot(m2)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("replay with changed batch size diverged at %d: %v != %v", i, got[i], want[i])
		}
	}
}

// TestIngesterMidSegmentFailureIsFatal: a failure after a chunk's graph
// mutations landed must not be retried — the landed mutations would
// replay as no-ops with no fine-tune signal, silently diverging from
// what a crash-and-replay reconstructs. The drain loop must hand the
// segment to Fatalf (crash-only) and keep the cursor unmoved.
func TestIngesterMidSegmentFailureIsFatal(t *testing.T) {
	m, _ := testModel(t, 27)
	inj := resil.NewInjector()
	var fatals []string
	in := newIngester(t, m, t.TempDir(), func(c *Config) {
		c.Inject = inj
		c.Fatalf = func(format string, args ...any) {
			fatals = append(fatals, fmt.Sprintf(format, args...))
		}
	})
	if _, err := in.Submit(nonEdges(t, m.Graph(), 2, 31)); err != nil {
		t.Fatal(err)
	}

	inj.Set(FaultStageFineTune, resil.AnyShard, resil.Fault{Kind: resil.KindError, Err: resil.ErrInjected, Count: 1})
	in.drainOnce()
	if len(fatals) != 1 {
		t.Fatalf("fatals = %v, want exactly one crash-only escalation", fatals)
	}
	if in.Stats().MemAppliedSeq != 0 {
		t.Fatal("fatal apply advanced the in-memory cursor")
	}

	// The same failure during synchronous Replay surfaces as a typed
	// FatalApplyError so the caller (halk-serve startup) crashes too.
	// Fresh model and injector: the first attempt's landed mutations would
	// otherwise make the retry a graph no-op that never reaches the seam.
	m2, _ := testModel(t, 27)
	inj2 := resil.NewInjector()
	in2 := newIngester(t, m2, t.TempDir(), func(c *Config) { c.Inject = inj2 })
	seq, err := in2.Submit(nonEdges(t, m2.Graph(), 2, 31))
	if err != nil {
		t.Fatal(err)
	}
	inj2.Set(FaultStageFineTune, resil.AnyShard, resil.Fault{Kind: resil.KindError, Err: resil.ErrInjected, Count: 1})
	var fatal *FatalApplyError
	if err := in2.Replay(); !errors.As(err, &fatal) || fatal.Seq != seq {
		t.Fatalf("Replay err = %v, want FatalApplyError for segment %d", err, seq)
	}
}

func TestIngesterBackgroundDrainAndPublish(t *testing.T) {
	m, _ := testModel(t, 19)
	published := make(chan []kg.EntityID, 16)
	in := newIngester(t, m, t.TempDir(), func(c *Config) {
		c.Publish = func(dirty []kg.EntityID) error {
			published <- append([]kg.EntityID(nil), dirty...)
			return nil
		}
	})
	in.Start()
	defer in.Close()
	recs := nonEdges(t, m.Graph(), 4, 23)
	seq, err := in.Submit(recs)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case dirty := <-published:
		if len(dirty) == 0 {
			t.Fatal("published empty dirty set")
		}
		has := make(map[kg.EntityID]bool)
		for _, e := range dirty {
			has[e] = true
		}
		for _, r := range recs {
			if !has[r.H] || !has[r.T] {
				t.Fatalf("dirty set missing %+v", r.Triple())
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("publish never happened")
	}
	deadline := time.Now().Add(5 * time.Second)
	for in.Stats().MemAppliedSeq < seq {
		if time.Now().After(deadline) {
			t.Fatalf("drain never caught up: %+v", in.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIngesterFaultSeams drives the three injector seams: an append
// fault rejects the submission before anything is logged; an apply
// fault leaves the segment pending for retry; a publish fault retains
// the dirty set until a later cycle succeeds.
func TestIngesterFaultSeams(t *testing.T) {
	m, _ := testModel(t, 25)
	inj := resil.NewInjector()
	var pubs int
	in := newIngester(t, m, t.TempDir(), func(c *Config) {
		c.Inject = inj
		c.Publish = func(dirty []kg.EntityID) error { pubs++; return nil }
	})
	recs := nonEdges(t, m.Graph(), 2, 29)

	inj.Set(FaultStageAppend, resil.AnyShard, resil.Fault{Kind: resil.KindError, Err: resil.ErrInjected, Count: 1})
	if _, err := in.Submit(recs); !errors.Is(err, resil.ErrInjected) {
		t.Fatalf("append fault not surfaced: %v", err)
	}
	if in.cfg.WAL.PendingCount() != 0 {
		t.Fatal("faulted append left a segment behind")
	}

	if _, err := in.Submit(recs); err != nil {
		t.Fatal(err)
	}
	inj.Set(FaultStageApply, resil.AnyShard, resil.Fault{Kind: resil.KindError, Err: resil.ErrInjected, Count: 1})
	in.drainOnce() // fault consumes the first apply attempt
	if in.Stats().MemAppliedSeq != 0 {
		t.Fatal("faulted apply advanced the cursor")
	}
	inj.Set(FaultStagePublish, resil.AnyShard, resil.Fault{Kind: resil.KindError, Err: resil.ErrInjected, Count: 1})
	in.drainOnce() // apply succeeds, publish faults
	st := in.Stats()
	if st.MemAppliedSeq != 1 {
		t.Fatalf("apply did not recover: %+v", st)
	}
	if st.DirtyUnpublished == 0 || pubs != 0 {
		t.Fatalf("publish fault did not retain dirty set: %+v, pubs=%d", st, pubs)
	}
	in.drainOnce() // publish retries and succeeds
	st = in.Stats()
	if st.DirtyUnpublished != 0 || pubs != 1 || st.PublishFailures != 1 {
		t.Fatalf("publish retry failed: %+v, pubs=%d", st, pubs)
	}
}

// TestIngesterPersistAdvancesWAL: with a Persist hook, applied segments
// are pruned once the model state is durable, and a reopened WAL has
// nothing to replay.
func TestIngesterPersistAdvancesWAL(t *testing.T) {
	m, _ := testModel(t, 33)
	dir := t.TempDir()
	persisted := 0
	in := newIngester(t, m, dir, func(c *Config) {
		c.Persist = func() error { persisted++; return nil }
		c.PersistEvery = 2
	})
	for i := 0; i < 2; i++ {
		if _, err := in.Submit(nonEdges(t, m.Graph(), 2, int64(41+i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Replay(); err != nil {
		t.Fatal(err)
	}
	if persisted != 1 {
		t.Fatalf("persisted %d times, want 1", persisted)
	}
	if in.cfg.WAL.AppliedSeq() != 2 || in.cfg.WAL.PendingCount() != 0 {
		t.Fatalf("WAL not advanced: applied=%d pending=%d", in.cfg.WAL.AppliedSeq(), in.cfg.WAL.PendingCount())
	}
	w2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(w2.Pending()) != 0 {
		t.Fatalf("reopened WAL still pending %v", w2.Pending())
	}
}

func TestIngesterSubmitAfterClose(t *testing.T) {
	m, _ := testModel(t, 37)
	in := newIngester(t, m, t.TempDir(), nil)
	in.Start()
	in.Close()
	in.Close() // idempotent
	if _, err := in.Submit(nonEdges(t, m.Graph(), 1, 43)); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}
