package halk

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"github.com/halk-kg/halk/internal/ckpt"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/model"
)

// resumeTrainConfig is a tiny training budget. Train adds gradients in
// batch order at any worker count, so two runs with the same seed are
// bit-identical — the precondition for asserting that a
// crashed-and-resumed run reproduces an uninterrupted one byte for byte.
func resumeTrainConfig(steps int) model.TrainConfig {
	return model.TrainConfig{
		QueriesPerStructure: 30,
		Steps:               steps,
		BatchSize:           4,
		NegSamples:          4,
		LR:                  0.01,
		LRDecay:             true,
		Seed:                77,
		Structures:          []string{"1p", "2p", "2i"},
	}
}

func paramBytes(t *testing.T, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Params().Save(&buf); err != nil {
		t.Fatalf("save params: %v", err)
	}
	return buf.Bytes()
}

func headerFunc(m *Model, dataset string, seed int64) func(*gob.Encoder) error {
	return func(enc *gob.Encoder) error {
		return enc.Encode(CheckpointHeader{Dataset: dataset, Seed: seed, Config: m.Config()})
	}
}

// loadLatestForResume rebuilds a model and its training state from the
// newest valid rotation entry — the same sequence halk-train --resume
// performs: envelope verify, header-driven model construction,
// parameter decode, then the trailing optimizer state through the same
// gob decoder.
func loadLatestForResume(t *testing.T, dir *ckpt.Dir, ds *kg.Dataset) (*Model, model.TrainState, ckpt.Entry) {
	t.Helper()
	var (
		m  *Model
		st model.TrainState
	)
	entry, err := dir.LoadLatest(func(e ckpt.Entry, payload []byte) error {
		dec := gob.NewDecoder(bytes.NewReader(payload))
		mm, _, err := LoadCheckpointFrom(dec, func(hdr CheckpointHeader) (*kg.Graph, error) {
			return ds.Train, nil
		})
		if err != nil {
			return err
		}
		s, err := model.DecodeTrainState(dec, mm.Params())
		if err != nil {
			return err
		}
		m, st = mm, s
		return nil
	})
	if err != nil {
		t.Fatalf("LoadLatest: %v", err)
	}
	return m, st, entry
}

// TestCrashResumeByteIdentical is the central durability guarantee:
// training interrupted at an arbitrary step — with the newest rotation
// entry additionally torn mid-write, as a crash would leave it — and
// resumed from the latest *valid* checkpoint must produce final
// parameters byte-identical to an uninterrupted run with the same seed.
func TestCrashResumeByteIdentical(t *testing.T) {
	const totalSteps = 12
	ds := kg.SynthFB237(7)
	cfg := testConfig(7)

	// Reference: uninterrupted run.
	ref := New(ds.Train, cfg)
	if _, err := model.Train(ref, ds.Train, resumeTrainConfig(totalSteps)); err != nil {
		t.Fatalf("reference Train: %v", err)
	}
	want := paramBytes(t, ref)

	// Crashed run: checkpoint every 3 steps, interrupt as soon as the
	// step-6 checkpoint lands (OnSave fires, the trainer notices the
	// closed channel at the top of the next step).
	dir := &ckpt.Dir{Path: filepath.Join(t.TempDir(), "ckpts"), Keep: 3}
	crashed := New(ds.Train, cfg)
	interrupt := make(chan struct{})
	var once sync.Once
	tc := resumeTrainConfig(totalSteps)
	tc.Checkpoint = &model.CheckpointConfig{
		Dir:       dir,
		Every:     3,
		Header:    headerFunc(crashed, "FB237", 7),
		Interrupt: interrupt,
		OnSave: func(step int, path string) {
			if step >= 6 {
				once.Do(func() { close(interrupt) })
			}
		},
	}
	res, err := model.Train(crashed, ds.Train, tc)
	if err != nil {
		t.Fatalf("crashed Train: %v", err)
	}
	if !res.Interrupted {
		t.Fatalf("TrainResult.Interrupted = false, want true")
	}
	if res.Steps != 6 {
		t.Fatalf("interrupted at step %d, want 6", res.Steps)
	}

	// Simulate the kill-mid-write the rename protocol defends against:
	// a newer entry exists but holds only the first half of its bytes.
	good, err := os.ReadFile(filepath.Join(dir.Path, ckpt.EntryName(6)))
	if err != nil {
		t.Fatalf("read step-6 entry: %v", err)
	}
	torn := filepath.Join(dir.Path, ckpt.EntryName(7))
	if err := os.WriteFile(torn, good[:len(good)/2], 0o644); err != nil {
		t.Fatalf("write torn entry: %v", err)
	}

	resumed, st, entry := loadLatestForResume(t, dir, ds)
	if entry.Step != 6 {
		t.Fatalf("resumed from step %d, want fallback to 6 past the torn entry", entry.Step)
	}
	if st.Step != 6 {
		t.Fatalf("TrainState.Step = %d, want 6", st.Step)
	}
	if bytes.Equal(paramBytes(t, resumed), want) {
		t.Fatalf("checkpointed params already equal final params; test would be vacuous")
	}

	tc2 := resumeTrainConfig(totalSteps)
	tc2.Checkpoint = &model.CheckpointConfig{
		Dir:    dir,
		Every:  3,
		Header: headerFunc(resumed, "FB237", 7),
		Resume: &st,
	}
	res2, err := model.Train(resumed, ds.Train, tc2)
	if err != nil {
		t.Fatalf("resumed Train: %v", err)
	}
	if res2.Steps != totalSteps {
		t.Fatalf("resumed run completed %d steps, want %d", res2.Steps, totalSteps)
	}
	if got := paramBytes(t, resumed); !bytes.Equal(got, want) {
		t.Fatalf("resumed parameters differ from uninterrupted run (len %d vs %d)", len(got), len(want))
	}
}

// TestResumeFromEveryCheckpoint resumes from each rotation entry of one
// interrupted-free run and checks all of them converge to the same
// final bytes — the cut point must not matter.
func TestResumeFromEveryCheckpoint(t *testing.T) {
	const totalSteps = 10
	ds := kg.SynthFB237(11)
	cfg := testConfig(11)

	dir := &ckpt.Dir{Path: filepath.Join(t.TempDir(), "ckpts"), Keep: 10}
	ref := New(ds.Train, cfg)
	tc := resumeTrainConfig(totalSteps)
	tc.Seed = 123
	tc.Checkpoint = &model.CheckpointConfig{
		Dir:    dir,
		Every:  4,
		Header: headerFunc(ref, "FB237", 11),
	}
	if _, err := model.Train(ref, ds.Train, tc); err != nil {
		t.Fatalf("reference Train: %v", err)
	}
	want := paramBytes(t, ref)

	entries, err := dir.Entries()
	if err != nil {
		t.Fatalf("Entries: %v", err)
	}
	if len(entries) != 3 { // steps 4, 8 and the final 10
		t.Fatalf("got %d rotation entries, want 3", len(entries))
	}
	for _, e := range entries {
		payload, err := ckpt.ReadFile(e.Path)
		if err != nil {
			t.Fatalf("ReadFile(%s): %v", e.Path, err)
		}
		dec := gob.NewDecoder(bytes.NewReader(payload))
		m, _, err := LoadCheckpointFrom(dec, func(hdr CheckpointHeader) (*kg.Graph, error) {
			return ds.Train, nil
		})
		if err != nil {
			t.Fatalf("load entry step %d: %v", e.Step, err)
		}
		st, err := model.DecodeTrainState(dec, m.Params())
		if err != nil {
			t.Fatalf("train state of entry step %d: %v", e.Step, err)
		}
		tc2 := resumeTrainConfig(totalSteps)
		tc2.Seed = 123
		tc2.Checkpoint = &model.CheckpointConfig{Resume: &st}
		if _, err := model.Train(m, ds.Train, tc2); err != nil {
			t.Fatalf("resume from step %d: %v", e.Step, err)
		}
		if !bytes.Equal(paramBytes(t, m), want) {
			t.Fatalf("resume from step %d diverged from reference", e.Step)
		}
	}
}

// TestWorkerCountCannotChangeTraining trains one tiny budget on one
// core and on four: Train flushes gradients in batch order, so the
// final checkpoint payloads — parameters plus Adam moments — must be
// equal byte for byte.
func TestWorkerCountCannotChangeTraining(t *testing.T) {
	const steps = 12
	ds := kg.SynthFB237(7)
	payload := func(procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		dir := &ckpt.Dir{Path: filepath.Join(t.TempDir(), "ckpts"), Keep: 1}
		m := New(ds.Train, testConfig(7))
		tc := resumeTrainConfig(steps)
		tc.Checkpoint = &model.CheckpointConfig{Dir: dir, Header: headerFunc(m, "FB237", 7)}
		if _, err := model.Train(m, ds.Train, tc); err != nil {
			t.Fatalf("Train at GOMAXPROCS %d: %v", procs, err)
		}
		b, err := ckpt.ReadFile(filepath.Join(dir.Path, ckpt.EntryName(steps)))
		if err != nil {
			t.Fatalf("read final entry at GOMAXPROCS %d: %v", procs, err)
		}
		return b
	}
	if one, four := payload(1), payload(4); !bytes.Equal(one, four) {
		t.Fatalf("checkpoint payload at GOMAXPROCS 1 differs from GOMAXPROCS 4 (len %d vs %d)", len(one), len(four))
	}
}
