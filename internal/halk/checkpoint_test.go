package halk

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/halk-kg/halk/internal/ckpt"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/model"
	"github.com/halk-kg/halk/internal/obs"
	"github.com/halk-kg/halk/internal/query"
	"github.com/halk-kg/halk/internal/resil"
)

// TestCheckpointRoundTripPreservesTopK saves a model, reloads it through
// the header-driven lookup, and asserts the reloaded model ranks
// identically: same TopK output, entity for entity, on several
// structures. This is the contract halk-serve relies on — a served
// checkpoint must answer exactly like the process that wrote it.
func TestCheckpointRoundTripPreservesTopK(t *testing.T) {
	m, ds := testModel(t, 49)

	var buf bytes.Buffer
	if err := m.SaveCheckpoint(&buf, "FB237", 49); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}

	m2, hdr, err := LoadCheckpoint(&buf, func(hdr CheckpointHeader) (*kg.Graph, error) {
		if hdr.Dataset != "FB237" || hdr.Seed != 49 {
			t.Fatalf("header = %q/%d, want FB237/49", hdr.Dataset, hdr.Seed)
		}
		return ds.Train, nil
	})
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	if hdr.Config.Dim != m.cfg.Dim {
		t.Fatalf("reloaded dim %d != %d", hdr.Config.Dim, m.cfg.Dim)
	}

	s := query.NewSampler(ds.Train, rand.New(rand.NewSource(50)))
	for _, structure := range []string{"1p", "2p", "2i", "2u", "2in"} {
		q, ok := s.Sample(structure)
		if !ok {
			t.Fatalf("sampling %s failed", structure)
		}
		want := m.TopK(q, 20)
		got := m2.TopK(q, 20)
		if len(got) != len(want) {
			t.Fatalf("%s: TopK lengths differ: %d vs %d", structure, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: TopK[%d] = %d after reload, want %d", structure, i, got[i], want[i])
			}
		}
	}
}

// TestLoadCheckpointFileAdversarial feeds LoadCheckpointFile every kind
// of bad input the serving and resume paths must survive: empty files,
// truncation at assorted offsets, bit flips, and a header naming a
// different dataset. Each must produce a typed error and a nil model —
// never a half-initialized one.
func TestLoadCheckpointFileAdversarial(t *testing.T) {
	m, ds := testModel(t, 49)
	dir := t.TempDir()
	good := filepath.Join(dir, "good.ckpt")
	if err := m.WriteCheckpointFile(good, "FB237", 49); err != nil {
		t.Fatalf("WriteCheckpointFile: %v", err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	lookup := func(hdr CheckpointHeader) (*kg.Graph, error) {
		if hdr.Dataset != "FB237" || hdr.Seed != 49 {
			return nil, fmt.Errorf("%w: trained on %s/%d, serving FB237/49",
				ErrCheckpointMismatch, hdr.Dataset, hdr.Seed)
		}
		return ds.Train, nil
	}

	// Sanity: the pristine file loads.
	mm, info, err := LoadCheckpointFile(good, lookup)
	if err != nil || mm == nil {
		t.Fatalf("pristine load failed: %v", err)
	}
	if info.Step != -1 {
		t.Fatalf("pristine info = %+v, want a serving checkpoint without training state", info)
	}

	typedErr := func(err error) bool {
		return ckpt.IsCorrupt(err) ||
			errors.Is(err, ErrCheckpointCorrupt) ||
			errors.Is(err, ErrCheckpointMismatch)
	}

	t.Run("empty", func(t *testing.T) {
		p := filepath.Join(dir, "empty.ckpt")
		if err := os.WriteFile(p, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		mm, _, err := LoadCheckpointFile(p, lookup)
		if mm != nil || err == nil || !typedErr(err) {
			t.Fatalf("empty file: model=%v err=%v", mm, err)
		}
	})

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{1, 4, 11, 12, len(raw) / 3, len(raw) / 2, len(raw) - 1} {
			p := filepath.Join(dir, "trunc.ckpt")
			if err := os.WriteFile(p, raw[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			mm, _, err := LoadCheckpointFile(p, lookup)
			if mm != nil || err == nil || !typedErr(err) {
				t.Fatalf("cut at %d: model=%v err=%v", cut, mm, err)
			}
		}
	})

	t.Run("bit-flipped", func(t *testing.T) {
		for _, off := range []int{0, 9, 20, len(raw) / 2, len(raw) - 3} {
			flipped := append([]byte(nil), raw...)
			flipped[off] ^= 0x40
			p := filepath.Join(dir, "flip.ckpt")
			if err := os.WriteFile(p, flipped, 0o644); err != nil {
				t.Fatal(err)
			}
			mm, _, err := LoadCheckpointFile(p, lookup)
			if mm != nil || err == nil || !typedErr(err) {
				t.Fatalf("flip at %d: model=%v err=%v", off, mm, err)
			}
		}
	})

	t.Run("wrong-dataset", func(t *testing.T) {
		p := filepath.Join(dir, "other.ckpt")
		if err := m.WriteCheckpointFile(p, "NELL", 3); err != nil {
			t.Fatal(err)
		}
		mm, _, err := LoadCheckpointFile(p, lookup)
		if mm != nil || !errors.Is(err, ErrCheckpointMismatch) {
			t.Fatalf("wrong dataset: model=%v err=%v", mm, err)
		}
	})

	t.Run("legacy-bare-gob", func(t *testing.T) {
		p := filepath.Join(dir, "legacy.ckpt")
		f, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SaveCheckpoint(f, "FB237", 49); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		// No writer produces this format and it carries no checksum, so a
		// flipped tensor bit would decode cleanly: it is rejected whole.
		mm, _, err := LoadCheckpointFile(p, lookup)
		if mm != nil || !errors.Is(err, ckpt.ErrNotCheckpoint) {
			t.Fatalf("bare-gob file: model=%v err=%v, want ckpt.ErrNotCheckpoint", mm, err)
		}
		if _, err := m.ReloadFromFile(p, "FB237", 49); !errors.Is(err, ckpt.ErrNotCheckpoint) {
			t.Fatalf("bare-gob reload: err=%v, want ckpt.ErrNotCheckpoint", err)
		}
	})

	// The servers' boot path over the same kinds of input: what the bytes
	// on disk decide is permanent after one attempt, what may be transient
	// is retried, a file and a rotation directory both load.
	t.Run("boot", func(t *testing.T) {
		dir := t.TempDir()
		flipped := append([]byte(nil), raw...)
		flipped[len(raw)/2] ^= 0x40
		var bare bytes.Buffer
		if err := m.SaveCheckpoint(&bare, "FB237", 49); err != nil {
			t.Fatal(err)
		}
		for name, data := range map[string][]byte{
			"good.ckpt": raw, "empty.ckpt": nil, "torn.ckpt": raw[:len(raw)/2],
			"flipped.ckpt": flipped, "bare-gob.ckpt": bare.Bytes(),
		} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for name, dataset := range map[string]string{"other.ckpt": "NELL", "unknown.ckpt": "WN18"} {
			if err := m.WriteCheckpointFile(filepath.Join(dir, name), dataset, 49); err != nil {
				t.Fatal(err)
			}
		}
		rot := filepath.Join(dir, "rot")
		if _, err := (&ckpt.Dir{Path: rot}).Save(7, func(w io.Writer) error { return m.SaveCheckpoint(w, "FB237", 49) }); err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			path      string
			attempts  int
			permanent bool
		}{
			{"good.ckpt", 0, false},
			{"rot", 0, false},
			{"empty.ckpt", 1, true},
			{"torn.ckpt", 1, true},
			{"flipped.ckpt", 1, true},
			{"bare-gob.ckpt", 1, true},
			{"other.ckpt", 1, true}, // NELL's tables do not fit FB237-shaped tensors
			{"unknown.ckpt", 1, true},
			{"missing.ckpt", loadAttempts, false},
		} {
			attempts := 0
			mm, ds, info, err := LoadServing(context.Background(), filepath.Join(dir, tc.path), func(string, ...any) { attempts++ })
			if attempts != tc.attempts || resil.IsPermanent(err) != tc.permanent {
				t.Errorf("%s: %d failed attempts (want %d), err=%v (permanent: want %v)", tc.path, attempts, tc.attempts, err, tc.permanent)
			}
			if tc.attempts > 0 {
				if mm != nil || err == nil {
					t.Errorf("%s: model=%v err=%v, want a failed load", tc.path, mm, err)
				}
				continue
			}
			if err != nil || mm == nil || ds == nil || ds.Name != "FB237" || info.Header.Seed != 49 {
				t.Fatalf("%s: model=%v dataset=%v info=%+v err=%v", tc.path, mm, ds, info, err)
			}
			if tc.path == "rot" && info.Path != filepath.Join(rot, ckpt.EntryName(7)) {
				t.Errorf("rotation directory resolved to %s", info.Path)
			}
		}
	})
}

// TestReloadFromFile covers the serving hot-swap: a matching checkpoint
// replaces the live parameters and bumps the entity version; corrupt or
// mismatched files change nothing.
func TestReloadFromFile(t *testing.T) {
	m, _ := testModel(t, 49)
	dir := t.TempDir()
	path := filepath.Join(dir, "m.ckpt")
	if err := m.WriteCheckpointFile(path, "FB237", 49); err != nil {
		t.Fatalf("WriteCheckpointFile: %v", err)
	}
	var saved bytes.Buffer
	if err := m.Params().Save(&saved); err != nil {
		t.Fatal(err)
	}

	// Perturb the live parameters, then reload: the saved values must
	// come back and the entity version must advance.
	ent := m.Params().Get("entity")
	if ent == nil {
		t.Fatal("entity tensor not registered")
	}
	before := m.EntityVersion()
	ent.Data[0] += 1.5
	if _, err := m.ReloadFromFile(path, "FB237", 49); err != nil {
		t.Fatalf("ReloadFromFile: %v", err)
	}
	if m.EntityVersion() == before {
		t.Fatalf("entity version did not advance on reload")
	}
	var after bytes.Buffer
	if err := m.Params().Save(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), after.Bytes()) {
		t.Fatalf("parameters not restored by reload")
	}

	// Mismatched identity: typed error, parameters untouched.
	ent.Data[0] += 2.5
	var dirty bytes.Buffer
	if err := m.Params().Save(&dirty); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReloadFromFile(path, "NELL", 49); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("wrong dataset reload: err=%v", err)
	}
	if _, err := m.ReloadFromFile(path, "FB237", 50); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("wrong seed reload: err=%v", err)
	}

	// Corrupt file: typed error, parameters untouched.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.ckpt")
	if err := os.WriteFile(bad, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReloadFromFile(bad, "FB237", 49); err == nil || !ckpt.IsCorrupt(err) {
		t.Fatalf("torn reload: err=%v", err)
	}
	var still bytes.Buffer
	if err := m.Params().Save(&still); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dirty.Bytes(), still.Bytes()) {
		t.Fatalf("failed reload modified live parameters")
	}
}

// TestWatchCheckpoint drives the hot-reload loop both servers run
// against a rotation directory: a torn newest entry is rejected once —
// not once per poll — while the model keeps its parameters; a valid
// newer entry is swapped in, announced to the after-swap hook and
// recorded on the status; cancelling the context ends the loop.
func TestWatchCheckpoint(t *testing.T) {
	const period = 2 * time.Millisecond
	m, ds := testModel(t, 49)
	dir := t.TempDir()
	// A rotation entry as the trainer cuts it: header, parameters, train
	// state, Adam moments. Written beside the directory and renamed in,
	// so the watcher never sees a half-written file it was not meant to.
	publish := func(src *Model, step int, tear bool) string {
		t.Helper()
		tmp := filepath.Join(t.TempDir(), "entry")
		err := ckpt.WriteFile(tmp, func(w io.Writer) error {
			enc := gob.NewEncoder(w)
			if err := headerFunc(src, "FB237", 49)(enc); err != nil {
				return err
			}
			if err := src.Params().Encode(enc); err != nil {
				return err
			}
			if err := enc.Encode(model.TrainState{Step: step, AdamStep: step}); err != nil {
				return err
			}
			return src.Params().EncodeMoments(enc)
		})
		if err != nil {
			t.Fatal(err)
		}
		if tear {
			raw, err := os.ReadFile(tmp)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(tmp, raw[:len(raw)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, ckpt.EntryName(step))
		if err := os.Rename(tmp, path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(period) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	first := publish(m, 3, false)
	loaded := FileInfo{Path: first, Header: CheckpointHeader{Dataset: "FB237", Seed: 49, Config: m.Config()}, Step: 3}
	status := ckpt.NewStatus()
	status.SetLoaded(first, "FB237", 49, 3, m.EntityVersion())
	status.Register(obs.NewRegistry())

	q, ok := query.NewSampler(ds.Train, rand.New(rand.NewSource(50))).Sample("2p")
	if !ok {
		t.Fatal("sampling failed")
	}
	before, version := m.TopK(q, 10), m.EntityVersion()

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var swaps atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.WatchCheckpoint(ctx, dir, period, loaded, status, func() { swaps.Add(1) }, t.Logf)
	}()
	defer func() { // on a failure path too: the loop logs through t
		cancel()
		<-done
	}()

	publish(m, 5, true)
	waitFor("the torn entry to be rejected", func() bool { return status.Snapshot().Failures > 0 })
	time.Sleep(10 * period) // several more polls of the same bad candidate
	if snap := status.Snapshot(); snap.Failures != 1 || snap.Reloads != 0 || snap.Path != first {
		t.Fatalf("after a torn candidate: %+v, want one failure and the first entry still loaded", snap)
	}
	if got := m.TopK(q, 10); m.EntityVersion() != version || !reflect.DeepEqual(got, before) || swaps.Load() != 0 {
		t.Fatalf("torn candidate changed the served model: version %d→%d, %d swaps, answers %v→%v",
			version, m.EntityVersion(), swaps.Load(), before, got)
	}

	// A model that ranks differently: the same checkpoint with its entity
	// table shifted.
	other, _ := testModel(t, 49)
	for i := range other.Params().Get("entity").Data {
		other.Params().Get("entity").Data[i] += 0.3 * float64(i%7)
	}
	newest := publish(other, 8, false)
	waitFor("the newer entry to be swapped in", func() bool { return status.Snapshot().Reloads > 0 })
	snap := status.Snapshot()
	if snap.Path != newest || snap.Step != 8 || snap.Failures != 1 || snap.EntityVersion != m.EntityVersion() {
		t.Fatalf("after a valid candidate: %+v, want %s at step 8", snap, newest)
	}
	if m.EntityVersion() == version || swaps.Load() != 1 {
		t.Fatalf("entity version %d→%d, %d swaps; want a bump and one swap", version, m.EntityVersion(), swaps.Load())
	}
	if got, want := m.TopK(q, 10), other.TopK(q, 10); !reflect.DeepEqual(got, want) || reflect.DeepEqual(want, before) {
		t.Fatalf("after the swap TopK = %v, want the new checkpoint's %v (was %v)", got, want, before)
	}

	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("WatchCheckpoint still running after its context was cancelled")
	}
	waitFor("the watch goroutine to exit", func() bool { return runtime.NumGoroutine() <= baseline })
}
