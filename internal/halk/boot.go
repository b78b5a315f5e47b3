package halk

import (
	"context"
	"errors"
	"time"

	"github.com/halk-kg/halk/internal/ckpt"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/resil"
)

// loadAttempts is how often LoadServing tries a checkpoint path whose
// failure may be transient (not yet written by halk-train, a network
// filesystem) before giving up.
const loadAttempts = 3

// SynthLookup returns a checkpoint lookup that regenerates the synthetic
// dataset the header names, stores it in *ds and hands back its training
// graph. An unknown name is permanent: no retry can make it loadable.
func SynthLookup(ds **kg.Dataset) func(hdr CheckpointHeader) (*kg.Graph, error) {
	return func(hdr CheckpointHeader) (*kg.Graph, error) {
		d, err := kg.SynthByName(hdr.Dataset, hdr.Seed)
		if err != nil {
			return nil, resil.Permanent(err)
		}
		*ds = d
		return d.Train, nil
	}
}

// LoadServing is a server's boot path: it resolves path — a checkpoint
// file, or a rotation directory whose newest entry is served — and loads
// it over the regenerated dataset. Open and read failures retry with
// full-jitter backoff; failures that are properties of the bytes on disk
// — corruption the verified envelope caught, a payload that does not
// decode, an unknown dataset — are marked resil.Permanent and returned at
// once instead of re-reading the same bad file. Every failed attempt is
// reported through logf.
func LoadServing(ctx context.Context, path string, logf func(format string, args ...any)) (*Model, *kg.Dataset, FileInfo, error) {
	var (
		m    *Model
		ds   *kg.Dataset
		info FileInfo
	)
	backoff := resil.NewBackoff(200*time.Millisecond, 5*time.Second, time.Now().UnixNano())
	err := resil.Retry(ctx, loadAttempts, backoff, func() error {
		file, err := ckpt.Resolve(path)
		if err == nil {
			m, info, err = LoadCheckpointFile(file, SynthLookup(&ds))
		}
		if err == nil {
			return nil
		}
		if ckpt.IsCorrupt(err) || errors.Is(err, ErrCheckpointCorrupt) || errors.Is(err, ErrCheckpointMismatch) {
			err = resil.Permanent(err)
		}
		if resil.IsPermanent(err) {
			logf("checkpoint load: %v (permanent, not retrying)", err)
		} else {
			logf("checkpoint load: %v (will retry)", err)
		}
		return err
	})
	if err != nil {
		return nil, nil, info, err
	}
	return m, ds, info, nil
}

// WatchCheckpoint polls path (as LoadServing resolves it) every period
// until ctx is done and hot-reloads each newer checkpoint into m through
// ReloadFromFile. loaded is the checkpoint m currently serves; only
// candidates that differ from it, and later from each other, are read.
// After a swap afterSwap runs — the caller rebuilds whatever snapshots
// the embeddings at build time (shard snapshots, the ANN index) — and
// status records the new path, step and entity version. A candidate that
// fails verification swaps nothing: it is counted once on status and
// acknowledged, so it is not re-read every tick but only once the path
// changes again (a new rotation entry, a rewritten file).
func (m *Model) WatchCheckpoint(ctx context.Context, path string, period time.Duration, loaded FileInfo,
	status *ckpt.Status, afterSwap func(), logf func(format string, args ...any)) {
	hdr := loaded.Header
	watcher := ckpt.NewWatcher(path)
	watcher.Ack(loaded.Path)
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		cand, changed, err := watcher.Poll()
		if err != nil {
			logf("ckpt-watch: %v", err)
			continue
		}
		if !changed {
			continue
		}
		info, err := m.ReloadFromFile(cand, hdr.Dataset, hdr.Seed)
		watcher.Ack(cand)
		if err != nil {
			status.ReloadFailed()
			logf("ckpt-watch: reload of %s failed, still serving previous checkpoint: %v", cand, err)
			continue
		}
		afterSwap()
		status.SetLoaded(cand, hdr.Dataset, hdr.Seed, info.Step, m.EntityVersion())
		logf("ckpt-watch: hot-reloaded %s (step %d, entity version %d)", cand, info.Step, m.EntityVersion())
	}
}
