package halk

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"github.com/halk-kg/halk/internal/ckpt"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/model"
)

// CheckpointHeader describes a saved model so it can be rebuilt against
// the same (regenerated) dataset.
type CheckpointHeader struct {
	Dataset string // dataset name, e.g. "FB237"
	Seed    int64  // dataset generation seed
	Config  Config
}

// Typed checkpoint-load failures. Both mark the input itself as bad —
// retrying the same bytes can never succeed — so callers (halk-serve's
// startup retry loop, the hot-reload path, halk-train --resume) treat
// them as permanent and either bail or fall back to an older rotation
// entry, instead of re-attempting.
var (
	// ErrCheckpointCorrupt wraps a decode failure inside the checkpoint
	// payload: a truncated stream, an unknown tensor or a shape
	// mismatch.
	ErrCheckpointCorrupt = errors.New("halk: checkpoint payload corrupt")
	// ErrCheckpointMismatch marks a structurally valid checkpoint that
	// belongs to a different model: wrong dataset, wrong dataset seed,
	// or a different hyper-parameter configuration.
	ErrCheckpointMismatch = errors.New("halk: checkpoint does not match the serving model")
)

// SaveCheckpoint writes the header and all parameters to w as a single
// gob stream. This is the raw payload; for a crash-safe on-disk file,
// use WriteCheckpointFile, which wraps it in the verified envelope of
// internal/ckpt.
func (m *Model) SaveCheckpoint(w io.Writer, dataset string, dataSeed int64) error {
	enc := gob.NewEncoder(w)
	hdr := CheckpointHeader{Dataset: dataset, Seed: dataSeed, Config: m.cfg}
	if err := enc.Encode(hdr); err != nil {
		return fmt.Errorf("halk: save checkpoint header: %w", err)
	}
	return m.params.Encode(enc)
}

// WriteCheckpointFile atomically writes the model as a verified
// checkpoint file: the SaveCheckpoint gob stream inside the
// CRC-checksummed envelope, published by rename so a crash mid-write
// never leaves a torn file at path.
func (m *Model) WriteCheckpointFile(path, dataset string, dataSeed int64) error {
	return ckpt.WriteFile(path, func(w io.Writer) error {
		return m.SaveCheckpoint(w, dataset, dataSeed)
	})
}

// LoadCheckpoint reads a checkpoint header, rebuilds the model over g
// (which must be the same training graph the checkpoint was created on)
// and restores its parameters. Decode failures return errors wrapping
// ErrCheckpointCorrupt; the model is never returned half-initialized.
func LoadCheckpoint(r io.Reader, lookup func(hdr CheckpointHeader) (*kg.Graph, error)) (*Model, CheckpointHeader, error) {
	return LoadCheckpointFrom(gob.NewDecoder(r), lookup)
}

// LoadCheckpointFrom is LoadCheckpoint over an existing gob decoder.
// Use it when the checkpoint is one part of a larger stream — e.g. a
// training checkpoint whose trailing optimizer state
// (model.DecodeTrainState) must be read through the same decoder.
func LoadCheckpointFrom(dec *gob.Decoder, lookup func(hdr CheckpointHeader) (*kg.Graph, error)) (*Model, CheckpointHeader, error) {
	var hdr CheckpointHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, hdr, fmt.Errorf("%w: header: %v", ErrCheckpointCorrupt, err)
	}
	g, err := lookup(hdr)
	if err != nil {
		return nil, hdr, err
	}
	m := New(g, hdr.Config)
	if err := m.params.Decode(dec); err != nil {
		return nil, hdr, fmt.Errorf("%w: parameters: %v", ErrCheckpointCorrupt, err)
	}
	return m, hdr, nil
}

// FileInfo describes a checkpoint file after a successful load.
type FileInfo struct {
	Path   string
	Header CheckpointHeader
	// Step is the training step the checkpoint was cut at, or -1 when
	// the payload carries no training state (a serving-only checkpoint).
	Step int
}

// LoadCheckpointFile opens, verifies and loads a checkpoint file. The
// envelope is checked end to end (magic, version, length, CRC) before
// any payload byte is decoded, so a truncated or bit-flipped file is
// rejected with a typed error from internal/ckpt instead of producing
// a half-initialized model. A file without the envelope magic carries no
// checksum to verify and fails with ckpt.ErrNotCheckpoint.
func LoadCheckpointFile(path string, lookup func(hdr CheckpointHeader) (*kg.Graph, error)) (*Model, FileInfo, error) {
	info := FileInfo{Path: path, Step: -1}
	payload, err := ckpt.ReadFile(path)
	if err != nil {
		return nil, info, err
	}
	dec := gob.NewDecoder(bytes.NewReader(payload))
	m, hdr, err := LoadCheckpointFrom(dec, lookup)
	if err != nil {
		return nil, info, err
	}
	info.Header = hdr
	// Training checkpoints carry optimizer state after the parameters;
	// surface the step for freshness reporting. Its absence (EOF on a
	// serving-only payload) is not an error.
	if st, err := model.DecodeTrainState(dec, m.params); err == nil {
		info.Step = st.Step
	}
	return m, info, nil
}

// ReloadFromFile hot-swaps a newer checkpoint into the live model: the
// file is verified and decoded into a staging parameter set first, and
// only if everything — envelope, header identity (dataset, seed,
// config), every tensor — checks out are the live parameters replaced,
// atomically with respect to in-flight rankings (under the ranking
// write-lock, with an entity-version bump so the trig cache, sharded
// snapshots and answer caches all roll forward). On any error nothing
// is touched: the model keeps serving the previous parameters.
func (m *Model) ReloadFromFile(path, wantDataset string, wantSeed int64) (FileInfo, error) {
	info := FileInfo{Path: path, Step: -1}
	payload, err := ckpt.ReadFile(path)
	if err != nil {
		return info, err
	}
	dec := gob.NewDecoder(bytes.NewReader(payload))
	var hdr CheckpointHeader
	if err := dec.Decode(&hdr); err != nil {
		return info, fmt.Errorf("%w: header: %v", ErrCheckpointCorrupt, err)
	}
	if hdr.Dataset != wantDataset || hdr.Seed != wantSeed {
		return info, fmt.Errorf("%w: checkpoint is for dataset %s/seed %d, serving %s/seed %d",
			ErrCheckpointMismatch, hdr.Dataset, hdr.Seed, wantDataset, wantSeed)
	}
	if hdr.Config != m.cfg {
		return info, fmt.Errorf("%w: checkpoint config %+v differs from serving config %+v",
			ErrCheckpointMismatch, hdr.Config, m.cfg)
	}
	staging := m.params.CloneShapes()
	if err := staging.Decode(dec); err != nil {
		return info, fmt.Errorf("%w: parameters: %v", ErrCheckpointCorrupt, err)
	}
	if st, err := model.DecodeTrainState(dec, staging); err == nil {
		info.Step = st.Step
	}
	info.Header = hdr

	// Everything verified; install. The write-lock serialises against
	// in-flight rankings, and the version bump makes every derived
	// structure (trig cache, shard snapshots via Refresh, cache keys)
	// observe the change.
	m.rankMu.Lock()
	for _, t := range staging.All() {
		copy(m.params.Get(t.Name).Data, t.Data)
	}
	m.entVersion.Add(1)
	m.rankMu.Unlock()
	return info, nil
}
