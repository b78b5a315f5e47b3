// Package ingest implements the live-graph ingest subsystem: a
// crash-safe write-ahead log of edge mutations (additions and removals
// of triples), a background drainer that folds logged edges into the
// model with bounded dirty-set fine-tune steps, and a delta-snapshot
// publisher that pushes the result through the established
// Swap/entity-version machinery so version-namespaced caches invalidate
// precisely.
//
// Durability model: fine-tuned embeddings live in memory, so the WAL —
// not the model — is the system of record for accepted edges. A
// submitted batch is durable once its WAL segment is on disk; after a
// crash the server replays every segment past the durable APPLIED
// cursor onto the reloaded base — the original checkpoint, or the last
// persisted state file (SaveState/LoadState) — and because each
// segment's fine-tune step is deterministic (seeded by segment
// sequence, with micro-batch boundaries pinned per segment at append
// time), replay reconstructs the pre-crash embeddings bit for bit. The
// APPLIED cursor only advances — and segments are only pruned — when
// the caller confirms the model state covering them has itself been
// made durable.
package ingest

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/halk-kg/halk/internal/ckpt"
	"github.com/halk-kg/halk/internal/kg"
)

// Op says what a Record does to the graph.
type Op uint8

const (
	// OpAdd inserts the triple.
	OpAdd Op = iota
	// OpRemove deletes the triple.
	OpRemove
)

// Record is one logged edge mutation.
type Record struct {
	Op Op
	H  kg.EntityID
	R  kg.RelationID
	T  kg.EntityID
}

// Triple returns the record's triple.
func (r Record) Triple() kg.Triple { return kg.Triple{H: r.H, R: r.R, T: r.T} }

const (
	segPrefix   = "wal-"
	segSuffix   = ".wal"
	appliedName = "APPLIED"
)

// ErrGap marks a WAL whose segment sequence has a hole below its
// highest pending segment: a segment that was durably acknowledged is
// gone (quarantined as corrupt, or deleted out of band). Replaying the
// segments above the hole would fabricate a model state that never
// existed — the durability and bit-identical-replay contracts are
// already broken — so Open refuses instead of continuing past it. The
// operator must restore the missing segment (its `.bad` twin, a backup)
// or explicitly discard the log.
var ErrGap = errors.New("ingest: wal segment sequence gap")

// segPayload is the gob payload of one segment: the records plus the
// fine-tune micro-batch size pinned at append time. Replay splits the
// segment into the same micro-batches it was first applied with, so the
// reconstruction is bit-identical even if Config.BatchSize changes across
// restarts.
type segPayload struct {
	BatchSize int
	Recs      []Record
}

// WAL is the crash-safe edge log. Each Append writes one segment file
// (`wal-<seq>.wal`) holding the gob-encoded payload — the records plus
// the micro-batch size they are applied with — inside a ckpt
// envelope (magic + version + CRC-32C footer) via the same
// temp → fsync → rename discipline as checkpoints: a crash mid-append
// publishes nothing — the torn temp file is ignored and removed on the
// next Open. Segments are strictly sequenced; the APPLIED manifest (a
// ckpt envelope around the last durably-applied sequence) marks the
// replay floor.
//
// All methods are safe for concurrent use.
type WAL struct {
	dir string

	mu          sync.Mutex
	nextSeq     uint64
	applied     uint64
	pending     []uint64 // sorted sequences > applied still on disk
	quarantined int
}

// OpenWAL opens (creating if needed) the log directory, quarantines
// unreadable or corrupt segment files by renaming them to `<name>.bad`,
// removes abandoned temp files, and loads the APPLIED cursor. A corrupt
// or missing APPLIED manifest resets the cursor to 0 — replaying
// already-applied segments is safe because segment application is
// deterministic and replay always starts from the durable base model.
//
// A quarantined (or missing) segment *below* the highest pending one is
// a hole in the replay sequence: Open fails with ErrGap rather than
// silently dropping acknowledged edges and applying the segments above
// them. A corrupt *newest* segment leaves no hole — the log truncates to
// a valid prefix (the pre-batch state), which still loses that batch to
// bit rot but never diverges replay; it is quarantined and surfaced via
// Quarantined.
func OpenWAL(dir string) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: open wal: %w", err)
	}
	w := &WAL{dir: dir, nextSeq: 1}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ingest: open wal: %w", err)
	}
	manifestLost := false // APPLIED existed but was corrupt: true floor unknown
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.Contains(name, ".tmp-"):
			// Torn write from a crash mid-append; it was never published.
			os.Remove(filepath.Join(dir, name))
			continue
		case name == appliedName:
			raw, err := ckpt.ReadFile(filepath.Join(dir, name))
			if err != nil {
				w.quarantine(name)
				manifestLost = true
				continue
			}
			var seq uint64
			if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&seq); err != nil {
				w.quarantine(name)
				manifestLost = true
				continue
			}
			w.applied = seq
			continue
		case !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix):
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
		if err != nil {
			w.quarantine(name)
			continue
		}
		// Verify the envelope now so a bit-flipped segment is quarantined
		// at open instead of poisoning replay later.
		if _, err := ckpt.ReadFile(filepath.Join(dir, name)); err != nil {
			w.quarantine(name)
			continue
		}
		if seq >= w.nextSeq {
			w.nextSeq = seq + 1
		}
		w.pending = append(w.pending, seq)
	}
	sort.Slice(w.pending, func(i, j int) bool { return w.pending[i] < w.pending[j] })
	// Drop segments at or below the durable cursor (already folded into a
	// persisted model) from the replay list.
	for len(w.pending) > 0 && w.pending[0] <= w.applied {
		w.pending = w.pending[1:]
	}
	if w.applied >= w.nextSeq {
		w.nextSeq = w.applied + 1
	}
	// Refuse holes below the highest pending segment. Sequences are dense
	// by construction (Append consumes a sequence only on a successful
	// publish) and pruning removes only segments at or below the APPLIED
	// cursor, so with a trusted cursor the survivors must be exactly
	// applied+1 .. max. When the cursor itself was quarantined the true
	// replay floor is unknown — legitimately pruned segments are
	// indistinguishable from lost ones — so only internal contiguity can
	// be checked.
	if len(w.pending) > 0 {
		expect := w.applied + 1
		if manifestLost {
			expect = w.pending[0]
		}
		for _, seq := range w.pending {
			if seq != expect {
				return nil, fmt.Errorf("%w: segment %d is missing below pending segment %d in %s (quarantined as corrupt, or deleted); restore it or discard the log",
					ErrGap, expect, w.pending[len(w.pending)-1], dir)
			}
			expect++
		}
	}
	return w, nil
}

func (w *WAL) quarantine(name string) {
	os.Rename(filepath.Join(w.dir, name), filepath.Join(w.dir, name+".bad"))
	w.quarantined++
}

func (w *WAL) segPath(seq uint64) string {
	return filepath.Join(w.dir, fmt.Sprintf("%s%016d%s", segPrefix, seq, segSuffix))
}

// Append durably logs one batch of records as the next segment and
// returns its sequence number. batchSize is the fine-tune micro-batch
// size stored with the segment so every future replay splits it
// identically. The write is crash-atomic: either the whole segment is
// published or nothing is.
func (w *WAL) Append(recs []Record, batchSize int) (uint64, error) {
	if len(recs) == 0 {
		return 0, fmt.Errorf("ingest: empty batch")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	seq := w.nextSeq
	err := ckpt.WriteFile(w.segPath(seq), func(f io.Writer) error {
		return gob.NewEncoder(f).Encode(segPayload{BatchSize: batchSize, Recs: recs})
	})
	if err != nil {
		return 0, fmt.Errorf("ingest: append segment %d: %w", seq, err)
	}
	w.nextSeq = seq + 1
	w.pending = append(w.pending, seq)
	return seq, nil
}

// Load reads and verifies one segment, returning its records and the
// micro-batch size it was appended with.
func (w *WAL) Load(seq uint64) ([]Record, int, error) {
	raw, err := ckpt.ReadFile(w.segPath(seq))
	if err != nil {
		return nil, 0, fmt.Errorf("ingest: load segment %d: %w", seq, err)
	}
	var seg segPayload
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&seg); err != nil {
		return nil, 0, fmt.Errorf("ingest: decode segment %d: %w", seq, err)
	}
	return seg.Recs, seg.BatchSize, nil
}

// Pending returns the sequences past the durable APPLIED cursor, in
// order. These are the segments a restart must replay.
func (w *WAL) Pending() []uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]uint64(nil), w.pending...)
}

// PendingCount reports how many segments await durable application.
func (w *WAL) PendingCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.pending)
}

// PendingCountAfter reports how many pending segments have sequences
// strictly greater than seq — with the in-memory apply cursor as seq,
// the segments the drainer has not yet folded into the model. This is
// the admission-control backlog: segments the drainer *has* applied but
// that await a durable persist do not delay writes, only pruning.
func (w *WAL) PendingCountAfter(seq uint64) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	i := sort.Search(len(w.pending), func(i int) bool { return w.pending[i] > seq })
	return len(w.pending) - i
}

// AppliedSeq reports the durable APPLIED cursor: every segment at or
// below it is folded into a persisted model state.
func (w *WAL) AppliedSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.applied
}

// NextSeq reports the sequence the next Append will use.
func (w *WAL) NextSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextSeq
}

// Quarantined reports how many corrupt files Open set aside.
func (w *WAL) Quarantined() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.quarantined
}

// Advance durably moves the APPLIED cursor to seq and prunes segments
// at or below it. Call it only once the model state covering those
// segments is itself durable (e.g. a checkpoint was written): advancing
// earlier would skip their replay after a crash and silently lose the
// edges. The manifest write is crash-atomic; pruning is best-effort
// (a leftover pruned segment is re-ignored at the next Open).
func (w *WAL) Advance(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if seq <= w.applied {
		return nil
	}
	err := ckpt.WriteFile(filepath.Join(w.dir, appliedName), func(f io.Writer) error {
		return gob.NewEncoder(f).Encode(seq)
	})
	if err != nil {
		return fmt.Errorf("ingest: advance applied cursor: %w", err)
	}
	w.applied = seq
	for len(w.pending) > 0 && w.pending[0] <= seq {
		os.Remove(w.segPath(w.pending[0]))
		w.pending = w.pending[1:]
	}
	return nil
}

// Compact removes every on-disk segment wholly covered by the durable
// APPLIED cursor — segments Advance's best-effort pruning left behind
// (a crash between the manifest write and the prune, files restored
// from backup, a cursor inherited from another process) — and returns
// how many it disposed of. With a non-empty archiveDir the segments
// are moved there instead of deleted, preserving an audit trail of
// every accepted edge. Call it after OpenWAL on long-lived servers so
// dead segments stop accumulating.
//
// Compact never touches replay state: only files *at or below* the
// cursor qualify, pending segments are all above it by construction,
// and quarantined `.bad` twins, temp files and the APPLIED manifest
// are never candidates. When Open quarantined the manifest the cursor
// reset to 0 and no segment is below it, so a WAL whose true replay
// floor is unknown compacts nothing.
func (w *WAL) Compact(archiveDir string) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return 0, fmt.Errorf("ingest: compact wal: %w", err)
	}
	if archiveDir != "" {
		if err := os.MkdirAll(archiveDir, 0o755); err != nil {
			return 0, fmt.Errorf("ingest: compact wal: %w", err)
		}
	}
	n := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
		if err != nil || seq > w.applied {
			continue
		}
		path := filepath.Join(w.dir, name)
		if archiveDir != "" {
			err = os.Rename(path, filepath.Join(archiveDir, name))
		} else {
			err = os.Remove(path)
		}
		if err != nil {
			return n, fmt.Errorf("ingest: compact segment %d: %w", seq, err)
		}
		n++
	}
	return n, nil
}
