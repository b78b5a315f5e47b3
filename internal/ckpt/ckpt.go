// Package ckpt is the durable checkpoint lifecycle: a versioned,
// CRC-checksummed envelope around an opaque payload, written atomically
// (temp file in the target directory → Sync → Close → Rename) so a
// crash mid-write can never leave a torn file under the published name;
// a keep-last-N rotation directory with a LATEST manifest so training
// can fall back to the previous entry when the newest fails
// verification; a polling Watcher so a serving process can pick up
// fresh checkpoints without restarting; and a Status block exporting
// checkpoint freshness as metrics.
//
// The package is payload-agnostic: halk writes its gob stream (header,
// parameters, optimizer state) through WriteFile and reads it back
// through ReadFile, which verifies the envelope end to end before a
// single payload byte is decoded. Verification failures are typed —
// ErrNotCheckpoint, ErrVersion, ErrTruncated, ErrChecksum — so callers
// can tell a permanently corrupt file (never retry) from a transient
// read problem (retry).
//
// Envelope layout (all integers big-endian):
//
//	offset 0       magic "HALKCKPT" (8 bytes)
//	offset 8       format version uint32 (currently 1)
//	offset 12      payload (length implied by the footer)
//	end-20         payload length uint64
//	end-12         CRC-32C (Castagnoli) of the payload uint32
//	end-8          end magic "HALKCEND" (8 bytes)
//
// The footer is what makes truncation detectable: a file cut at any
// offset either loses the end magic (ErrTruncated) or keeps it while
// the recorded length no longer matches the bytes present
// (ErrTruncated), and a bit flip anywhere in the payload fails the CRC
// (ErrChecksum).
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Format constants.
const (
	headerLen = 12 // magic + version
	footerLen = 20 // length + crc + end magic

	// FormatVersion is the envelope version this package writes.
	FormatVersion = 1
)

var (
	magic    = []byte("HALKCKPT")
	endMagic = []byte("HALKCEND")

	// castagnoli is the CRC-32C table; hardware-accelerated on amd64/arm64.
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// Typed verification errors. All four mark the file itself as bad — a
// retry against the same bytes can never succeed — as opposed to an
// *os.PathError from Open/Read, which may be transient.
var (
	// ErrNotCheckpoint is returned for a file without the envelope magic
	// (including an empty file, and a bare gob stream no writer in this
	// repository produces).
	ErrNotCheckpoint = errors.New("ckpt: not a checkpoint envelope (bad or missing magic)")
	// ErrVersion is returned for an envelope written by a newer (or
	// corrupted) format version.
	ErrVersion = errors.New("ckpt: unsupported checkpoint format version")
	// ErrTruncated is returned when the file is shorter than the recorded
	// payload, or the footer itself is cut off.
	ErrTruncated = errors.New("ckpt: checkpoint truncated")
	// ErrChecksum is returned when the payload bytes fail the CRC.
	ErrChecksum = errors.New("ckpt: checkpoint checksum mismatch")
)

// IsCorrupt reports whether err is one of the envelope verification
// failures — a permanent property of the file, not a transient I/O
// problem.
func IsCorrupt(err error) bool {
	return errors.Is(err, ErrNotCheckpoint) || errors.Is(err, ErrVersion) ||
		errors.Is(err, ErrTruncated) || errors.Is(err, ErrChecksum)
}

// payloadSink wraps the temp file every envelope byte is written
// through. Tests swap it for a short-writing sink to simulate a full
// disk (ENOSPC) and assert that WriteFile reports the failure instead
// of publishing a truncated file.
var payloadSink = func(f *os.File) io.Writer { return f }

// WriteFile atomically writes an envelope whose payload is produced by
// write. The payload goes to a temp file in path's directory; only
// after the payload, the footer, and an fsync all succeed is the temp
// file renamed over path. On any failure the temp file is removed and
// path is left untouched — a reader can never observe a half-written
// checkpoint under the published name.
func WriteFile(path string, write func(w io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("ckpt: create temp: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()

	sink := payloadSink(f)
	var hdr [headerLen]byte
	copy(hdr[:8], magic)
	binary.BigEndian.PutUint32(hdr[8:12], FormatVersion)
	if _, err = sink.Write(hdr[:]); err != nil {
		return fmt.Errorf("ckpt: write header: %w", err)
	}

	cw := &crcWriter{w: sink}
	if err = write(cw); err != nil {
		return fmt.Errorf("ckpt: write payload: %w", err)
	}

	var ftr [footerLen]byte
	binary.BigEndian.PutUint64(ftr[0:8], uint64(cw.n))
	binary.BigEndian.PutUint32(ftr[8:12], cw.crc)
	copy(ftr[12:20], endMagic)
	if _, err = sink.Write(ftr[:]); err != nil {
		return fmt.Errorf("ckpt: write footer: %w", err)
	}

	// Sync before rename: the rename must never publish a name whose
	// bytes are still only in the page cache when the machine dies.
	if err = f.Sync(); err != nil {
		return fmt.Errorf("ckpt: sync: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("ckpt: close: %w", err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("ckpt: rename: %w", err)
	}
	syncDir(dir) // best effort: make the rename itself durable
	return nil
}

// crcWriter tees writes into a running CRC-32C and byte count.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	c.n += int64(n)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	return n, err
}

// syncDir fsyncs a directory so a completed rename survives a crash.
// Failures are ignored: not every filesystem supports it, and the
// rename itself already succeeded.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// ReadFile reads path, verifies the envelope (magic, version, length,
// CRC) and returns the payload bytes. Verification failures return the
// typed errors above; nothing of the payload is exposed unless every
// check passed.
func ReadFile(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Verify(raw)
}

// Verify checks a whole envelope held in memory and returns its
// payload. See ReadFile.
func Verify(raw []byte) ([]byte, error) {
	if len(raw) < headerLen || string(raw[:8]) != string(magic) {
		return nil, fmt.Errorf("%w (%d bytes)", ErrNotCheckpoint, len(raw))
	}
	if v := binary.BigEndian.Uint32(raw[8:12]); v != FormatVersion {
		return nil, fmt.Errorf("%w: got %d, support %d", ErrVersion, v, FormatVersion)
	}
	if len(raw) < headerLen+footerLen {
		return nil, fmt.Errorf("%w: %d bytes is too short for a footer", ErrTruncated, len(raw))
	}
	ftr := raw[len(raw)-footerLen:]
	if string(ftr[12:20]) != string(endMagic) {
		return nil, fmt.Errorf("%w: end marker missing", ErrTruncated)
	}
	wantLen := binary.BigEndian.Uint64(ftr[0:8])
	payload := raw[headerLen : len(raw)-footerLen]
	if uint64(len(payload)) != wantLen {
		return nil, fmt.Errorf("%w: footer records %d payload bytes, file holds %d", ErrTruncated, wantLen, len(payload))
	}
	if got := crc32.Checksum(payload, castagnoli); got != binary.BigEndian.Uint32(ftr[8:12]) {
		return nil, fmt.Errorf("%w: crc32c %08x, footer records %08x", ErrChecksum, got, binary.BigEndian.Uint32(ftr[8:12]))
	}
	return payload, nil
}
