package ckpt

import (
	"os"
	"time"
)

// Watcher detects new checkpoints under a path without inotify: it
// resolves the current candidate file (the path itself, or the newest
// rotation entry when path is a directory) and compares its identity —
// name, size, modification time — against the last acknowledged load.
// Because checkpoints are published by rename, a visible file never
// changes in place; a changed identity therefore always means a new,
// complete file.
//
// Watcher is not safe for concurrent use; drive it from one polling
// goroutine.
type Watcher struct {
	path string

	lastPath string
	lastSize int64
	lastMod  time.Time
}

// NewWatcher watches path — a checkpoint file, or a rotation directory
// whose newest entry is the candidate.
func NewWatcher(path string) *Watcher { return &Watcher{path: path} }

// Resolve maps a checkpoint path to a concrete file: the path itself,
// or the newest entry when it is a rotation directory (manifest first,
// directory scan as fallback).
func Resolve(path string) (string, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return "", err
	}
	if fi.IsDir() {
		return (&Dir{Path: path}).LatestPath()
	}
	return path, nil
}

// Ack records path as the currently loaded checkpoint, so Poll only
// reports candidates that differ from it. Call it after the initial
// load and after every successful reload; after a failed reload, do
// not Ack — a subsequent newer file will then still register as a
// change. Ack also dedupes a failed candidate if the caller chooses to
// give up on it.
func (w *Watcher) Ack(path string) {
	w.lastPath = path
	w.lastSize, w.lastMod = 0, time.Time{}
	if fi, err := os.Stat(path); err == nil {
		w.lastSize, w.lastMod = fi.Size(), fi.ModTime()
	}
}

// Poll resolves the current candidate and reports whether it differs
// from the last acknowledged load. A missing path or empty rotation is
// not an error — it reports no change (the checkpoint may simply not
// have been written yet).
func (w *Watcher) Poll() (path string, changed bool, err error) {
	cand, err := Resolve(w.path)
	if err != nil {
		if os.IsNotExist(err) {
			return "", false, nil
		}
		return "", false, err
	}
	fi, err := os.Stat(cand)
	if err != nil {
		if os.IsNotExist(err) {
			return "", false, nil
		}
		return "", false, err
	}
	if cand == w.lastPath && fi.Size() == w.lastSize && fi.ModTime().Equal(w.lastMod) {
		return cand, false, nil
	}
	return cand, true, nil
}
