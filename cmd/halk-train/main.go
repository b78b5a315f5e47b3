// Command halk-train trains a HaLk model on one of the benchmark
// stand-in datasets and writes a checkpoint.
//
// Usage:
//
//	halk-train -dataset NELL -steps 8000 -out nell.ckpt
//
// Training is durable: every -ckpt-every steps a crash-safe checkpoint
// (verified envelope, atomic rename, keep-last -ckpt-keep rotation) is
// written into -ckpt-dir, carrying the full optimizer state. A killed
// run restarts with -resume and continues bit-exactly from the newest
// valid entry — a torn file from a crash mid-write is detected by its
// checksum and skipped in favour of the previous entry. SIGINT/SIGTERM
// cut a final checkpoint before exiting, so an interrupted run loses
// nothing.
package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"github.com/halk-kg/halk/internal/ckpt"
	"github.com/halk-kg/halk/internal/halk"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/model"
	"github.com/halk-kg/halk/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("halk-train: ")

	var (
		dataset   = flag.String("dataset", "FB237", "dataset stand-in: FB15k, FB237 or NELL")
		seed      = flag.Int64("seed", 1, "dataset and model seed")
		dim       = flag.Int("dim", 64, "embedding dimensionality")
		hidden    = flag.Int("hidden", 64, "operator MLP width")
		steps     = flag.Int("steps", 8000, "optimizer steps")
		out       = flag.String("out", "halk.ckpt", "checkpoint output path")
		pprofAt   = flag.String("pprof-addr", "", "debug listen address exposing /debug/pprof/ and live training /metrics (empty disables)")
		ckptEvery = flag.Int("ckpt-every", 500, "write a crash-safe checkpoint every N optimizer steps (0 = only final/interrupt checkpoints)")
		ckptKeep  = flag.Int("ckpt-keep", ckpt.DefaultKeep, "rotation entries to keep in -ckpt-dir")
		ckptDir   = flag.String("ckpt-dir", "", "rotation directory for periodic checkpoints (default <out>.d)")
		resume    = flag.Bool("resume", false, "resume bit-exactly from the newest valid checkpoint in -ckpt-dir")
	)
	flag.Parse()

	ds, err := kg.SynthByName(*dataset, *seed)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("dataset %s: %d entities, %d relations, %d/%d/%d train/valid/test triples",
		ds.Name, ds.Train.NumEntities(), ds.Train.NumRelations(),
		ds.Train.NumTriples(), ds.Train.NumTriples()+len(ds.ValidEdges), ds.Test.NumTriples())

	dirPath := *ckptDir
	if dirPath == "" {
		dirPath = *out + ".d"
	}
	rot := &ckpt.Dir{Path: dirPath, Keep: *ckptKeep}

	cfg := halk.DefaultConfig(*seed)
	cfg.Dim, cfg.Hidden = *dim, *hidden
	cfg.Gamma = 24 * float64(*dim) / 800

	// Fresh start builds the model from flags; -resume rebuilds it from
	// the newest rotation entry that verifies and decodes, restoring
	// parameters, Adam moments and the step counter. Entries that fail —
	// a torn newest file from a crash mid-write, a bit-flipped payload —
	// are skipped in favour of their predecessor; a checkpoint from a
	// different dataset/seed is never silently adopted.
	var (
		m  *halk.Model
		st *model.TrainState
	)
	if *resume {
		var rst model.TrainState
		entry, err := rot.LoadLatest(func(e ckpt.Entry, payload []byte) error {
			dec := gob.NewDecoder(bytes.NewReader(payload))
			mm, _, err := halk.LoadCheckpointFrom(dec, func(hdr halk.CheckpointHeader) (*kg.Graph, error) {
				if hdr.Dataset != ds.Name || hdr.Seed != *seed {
					return nil, fmt.Errorf("%w: checkpoint is for %s/seed %d, this run is %s/seed %d",
						halk.ErrCheckpointMismatch, hdr.Dataset, hdr.Seed, ds.Name, *seed)
				}
				return ds.Train, nil
			})
			if err != nil {
				return err
			}
			s, err := model.DecodeTrainState(dec, mm.Params())
			if err != nil {
				return err
			}
			m, rst = mm, s
			return nil
		})
		if err != nil {
			log.Fatalf("cannot resume from %s: %v", dirPath, err)
		}
		st = &rst
		if m.Config() != cfg {
			log.Printf("resume: using the checkpoint's model config (flags differ)")
		}
		log.Printf("resuming from %s at step %d (adam step %d)", entry.Path, rst.Step, rst.AdamStep)
	} else {
		m = halk.New(ds.Train, cfg)
	}
	log.Printf("model: %d parameters", m.Params().Count())

	// SIGINT/SIGTERM request a graceful stop: the trainer cuts a final
	// checkpoint at the current step boundary and returns.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	tc := model.DefaultTrainConfig(*seed)
	tc.Steps = *steps
	tc.Progress = func(step int, loss float64) {
		log.Printf("step %6d  loss %.4f", step, loss)
	}
	tc.Checkpoint = &model.CheckpointConfig{
		Dir:   rot,
		Every: *ckptEvery,
		Header: func(enc *gob.Encoder) error {
			return enc.Encode(halk.CheckpointHeader{Dataset: ds.Name, Seed: *seed, Config: m.Config()})
		},
		Resume:    st,
		Interrupt: ctx.Done(),
		OnSave: func(step int, path string) {
			log.Printf("checkpoint: step %d -> %s", step, path)
		},
	}
	if *pprofAt != "" {
		reg := obs.NewRegistry()
		obs.RegisterProcessMetrics(reg)
		tc.Metrics = reg
		dbg, bound, err := obs.ServeDebug(*pprofAt, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer dbg.Close()
		log.Printf("debug server on %s (/debug/pprof/, /metrics: steps, loss, grad norm)", bound)
	}
	res, err := model.Train(m, ds.Train, tc)
	if err != nil {
		log.Fatal(err)
	}
	if res.Interrupted {
		log.Printf("interrupted at step %d after %v; state saved in %s", res.Steps, res.Elapsed, dirPath)
		log.Printf("continue with: halk-train -dataset %s -seed %d -steps %d -out %s -ckpt-dir %s -resume",
			ds.Name, *seed, *steps, *out, dirPath)
		return
	}
	log.Printf("trained %d steps in %v (final loss %.4f)", res.Steps, res.Elapsed, res.FinalLoss)

	// The serving checkpoint is written atomically inside the verified
	// envelope: the bytes are fsynced and the file descriptor's Close
	// error checked before the rename publishes it, so a full disk or a
	// short write can never leave a truncated file at -out.
	if err := m.WriteCheckpointFile(*out, ds.Name, *seed); err != nil {
		log.Fatal(err)
	}
	log.Printf("checkpoint written to %s", *out)
}
