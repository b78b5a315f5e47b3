// Command halk-shard hosts one contiguous slice of a trained HaLk
// model's entity table behind the cluster scan API, turning the
// in-process scatter-gather engine into a multi-node topology: a
// halk-serve router (-cluster) scatters each query to a set of
// halk-shard nodes and merges their local top-K lists.
//
// Usage:
//
//	halk-shard -ckpt halk.ckpt -addr :9001 -node 0 -nodes 3
//	halk-shard -ckpt halk.ckpt -addr :9002 -range 4000:8000
//
// -node/-nodes partitions the entity table with the same
// remainder-first formula the in-process engine uses for sub-sharding,
// so an n-node topology of single-shard nodes hosts exactly the ranges
// a single-process n-shard engine scans; -range pins an explicit
// [lo:hi) slice instead. -shards additionally sub-shards the hosted
// slice across local cores.
//
// Endpoints:
//
//	POST /v1/scan    {"arcs": [...], "k": 10, "bound": 0.42} — local top-K
//	POST /v1/query   debugging: answer a query over the hosted range only
//	POST /v1/drain   begin coordinated drain: healthz flips to 503
//	GET  /v1/healthz readiness: hosted range, entity version, checkpoint
//	GET  /v1/stats   per-local-shard scan counters
//	GET  /metrics    Prometheus text format
//
// SIGTERM (or POST /v1/drain) triggers a coordinated drain: readiness
// fails first (healthz answers 503 "draining" while /v1/scan keeps
// serving), routers get -drain-grace to divert new work, then the
// listener stops and in-flight scans get the -drain budget to finish.
//
// With -ckpt-watch the checkpoint path is polled and newer checkpoints
// hot-reloaded exactly as in halk-serve; the node's entity version
// moves, the router's health loop observes it, and once a quorum of
// nodes report the new version the router flips its cache namespace —
// the coordinated rollout path.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/halk-kg/halk/internal/ckpt"
	"github.com/halk-kg/halk/internal/cluster"
	"github.com/halk-kg/halk/internal/halk"
	"github.com/halk-kg/halk/internal/obs"
	"github.com/halk-kg/halk/internal/query"
	"github.com/halk-kg/halk/internal/shard"
)

// parseRange parses "-range lo:hi".
func parseRange(s string) (lo, hi int, err error) {
	a, b, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("want lo:hi, got %q", s)
	}
	if lo, err = strconv.Atoi(a); err != nil {
		return 0, 0, fmt.Errorf("bad lo in %q: %v", s, err)
	}
	if hi, err = strconv.Atoi(b); err != nil {
		return 0, 0, fmt.Errorf("bad hi in %q: %v", s, err)
	}
	return lo, hi, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("halk-shard: ")

	var (
		ckptPath   = flag.String("ckpt", "halk.ckpt", "checkpoint file, or rotation directory written by halk-train -ckpt-dir (serves its newest entry)")
		addr       = flag.String("addr", ":9000", "listen address")
		nodeIdx    = flag.Int("node", 0, "this node's index in an N-node topology (with -nodes)")
		nodes      = flag.Int("nodes", 1, "topology width: partition the entity table into this many contiguous ranges")
		rangeFlag  = flag.String("range", "", "host an explicit entity range lo:hi instead of -node/-nodes")
		shards     = flag.Int("shards", 1, "sub-shard the hosted range across this many local scan goroutines")
		timeout    = flag.Duration("timeout", 10*time.Second, "default scan deadline when a request carries no timeout_ms")
		maxK       = flag.Int("maxk", 1000, "cap on per-request k")
		drain      = flag.Duration("drain", 15*time.Second, "shutdown drain budget for in-flight requests")
		drainGrace = flag.Duration("drain-grace", 2*time.Second, "pause between failing readiness (healthz 503 draining) and refusing connections, so routers stop sending new work first")
		pprofAt    = flag.String("pprof-addr", "", "separate debug listen address exposing /debug/pprof/ and /metrics (empty disables)")
		ckptWatch  = flag.Duration("ckpt-watch", 0, "poll the -ckpt path this often and hot-reload newer checkpoints (0 disables)")
	)
	flag.Parse()

	m, ds, info, err := halk.LoadServing(context.Background(), *ckptPath, log.Printf)
	if err != nil {
		log.Fatalf("checkpoint load failed: %v", err)
	}
	hdr := info.Header
	ents := ds.Train.NumEntities()

	var lo, hi int
	if *rangeFlag != "" {
		lo, hi, err = parseRange(*rangeFlag)
		if err != nil {
			log.Fatalf("-range: %v", err)
		}
	} else {
		if *nodes < 1 || *nodeIdx < 0 || *nodeIdx >= *nodes {
			log.Fatalf("-node %d out of range for -nodes %d", *nodeIdx, *nodes)
		}
		lo, hi = cluster.Partition(ents, *nodes, *nodeIdx)
	}
	log.Printf("loaded %s model (d=%d) trained on %s from %s; hosting entities [%d, %d) of %d",
		m.Name(), hdr.Config.Dim, hdr.Dataset, info.Path, lo, hi, ents)

	reg := obs.NewRegistry()
	status := ckpt.NewStatus()
	status.SetLoaded(info.Path, hdr.Dataset, hdr.Seed, info.Step, m.EntityVersion())
	status.Register(reg)

	ranker, err := m.NewRangeRanker(lo, hi, shard.Options{Shards: *shards, Metrics: reg})
	if err != nil {
		log.Fatal(err)
	}

	node, err := cluster.NewNode(cluster.NodeConfig{
		Engine:    ranker.Engine(),
		Params:    m.ShardParams(),
		Metrics:   reg,
		Ckpt:      status,
		ModelName: m.Name(),
		Entities:  ds.Train.Entities,
		Relations: ds.Train.Relations,
		Graph:     ds.Test,
		Embed: func(n *query.Node) []cluster.ArcSpec {
			arcs := m.EmbedQueryLocked(n)
			specs := make([]cluster.ArcSpec, len(arcs))
			for i, a := range arcs {
				specs[i] = cluster.ArcSpec{C: a.C, L: a.L, Hot: a.Hot}
			}
			return specs
		},
		DefaultTimeout: *timeout,
		MaxK:           *maxK,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *pprofAt != "" {
		dbg, bound, err := obs.ServeDebug(*pprofAt, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer dbg.Close()
		log.Printf("debug server on %s (/debug/pprof/, /metrics)", bound)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *ckptWatch > 0 {
		go m.WatchCheckpoint(ctx, *ckptPath, *ckptWatch, info, status, func() {
			if err := ranker.Refresh(); err != nil {
				log.Printf("ckpt-watch: snapshot refresh: %v", err)
			}
		}, log.Printf)
		log.Printf("checkpoint watcher polling %s every %v", *ckptPath, *ckptWatch)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           node.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("scan node on %s ([%d, %d), %d local shards, timeout %v)", *addr, lo, hi, *shards, *timeout)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		log.Print("signal received; failing readiness")
	case <-node.DrainC():
		log.Print("drain requested over POST /v1/drain; failing readiness")
	}

	// Coordinated drain: fail readiness FIRST — /v1/healthz answers 503
	// "draining" while /v1/scan keeps serving — and give routers a grace
	// period to observe it and stop routing new work here. Only then stop
	// accepting connections and wait out the in-flight scans.
	node.Drain()
	if *drainGrace > 0 {
		log.Printf("draining: readiness failed, waiting %v for routers to divert", *drainGrace)
		select {
		case <-time.After(*drainGrace):
		case err := <-errc:
			log.Fatal(err)
		}
	}
	log.Printf("draining in-flight requests for up to %v", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	node.Close()
	log.Print("drained; bye")
}
