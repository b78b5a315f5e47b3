// Command halk-serve answers logical queries over HTTP from a trained
// HaLk checkpoint: the checkpoint is loaded once and served until
// SIGTERM, which is the paper's online answer-identification phase
// (Sec. III-H) run as a long-lived service rather than one CLI
// invocation per query.
//
// Usage:
//
//	halk-serve -ckpt nell.ckpt -addr :8080
//
// -ckpt accepts a checkpoint file or a rotation directory written by
// halk-train -ckpt-dir; a directory resolves to its newest verified
// entry. With -ckpt-watch the path is polled and newer checkpoints are
// hot-reloaded into the running server: verified first, published as a
// new serving view, sharded snapshot rebuilt. A corrupt
// or mismatched candidate is rejected — the server keeps answering
// from the previous parameters and counts the failure on
// halk_ckpt_reload_failures_total.
//
// -ingest-dir enables the live-edge write path (POST /v1/edges): batches
// are WAL-logged under that directory, fine-tuned into the model in the
// background, and published as delta snapshots. Every persistEvery
// applied segments the fine-tuned state is checkpointed to
// <ingest-dir>/state.ckpt so the WAL can prune; on restart that state
// supersedes -ckpt (clear the directory to re-base). -ingest-dir
// excludes -cluster (the router does not own the embeddings) and
// -ckpt-watch (a hot-reload would discard fine-tuned state).
//
// Endpoints:
//
//	POST /v1/query   {"sparql"|"query"|"structure": ..., "k": 10,
//	                  "timeout_ms": 2000}
//	GET  /v1/healthz liveness + model identity
//	GET  /v1/stats   request/latency/cache/checkpoint metrics
//	POST /v1/topology/join   router mode: {"range": N, "node": "host:port"}
//	                  adds a replica in probation (202; admitted after the
//	                  identity probe passes)
//	POST /v1/topology/leave  router mode: {"node": "host:port"} removes a
//	                  replica from the failover pool
//
// In router mode the replica topology is live: besides the join/leave
// endpoints, SIGHUP re-reads -cluster-file and applies the diff, with
// range boundaries fixed — only replica-set membership changes.
//
// Example session:
//
//	halk-serve -ckpt halk.ckpt &
//	curl -s localhost:8080/v1/query -d '{"query": "p[r003](e0007)", "k": 5}'
//	curl -s localhost:8080/v1/stats
//
// On SIGINT/SIGTERM the listener stops accepting requests, in-flight
// queries drain (bounded by -drain), and the process exits cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/halk-kg/halk/internal/ckpt"
	"github.com/halk-kg/halk/internal/cluster"
	"github.com/halk-kg/halk/internal/halk"
	"github.com/halk-kg/halk/internal/ingest"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/obs"
	"github.com/halk-kg/halk/internal/query"
	"github.com/halk-kg/halk/internal/resil"
	"github.com/halk-kg/halk/internal/serve"
	"github.com/halk-kg/halk/internal/shard"
)

// persistEvery is how many applied WAL segments pass between durable
// state checkpoints (<ingest-dir>/state.ckpt); each one advances the WAL
// cursor and prunes the segments it covers.
const persistEvery = 64

func main() {
	log.SetFlags(0)
	log.SetPrefix("halk-serve: ")

	var (
		ckptPath = flag.String("ckpt", "halk.ckpt", "checkpoint file, or rotation directory written by halk-train -ckpt-dir (serves its newest entry)")
		addr     = flag.String("addr", ":8080", "listen address")
		cache    = flag.Int("cache", serve.DefaultCacheSize, "answer-cache capacity in entries (negative disables)")
		maxK     = flag.Int("maxk", 1000, "cap on per-request k")
		maxBatch = flag.Int("max-batch", serve.DefaultMaxBatch, "cap on the query count of one POST /v1/batch request")
		timeout  = flag.Duration("timeout", 10*time.Second, "default per-request deadline")
		shards   = flag.Int("shards", 0, "shard the entity table and serve exact queries through the scatter-gather engine (0 = single-threaded full scan)")
		shardTO  = flag.Duration("shard-timeout", 0, "per-shard scan deadline; missed shards degrade the response to a partial result (0 = none)")
		drain    = flag.Duration("drain", 15*time.Second, "shutdown drain budget for in-flight requests")
		pprofAt  = flag.String("pprof-addr", "", "separate debug listen address exposing /debug/pprof/ and /metrics (empty disables)")
		slowQ    = flag.Duration("slow-query", 0, "log queries slower than this with their per-stage trace (0 disables)")

		hedge        = flag.Duration("hedge-delay", 0, "hedged-scan delay floor: a shard (or, in router mode, replica) scan not back after max(this, its p99 scan latency) is raced by a hedge and the first answer wins (0 disables; requires -shards or -cluster)")
		breaker      = flag.Bool("breaker", false, "guard each shard (or, in router mode, each replica) with a circuit breaker: one that keeps failing is skipped up front until a half-open probe succeeds (requires -shards or -cluster)")
		clusterList  = flag.String("cluster", "", "router mode: comma-separated entity ranges, each a '|'-separated replica set of halk-shard addresses (e.g. \"a:9001|b:9001,a:9002|b:9002\"); exact queries scatter-gather across the ranges and fail over within each replica set")
		clusterFile  = flag.String("cluster-file", "", "router mode: topology file with one entity range per line, the line's whitespace- or '|'-separated addresses being that range's replicas (# comments); SIGHUP re-reads it and applies membership changes to the running router")
		remoteTO     = flag.Duration("remote-timeout", 2*time.Second, "per-attempt replica scan deadline in router mode; a replica that misses it fails over to its next sibling, and a range whose whole replica set is exhausted degrades the response to a partial result (0 = request deadline only)")
		maxQueueWait = flag.Duration("max-queue-wait", 0, "admission control: shed requests with 429 when the expected wait for a ranking slot exceeds min(this, the request deadline) (0 disables)")
		ckptWatch    = flag.Duration("ckpt-watch", 0, "poll the -ckpt path this often and hot-reload newer checkpoints into the running server (0 disables)")

		ingestDir     = flag.String("ingest-dir", "", "enable POST /v1/edges with this write-ahead-log directory: accepted edge batches are logged there (replayed on startup; it also holds the persisted state checkpoint), fine-tuned into the model in the background, and published as delta snapshots (empty disables)")
		ingestArchive = flag.String("ingest-archive", "", "move the dead WAL segments the startup compaction finds to this directory instead of deleting them (empty = delete)")
	)
	flag.Parse()

	ingestOn := *ingestDir != ""
	if ingestOn && *ckptWatch > 0 {
		// A hot-reload would swap fine-tuned embeddings for the new
		// checkpoint's while the ingest WAL still claims its edges are
		// applied. Re-base instead: stop the server, clear (or re-point)
		// -ingest-dir, restart on the new checkpoint.
		log.Fatal("-ingest-dir and -ckpt-watch are mutually exclusive: a hot-reload would discard fine-tuned state the WAL counts as applied; restart the server to serve a new checkpoint")
	}

	var (
		ds        *kg.Dataset
		m         *halk.Model
		info      halk.FileInfo
		baseDelta []ingest.Record
	)

	// A persisted ingest state supersedes -ckpt: WAL segments folded into
	// it were pruned, so re-basing on the raw checkpoint would silently
	// lose their acknowledged edges. It must load — falling back to -ckpt
	// on a corrupt state file would lose them just as silently.
	statePath := ingest.StatePath(*ingestDir)
	if ingestOn {
		if _, serr := os.Stat(statePath); serr == nil {
			var hdr halk.CheckpointHeader
			var err error
			m, hdr, baseDelta, err = ingest.LoadState(statePath, halk.SynthLookup(&ds))
			if err != nil {
				log.Fatalf("ingest: persisted state %s: %v (the WAL was pruned against this state; refusing to fall back to -ckpt, which would lose acknowledged edges — restore the file or discard %s to re-base)", statePath, err, *ingestDir)
			}
			info = halk.FileInfo{Path: statePath, Header: hdr, Step: -1}
			log.Printf("ingest: resumed from persisted state %s (%d net delta edges); -ckpt is superseded until %s is cleared", statePath, len(baseDelta), *ingestDir)
		}
	}
	if m == nil {
		var err error
		m, ds, info, err = halk.LoadServing(context.Background(), *ckptPath, log.Printf)
		if err != nil {
			log.Fatalf("checkpoint load failed: %v", err)
		}
	}
	hdr := info.Header
	log.Printf("loaded %s model (d=%d) trained on %s from %s: %d entities, %d relations",
		m.Name(), hdr.Config.Dim, hdr.Dataset, info.Path, ds.Train.NumEntities(), ds.Train.NumRelations())

	// One registry backs /metrics on the serving mux, /v1/stats, the
	// shard engine's per-shard counters, and the -pprof-addr debug mux.
	reg := obs.NewRegistry()

	// status tracks the served checkpoint's freshness; it feeds the
	// "checkpoint" section of /v1/stats and the halk_ckpt_* gauges.
	// SetLoaded runs before Register so the halk_ckpt_loaded_info
	// identity labels are known at registration time.
	status := ckpt.NewStatus()
	status.SetLoaded(info.Path, hdr.Dataset, hdr.Seed, info.Step, m.EntityVersion())
	status.Register(reg)

	cfg := serve.Config{
		Model:          m,
		Entities:       ds.Train.Entities,
		Relations:      ds.Train.Relations,
		Graph:          ds.Test,
		CacheSize:      *cache,
		MaxK:           *maxK,
		MaxBatch:       *maxBatch,
		DefaultTimeout: *timeout,
		Metrics:        reg,
		SlowQuery:      *slowQ,
		MaxQueueWait:   *maxQueueWait,
		Ckpt:           status,
	}
	if *maxQueueWait > 0 {
		log.Printf("admission control enabled: shedding at expected queue wait > %v", *maxQueueWait)
	}
	topology, err := cluster.ParseTopology(*clusterList, *clusterFile)
	if err != nil {
		log.Fatal(err)
	}
	if len(topology) > 0 && *shards > 0 {
		log.Fatal("-cluster/-cluster-file and -shards are mutually exclusive: exact queries are ranked either by remote nodes or by a local engine")
	}
	// Window, trip thresholds and cool-down are resil.BreakerConfig's
	// defaults; only the jitter seed is per process.
	var brkCfg *resil.BreakerConfig
	if *breaker {
		brkCfg = &resil.BreakerConfig{Seed: time.Now().UnixNano()}
	}
	var ranker *halk.ShardedRanker
	var router *cluster.Router
	switch {
	case len(topology) > 0:
		// Router mode: the local checkpoint embeds queries; ranking
		// scatter-gathers across the entity ranges, failing over within
		// each range's replica set. The -hedge-delay and -breaker flags
		// apply per replica instead of per local shard.
		rcfg := cluster.Config{
			Ranges:      topology,
			Embed:       m.EmbedQuery,
			ScanTimeout: *remoteTO,
			HedgeDelay:  *hedge,
			Breaker:     brkCfg,
			Metrics:     reg,
			Logf:        log.Printf,
		}
		// Identity-probe query: a deterministic sample from the test
		// split, embedded on demand so probes reflect the served
		// parameters. Joining replicas must answer it byte-identically to
		// an active sibling before they enter the failover pool. Without
		// one NewRouter refuses the topology.
		ps := query.NewSampler(ds.Test, rand.New(rand.NewSource(1)))
		for _, kind := range []string{"2p", "1p", "2i"} {
			if q, ok := ps.Sample(kind); ok {
				rcfg.Probe = func() []cluster.ArcSpec { return m.EmbedQuery(q) }
				break
			}
		}
		router, err = cluster.NewRouter(rcfg)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Ranker = router
		replicas := 0
		for _, reps := range topology {
			replicas += len(reps)
		}
		log.Printf("cluster router built: %d ranges, %d replicas, remote timeout %v, hedge delay %v, breakers %v",
			len(topology), replicas, *remoteTO, *hedge, *breaker)
	case *shards > 0:
		opts := shard.Options{
			Shards:       *shards,
			ShardTimeout: *shardTO,
			Metrics:      reg,
			HedgeDelay:   *hedge,
			Breaker:      brkCfg,
		}
		ranker, err = m.NewShardedRanker(opts)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Ranker = ranker
		log.Printf("sharded ranking engine built: %d shards, shard timeout %v, hedge delay %v, breakers %v",
			ranker.NumShards(), *shardTO, *hedge, *breaker)
	default:
		if *hedge > 0 || *breaker {
			log.Fatal("-hedge-delay and -breaker require -shards > 0 or -cluster")
		}
	}

	// Live-edge ingest: POST /v1/edges batches are WAL-logged, fine-tuned
	// into the local model by a background drainer, and published as
	// delta snapshots through the same swap machinery hot-reload uses.
	var ing *ingest.Ingester
	if ingestOn {
		if len(topology) > 0 {
			log.Fatal("-ingest-dir requires the local model to own the embeddings; it is incompatible with -cluster router mode")
		}
		wal, err := ingest.OpenWAL(*ingestDir)
		if err != nil {
			log.Fatal(err)
		}
		if q := wal.Quarantined(); q > 0 {
			log.Printf("ingest: quarantined %d corrupt WAL file(s) in %s (renamed *.bad)", q, *ingestDir)
		}
		// Sweep segments wholly below the durable APPLIED cursor that
		// earlier pruning left behind (a crash between cursor write and
		// prune, restored files). Pending segments, *.bad quarantines and
		// the cursor file are never touched.
		n, err := wal.Compact(*ingestArchive)
		if err != nil {
			log.Fatalf("ingest: WAL compaction: %v", err)
		}
		if n > 0 {
			disposed := "removed"
			if *ingestArchive != "" {
				disposed = "archived to " + *ingestArchive
			}
			log.Printf("ingest: compacted %d dead WAL segment(s) below cursor %d (%s)", n, wal.AppliedSeq(), disposed)
		}
		ing, err = ingest.New(ingest.Config{
			Model:     m,
			WAL:       wal,
			FineTune:  halk.FineTuneConfig{Seed: hdr.Seed},
			Metrics:   reg,
			Logf:      log.Printf,
			BaseDelta: baseDelta,
			// Persist cuts a durable state checkpoint (embeddings + net
			// graph delta) so the WAL cursor can advance and covered
			// segments prune — without it the log and startup replay grow
			// without bound. Runs on the drain goroutine, the sole mutator
			// of both the parameters and the delta ledger.
			PersistEvery: persistEvery,
			Persist: func() error {
				return ingest.SaveState(statePath, m, hdr.Dataset, hdr.Seed, ing.GraphDelta())
			},
			// Publish pushes the fine-tuned rows into whatever the exact
			// path answers from: the sharded engine rebuilds only the
			// shards owning dirty entities. The unsharded full scan reads
			// the live table and needs nothing.
			Publish: func(dirty []kg.EntityID) error {
				if ranker != nil {
					return ranker.RefreshDirty(dirty)
				}
				return nil
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		cfg.Edges = ing
	}
	srv, err := serve.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if ing != nil {
		// Catch up on edges logged before the last shutdown (or crash)
		// synchronously, so the first served answer already reflects every
		// durably accepted write, then launch the background drainer.
		if n := ing.Stats().PendingSegments; n > 0 {
			log.Printf("ingest: replaying %d pending WAL segment(s) from %s", n, *ingestDir)
		}
		if err := ing.Replay(); err != nil {
			log.Fatalf("ingest: WAL replay: %v", err)
		}
		ing.Start()
		log.Printf("ingest enabled: POST /v1/edges (wal=%s, persist every %d segments)", *ingestDir, persistEvery)
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

	if router != nil {
		// One synchronous sweep before serving so the quorum version (and
		// with it the cache namespace) is populated from the live topology,
		// then the periodic health loop.
		hctx, hcancel := context.WithTimeout(ctx, 5*time.Second)
		up := router.CheckHealth(hctx)
		hcancel()
		total := 0
		for _, reps := range topology {
			total += len(reps)
		}
		log.Printf("cluster health: %d/%d replicas up across %d ranges, serving entity version %d",
			up, total, len(topology), router.SnapshotVersion())
		router.Start(ctx)
	}

	// Live membership from the topology file: SIGHUP reloads it. A reload
	// diffs the file against the running topology — new replicas join in
	// probation, removed ones leave, the range count must not change —
	// and a malformed file is rejected whole, keeping the current
	// topology.
	if router != nil && *clusterFile != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			defer signal.Stop(hup)
			for {
				select {
				case <-ctx.Done():
					return
				case <-hup:
				}
				top, err := cluster.ParseTopology("", *clusterFile)
				if err == nil {
					err = router.SetTopology(top)
				}
				if err != nil {
					log.Printf("cluster-reload: %v — keeping current topology", err)
					continue
				}
				log.Printf("cluster-reload: topology v%d applied from %s", router.TopologyVersion(), *clusterFile)
			}
		}()
		log.Printf("SIGHUP reloads cluster topology from %s", *clusterFile)
	}

	if *ckptWatch > 0 {
		go m.WatchCheckpoint(ctx, *ckptPath, *ckptWatch, info, status, func() {
			if ranker != nil {
				if err := ranker.Refresh(); err != nil {
					log.Printf("ckpt-watch: shard snapshot refresh: %v", err)
				}
			}
		}, log.Printf)
		log.Printf("checkpoint watcher polling %s every %v", *ckptPath, *ckptWatch)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("serving on %s (workers=%d, cache=%d, timeout=%v)", *addr, srv.Workers(), *cache, *timeout)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	log.Printf("signal received; draining for up to %v", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	if ing != nil {
		// Drain the ingest loop after the listener stops admitting writes:
		// Close applies what it can, and anything still pending is durable
		// in the WAL and replayed on the next start.
		ing.Close()
	}
	srv.Close()
	log.Print("drained; bye")
}
