package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"github.com/halk-kg/halk/internal/cluster"
	"github.com/halk-kg/halk/internal/halk"
	"github.com/halk-kg/halk/internal/ingest"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/obs"
	"github.com/halk-kg/halk/internal/query"
	"github.com/halk-kg/halk/internal/serve"
	"github.com/halk-kg/halk/internal/shard"
)

// stack is one workload's serving system, wired in-process the way
// cmd/halk-serve and cmd/halk-shard wire it and listening on real
// loopback TCP.
type stack struct {
	ds     *kg.Dataset
	m      *halk.Model
	srv    *serve.Server
	front  *listener
	url    string
	ranker *halk.ShardedRanker // shards > 0
	router *cluster.Router     // cluster mode
	nodes  []*scanNode
	ing    *ingest.Ingester
	walDir string
	stop   context.CancelFunc // ends the router's health loop
	closed sync.Once
}

// listener is an http.Server on a loopback port.
type listener struct {
	hs   *http.Server
	done chan struct{}
	addr string
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
		addr: ln.Addr().String(),
	}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // returns ErrServerClosed after close
	}()
	return l, nil
}

// close stops accepting, waits for in-flight requests and for the serve
// goroutine to exit.
func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.hs.Shutdown(ctx); err != nil {
		_ = l.hs.Close()
	}
	<-l.done
}

// scanNode is one loopback halk-shard: a range ranker behind cluster.Node.
type scanNode struct {
	ranker *halk.RangeRanker
	node   *cluster.Node
	front  *listener
}

func embedSpecs(m *halk.Model) func(*query.Node) []cluster.ArcSpec {
	return func(n *query.Node) []cluster.ArcSpec {
		arcs := m.EmbedQueryLocked(n)
		specs := make([]cluster.ArcSpec, len(arcs))
		for i, a := range arcs {
			specs[i] = cluster.ArcSpec{C: a.C, L: a.L, Hot: a.Hot}
		}
		return specs
	}
}

var quiet = log.New(io.Discard, "", 0)

const (
	clusterRanges   = 2
	clusterReplicas = 2
)

// systemSeed seeds everything that is part of the system rather than of
// its input: the synthetic table, the model's initial parameters, the
// fine-tune sampler and the router's replica choice. Only the request
// stream follows -seed, so runs on different seeds measure the same
// system on different queries.
const systemSeed = 1

// startStack builds the table and the serving system for w, and returns
// once GET /v1/healthz answers 200; the elapsed time is one setup_s
// sample. The model is untrained: timings do not depend on training and
// the oracle is byte-identity with the scalar reference, not MRR, so the
// uniform random angles halk.New draws are enough. tmp is where an ingest
// WAL may live.
func startStack(w workload, p profile, tmp string) (_ *stack, setup time.Duration, err error) {
	begin := time.Now()
	ds := synthDataset(p, w.Large)
	ents := ds.Train.NumEntities()
	m := halk.New(ds.Train, halk.DefaultConfig(systemSeed))
	s := &stack{ds: ds, m: m}
	defer func() {
		if err != nil {
			s.close()
		}
	}()

	reg := obs.NewRegistry()
	cfg := serve.Config{
		Model:     m,
		Entities:  ds.Train.Entities,
		Relations: ds.Train.Relations,
		Graph:     ds.Test,
		CacheSize: -1,
		DefaultK:  answerK,
		Metrics:   reg,
		SlowLog:   quiet,
		PanicLog:  quiet,
	}
	if w.Cache {
		cfg.CacheSize = serve.DefaultCacheSize
	}

	switch {
	case w.Cluster:
		ranges := make([][]string, clusterRanges)
		for i := range ranges {
			lo, hi := cluster.Partition(ents, clusterRanges, i)
			for j := 0; j < clusterReplicas; j++ {
				sn := &scanNode{}
				s.nodes = append(s.nodes, sn)
				if sn.ranker, err = m.NewRangeRanker(lo, hi, shard.Options{Shards: 1, PanicLog: quiet}); err != nil {
					return nil, 0, err
				}
				sn.node, err = cluster.NewNode(cluster.NodeConfig{
					Engine:    sn.ranker.Engine(),
					Params:    m.ShardParams(),
					ModelName: m.Name(),
					Entities:  ds.Train.Entities,
					Relations: ds.Train.Relations,
					Graph:     ds.Test,
					Embed:     embedSpecs(m),
					PanicLog:  quiet,
				})
				if err != nil {
					return nil, 0, err
				}
				if sn.front, err = listen(sn.node.Handler()); err != nil {
					return nil, 0, err
				}
				ranges[i] = append(ranges[i], sn.front.addr)
			}
		}
		// Router flags at `halk-serve -cluster` defaults; only the p2c seed
		// is pinned, so replica choice repeats.
		rcfg := cluster.Config{
			Ranges:      ranges,
			Embed:       embedSpecs(m),
			ScanTimeout: 2 * time.Second,
			HealthEvery: 2 * time.Second,
			Metrics:     reg,
			Seed:        systemSeed,
		}
		ps := query.NewSampler(ds.Test, rand.New(rand.NewSource(1)))
		for _, kind := range []string{"2p", "1p", "2i"} {
			if q, ok := ps.Sample(kind); ok {
				rcfg.Probe = func() []cluster.ArcSpec { return rcfg.Embed(q) }
				break
			}
		}
		if s.router, err = cluster.NewRouter(rcfg); err != nil {
			return nil, 0, err
		}
		cfg.Ranker = s.router
	case w.Shards > 0:
		if s.ranker, err = m.NewShardedRanker(shard.Options{Shards: w.Shards, Metrics: reg, PanicLog: quiet}); err != nil {
			return nil, 0, err
		}
		cfg.Ranker = s.ranker
	}

	if w.Ingest {
		if s.walDir, err = os.MkdirTemp(tmp, "wal-"); err != nil {
			return nil, 0, err
		}
		wal, err := ingest.OpenWAL(s.walDir)
		if err != nil {
			return nil, 0, err
		}
		s.ing, err = ingest.New(ingest.Config{
			Model:    m,
			WAL:      wal,
			FineTune: halk.FineTuneConfig{Seed: systemSeed},
			Metrics:  reg,
			Logf:     quiet.Printf,
			Publish:  s.ranker.RefreshDirty,
		})
		if err != nil {
			return nil, 0, err
		}
		cfg.Edges = s.ing
	}

	if s.srv, err = serve.New(cfg); err != nil {
		return nil, 0, err
	}
	if s.ing != nil {
		s.ing.Start()
	}
	if s.router != nil {
		ctx, cancel := context.WithCancel(context.Background())
		s.stop = cancel
		hctx, hcancel := context.WithTimeout(ctx, 5*time.Second)
		up := s.router.CheckHealth(hctx)
		hcancel()
		if up != clusterRanges*clusterReplicas {
			return nil, 0, fmt.Errorf("cluster: %d/%d replicas up", up, clusterRanges*clusterReplicas)
		}
		s.router.Start(ctx)
	}
	if s.front, err = listen(s.srv.Handler()); err != nil {
		return nil, 0, err
	}
	s.url = "http://" + s.front.addr

	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		resp, gerr := http.Get(s.url + "/v1/healthz")
		if gerr == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return nil, 0, fmt.Errorf("healthz not ready: %v", gerr)
		}
	}
	return s, time.Since(begin), nil
}

// close tears the system down front to back and waits for every
// goroutine it started. Later calls do nothing.
func (s *stack) close() { s.closed.Do(s.teardown) }

func (s *stack) teardown() {
	if s.front != nil {
		s.front.close()
	}
	if s.ing != nil {
		s.ing.Close()
	}
	if s.stop != nil {
		s.stop()
	}
	if s.srv != nil {
		s.srv.Close() // also closes the configured ranker
	} else {
		if s.ranker != nil {
			s.ranker.Close()
		}
		if s.router != nil {
			s.router.Close()
		}
	}
	for _, sn := range s.nodes {
		if sn.front != nil {
			sn.front.close()
		}
		if sn.ranker != nil {
			sn.ranker.Close() // closes the engine the node serves from
		}
	}
	if s.walDir != "" {
		_ = os.RemoveAll(s.walDir)
	}
	http.DefaultClient.CloseIdleConnections()
}
