// Package cluster implements multi-node HaLk serving: the entity table
// is partitioned into contiguous ranges, each hosted by a halk-shard
// process behind a small HTTP/JSON scan API, and a router (halk-serve
// -cluster) scatter-gathers queries across the nodes exactly like the
// in-process shard engine scatter-gathers across goroutines.
//
// The subsystem deliberately reuses the shard-shaped resilience
// machinery built for the in-process engine: each remote node is one
// "shard slot" guarded by a resil.Breaker, scanned under a per-remote
// deadline derived from the gather budget, hedged after the observed
// p99, and skipped into a partial result when it is down — so a dead
// node degrades a response instead of failing it, with the same
// never-cache-partials invariant the single-process path enforces.
//
// Exactness: the router ships the embedded query's raw arc parameters
// (center angles, arclengths, group hot vector) and each node prepares
// and scores them with shard.PrepareArc under the same constants,
// byte-for-byte the computation the single-process engine runs; the
// k-way merge uses the same (distance, ID) ordering. A loopback
// topology therefore returns byte-identical top-K lists to one
// in-process engine over the same checkpoint.
package cluster

import (
	"github.com/halk-kg/halk/internal/halk"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/serve"
)

// ArcSpec is one DNF-disjunct arc of an embedded query on the wire: the
// per-dimension center angles and arclengths of Eq. 4/10 plus the group
// multi-hot vector of Eq. 17, sent as {"c", "l", "hot"}. The router
// ships raw angles rather than prepared trig tables — ~6× smaller, and
// encoding/json round-trips float64 exactly, so node-side
// shard.PrepareArc reproduces the router-side preparation bit for bit.
type ArcSpec = halk.ValueArc

// ScanRequest is the POST /v1/scan body: score the hosted entity range
// against the arcs and return the local top K.
type ScanRequest struct {
	Arcs []ArcSpec `json:"arcs"`
	K    int       `json:"k"`
	// Bound, when positive, is the router's current global pruning
	// bound — an upper bound on the global k-th best distance (some
	// node's already-returned k-th best). The node seeds its shared
	// CAS-min prune bound with it (shard.Engine.TopKBound), skipping
	// entities that provably cannot enter the global top-K. Hedge and
	// retry scans benefit most: they launch after siblings have
	// answered. Zero or absent means no bound.
	Bound float64 `json:"bound,omitempty"`
	// TimeoutMS bounds the node-side scan even if the client connection
	// lingers; the router derives it from the remaining gather budget.
	// Zero means the node's default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// ScanResponse is the /v1/scan reply: the hosted range's local top-K,
// ascending by (distance, entity ID). IDs are global (the node's engine
// snapshot is built with Source.Base), so router-side merging needs no
// translation.
type ScanResponse struct {
	IDs   []kg.EntityID `json:"ids"`
	Dists []float64     `json:"dists"`
	// Partial marks a node-side degraded scan: one of the node's local
	// sub-shards missed its deadline, so entities are missing and the
	// router must mark — and never cache — the merged answer.
	Partial bool `json:"partial,omitempty"`
	// Version is the snapshot version the scan ran on; Lo/Hi is the
	// hosted entity range [Lo, Hi).
	Version uint64 `json:"version"`
	Lo      int    `json:"lo"`
	Hi      int    `json:"hi"`
	// Queue is the node's concurrent-scan depth at answer time,
	// excluding this scan — the router folds it into queue-depth-weighted
	// primary selection, so a backed-up replica sheds new primaries
	// without waiting for its latency EWMA to notice.
	Queue int `json:"queue_depth,omitempty"`
}

// Health is the /v1/healthz readiness report of a shard node:
// halk-serve's report plus the hosted range [Lo, Hi) and the queue
// depth, so one prober reads both. The router polls it for node
// discovery, liveness, and checkpoint-rollout version skew.
//
// Status is "ok" while serving and "draining" once the node has begun a
// coordinated shutdown (POST /v1/drain or SIGTERM): a draining node
// answers /v1/healthz with HTTP 503 — so load balancers fail it out of
// rotation — but keeps this full report in the body and keeps serving
// /v1/scan, so the router can finish in-flight work and route new
// gathers elsewhere before the process exits.
type Health struct {
	serve.Health
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Queue is the node's concurrent-scan depth at report time; the
	// router's queue-depth-weighted balancing reads it between scans.
	Queue int `json:"queue_depth,omitempty"`
}

// HealthDraining is the Health.Status of a node in coordinated drain.
const HealthDraining = "draining"

// Partition splits ents entities into nodes contiguous ranges and
// returns node i's [lo, hi) — the remainder-first formula the
// in-process engine uses for sub-sharding, so an n-node topology of
// single-shard nodes hosts exactly the ranges a single-process n-shard
// engine scans.
func Partition(ents, nodes, i int) (lo, hi int) {
	per, rem := ents/nodes, ents%nodes
	lo = i * per
	if i < rem {
		lo += i
	} else {
		lo += rem
	}
	hi = lo + per
	if i < rem {
		hi++
	}
	return lo, hi
}
