package main

import (
	"time"

	"github.com/halk-kg/halk/internal/query"
)

// metric names one reported number. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics carry none.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the numbers a caller of the serving stack sees. Failures
// are reported beside them as attempted/failed counts (fail_share in the
// printed table): a metric that must stay 0 cannot carry a relative
// bound.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"qps", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p99_ms", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KB", "lower", 0.08},
	{"heap_mb", "MB", "lower", 0.05},
}

// perLayer are the single-layer numbers of the traced run, in the order
// the README's layer → end-to-end map discusses them. A layer that is not
// on a workload's request path reports 0 there.
var perLayer = []metric{
	{Name: "query.parse_us", Unit: "us", Better: "lower"},
	{Name: "query.canonical_us", Unit: "us", Better: "lower"},
	{Name: "query.dnf_disjuncts", Unit: "count", Better: "lower"},

	{Name: "halk.embed_us", Unit: "us", Better: "lower"},
	{Name: "halk.embed_alloc_kb", Unit: "KB", Better: "lower"},
	{Name: "halk.embed_allocs", Unit: "count", Better: "lower"},
	{Name: "halk.embed_us.proj", Unit: "us", Better: "lower"},
	{Name: "halk.embed_us.inter", Unit: "us", Better: "lower"},
	{Name: "halk.embed_us.union", Unit: "us", Better: "lower"},
	{Name: "halk.embed_us.diff", Unit: "us", Better: "lower"},
	{Name: "halk.embed_us.neg", Unit: "us", Better: "lower"},
	{Name: "halk.embed_us.large", Unit: "us", Better: "lower"},
	{Name: "halk.fullscan_us", Unit: "us", Better: "lower"},
	{Name: "halk.rank_us", Unit: "us", Better: "lower"},
	{Name: "halk.finetune_ms", Unit: "ms", Better: "lower"},
	{Name: "halk.publish_ms", Unit: "ms", Better: "lower"},

	{Name: "shard.prepare_us", Unit: "us", Better: "lower"},
	{Name: "shard.scan_us", Unit: "us", Better: "lower"},
	{Name: "shard.scan_alloc_kb", Unit: "KB", Better: "lower"},
	{Name: "shard.scan_allocs", Unit: "count", Better: "lower"},
	{Name: "shard.scan_ns_per_entity", Unit: "ns", Better: "lower"},
	{Name: "shard.env_skip_share", Unit: "share", Better: "higher"},
	{Name: "shard.rescore_share", Unit: "share", Better: "lower"},
	{Name: "shard.scalar_us", Unit: "us", Better: "lower"},
	{Name: "shard.kernel_speedup", Unit: "x", Better: "higher"},
	{Name: "shard.batch_us_per_query", Unit: "us", Better: "lower"},
	{Name: "shard.batch_speedup", Unit: "x", Better: "higher"},
	{Name: "shard.swap_full_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.swap_delta_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.skips", Unit: "count", Better: "lower"},
	{Name: "shard.hedges", Unit: "count", Better: "lower"},

	{Name: "serve.handler_us", Unit: "us", Better: "lower"},
	{Name: "serve.self_us", Unit: "us", Better: "lower"},
	{Name: "serve.cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "serve.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "serve.queue_wait_us", Unit: "us", Better: "lower"},
	{Name: "serve.encode_us", Unit: "us", Better: "lower"},
	{Name: "serve.trace_sum_share", Unit: "share", Better: "higher"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},
	{Name: "serve.partials", Unit: "count", Better: "lower"},

	{Name: "net.rtt_overhead_us", Unit: "us", Better: "lower"},
	{Name: "net.req_bytes", Unit: "B", Better: "lower"},
	{Name: "net.resp_bytes", Unit: "B", Better: "lower"},

	{Name: "cluster.router_us", Unit: "us", Better: "lower"},
	{Name: "cluster.scan_rtt_us", Unit: "us", Better: "lower"},
	{Name: "cluster.node_scan_us", Unit: "us", Better: "lower"},
	{Name: "cluster.wire_us", Unit: "us", Better: "lower"},
	{Name: "cluster.gather_self_us", Unit: "us", Better: "lower"},
	{Name: "cluster.scan_req_bytes", Unit: "B", Better: "lower"},
	{Name: "cluster.scan_resp_bytes", Unit: "B", Better: "lower"},
	{Name: "cluster.hedges", Unit: "count", Better: "lower"},
	{Name: "cluster.failovers", Unit: "count", Better: "lower"},
	{Name: "cluster.primary_flips", Unit: "count", Better: "lower"},

	{Name: "ingest.write_ack_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.visible_lag_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.applied_edges", Unit: "count", Better: "higher"},
	{Name: "ingest.publishes", Unit: "count", Better: "lower"},
	{Name: "ingest.finetune_steps", Unit: "count", Better: "lower"},
	{Name: "ingest.writer_late_ms", Unit: "ms", Better: "lower"},

	{Name: "proc.gc_cycles_per_s", Unit: "1/s", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.cpu_ms_per_op", Unit: "ms", Better: "lower"},

	{Name: "client.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.traced_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.single_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.fail_share", Unit: "share", Better: "lower"},
	{Name: "trace_overhead_share", Unit: "share", Better: "lower"},
	{Name: "layer_sum_share", Unit: "share", Better: "higher"},
}

// workload is one traffic mix and the serving configuration it drives.
// The names are fixed: later issues cite them.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	Large      bool     // 20k-entity table instead of the 900-entity FB15k stand-in
	Structures []string // query structures, drawn uniformly
	Zipf       bool     // requests drawn Zipf(1.1) from the pool instead of cycling through it
	Cache      bool     // default 1024-entry answer cache on
	Shards     int      // in-process shard engine width; 0 = unsharded full scan
	Cluster    bool     // cluster.Router over 2 ranges x 2 replicas of loopback nodes
	Ingest     bool     // paced POST /v1/edges writer beside the readers
	Clients    int      // closed-loop readers, one keep-alive connection each
	Batch      int      // queries per POST /v1/batch; 0 = POST /v1/query
}

var (
	allStructures = append(append(append([]string(nil),
		query.EPFOStructures...), query.NegationStructures...), query.LargeStructures...)
	shallowStructures = []string{"1p", "2i", "2u"}
)

var workloads = []workload{
	{Name: "embed_mix", Why: "small table, all 22 structures, cache off, unsharded: embed dominates and the scan is tiny",
		Structures: allStructures, Clients: 2},
	{Name: "scan_wide", Why: "20k-entity table, shallow 1p/2i/2u, cache off, shards=2, 1 client: the blocked scan dominates",
		Large: true, Structures: shallowStructures, Shards: 2, Clients: 1},
	{Name: "batch_scan", Why: "scan_wide's pool sent 16 per /v1/batch: the same scan layer used through RankBatch",
		Large: true, Structures: shallowStructures, Shards: 2, Clients: 1, Batch: 16},
	{Name: "cluster_2x2", Why: "scan_wide's pool through a router over 2 ranges x 2 replicas of loopback nodes: the price of the hop",
		Large: true, Structures: shallowStructures, Cluster: true, Clients: 1},
	{Name: "cache_zipf", Why: "embed_mix's pool drawn Zipf(1.1) with the answer cache on: hits bypass embed and scan",
		Structures: allStructures, Zipf: true, Cache: true, Clients: 2},
	{Name: "ingest_mix", Why: "cache_zipf's reads beside 25 edge writes/s: publishes empty the cache and fine-tune blocks ranking",
		Structures: allStructures, Zipf: true, Cache: true, Shards: 2, Ingest: true, Clients: 1},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// profile sizes a run. full is what BENCHMARK.json measures; smoke keeps
// `go test ./benchmark` honest in seconds.
type profile struct {
	SmallEntities, LargeEntities int
	// LargeHeadFrac thins the large table's graph (kg.SynthConfig.HeadFrac;
	// the small table keeps SynthFB15k's 0.65). A scan costs the same
	// whatever the graph holds, but at 0.65 generating 305k triples was 80 %
	// of a 1 s set-up and moved 25 % with the host's memory weather, the
	// whole of setup_s's bound; at 0.1 (47k triples) it is about half of
	// 0.3 s, and the graph no longer hides a cache's worth of heap_mb.
	LargeHeadFrac            float64
	SmallPool, LargePool     int
	SetupReps                int // set-ups per run; setup_s is their median
	ReplaySmall, ReplayLarge int // layer-replay sample sizes (requests)
	VerifyMin                int // oracle checks per run, topped up after the windows
	WriteEvery               time.Duration
	Writes                   int // POST /v1/edges bodies generated; 80 s' worth
}

var (
	full = profile{
		SmallEntities: 256, LargeEntities: 20000, LargeHeadFrac: 0.1,
		SmallPool: 20000, LargePool: 4096,
		SetupReps:   3,
		ReplaySmall: 384, ReplayLarge: 96,
		VerifyMin:  100,
		WriteEvery: 40 * time.Millisecond,
		Writes:     2048,
	}
	smoke = profile{
		SmallEntities: 200, LargeEntities: 200, LargeHeadFrac: 0.65,
		SmallPool: 600, LargePool: 300,
		SetupReps:   1,
		ReplaySmall: 32, ReplayLarge: 32,
		VerifyMin:  20,
		WriteEvery: 40 * time.Millisecond,
		Writes:     256,
	}
)

const (
	answerK      = 10  // k on every request
	windows      = 3   // consecutive measuring windows per timed run
	oracleEvery  = 50  // every 50th response is checked against the reference
	edgesPerPost = 4   // non-edges per POST /v1/edges
	zipfS        = 1.1 // Zipf exponent of the cache workloads
	zipfDraws    = 1 << 16
)
