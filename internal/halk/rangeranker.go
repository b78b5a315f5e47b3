package halk

import (
	"fmt"

	"github.com/halk-kg/halk/internal/query"
	"github.com/halk-kg/halk/internal/shard"
)

// RangeRanker is a ShardedRanker hosting one contiguous slice [lo, hi)
// of the model's entity table — the node-local half of the multi-node
// scatter-gather path. A halk-shard process builds one over the range it
// was assigned, scans it (optionally sub-sharded across local cores)
// for every remote scan request, and returns local top-K lists whose
// entity IDs are global (the engine snapshot is built with Source.Base),
// so the router can merge node results exactly like in-process shard
// heaps.
type RangeRanker = ShardedRanker

// NewRangeRanker builds a range-hosting engine over entities [lo, hi).
// opts.Shards sub-shards the hosted slice for local scan parallelism
// (values < 1 mean one local shard). The initial snapshot is published
// before returning.
func (m *Model) NewRangeRanker(lo, hi int, opts shard.Options) (*RangeRanker, error) {
	if n := m.graph.NumEntities(); lo < 0 || hi > n || lo >= hi {
		return nil, fmt.Errorf("halk: invalid entity range [%d, %d) over %d entities", lo, hi, n)
	}
	r := &RangeRanker{m: m, eng: shard.NewEngine(m.shardParams(), opts), lo: lo, hi: hi}
	if err := r.Refresh(); err != nil {
		return nil, err
	}
	return r, nil
}

// Engine exposes the underlying shard engine (the scan entry point for
// the node's HTTP frontend).
func (r *RangeRanker) Engine() *shard.Engine { return r.eng }

// Range reports the hosted global entity ID range [lo, hi).
func (r *RangeRanker) Range() (lo, hi int) { return r.lo, r.hi }

// ShardParams exports the model's scoring constants in the shard
// engine's form, so a frontend can prepare wire-shipped arcs
// (shard.PrepareArc) with exactly the constants the local engine scores
// with.
func (m *Model) ShardParams() shard.Params { return m.shardParams() }

// EmbedQueryLocked is EmbedQuery under the ranking read-lock: safe to
// call concurrently with SetEntityAngles and checkpoint hot-reloads.
// The cluster router and node query frontends embed through it.
func (m *Model) EmbedQueryLocked(n *query.Node) []ValueArc {
	m.rankMu.RLock()
	defer m.rankMu.RUnlock()
	return m.EmbedQuery(n)
}
