package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"github.com/halk-kg/halk/internal/cluster"
	"github.com/halk-kg/halk/internal/halk"
	"github.com/halk-kg/halk/internal/ingest"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/obs"
	"github.com/halk-kg/halk/internal/query"
	"github.com/halk-kg/halk/internal/shard"
)

// statsReply is the part of GET /v1/stats the traced run reads.
type statsReply struct {
	Cache struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
	} `json:"cache"`
	Shards []shard.ShardStats `json:"shards"`
	Ranges []struct {
		Failovers    uint64 `json:"failovers"`
		PrimaryFlips uint64 `json:"primary_flips"`
	} `json:"ranges"`
	Ingest *ingest.Stats `json:"ingest"`
}

func fetchStats(url string) (*statsReply, error) {
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st statsReply
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("/v1/stats: %w", err)
	}
	return &st, nil
}

// embedClass files a structure under the operator its embed time is
// dominated by — the rows of a live Table VI.
func embedClass(structure string) string {
	switch {
	case slices.Contains(query.LargeStructures, structure):
		return "large"
	case query.UsesNegation(structure):
		return "neg"
	case query.UsesDifference(structure):
		return "diff"
	}
	switch structure {
	case "2u", "up":
		return "union"
	case "1p", "2p", "3p":
		return "proj"
	}
	return "inter"
}

// tracedKeepEvery: the traced window retains every 10th request pair, so
// that even 3 s at 150 requests/s leave some dozens of stage traces.
const tracedKeepEvery = 10

func usMedian(d []time.Duration) float64 { return durMedian(d, time.Microsecond) }

// sumBy adds per-query durations into per-request totals.
func sumBy(perQuery []time.Duration, reqOf []int, n int) []time.Duration {
	out := make([]time.Duration, n)
	for q, d := range perQuery {
		out[reqOf[q]] += d
	}
	return out
}

// tableSource copies the model's entity table into the shard engine's
// input form at the given version.
func tableSource(m *halk.Model, version uint64) shard.Source {
	n, d := m.Graph().NumEntities(), m.Config().Dim
	src := shard.Source{Angles: make([]float64, 0, n*d), Group: make([]int32, n), Version: version}
	for e := 0; e < n; e++ {
		src.Angles = append(src.Angles, m.EntityAngles(kg.EntityID(e))...)
		src.Group[e] = int32(m.Grouping().GroupOf(kg.EntityID(e)))
	}
	return src
}

// runTraced is the traced run: one window at the workload's client count
// in which every second request carries ?debug=trace, then the layer
// replay — every layer's public entry point called directly, single
// goroutine, over the first requests client 0 sends.
func runTraced(res *result, st *stack, w workload, p profile, in *inputs, orc *oracle, path string, perRequest int, total, warm time.Duration, outDir string) error {
	// Every second request asks for ?debug=trace, so the traced and the
	// untraced latencies come from the same seconds and their difference
	// is the tracing, not the host. The warm-up is a phase of its own so
	// the cache counters can be read where the measured window begins.
	paths := []string{path, path + "?debug=trace"}
	drive(st, w, p, in, paths, oracleEvery, func() { time.Sleep(warm) })
	before, err := fetchStats(st.url)
	if err != nil {
		return err
	}
	l, marks := phase(st, w, p, in, paths, tracedKeepEvery, 0, total/2, 1)
	pw, tw := cut(l, marks[0], marks[1], 0, perRequest), cut(l, marks[0], marks[1], 1, perRequest)
	if pw.ops == 0 || tw.ops == 0 {
		return fmt.Errorf("the traced-run window completed no request")
	}
	res.Attempted, res.Failed, res.Samples = pw.attempted+tw.attempted, pw.failed+tw.failed, len(pw.lat)
	p50, tp50 := quantile(pw.lat, 0.5), quantile(tw.lat, 0.5)
	res.set("client.p50_ms", p50)
	res.set("client.traced_p50_ms", tp50)
	res.set("trace_overhead_share", tp50/p50-1)
	res.set("client.fail_share", float64(res.Failed)/float64(res.Attempted))
	res.set("proc.gc_cycles_per_s", float64(marks[1].numGC-marks[0].numGC)/pw.seconds)
	if cycles := marks[1].numGC - marks[0].numGC; cycles > 0 {
		res.set("proc.gc_pause_ms", float64(marks[1].pauseNs-marks[0].pauseNs)/1e6/float64(cycles))
	}
	res.set("proc.cpu_ms_per_op", float64(marks[1].cpu-marks[0].cpu)/float64(time.Millisecond)/(pw.ops+tw.ops))

	// The server's own stage traces, from the retained traced replies.
	var queueWait, encode, sumShare []float64
	var shed, partials int
	var reqBytes, resBytes, requests int64
	for _, c := range l.clients {
		for _, k := range c.kept {
			_, tr, err := replies(k.body, w.Batch > 0)
			if err != nil || tr == nil {
				continue // an untraced reply
			}
			sum := 0.0
			for _, s := range tr.Trace {
				sum += s.Ms
				switch s.Stage {
				case obs.StageQueueWait:
					queueWait = append(queueWait, s.Ms*1e3)
				case obs.StageEncode:
					encode = append(encode, s.Ms*1e3)
				}
			}
			sumShare = append(sumShare, sum/(float64(k.lat)/float64(time.Millisecond)))
		}
	}
	for _, c := range l.clients {
		shed += c.shed
		partials += c.partials
		for _, k := range c.kept {
			if k.path == 0 {
				reqBytes += int64(len(in.bodies[k.req]))
				resBytes += int64(len(k.body))
				requests++
			}
		}
	}
	res.set("serve.queue_wait_us", median(queueWait))
	res.set("serve.encode_us", median(encode))
	res.set("serve.trace_sum_share", median(sumShare))
	res.set("serve.shed", float64(shed))
	res.set("serve.partials", float64(partials))
	res.set("net.req_bytes", float64(reqBytes)/float64(requests))
	res.set("net.resp_bytes", float64(resBytes)/float64(requests))

	stats, err := fetchStats(st.url)
	if err != nil {
		return err
	}
	hits, misses := stats.Cache.Hits-before.Cache.Hits, stats.Cache.Misses-before.Cache.Misses
	if hits+misses > 0 {
		res.set("serve.cache_hit_share", float64(hits)/float64(hits+misses))
	}
	res.set("serve.cache_evictions", float64(stats.Cache.Evictions-before.Cache.Evictions))
	var skips, hedges uint64
	for _, s := range stats.Shards {
		skips += s.Skips
		hedges += s.Hedges
	}
	if w.Cluster {
		var failovers, flips uint64
		for _, r := range stats.Ranges {
			failovers += r.Failovers
			flips += r.PrimaryFlips
		}
		res.set("cluster.hedges", float64(hedges))
		res.set("cluster.failovers", float64(failovers))
		res.set("cluster.primary_flips", float64(flips))
	} else {
		res.set("shard.skips", float64(skips))
		res.set("shard.hedges", float64(hedges))
	}

	rec := newRecorder()
	if w.Ingest {
		res.Attempted += l.writes.sent
		res.Failed += l.writes.failed
		res.set("ingest.write_ack_p50_ms", durMedian(l.writes.acks, time.Millisecond))
		res.set("ingest.writer_late_ms", durMedian(l.writes.late, time.Millisecond))
		if err := replayIngest(res, rec, st, in); err != nil {
			return err
		}
	}

	// From here the model is static: check answers, then replay the layers.
	if !w.Ingest {
		orc.checkKept(l, in, w.Batch > 0, 3*p.VerifyMin)
	}
	sent, failed := orc.topUp(st.url+path, in, w.Batch > 0, p.VerifyMin)
	res.Attempted += sent
	res.Failed += failed

	if err := replay(res, rec, st, w, p, in, path); err != nil {
		return err
	}
	if w.Ingest {
		replayFineTune(res, rec, st, in)
	}
	return rec.write(outDir, w.Name)
}

// replayIngest times Ingester.Submit and the ack -> visible lag on the
// quiet system, then drains and stops the ingester so every later step
// sees a static model.
func replayIngest(res *result, rec *recorder, st *stack, in *inputs) error {
	const n = 16
	var submit, lag []time.Duration
	for i := 0; i < n; i++ {
		recs := make([]ingest.Record, edgesPerPost)
		for j, tr := range in.edges[(in.written+i)*edgesPerPost:][:edgesPerPost] {
			recs[j] = ingest.Record{Op: ingest.OpAdd, H: tr.H, R: tr.R, T: tr.T}
		}
		before := st.ranker.SnapshotVersion()
		var err error
		submit = append(submit, rec.span("ingest.submit", "", i, func() { _, err = st.ing.Submit(recs) }))
		if err != nil {
			return fmt.Errorf("ingest submit: %w", err)
		}
		lag = append(lag, rec.span("ingest.visible_lag", "ingest.submit", i, func() {
			for deadline := time.Now().Add(5 * time.Second); st.ranker.SnapshotVersion() == before && time.Now().Before(deadline); {
				time.Sleep(100 * time.Microsecond)
			}
		}))
	}
	in.written += n
	st.ing.Close()
	is := st.ing.Stats()
	res.set("ingest.submit_ms", durMedian(submit, time.Millisecond))
	res.set("ingest.visible_lag_ms", durMedian(lag, time.Millisecond))
	res.set("ingest.applied_edges", float64(is.AppliedEdges))
	res.set("ingest.publishes", float64(is.Publishes))
	res.set("ingest.finetune_steps", float64(is.FineTuneSteps))
	return nil
}

// replayFineTune times the two calls a drained write costs the readers:
// FineTuneEdges (takes the ranking write lock) and the delta publish.
// It mutates the model, so it runs last.
func replayFineTune(res *result, rec *recorder, st *stack, in *inputs) {
	const n = 8
	g := st.m.Graph()
	var tune, publish []time.Duration
	for i := 0; i < n; i++ {
		added := in.edges[(in.written+i)*edgesPerPost:][:edgesPerPost]
		for _, tr := range added {
			g.AddTriple(tr)
		}
		var ft halk.FineTuneResult
		tune = append(tune, rec.span("halk.finetune", "", i, func() {
			ft, _ = st.m.FineTuneEdges(added, nil, halk.FineTuneConfig{Seed: int64(i)}) // edges were validated when sampled
		}))
		publish = append(publish, rec.span("halk.publish", "halk.finetune", i, func() {
			_ = st.ranker.RefreshDirty(ft.DirtyEntities) // a failed swap shows as a version that never moves
		}))
	}
	res.set("halk.finetune_ms", durMedian(tune, time.Millisecond))
	res.set("halk.publish_ms", durMedian(publish, time.Millisecond))
}

// replay calls each layer on the request path directly and reports its
// median cost, then checks that the layer medians add up to what a
// single client observes.
func replay(res *result, rec *recorder, st *stack, w workload, p profile, in *inputs, path string) error {
	ctx := context.Background()
	m := st.m
	ents, rels := st.ds.Train.Entities, st.ds.Train.Relations

	// The sample: the first requests client 0 sends, flattened to queries.
	nq := p.ReplaySmall
	if w.Large {
		nq = p.ReplayLarge
	}
	nReq := max(nq/max(w.Batch, 1), 12) // a batch workload still needs a dozen requests for a median
	reqs := in.seqs[0][:min(nReq, len(in.seqs[0]))]
	var qs, reqOf []int // pool index and sample position of every query
	for i, r := range reqs {
		for _, q := range in.groups[r] {
			qs = append(qs, q)
			reqOf = append(reqOf, i)
		}
	}

	// Whole requests: over the socket and straight into the handler. An
	// untimed pass first, so that with the answer cache on both timed
	// passes see every sample entry cached — the hit path; misses are what
	// the cache-off workloads measure.
	handler := st.srv.Handler()
	serveOnce := func(body []byte) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rr
	}
	for _, r := range reqs {
		serveOnce(in.bodies[r])
	}
	hc := newClient()
	defer hc.CloseIdleConnections()
	var buf bytes.Buffer
	client := rec.pass("net.client", "", nil, len(reqs), func(i int) {
		_, _ = post(hc, st.url+path, in.bodies[reqs[i]], &buf) // failures were counted in the windows
	})
	cached := make([]bool, len(reqs))
	served := rec.pass("serve.handler", "net.client", nil, len(reqs), func(i int) {
		rr := serveOnce(in.bodies[reqs[i]])
		cached[i] = bytes.Contains(rr.Body.Bytes(), []byte(`"cached":true`))
	})

	// query: text -> DAG -> cache key.
	roots := make([]*query.Node, len(qs))
	parse := rec.pass("query.parse", "serve.handler", reqOf, len(qs), func(q int) {
		roots[q], _ = query.Parse(in.pool[qs[q]].DSL, ents, rels) // round-trip is unit-tested
	})
	canonical := rec.pass("query.canonical", "serve.handler", reqOf, len(qs), func(q int) {
		query.CanonicalKey(roots[q])
	})
	disjuncts := 0
	for _, root := range roots {
		disjuncts += len(query.DNF(root))
	}
	res.set("query.parse_us", usMedian(parse.dur))
	res.set("query.canonical_us", usMedian(canonical.dur))
	res.set("query.dnf_disjuncts", float64(disjuncts)/float64(len(roots)))

	// halk: the operator forward pass.
	arcs := make([][]halk.ValueArc, len(qs))
	embed := rec.pass("halk.embed", "serve.handler", reqOf, len(qs), func(q int) {
		arcs[q] = m.EmbedQueryLocked(roots[q])
	})
	res.set("halk.embed_us", usMedian(embed.dur))
	res.set("halk.embed_alloc_kb", embed.allocKB)
	res.set("halk.embed_allocs", embed.allocs)
	byClass := make(map[string][]time.Duration)
	for q, d := range embed.dur {
		c := embedClass(in.pool[qs[q]].Structure)
		byClass[c] = append(byClass[c], d)
	}
	for c, d := range byClass {
		res.set("halk.embed_us."+c, usMedian(d))
	}

	// The ranking below embed, per request, by serving path.
	rank := make([]time.Duration, len(reqs))
	var rankLayers float64 // sum of the path's layer medians below embed, us
	switch {
	case st.router != nil:
		router := rec.pass("cluster.router", "serve.handler", reqOf, len(qs), func(q int) {
			_, _ = st.router.RankTopK(ctx, roots[q], answerK)
		})
		res.set("cluster.router_us", usMedian(router.dur))
		scanRTT := replayCluster(ctx, res, rec, st, arcs, reqOf)
		gather := make([]time.Duration, len(qs)) // the router below its embed
		gatherSelf := make([]time.Duration, len(qs))
		for q := range gather {
			gather[q] = router.dur[q] - embed.dur[q]
			gatherSelf[q] = gather[q] - scanRTT[q]
		}
		res.set("cluster.gather_self_us", usMedian(gatherSelf))
		rank = sumBy(gather, reqOf, len(reqs))
		rankLayers = usMedian(gather)
	case st.ranker != nil:
		prepared := make([][]shard.Arc, len(qs))
		prepare := rec.pass("shard.prepare", "serve.handler", reqOf, len(qs), func(q int) {
			pre := make([]shard.Arc, len(arcs[q]))
			for j, a := range arcs[q] {
				pre[j] = shard.PrepareArc(m.ShardParams(), a.C, a.L, a.Hot)
			}
			prepared[q] = pre
		})
		res.set("shard.prepare_us", usMedian(prepare.dur))
		ranked := rec.pass("halk.rank", "serve.handler", reqOf, len(qs), func(q int) {
			_, _ = st.ranker.RankTopK(ctx, roots[q], answerK)
		})
		res.set("halk.rank_us", usMedian(ranked.dur))
		scan, err := replayEngine(res, rec, m, w, prepared, reqs, reqOf)
		if err != nil {
			return err
		}
		for i, d := range sumBy(prepare.dur, reqOf, len(reqs)) {
			rank[i] = d + scan[i]
		}
		rankLayers = usMedian(prepare.dur)*float64(max(w.Batch, 1)) + usMedian(scan)
	default:
		dist := rec.pass("halk.distances", "serve.handler", reqOf, len(qs), func(q int) {
			_, _ = m.DistancesContext(ctx, roots[q])
		})
		full := make([]time.Duration, len(qs))
		for q := range full {
			full[q] = dist.dur[q] - embed.dur[q]
		}
		res.set("halk.fullscan_us", usMedian(full))
		rank = sumBy(full, reqOf, len(reqs))
		rankLayers = usMedian(full)
	}

	// serve's own share, per request: the handler minus the layers it
	// called — parse and canonicalize always, embed and ranking only on a
	// cache miss. net: what the socket adds to the handler.
	parseReq, canonReq, embedReq := sumBy(parse.dur, reqOf, len(reqs)), sumBy(canonical.dur, reqOf, len(reqs)), sumBy(embed.dur, reqOf, len(reqs))
	selfT := make([]time.Duration, len(reqs))
	hits := 0
	for i := range reqs {
		selfT[i] = served.dur[i] - parseReq[i] - canonReq[i]
		if cached[i] {
			hits++
		} else {
			selfT[i] -= embedReq[i] + rank[i]
		}
	}
	// With two shards, about half the requests sent over the socket take
	// roughly half a scan longer than the same request handed to the
	// handler, and the rest a fraction of a millisecond; the difference of
	// the medians is steady where the median of the differences flips
	// between those two modes.
	rtt := usMedian(client.dur) - usMedian(served.dur)
	res.set("serve.handler_us", usMedian(served.dur))
	res.set("serve.self_us", usMedian(selfT))
	res.set("net.rtt_overhead_us", rtt)
	res.set("client.single_p50_ms", durMedian(client.dur, time.Millisecond))

	// Sum check: the medians of the layers on the path (per request: a
	// batch pays the per-query layers once per query) against the
	// single-client p50. Medians do not add exactly, so the share says how
	// far the per-layer picture can be trusted.
	per := float64(max(w.Batch, 1))
	sum := (usMedian(parse.dur)+usMedian(canonical.dur))*per + usMedian(selfT) + rtt
	if 2*hits < len(reqs) {
		sum += usMedian(embed.dur)*per + rankLayers
	}
	res.set("layer_sum_share", sum/usMedian(client.dur))
	return nil
}

// replayEngine measures the shard engine on its own: a fresh engine over
// the model's table (timing the full and the delta swap on the way),
// TopK on the prepared arcs, the scalar reference kernel, and RankBatch
// of 16 against 16 single scans. It returns the per-request scan time on
// the workload's path (RankBatch for a batch workload).
func replayEngine(res *result, rec *recorder, m *halk.Model, w workload, prepared [][]shard.Arc, reqs, reqOf []int) ([]time.Duration, error) {
	ctx := context.Background()
	n := m.Graph().NumEntities()
	eng := shard.NewEngine(m.ShardParams(), shard.Options{Shards: w.Shards, PanicLog: quiet})
	defer eng.Close()
	src := tableSource(m, 1)
	var err error
	full := rec.span("shard.swap_full", "", 0, func() { err = eng.Swap(src) })
	if err != nil {
		return nil, fmt.Errorf("engine swap: %w", err)
	}
	src.Version, src.Dirty = 2, []int32{0, 1, 2, 3, 4, 5, 6, 7}
	delta := rec.span("shard.swap_delta", "", 0, func() { err = eng.Swap(src) })
	if err != nil {
		return nil, fmt.Errorf("engine delta swap: %w", err)
	}
	res.set("shard.swap_full_ms", float64(full)/float64(time.Millisecond))
	res.set("shard.swap_delta_ms", float64(delta)/float64(time.Millisecond))

	before := eng.Stats()
	scan := rec.pass("shard.scan", "serve.handler", reqOf, len(prepared), func(q int) {
		_, _ = eng.TopK(ctx, prepared[q], answerK)
	})
	var envSkips, lanes, survivors uint64
	for i, s := range eng.Stats() {
		envSkips += s.EnvSkips - before[i].EnvSkips
		lanes += s.FilterLanes - before[i].FilterLanes
		survivors += s.FilterSurvivors - before[i].FilterSurvivors
	}
	res.set("shard.scan_us", usMedian(scan.dur))
	res.set("shard.scan_alloc_kb", scan.allocKB)
	res.set("shard.scan_allocs", scan.allocs)
	res.set("shard.scan_ns_per_entity", usMedian(scan.dur)*1e3/float64(n))
	if lanes > 0 {
		// An envelope skip spares one 64-lane block for one query.
		const blockLanes = 64
		res.set("shard.env_skip_share", float64(envSkips*blockLanes)/float64(envSkips*blockLanes+lanes))
		res.set("shard.rescore_share", float64(survivors)/float64(lanes))
	}

	// The scalar float64 reference kernel, on a quarter of the sample.
	scalar := shard.NewEngine(m.ShardParams(), shard.Options{Shards: w.Shards, ScalarKernel: true, PanicLog: quiet})
	defer scalar.Close()
	if err := scalar.Swap(shard.Source{Angles: src.Angles, Group: src.Group, Version: 1}); err != nil {
		return nil, fmt.Errorf("scalar engine swap: %w", err)
	}
	sub := max(len(prepared)/4, 1)
	ref := rec.pass("shard.scalar", "", reqOf, sub, func(q int) {
		_, _ = scalar.TopK(ctx, prepared[q], answerK)
	})
	res.set("shard.scalar_us", usMedian(ref.dur))
	res.set("shard.kernel_speedup", usMedian(ref.dur)/usMedian(scan.dur[:sub]))

	// RankBatch of 16 against the same 16 scanned one by one.
	const batch = 16
	var groups [][]shard.BatchItem
	var single []time.Duration
	var groupReq []int
	for lo := 0; lo+batch <= len(prepared); lo += batch {
		groupReq = append(groupReq, reqOf[lo])
		items := make([]shard.BatchItem, batch)
		var t time.Duration
		for j := range items {
			items[j] = shard.BatchItem{Arcs: prepared[lo+j], K: answerK}
			t += scan.dur[lo+j]
		}
		groups, single = append(groups, items), append(single, t)
	}
	perRequest := scan.dur
	if len(groups) > 0 {
		batched := rec.pass("shard.batch", "serve.handler", groupReq, len(groups), func(g int) {
			_, _ = eng.RankBatch(ctx, groups[g])
		})
		res.set("shard.batch_us_per_query", usMedian(batched.dur)/batch)
		res.set("shard.batch_speedup", usMedian(single)/usMedian(batched.dur))
		if w.Batch == batch {
			perRequest = batched.dur
		}
	}
	if len(perRequest) != len(reqs) {
		return nil, fmt.Errorf("replay sample of %d queries does not fill %d requests", len(prepared), len(reqs))
	}
	return perRequest, nil
}

// replayCluster measures the hop below the router: one scan RPC to one
// node against the node's engine scanning the same arcs in-process. It
// returns the RPC's round-trip times.
func replayCluster(ctx context.Context, res *result, rec *recorder, st *stack, arcs [][]halk.ValueArc, reqOf []int) []time.Duration {
	m := st.m
	node := st.nodes[0]
	remote := cluster.NewRemoteShard(node.front.addr, nil)
	scanReqs := make([]*cluster.ScanRequest, len(arcs))
	prepared := make([][]shard.Arc, len(arcs))
	var reqBytes, respBytes int
	for q := range arcs {
		sr := &cluster.ScanRequest{K: answerK}
		for _, a := range arcs[q] {
			sr.Arcs = append(sr.Arcs, cluster.ArcSpec{C: a.C, L: a.L, Hot: a.Hot})
			prepared[q] = append(prepared[q], shard.PrepareArc(m.ShardParams(), a.C, a.L, a.Hot))
		}
		scanReqs[q] = sr
		reqBytes += len(mustJSON(sr))
	}
	rtt := rec.pass("cluster.scan_rtt", "cluster.router", reqOf, len(arcs), func(q int) {
		if resp, err := remote.Scan(ctx, scanReqs[q]); err == nil && q < 8 {
			respBytes += len(mustJSON(resp))
		}
	})
	scan := rec.pass("cluster.node_scan", "cluster.scan_rtt", reqOf, len(arcs), func(q int) {
		_, _ = node.ranker.Engine().TopKBound(ctx, prepared[q], answerK, 0)
	})
	wire := make([]time.Duration, len(arcs))
	for q := range wire {
		wire[q] = rtt.dur[q] - scan.dur[q]
	}
	res.set("cluster.scan_rtt_us", usMedian(rtt.dur))
	res.set("cluster.node_scan_us", usMedian(scan.dur))
	res.set("cluster.wire_us", usMedian(wire))
	res.set("cluster.scan_req_bytes", float64(reqBytes)/float64(len(arcs)))
	res.set("cluster.scan_resp_bytes", float64(respBytes)/float64(min(len(arcs), 8)))
	return rtt.dur
}

// span is one recorded call into a layer.
type span struct {
	Name    string `json:"name"`
	Req     int    `json:"req"`
	Parent  string `json:"parent,omitempty"` // the layer span of the same request that caused this one
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

// span times one call.
func (r *recorder) span(name, parent string, req int, fn func()) time.Duration {
	begin := time.Now()
	fn()
	end := time.Now()
	r.spans = append(r.spans, span{name, req, parent, int64(begin.Sub(r.origin)), int64(end.Sub(r.origin))})
	return end.Sub(begin)
}

// passStat is one layer's calls over the sample: each call's duration and
// the heap the whole pass allocated, per call.
type passStat struct {
	dur             []time.Duration
	allocKB, allocs float64
}

// pass calls fn(i) for every i in [0, n) on this goroutine, one span
// each, filed under request reqOf[i] (i itself when reqOf is nil). Nothing
// else runs meanwhile, so the allocation counts repeat.
func (r *recorder) pass(name, parent string, reqOf []int, n int, fn func(i int)) passStat {
	ps := passStat{dur: make([]time.Duration, n)}
	if cap(r.spans)-len(r.spans) < n {
		r.spans = append(make([]span, 0, 2*(cap(r.spans)+n)), r.spans...)
	}
	// Start every pass from a collected heap, so that where the collector
	// runs does not depend on which pass came before.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		begin := time.Now()
		fn(i)
		end := time.Now()
		req := i
		if reqOf != nil {
			req = reqOf[i]
		}
		r.spans = append(r.spans, span{name, req, parent, int64(begin.Sub(r.origin)), int64(end.Sub(r.origin))})
		ps.dur[i] = end.Sub(begin)
	}
	runtime.ReadMemStats(&after)
	ps.allocKB = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(n)
	ps.allocs = float64(after.Mallocs-before.Mallocs) / float64(n)
	return ps
}

// write dumps the spans as JSON lines, ordered by start.
func (r *recorder) write(dir, workload string) error {
	sort.SliceStable(r.spans, func(a, b int) bool { return r.spans[a].StartNs < r.spans[b].StartNs })
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".jsonl"), buf.Bytes(), 0o644)
}
