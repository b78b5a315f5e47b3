package halk

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/halk-kg/halk/internal/ann"
	"github.com/halk-kg/halk/internal/autodiff"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/query"
	"github.com/halk-kg/halk/internal/shard"
)

// The kernel-identity suite is the byte-identity contract of the
// blocked scan kernel, run in CI across Go versions and GOAMD64 levels:
// for every named query structure of the paper (1p…3ippd, including
// negation and difference), the blocked float32-filtered kernel and the
// batched rank path must return bit-identical distances and identical
// IDs to the scalar float64 reference scan (Options.ScalarKernel) and
// to the single-threaded full scan Model.TopK. Any FMA contraction,
// rounding-mode, or vector-width divergence that changed an answer
// would trip the Float64bits comparisons here.

// identityStructures is the full structure matrix the identity suite
// sweeps: every EPFO+difference structure, every negation structure and
// every large structure — 1p through 3ippd.
func identityStructures() []string {
	var out []string
	out = append(out, query.EPFOStructures...)
	out = append(out, query.NegationStructures...)
	out = append(out, query.LargeStructures...)
	return out
}

// rankBothKernels ranks q at k through a blocked and a scalar-pinned
// engine over the same model state and fails unless the two results are
// bit-identical; it returns the blocked result for further checks.
func rankBothKernels(t *testing.T, m *Model, shards int, q *query.Node, k int, structure string) *shard.Result {
	t.Helper()
	blocked, err := m.NewShardedRanker(shard.Options{Shards: shards})
	if err != nil {
		t.Fatalf("NewShardedRanker: %v", err)
	}
	defer blocked.Close()
	scalar, err := m.NewShardedRanker(shard.Options{Shards: shards, ScalarKernel: true})
	if err != nil {
		t.Fatalf("NewShardedRanker(scalar): %v", err)
	}
	defer scalar.Close()

	bres, err := blocked.RankTopK(context.Background(), q, k)
	if err != nil {
		t.Fatalf("%s shards=%d: blocked RankTopK: %v", structure, shards, err)
	}
	sres, err := scalar.RankTopK(context.Background(), q, k)
	if err != nil {
		t.Fatalf("%s shards=%d: scalar RankTopK: %v", structure, shards, err)
	}
	if bres.Partial || sres.Partial {
		t.Fatalf("%s shards=%d: unexpected partial result", structure, shards)
	}
	if len(bres.IDs) != len(sres.IDs) {
		t.Fatalf("%s shards=%d: blocked returned %d answers, scalar %d", structure, shards, len(bres.IDs), len(sres.IDs))
	}
	for i := range sres.IDs {
		if bres.IDs[i] != sres.IDs[i] {
			t.Fatalf("%s shards=%d: rank %d = entity %d, scalar ranked %d", structure, shards, i, bres.IDs[i], sres.IDs[i])
		}
		if math.Float64bits(bres.Dists[i]) != math.Float64bits(sres.Dists[i]) {
			t.Fatalf("%s shards=%d: rank %d dist %v differs from scalar %v by %g",
				structure, shards, i, bres.Dists[i], sres.Dists[i], bres.Dists[i]-sres.Dists[i])
		}
	}
	return bres
}

// TestKernelIdentityStructureMatrix sweeps the full structure matrix:
// blocked kernel == scalar kernel == Model.TopK, bit for bit, at shard
// counts that do and do not divide the entity count.
func TestKernelIdentityStructureMatrix(t *testing.T) {
	m, ds := testModel(t, 81)
	s := query.NewSampler(ds.Train, rand.New(rand.NewSource(82)))
	const k = 12
	for _, structure := range identityStructures() {
		q, ok := s.Sample(structure)
		if !ok {
			t.Fatalf("sampling %s failed", structure)
		}
		want := m.TopK(q, k)
		dist := m.Distances(q)
		for _, shards := range []int{1, 3} {
			got := rankBothKernels(t, m, shards, q, k, structure)
			if len(got.IDs) != len(want) {
				t.Fatalf("%s shards=%d: %d answers, want %d", structure, shards, len(got.IDs), len(want))
			}
			for i := range want {
				if got.IDs[i] != want[i] {
					t.Fatalf("%s shards=%d: rank %d = %d, full scan ranked %d", structure, shards, i, got.IDs[i], want[i])
				}
				if math.Float64bits(got.Dists[i]) != math.Float64bits(dist[want[i]]) {
					t.Fatalf("%s shards=%d: rank %d dist %v, full scan %v", structure, shards, i, got.Dists[i], dist[want[i]])
				}
			}
		}
	}
}

// TestKernelIdentityBatch proves the batched rank path changes no
// answers: RankBatch over a mixed-structure batch must return, per
// item, exactly what RankTopK returns for that query alone, on both
// kernels, bit for bit.
func TestKernelIdentityBatch(t *testing.T) {
	m, ds := testModel(t, 83)
	s := query.NewSampler(ds.Train, rand.New(rand.NewSource(84)))
	structures := []string{"1p", "2p", "2i", "3i", "pi", "2u", "2d", "2in", "pni", "3ippd"}
	roots := make([]*query.Node, 0, len(structures))
	ks := make([]int, 0, len(structures))
	for i, structure := range structures {
		q, ok := s.Sample(structure)
		if !ok {
			t.Fatalf("sampling %s failed", structure)
		}
		roots = append(roots, q)
		ks = append(ks, 3+2*i)
	}
	for _, scalarKernel := range []bool{false, true} {
		for _, shards := range []int{1, 4} {
			r, err := m.NewShardedRanker(shard.Options{Shards: shards, ScalarKernel: scalarKernel})
			if err != nil {
				t.Fatalf("NewShardedRanker: %v", err)
			}
			batch, err := r.RankBatch(context.Background(), roots, ks)
			if err != nil {
				t.Fatalf("RankBatch: %v", err)
			}
			if len(batch) != len(roots) {
				t.Fatalf("RankBatch returned %d results for %d queries", len(batch), len(roots))
			}
			for i := range roots {
				lone, err := r.RankTopK(context.Background(), roots[i], ks[i])
				if err != nil {
					t.Fatalf("RankTopK: %v", err)
				}
				if len(batch[i].IDs) != len(lone.IDs) {
					t.Fatalf("%s: batch %d answers, lone %d", structures[i], len(batch[i].IDs), len(lone.IDs))
				}
				for j := range lone.IDs {
					if batch[i].IDs[j] != lone.IDs[j] {
						t.Fatalf("%s scalar=%v shards=%d: batch rank %d = %d, lone %d",
							structures[i], scalarKernel, shards, j, batch[i].IDs[j], lone.IDs[j])
					}
					if math.Float64bits(batch[i].Dists[j]) != math.Float64bits(lone.Dists[j]) {
						t.Fatalf("%s scalar=%v shards=%d: batch rank %d dist %v, lone %v",
							structures[i], scalarKernel, shards, j, batch[i].Dists[j], lone.Dists[j])
					}
				}
			}
			r.Close()
		}
	}

	// Argument-shape validation.
	r, err := m.NewShardedRanker(shard.Options{Shards: 2})
	if err != nil {
		t.Fatalf("NewShardedRanker: %v", err)
	}
	defer r.Close()
	if _, err := r.RankBatch(context.Background(), roots, ks[:1]); err == nil {
		t.Error("mismatched roots/ks lengths: want error")
	}
}

// sameValueArcs fails unless got and want are equal bit for bit: centers
// and lengths by Float64bits, hot vectors element-wise.
func sameValueArcs(t *testing.T, label string, got, want []ValueArc) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d arcs, want %d", label, len(got), len(want))
		return
	}
	for i := range want {
		if len(got[i].C) != len(want[i].C) || len(got[i].L) != len(want[i].L) || len(got[i].Hot) != len(want[i].Hot) {
			t.Errorf("%s: arc %d has the wrong shape", label, i)
			return
		}
		for j := range want[i].C {
			if math.Float64bits(got[i].C[j]) != math.Float64bits(want[i].C[j]) {
				t.Errorf("%s: arc %d C[%d] = %v, gradient tape %v", label, i, j, got[i].C[j], want[i].C[j])
				return
			}
			if math.Float64bits(got[i].L[j]) != math.Float64bits(want[i].L[j]) {
				t.Errorf("%s: arc %d L[%d] = %v, gradient tape %v", label, i, j, got[i].L[j], want[i].L[j])
				return
			}
		}
		for j := range want[i].Hot {
			if got[i].Hot[j] != want[i].Hot[j] {
				t.Errorf("%s: arc %d Hot[%d] = %v, gradient tape %v", label, i, j, got[i].Hot[j], want[i].Hot[j])
				return
			}
		}
	}
}

// embedOnGradientTape is the reference EmbedQuery is held to: the same
// Embed on a fresh gradient tape, as every release before the
// forward-only mode ran it.
func embedOnGradientTape(m *Model, n *query.Node) []ValueArc {
	tape := autodiff.NewTape()
	var out []ValueArc
	for _, d := range query.DNF(n) {
		a := m.Embed(tape, d)
		out = append(out, ValueArc{
			C:   append([]float64(nil), a.C.Value()...),
			L:   append([]float64(nil), a.L.Value()...),
			Hot: a.Hot,
		})
	}
	return out
}

// TestKernelIdentityForwardTape is the two-modes-equal-bits contract of
// the online embed: for every structure × 5 sampled queries × the four
// variants, EmbedQuery (pooled forward-only tape, leaves aliasing the
// parameters) returns exactly what Embed returns on a gradient tape;
// again in reverse order through the now warm, slab-reusing pool; and
// from 8 goroutines while a writer flips the entity table, each result
// compared with the reference of the table version it ran under.
func TestKernelIdentityForwardTape(t *testing.T) {
	for _, variant := range []Variant{Full, V1NewLookDiff, V2LinearNeg, V3NewLookProj} {
		ds := kg.SynthFB237(85)
		cfg := testConfig(85)
		cfg.Variant = variant
		m := New(ds.Train, cfg)
		s := query.NewSampler(ds.Train, rand.New(rand.NewSource(86)))
		var queries []*query.Node
		var labels []string
		for _, structure := range identityStructures() {
			for i := 0; i < 5; i++ {
				q, ok := s.Sample(structure)
				if !ok {
					t.Fatalf("sampling %s failed", structure)
				}
				queries = append(queries, q)
				labels = append(labels, variant.String()+"/"+structure)
			}
		}
		// Every pass embeds all queries before it compares any: a result
		// that still pointed into a slab would have been overwritten by
		// the embeds that reused the tape after it.
		want := make([][]ValueArc, len(queries))
		got := make([][]ValueArc, len(queries))
		for i, q := range queries {
			want[i] = embedOnGradientTape(m, q)
			got[i] = m.EmbedQuery(q)
		}
		for i := range queries {
			sameValueArcs(t, labels[i], got[i], want[i])
		}
		for i := len(queries) - 1; i >= 0; i-- {
			got[i] = m.EmbedQuery(queries[i])
		}
		for i := range queries {
			sameValueArcs(t, labels[i]+" (warm pool)", got[i], want[i])
		}
		if variant != Full || t.Failed() {
			continue
		}

		// Two tables, A (the initial one) and B (every row shifted): the
		// writer alternates them, one version bump per flip, so a
		// version's parity names the table an embed ran against.
		n, d := m.graph.NumEntities(), cfg.Dim
		tables := [2][]EntityUpdate{}
		for e := 0; e < n; e++ {
			rowA := append([]float64(nil), m.ent.Row(e)...)
			rowB := make([]float64, d)
			for j := range rowB {
				rowB[j] = math.Mod(rowA[j]+0.5+float64(j)/7, 2*math.Pi)
			}
			tables[0] = append(tables[0], EntityUpdate{E: kg.EntityID(e), Angles: rowA})
			tables[1] = append(tables[1], EntityUpdate{E: kg.EntityID(e), Angles: rowB})
		}
		base := m.EntityVersion()
		refs := [2][][]ValueArc{want, make([][]ValueArc, len(queries))}
		if err := m.SetEntityAnglesBatch(tables[1]); err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			refs[1][i] = embedOnGradientTape(m, q)
		}
		if err := m.SetEntityAnglesBatch(tables[0]); err != nil {
			t.Fatal(err)
		}

		stop := make(chan struct{})
		var writer, readers sync.WaitGroup
		writer.Add(1)
		go func() {
			defer writer.Done()
			for flip := 1; ; flip++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := m.SetEntityAnglesBatch(tables[flip%2]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		for g := 0; g < 8; g++ {
			readers.Add(1)
			go func(g int) {
				defer readers.Done()
				for i := g; i < len(queries); i += 8 {
					// The version and the embed come from one view,
					// exactly as the serving callers embed.
					v := m.pub.Load()
					ver := v.version
					got := v.embedQuery(queries[i])
					sameValueArcs(t, labels[i]+" (concurrent)", got, refs[(ver-base)%2][i])
				}
			}(g)
		}
		readers.Wait()
		close(stop)
		writer.Wait()
	}
}

// TestDistancesMatchScalarEngine pins the full distance vector, not
// just a top-k: for every structure, Model.Distances(q)[e] has the bits
// of the distance a one-shard scalar engine returns for e at k = |E|,
// for every entity e — with the group penalty on (the default config)
// and off (Xi = 0).
func TestDistancesMatchScalarEngine(t *testing.T) {
	for _, xi := range []float64{DefaultConfig(0).Xi, 0} {
		ds := kg.SynthFB237(87)
		cfg := testConfig(87)
		cfg.Xi = xi
		m := New(ds.Train, cfg)
		r, err := m.NewShardedRanker(shard.Options{Shards: 1, ScalarKernel: true})
		if err != nil {
			t.Fatalf("NewShardedRanker: %v", err)
		}
		n := m.graph.NumEntities()
		s := query.NewSampler(ds.Train, rand.New(rand.NewSource(88)))
		for _, structure := range identityStructures() {
			q, ok := s.Sample(structure)
			if !ok {
				t.Fatalf("sampling %s failed", structure)
			}
			dist := m.Distances(q)
			res, err := r.RankTopK(context.Background(), q, n)
			if err != nil {
				t.Fatalf("xi=%v %s: RankTopK: %v", xi, structure, err)
			}
			if len(dist) != n || len(res.IDs) != n {
				t.Fatalf("xi=%v %s: Distances has %d entries, engine %d, want %d", xi, structure, len(dist), len(res.IDs), n)
			}
			for i, e := range res.IDs {
				if math.Float64bits(dist[e]) != math.Float64bits(res.Dists[i]) {
					t.Fatalf("xi=%v %s: entity %d: Distances %v, scalar engine %v", xi, structure, e, dist[e], res.Dists[i])
				}
			}
		}
		r.Close()
	}
}

// TestTopKApproxRescoresExact pins the approx rescore to the exact
// distance: for every structure, the IDs TopKApprox returns are in
// (Distances(q)[id], id) order.
func TestTopKApproxRescoresExact(t *testing.T) {
	m, ds := testModel(t, 89)
	ai := m.NewAnswerIndex(ann.DefaultConfig(90))
	s := query.NewSampler(ds.Train, rand.New(rand.NewSource(91)))
	for _, structure := range identityStructures() {
		q, ok := s.Sample(structure)
		if !ok {
			t.Fatalf("sampling %s failed", structure)
		}
		dist := m.Distances(q)
		got := ai.TopKApprox(q, 20)
		if len(got) == 0 {
			t.Fatalf("%s: empty approximate answer set", structure)
		}
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			if dist[a] > dist[b] || (dist[a] == dist[b] && a >= b) {
				t.Fatalf("%s: rank %d (entity %d, %v) comes before entity %d (%v)", structure, i-1, a, dist[a], b, dist[b])
			}
		}
	}
}
