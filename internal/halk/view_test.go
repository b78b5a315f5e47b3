package halk

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/halk-kg/halk/internal/ann"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/query"
	"github.com/halk-kg/halk/internal/shard"
)

// viewRefs are one model state's reference answers for each query.
type viewRefs struct {
	embed  [][]ValueArc
	dist   [][]float64
	approx [][]kg.EntityID
	ranked []*shard.Result
}

// TestServingViewsUnderFineTuneAndReload runs four kinds of reader
// against one writer that alternates FineTuneEdges and ReloadFromFile,
// so the model flips between two states: A (the checkpoint) and B (A
// plus one fixed fine-tune). Every answer must equal the reference of
// the state of the version it was computed at — Result.Version on the
// sharded path, and on the others a version that reads the same before
// and after the call. Run with -race, it also fails if a writer touches
// an array a published view holds.
func TestServingViewsUnderFineTuneAndReload(t *testing.T) {
	m, ds := testModel(t, 81)
	path := filepath.Join(t.TempDir(), "a.ckpt")
	if err := m.WriteCheckpointFile(path, "FB237", 81); err != nil {
		t.Fatal(err)
	}
	r, err := m.NewShardedRanker(shard.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	edges := []kg.Triple{pickNonEdge(t, m.Graph(), 82), pickNonEdge(t, m.Graph(), 83)}
	ftCfg := FineTuneConfig{Seed: 84}
	annCfg := ann.DefaultConfig(85)

	s := query.NewSampler(ds.Train, rand.New(rand.NewSource(86)))
	var queries []*query.Node
	for _, structure := range []string{"1p", "2i", "ip", "2u"} {
		q, ok := s.Sample(structure)
		if !ok {
			t.Fatalf("sampling %s failed", structure)
		}
		queries = append(queries, q)
	}
	// Queries over the fine-tuned rows embed differently in A and B.
	for _, e := range edges {
		p := query.NewProjection(e.R, query.NewAnchor(e.H))
		queries = append(queries, p, query.NewIntersection(p, queries[0]))
	}
	const k = 10
	// clusterEmbed is the embed closure cmd/halk-serve hands the cluster
	// router, with the wire arcs as ValueArcs.
	clusterEmbed := func(n *query.Node) []ValueArc {
		arcs := m.EmbedQuery(n)
		specs := make([]ValueArc, len(arcs))
		for i, a := range arcs {
			specs[i] = ValueArc{C: a.C, L: a.L, Hot: a.Hot}
		}
		return specs
	}
	refsNow := func() viewRefs {
		var refs viewRefs
		ai := m.NewAnswerIndex(annCfg)
		for _, q := range queries {
			res, err := r.RankTopK(context.Background(), q, k)
			if err != nil {
				t.Fatal(err)
			}
			refs.embed = append(refs.embed, m.EmbedQuery(q))
			refs.dist = append(refs.dist, m.Distances(q))
			refs.approx = append(refs.approx, ai.TopKApprox(q, k))
			refs.ranked = append(refs.ranked, res)
		}
		return refs
	}

	// A at the current version, B one fine-tune later, then back to A:
	// from here on, versions of odd distance from vA are B.
	var refs [2]viewRefs
	refs[0] = refsNow()
	ft, err := m.FineTuneEdges(edges, nil, ftCfg)
	if err != nil || len(ft.DirtyEntities) == 0 {
		t.Fatalf("FineTuneEdges: %d dirty entities, err %v", len(ft.DirtyEntities), err)
	}
	if err := r.RefreshDirty(ft.DirtyEntities); err != nil {
		t.Fatal(err)
	}
	refs[1] = refsNow()
	if _, err := m.ReloadFromFile(path, "FB237", 81); err != nil {
		t.Fatal(err)
	}
	if err := r.RefreshDirty(ft.DirtyEntities); err != nil {
		t.Fatal(err)
	}
	vA := m.EntityVersion()
	state := func(v uint64) *viewRefs { return &refs[(v-vA)%2] }

	sameBits := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	sameArcs := func(a, b []ValueArc) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !sameBits(a[i].C, b[i].C) || !sameBits(a[i].L, b[i].L) || !sameBits(a[i].Hot, b[i].Hot) {
				return false
			}
		}
		return true
	}
	sameIDs := func(a, b []kg.EntityID) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	// Each reader checks one query per round and keeps going until the
	// writer is done and it has checked at least one answer.
	var stopped atomic.Bool
	var readers sync.WaitGroup
	defer func() {
		stopped.Store(true)
		readers.Wait()
	}()
	reader := func(check func(q int) bool) {
		readers.Add(1)
		go func() {
			defer readers.Done()
			checked := 0
			for i := 0; checked == 0 || !stopped.Load(); i++ {
				if t.Failed() {
					return
				}
				if check(i % len(queries)) {
					checked++
				}
			}
		}()
	}
	reader(func(q int) bool {
		v0 := m.EntityVersion()
		arcs := m.EmbedQuery(queries[q])
		d := m.Distances(queries[q])
		if m.EntityVersion() != v0 {
			return false
		}
		if ref := state(v0); !sameArcs(arcs, ref.embed[q]) || !sameBits(d, ref.dist[q]) {
			t.Errorf("query %d at version %d: EmbedQuery/Distances differ from the reference", q, v0)
		}
		return true
	})
	reader(func(q int) bool {
		res, err := r.RankTopK(context.Background(), queries[q], k)
		if err != nil {
			t.Error(err)
			return false
		}
		if ref := state(res.Version).ranked[q]; !sameIDs(res.IDs, ref.IDs) || !sameBits(res.Dists, ref.Dists) {
			t.Errorf("query %d at snapshot version %d: RankTopK %v %v, reference %v %v", q, res.Version, res.IDs, res.Dists, ref.IDs, ref.Dists)
		}
		return true
	})
	reader(func(q int) bool {
		v0 := m.EntityVersion()
		ai := m.NewAnswerIndex(annCfg)
		if m.EntityVersion() != v0 {
			return false
		}
		if got, ref := ai.TopKApprox(queries[q], k), state(v0).approx[q]; !sameIDs(got, ref) {
			t.Errorf("query %d at version %d: TopKApprox %v, reference %v", q, v0, got, ref)
		}
		return true
	})
	reader(func(q int) bool {
		v0 := m.EntityVersion()
		arcs := clusterEmbed(queries[q])
		if m.EntityVersion() != v0 {
			return false
		}
		if !sameArcs(arcs, state(v0).embed[q]) {
			t.Errorf("query %d at version %d: cluster embed differs from the reference", q, v0)
		}
		return true
	})

	for i := 0; i < 20 && !t.Failed(); i++ {
		ft, err := m.FineTuneEdges(edges, nil, ftCfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.RefreshDirty(ft.DirtyEntities); err != nil {
			t.Fatal(err)
		}
		if _, err := m.ReloadFromFile(path, "FB237", 81); err != nil {
			t.Fatal(err)
		}
		// The reload changed rows the dirty set does not list; the
		// publish must rebuild every shard.
		if err := r.RefreshDirty(ft.DirtyEntities); err != nil {
			t.Fatal(err)
		}
	}
}
