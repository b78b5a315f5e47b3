package halk

import (
	"bytes"
	"context"
	"encoding/gob"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/halk-kg/halk/internal/autodiff"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/query"
)

// pickNonEdge returns a triple (h, r, t) that is not in the graph, with h
// having at least one existing successor under r (so the projection arc
// is meaningful).
func pickNonEdge(t *testing.T, g *kg.Graph, seed int64) kg.Triple {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 10000; i++ {
		tr := g.Triples()[rng.Intn(g.NumTriples())]
		cand := kg.EntityID(rng.Intn(g.NumEntities()))
		if !g.HasTriple(tr.H, tr.R, cand) {
			return kg.Triple{H: tr.H, R: tr.R, T: cand}
		}
	}
	t.Fatal("no non-edge found")
	return kg.Triple{}
}

func cloneData(d []float64) []float64 { return append([]float64(nil), d...) }

func TestFineTuneEdgesDirtySetByteIdentity(t *testing.T) {
	m, _ := testModel(t, 11)
	before := cloneData(m.ent.Data)
	relCBefore := cloneData(m.relC.Data)
	relLBefore := cloneData(m.relL.Data)
	v0 := m.EntityVersion()

	edge := pickNonEdge(t, m.Graph(), 7)
	res, err := m.FineTuneEdges([]kg.Triple{edge}, nil, FineTuneConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Edges != 1 {
		t.Fatalf("Edges = %d, want 1", res.Edges)
	}
	if res.Version != v0+1 || m.EntityVersion() != v0+1 {
		t.Fatalf("version = %d (result %d), want %d", m.EntityVersion(), res.Version, v0+1)
	}

	dirty := make(map[kg.EntityID]bool)
	for _, e := range res.DirtyEntities {
		dirty[e] = true
	}
	if !dirty[edge.H] || !dirty[edge.T] {
		t.Fatalf("dirty set %v missing head/tail of %+v", res.DirtyEntities, edge)
	}
	dim := m.cfg.Dim
	changedDirty := false
	for e := 0; e < m.Graph().NumEntities(); e++ {
		row := m.ent.Data[e*dim : (e+1)*dim]
		old := before[e*dim : (e+1)*dim]
		same := true
		for j := range row {
			if row[j] != old[j] {
				same = false
				break
			}
		}
		if dirty[kg.EntityID(e)] {
			if !same {
				changedDirty = true
			}
		} else if !same {
			t.Fatalf("entity %d outside dirty set changed", e)
		}
	}
	if !changedDirty {
		t.Fatal("no dirty entity row changed at all")
	}

	dirtyRel := make(map[kg.RelationID]bool)
	for _, r := range res.DirtyRelations {
		dirtyRel[r] = true
	}
	if !dirtyRel[edge.R] {
		t.Fatalf("dirty relations %v missing %d", res.DirtyRelations, edge.R)
	}
	for r := 0; r < m.Graph().NumRelations(); r++ {
		if dirtyRel[kg.RelationID(r)] {
			continue
		}
		for j := r * dim; j < (r+1)*dim; j++ {
			if m.relC.Data[j] != relCBefore[j] || m.relL.Data[j] != relLBefore[j] {
				t.Fatalf("relation %d outside dirty set changed", r)
			}
		}
	}
}

func TestFineTuneEdgesDeterministic(t *testing.T) {
	m1, _ := testModel(t, 21)
	m2, _ := testModel(t, 21)
	edge := pickNonEdge(t, m1.Graph(), 5)
	other := pickNonEdge(t, m1.Graph(), 6)
	removed := m1.Graph().Triples()[3]
	cfg := FineTuneConfig{Seed: 99}
	if _, err := m1.FineTuneEdges([]kg.Triple{edge, other}, []kg.Triple{removed}, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.FineTuneEdges([]kg.Triple{edge, other}, []kg.Triple{removed}, cfg); err != nil {
		t.Fatal(err)
	}
	for i := range m1.ent.Data {
		if m1.ent.Data[i] != m2.ent.Data[i] {
			t.Fatalf("ent.Data[%d] diverged under identical seed: %v vs %v", i, m1.ent.Data[i], m2.ent.Data[i])
		}
	}
	for i := range m1.relC.Data {
		if m1.relC.Data[i] != m2.relC.Data[i] || m1.relL.Data[i] != m2.relL.Data[i] {
			t.Fatalf("relation tables diverged under identical seed at %d", i)
		}
	}
}

func TestFineTuneEdgesMovesAnswer(t *testing.T) {
	m, _ := testModel(t, 31)
	edge := pickNonEdge(t, m.Graph(), 9)
	node := query.NewProjection(edge.R, query.NewAnchor(edge.H))
	before := m.Distances(node)[edge.T]
	cfg := FineTuneConfig{Seed: 1}
	for step := 0; step < 25; step++ {
		cfg.Seed = int64(step)
		if _, err := m.FineTuneEdges([]kg.Triple{edge}, nil, cfg); err != nil {
			t.Fatal(err)
		}
	}
	after := m.Distances(node)[edge.T]
	if after >= before {
		t.Fatalf("distance of new tail did not shrink: before %v, after %v", before, after)
	}

	// And pushing a true edge out grows its tail's distance.
	tr := m.Graph().Triples()[0]
	rnode := query.NewProjection(tr.R, query.NewAnchor(tr.H))
	before = m.Distances(rnode)[tr.T]
	for step := 0; step < 25; step++ {
		cfg.Seed = int64(step)
		if _, err := m.FineTuneEdges(nil, []kg.Triple{tr}, cfg); err != nil {
			t.Fatal(err)
		}
	}
	after = m.Distances(rnode)[tr.T]
	if after <= before {
		t.Fatalf("distance of retracted tail did not grow: before %v, after %v", before, after)
	}
}

func TestFineTuneEdgesValidation(t *testing.T) {
	m, _ := testModel(t, 41)
	before := cloneData(m.ent.Data)
	v0 := m.EntityVersion()
	n := kg.EntityID(m.Graph().NumEntities())
	bad := []kg.Triple{{H: n, R: 0, T: 0}}
	if _, err := m.FineTuneEdges(bad, nil, FineTuneConfig{}); err == nil {
		t.Fatal("out-of-range head accepted")
	}
	badR := []kg.Triple{{H: 0, R: kg.RelationID(m.Graph().NumRelations()), T: 1}}
	if _, err := m.FineTuneEdges(nil, badR, FineTuneConfig{}); err == nil {
		t.Fatal("out-of-range relation accepted")
	}
	if m.EntityVersion() != v0 {
		t.Fatalf("version bumped on rejected batch: %d != %d", m.EntityVersion(), v0)
	}
	for i := range before {
		if m.ent.Data[i] != before[i] {
			t.Fatal("rejected batch mutated entity table")
		}
	}

	// An empty batch is a no-op with no version bump.
	res, err := m.FineTuneEdges(nil, nil, FineTuneConfig{})
	if err != nil || res.Edges != 0 || res.Version != v0 {
		t.Fatalf("empty batch: res=%+v err=%v, want 0 edges at version %d", res, err, v0)
	}
}

func TestSetEntityAnglesBatch(t *testing.T) {
	m, _ := testModel(t, 51)
	dim := m.cfg.Dim
	v0 := m.EntityVersion()
	mk := func(base float64) []float64 {
		a := make([]float64, dim)
		for j := range a {
			a[j] = base + float64(j)*0.01
		}
		return a
	}
	updates := []EntityUpdate{{E: 1, Angles: mk(0.5)}, {E: 3, Angles: mk(1.5)}, {E: 7, Angles: mk(2.5)}}
	if err := m.SetEntityAnglesBatch(updates); err != nil {
		t.Fatal(err)
	}
	if m.EntityVersion() != v0+1 {
		t.Fatalf("batch bumped version by %d, want exactly 1", m.EntityVersion()-v0)
	}
	for _, u := range updates {
		got := m.EntityAngles(u.E)
		for j := range got {
			if got[j] != u.Angles[j] {
				t.Fatalf("entity %d row not applied", u.E)
			}
		}
	}

	// All-or-nothing: one invalid update rejects the whole batch with no
	// bump and no partial writes.
	before := cloneData(m.ent.Data)
	v1 := m.EntityVersion()
	bad := []EntityUpdate{
		{E: 2, Angles: mk(0.9)},
		{E: kg.EntityID(m.Graph().NumEntities()), Angles: mk(0.1)},
	}
	if err := m.SetEntityAnglesBatch(bad); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if m.EntityVersion() != v1 {
		t.Fatal("invalid batch bumped version")
	}
	for i := range before {
		if m.ent.Data[i] != before[i] {
			t.Fatal("invalid batch left partial writes")
		}
	}

	if err := m.SetEntityAnglesBatch(nil); err != nil || m.EntityVersion() != v1 {
		t.Fatal("empty batch must be a no-op")
	}
}

// TestSetEntityAnglesRankVisibility hammers concurrent rankings against
// entity updates and fine-tune steps. Run with -race: the contract is
// that every ranking serializes against the row write + version bump as
// one unit, so the race detector stays silent and every ranking
// completes against a consistent table.
func TestSetEntityAnglesRankVisibility(t *testing.T) {
	m, _ := testModel(t, 61)
	tr := m.Graph().Triples()[0]
	node := query.NewProjection(tr.R, query.NewAnchor(tr.H))
	dim := m.cfg.Dim

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := m.DistancesContext(context.Background(), node); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	angles := make([]float64, dim)
	for i := 0; i < 50; i++ {
		for j := range angles {
			angles[j] = float64(i%6) + float64(j)*0.01
		}
		if err := m.SetEntityAngles(tr.T, angles); err != nil {
			t.Fatal(err)
		}
		if err := m.SetEntityAnglesBatch([]EntityUpdate{{E: tr.H, Angles: angles}}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.FineTuneEdges([]kg.Triple{tr}, nil, FineTuneConfig{Seed: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestTrainingStateAllocatedOnFirstUse pins the lazy optimizer state: a
// fresh model holds parameter values only, fine-tuning allocates Grad
// on exactly the tensors a backward pass reached, one Adam step
// completes Grad/M/Vm everywhere, and the moments round-trip into a
// CloneShapes staging registry.
func TestTrainingStateAllocatedOnFirstUse(t *testing.T) {
	m, _ := testModel(t, 13)
	for _, ts := range m.params.All() {
		if ts.Grad != nil || ts.M != nil || ts.Vm != nil {
			t.Fatalf("fresh model: tensor %s already has training state", ts.Name)
		}
	}

	// A 1p fine-tune reaches the embeddings and the projection heads,
	// never the intersection / difference / negation networks.
	negBefore := cloneData(m.params.Get("neg.center.w0").Data)
	edge := pickNonEdge(t, m.Graph(), 7)
	if _, err := m.FineTuneEdges([]kg.Triple{edge}, nil, FineTuneConfig{Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if len(m.ent.Grad) != len(m.ent.Data) {
		t.Fatalf("entity Grad has %d values after a fine-tune, want %d", len(m.ent.Grad), len(m.ent.Data))
	}
	neg := m.params.Get("neg.center.w0")
	if neg.Grad != nil || neg.M != nil {
		t.Fatal("a tensor no gradient reached was given training state")
	}
	applyRowSGD(neg, 0, 0.1, 1) // nil Grad: nothing to step against
	for i, v := range neg.Data {
		if v != negBefore[i] {
			t.Fatalf("neg.center.w0[%d] moved without a gradient", i)
		}
	}

	autodiff.NewAdam(1e-3).Step(m.params, 1)
	for _, ts := range m.params.All() {
		if len(ts.Grad) != len(ts.Data) || len(ts.M) != len(ts.Data) || len(ts.Vm) != len(ts.Data) {
			t.Fatalf("after one Adam step tensor %s has Grad/M/Vm of %d/%d/%d values, want %d",
				ts.Name, len(ts.Grad), len(ts.M), len(ts.Vm), len(ts.Data))
		}
	}

	var buf bytes.Buffer
	if err := m.params.EncodeMoments(gob.NewEncoder(&buf)); err != nil {
		t.Fatal(err)
	}
	staging := m.params.CloneShapes()
	if st := staging.Get("entity"); st.Grad != nil || st.M != nil {
		t.Fatal("CloneShapes allocated training state")
	}
	if err := staging.DecodeMoments(gob.NewDecoder(&buf)); err != nil {
		t.Fatal(err)
	}
	for _, ts := range m.params.All() {
		st := staging.Get(ts.Name)
		for i := range ts.M {
			if math.Float64bits(st.M[i]) != math.Float64bits(ts.M[i]) || math.Float64bits(st.Vm[i]) != math.Float64bits(ts.Vm[i]) {
				t.Fatalf("tensor %s: moment %d did not round-trip", ts.Name, i)
			}
		}
	}
}
