package halk

import (
	"math"
	"math/rand"
	"testing"

	"github.com/halk-kg/halk/internal/autodiff"
	"github.com/halk-kg/halk/internal/geometry"
	"github.com/halk-kg/halk/internal/kg"
	"github.com/halk-kg/halk/internal/model"
	"github.com/halk-kg/halk/internal/query"
)

func testConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.Dim = 8
	cfg.Hidden = 16
	cfg.NumGroups = 4
	return cfg
}

func testModel(t *testing.T, seed int64) (*Model, *kg.Dataset) {
	t.Helper()
	ds := kg.SynthFB237(seed)
	return New(ds.Train, testConfig(seed)), ds
}

func TestVariantNames(t *testing.T) {
	want := map[Variant]string{
		Full: "HaLk", V1NewLookDiff: "HaLk-V1", V2LinearNeg: "HaLk-V2", V3NewLookProj: "HaLk-V3",
	}
	for v, name := range want {
		if v.String() != name {
			t.Errorf("Variant %d = %q, want %q", int(v), v.String(), name)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(c *Config){
		func(c *Config) { c.Dim = 0 },
		func(c *Config) { c.Rho = 0 },
		func(c *Config) { c.Eta = 1 },
		func(c *Config) { c.Gamma = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(1)
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			cfg.validate()
		}()
	}
}

// arcRangesOK checks the closed-form range invariants of an embedded arc:
// centers finite, lengths within [0, 2πρ].
func arcRangesOK(t *testing.T, name string, a Arc, rho float64) {
	t.Helper()
	for j, c := range a.C.Value() {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			t.Fatalf("%s: center[%d] = %g", name, j, c)
		}
	}
	for j, l := range a.L.Value() {
		if math.IsNaN(l) || l < -1e-9 || l > geometry.TwoPi*rho+1e-9 {
			t.Fatalf("%s: length[%d] = %g out of [0, 2πρ]", name, j, l)
		}
	}
}

func TestEmbedAllStructures(t *testing.T) {
	m, ds := testModel(t, 1)
	s := query.NewSampler(ds.Train, rand.New(rand.NewSource(2)))
	for _, name := range query.StructureNames() {
		q, ok := s.Sample(name)
		if !ok {
			t.Fatalf("%s: sampling failed", name)
		}
		tape := autodiff.NewTape()
		for _, d := range query.DNF(q) {
			arc := m.Embed(tape, d)
			arcRangesOK(t, name, arc, m.cfg.Rho)
			if len(arc.Hot) != m.cfg.NumGroups {
				t.Fatalf("%s: hot vector has %d entries, want %d", name, len(arc.Hot), m.cfg.NumGroups)
			}
		}
	}
}

func TestEmbedPanicsOnUnion(t *testing.T) {
	m, _ := testModel(t, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for union node")
		}
	}()
	u := query.NewUnion(
		query.NewProjection(0, query.NewAnchor(0)),
		query.NewProjection(0, query.NewAnchor(1)),
	)
	m.Embed(autodiff.NewTape(), u)
}

func TestAnchorArcHasZeroLength(t *testing.T) {
	m, _ := testModel(t, 3)
	tape := autodiff.NewTape()
	arc := m.Embed(tape, query.NewAnchor(5))
	for _, l := range arc.L.Value() {
		if l != 0 {
			t.Fatal("anchor arclength must be 0 (an entity is a point)")
		}
	}
	want := m.EntityAngles(5)
	for j, c := range arc.C.Value() {
		if c != want[j] {
			t.Fatal("anchor center must equal the entity point embedding")
		}
	}
}

func TestLinearNegationIsExactComplement(t *testing.T) {
	cfg := testConfig(4)
	cfg.Variant = V2LinearNeg
	ds := kg.SynthFB237(4)
	m := New(ds.Train, cfg)
	tape := autodiff.NewTape()
	in := m.Embed(tape, query.NewProjection(0, query.NewAnchor(1)))
	out := m.negate(tape, in)
	for j := range in.C.Value() {
		// centers must be antipodal
		d := math.Abs(geometry.AngDiff(in.C.Value()[j], out.C.Value()[j]))
		if math.Abs(d-math.Pi) > 1e-9 {
			t.Fatalf("dim %d: centers not antipodal (Δ=%g)", j, d)
		}
		// lengths must complement to the full circle
		sum := in.L.Value()[j] + out.L.Value()[j]
		if math.Abs(sum-geometry.TwoPi*m.cfg.Rho) > 1e-9 {
			t.Fatalf("dim %d: lengths sum to %g, want 2πρ", j, sum)
		}
	}
}

func TestDifferenceCardinalityConstraint(t *testing.T) {
	// Full HaLk: |result| <= |minuend| per dimension (Eq. 8).
	m, ds := testModel(t, 5)
	s := query.NewSampler(ds.Train, rand.New(rand.NewSource(6)))
	q, ok := s.Sample("2d")
	if !ok {
		t.Fatal("sampling 2d failed")
	}
	tape := autodiff.NewTape()
	minuend := m.Embed(tape, q.Args[0])
	result := m.Embed(tape, q)
	for j := range result.L.Value() {
		if result.L.Value()[j] > minuend.L.Value()[j]+1e-9 {
			t.Fatalf("dim %d: result length %g exceeds minuend %g",
				j, result.L.Value()[j], minuend.L.Value()[j])
		}
	}
}

func TestIntersectionCardinalityConstraint(t *testing.T) {
	// |result| <= min_i |input_i| per dimension (Eq. 11).
	m, ds := testModel(t, 7)
	s := query.NewSampler(ds.Train, rand.New(rand.NewSource(8)))
	q, ok := s.Sample("3i")
	if !ok {
		t.Fatal("sampling 3i failed")
	}
	tape := autodiff.NewTape()
	result := m.Embed(tape, q)
	for _, child := range q.Args {
		ca := m.Embed(tape, child)
		for j := range result.L.Value() {
			if result.L.Value()[j] > ca.L.Value()[j]+1e-9 {
				t.Fatalf("dim %d: intersection longer than input", j)
			}
		}
	}
}

func TestLossFiniteAndBackpropagates(t *testing.T) {
	m, ds := testModel(t, 9)
	rng := rand.New(rand.NewSource(10))
	for _, structure := range query.TrainStructures {
		w := query.Workload(structure, 2, ds.Train, ds.Train, rng)
		if len(w) == 0 {
			t.Fatalf("%s: no training queries", structure)
		}
		tape := autodiff.NewTape()
		loss, ok := m.Loss(tape, &w[0], 4, rng)
		if !ok {
			t.Fatalf("%s: Loss not ok", structure)
		}
		lv := loss.Value()[0]
		if math.IsNaN(lv) || math.IsInf(lv, 0) || lv < 0 {
			t.Fatalf("%s: loss = %g", structure, lv)
		}
		m.Params().ZeroGrad()
		tape.Backward(loss)
		// gradient must reach the entity table
		nonzero := false
		for _, g := range m.ent.Grad {
			if g != 0 {
				nonzero = true
				break
			}
		}
		if !nonzero {
			t.Fatalf("%s: no gradient reached entity embeddings", structure)
		}
	}
}

func TestDistancesAndTopK(t *testing.T) {
	m, ds := testModel(t, 11)
	s := query.NewSampler(ds.Train, rand.New(rand.NewSource(12)))
	q, ok := s.Sample("2p")
	if !ok {
		t.Fatal("sampling failed")
	}
	d := m.Distances(q)
	if len(d) != ds.Train.NumEntities() {
		t.Fatalf("Distances len = %d, want %d", len(d), ds.Train.NumEntities())
	}
	for _, v := range d {
		if math.IsNaN(v) || v < 0 {
			t.Fatalf("bad distance %g", v)
		}
	}
	top := m.TopK(q, 10)
	if len(top) != 10 {
		t.Fatalf("TopK returned %d entities", len(top))
	}
	for i := 1; i < len(top); i++ {
		if d[top[i-1]] > d[top[i]] {
			t.Fatal("TopK not sorted by distance")
		}
	}
	// TopK must return the global minimum first
	min := 0
	for e := range d {
		if d[e] < d[min] {
			min = e
		}
	}
	if int(top[0]) != min {
		t.Errorf("TopK[0] = %d, want argmin %d", top[0], min)
	}
}

func TestCandidatesPerNode(t *testing.T) {
	m, ds := testModel(t, 13)
	s := query.NewSampler(ds.Train, rand.New(rand.NewSource(14)))
	q, ok := s.Sample("pi")
	if !ok {
		t.Fatal("sampling failed")
	}
	cands := m.CandidatesPerNode(q, 5)
	if len(cands) != q.NumVariables() {
		t.Fatalf("candidates for %d nodes, want %d variables", len(cands), q.NumVariables())
	}
	for n, c := range cands {
		if len(c) != 5 {
			t.Errorf("node %s: %d candidates, want 5", n.Op, len(c))
		}
	}
}

func TestModelDeterministicInit(t *testing.T) {
	ds := kg.SynthFB237(20)
	a := New(ds.Train, testConfig(20))
	b := New(ds.Train, testConfig(20))
	ta, tb := a.Params().All(), b.Params().All()
	for i := range ta {
		for j := range ta[i].Data {
			if ta[i].Data[j] != tb[i].Data[j] {
				t.Fatalf("tensor %s differs at %d", ta[i].Name, j)
			}
		}
	}
}

func TestTrainingImprovesRanking(t *testing.T) {
	if testing.Short() {
		t.Skip("training smoke test")
	}
	ds := kg.SynthFB237(31)
	cfg := testConfig(31)
	m := New(ds.Train, cfg)

	rng := rand.New(rand.NewSource(32))
	eval := query.Workload("1p", 30, ds.Train, ds.Train, rng)
	mrr := func() float64 {
		total := 0.0
		for i := range eval {
			d := m.Distances(eval[i].Root)
			// One answer per query is enough for the smoke test, but it
			// must be the same one before and after training: map
			// iteration order would score a different answer per call
			// and drown the improvement in sampling noise.
			e := kg.EntityID(-1)
			for a := range eval[i].Answers {
				if e < 0 || a < e {
					e = a
				}
			}
			rank := 1
			for o, od := range d {
				if !eval[i].Answers.Has(kg.EntityID(o)) && od < d[e] {
					rank++
				}
			}
			total += 1 / float64(rank)
		}
		return total / float64(len(eval))
	}

	before := mrr()
	_, err := model.Train(m, ds.Train, model.TrainConfig{
		QueriesPerStructure: 40,
		Steps:               220,
		BatchSize:           8,
		NegSamples:          8,
		LR:                  0.01,
		Seed:                33,
		Structures:          []string{"1p", "2p"},
		// Workers: 0 accumulates gradients in goroutine-completion order,
		// so Seed alone does not pin the trained table; 1 is the
		// bit-deterministic setting and makes the strict > below stable.
		Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	after := mrr()
	if after <= before {
		t.Errorf("training did not improve 1p MRR: before %.4f, after %.4f", before, after)
	}
	t.Logf("1p MRR before %.4f after %.4f", before, after)
}
