package query

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/halk-kg/halk/internal/kg"
)

func TestStructureCatalog(t *testing.T) {
	names := StructureNames()
	if len(names) != len(structures) {
		t.Fatalf("StructureNames len = %d, want %d", len(names), len(structures))
	}
	for _, lists := range [][]string{TrainStructures, EPFOStructures, NegationStructures, LargeStructures, SizeLadder} {
		for _, n := range lists {
			if !HasStructure(n) {
				t.Errorf("structure %q missing from catalog", n)
			}
		}
	}
	if !UsesNegation("2in") || UsesNegation("2d") {
		t.Error("UsesNegation wrong")
	}
	if !UsesDifference("dp") || UsesDifference("2u") {
		t.Error("UsesDifference wrong")
	}
}

func TestSizeLadderSizes(t *testing.T) {
	// Table VI: query sizes 1..5 for 1p, 2p, pi, pip, p3ip.
	ds := kg.SynthNELL(11)
	s := NewSampler(ds.Test, rand.New(rand.NewSource(1)))
	for i, name := range SizeLadder {
		q, ok := s.Sample(name)
		if !ok {
			t.Fatalf("could not sample %s", name)
		}
		if got := q.Size(); got != i+1 {
			t.Errorf("%s: Size = %d, want %d", name, got, i+1)
		}
	}
}

func TestSampleAllStructuresNonEmpty(t *testing.T) {
	ds := kg.SynthFB15k(5)
	s := NewSampler(ds.Test, rand.New(rand.NewSource(2)))
	for _, name := range StructureNames() {
		q, ok := s.Sample(name)
		if !ok {
			t.Errorf("%s: sampling failed", name)
			continue
		}
		if err := q.Validate(); err != nil {
			t.Errorf("%s: invalid query: %v", name, err)
		}
		if len(Answers(q, ds.Test)) == 0 {
			t.Errorf("%s: sampled query has empty answers", name)
		}
	}
}

// TestSamplerTargetableFromTails: the targets merged from the
// relations' distinct-tail lists are, in order, the entities that one
// Predecessors lookup per (entity, relation) finds an incoming edge
// for, so sampling draws the same targets either way. The large case is
// the serving benchmark's table (its synthDataset at 20k entities).
func TestSamplerTargetableFromTails(t *testing.T) {
	large := kg.Synth(kg.SynthConfig{
		Name: "FB15k", NumEntities: 20000, NumRelations: 36, NumTypes: 8,
		HeadFrac: 0.1, MeanFanout: 2.5, OneToManyFrac: 0.30, ManyFanout: 8,
		InverseFrac: 0.8, ValidFrac: 0.08, TestFrac: 0.08, Seed: 1,
	})
	for name, ds := range map[string]*kg.Dataset{"SynthFB15k(1)": kg.SynthFB15k(1), "bench large": large} {
		for part, g := range map[string]*kg.Graph{"Train": ds.Train, "Test": ds.Test} {
			var want []kg.EntityID
			for e := kg.EntityID(0); int(e) < g.NumEntities(); e++ {
				for r := 0; r < g.NumRelations(); r++ {
					if len(g.Predecessors(e, kg.RelationID(r))) > 0 {
						want = append(want, e)
						break
					}
				}
			}
			got := NewSampler(g, rand.New(rand.NewSource(1))).targetable
			if !slices.Equal(got, want) {
				t.Errorf("%s %s: %d targetable entities, want %d (or order differs)", name, part, len(got), len(want))
			}
		}
	}
}

func TestSamplerDeterministic(t *testing.T) {
	ds := kg.SynthFB237(3)
	a := NewSampler(ds.Test, rand.New(rand.NewSource(9)))
	b := NewSampler(ds.Test, rand.New(rand.NewSource(9)))
	for i := 0; i < 5; i++ {
		qa, oka := a.Sample("pi")
		qb, okb := b.Sample("pi")
		if oka != okb {
			t.Fatal("determinism broken (ok flags differ)")
		}
		if oka && qa.String() != qb.String() {
			t.Fatalf("query %d differs: %s vs %s", i, qa, qb)
		}
	}
}

func TestWorkloadHardAnswers(t *testing.T) {
	ds := kg.SynthFB237(4)
	rng := rand.New(rand.NewSource(7))
	qs := Workload("1p", 20, ds.Train, ds.Test, rng)
	if len(qs) == 0 {
		t.Fatal("no eval queries sampled")
	}
	for _, q := range qs {
		if len(q.HardAnswers) == 0 {
			t.Error("eval query with no hard answers")
		}
		for e := range q.HardAnswers {
			if !q.Answers.Has(e) {
				t.Error("hard answer not in full answer set")
			}
			if Answers(q.Root, ds.Train).Has(e) {
				t.Error("hard answer already derivable from train graph")
			}
		}
	}
}

func TestWorkloadTrainingMode(t *testing.T) {
	ds := kg.SynthFB237(4)
	rng := rand.New(rand.NewSource(8))
	qs := Workload("2i", 10, ds.Train, ds.Train, rng)
	if len(qs) != 10 {
		t.Fatalf("got %d training queries, want 10", len(qs))
	}
	for _, q := range qs {
		if len(q.HardAnswers) != len(q.Answers) {
			t.Error("training workload should have HardAnswers == Answers")
		}
	}
}

func TestNegationWorkloadHasLargeAnswerSets(t *testing.T) {
	// The paper observes that negation queries carry very large candidate
	// answer sets; our stand-in datasets must reproduce that.
	ds := kg.SynthFB15k(6)
	rng := rand.New(rand.NewSource(3))
	qs := Workload("2in", 10, ds.Train, ds.Train, rng)
	maxLen := 0
	for _, q := range qs {
		if len(q.Answers) > maxLen {
			maxLen = len(q.Answers)
		}
	}
	if maxLen < 5 {
		t.Errorf("negation answer sets suspiciously small: max %d", maxLen)
	}
}

func TestDNFEquivalenceOnSampledQueries(t *testing.T) {
	ds := kg.SynthFB237(12)
	s := NewSampler(ds.Test, rand.New(rand.NewSource(5)))
	for _, name := range []string{"2u", "up", "2ippu", "3ippu", "pi", "2in", "dp"} {
		for i := 0; i < 5; i++ {
			q, ok := s.Sample(name)
			if !ok {
				t.Fatalf("%s: sampling failed", name)
			}
			want := Answers(q, ds.Test)
			disjuncts := DNF(q)
			got := make(Set)
			for _, d := range disjuncts {
				if HasUnion(d) {
					t.Fatalf("%s: DNF disjunct still contains union: %s", name, d)
				}
				if err := d.Validate(); err != nil {
					t.Fatalf("%s: invalid disjunct: %v", name, err)
				}
				got = got.Union(Answers(d, ds.Test))
			}
			if len(got) != len(want) {
				t.Fatalf("%s: DNF answers %d != original %d", name, len(got), len(want))
			}
			for e := range want {
				if !got.Has(e) {
					t.Fatalf("%s: DNF lost answer %d", name, e)
				}
			}
		}
	}
}

func TestDNFUnionFreeQueryIsIdentity(t *testing.T) {
	q := NewProjection(1, NewIntersection(
		NewProjection(0, NewAnchor(3)),
		NewProjection(2, NewAnchor(4)),
	))
	ds := DNF(q)
	if len(ds) != 1 {
		t.Fatalf("DNF produced %d disjuncts for union-free query", len(ds))
	}
	if ds[0].String() != q.String() {
		t.Errorf("DNF changed union-free query: %s vs %s", ds[0], q)
	}
}

func TestDNFNegationOverUnionDeMorgan(t *testing.T) {
	// ¬(P(r0,a) ∪ P(r1,b)) must become a single conjunct ¬A ∧ ¬B.
	q := NewNegation(NewUnion(
		NewProjection(0, NewAnchor(0)),
		NewProjection(1, NewAnchor(1)),
	))
	ds := DNF(q)
	if len(ds) != 1 {
		t.Fatalf("got %d disjuncts, want 1", len(ds))
	}
	d := ds[0]
	if d.Op != OpIntersection || len(d.Args) != 2 ||
		d.Args[0].Op != OpNegation || d.Args[1].Op != OpNegation {
		t.Errorf("De Morgan rewrite wrong: %s", d)
	}
}

func TestDNFDisjunctCounts(t *testing.T) {
	u := NewUnion(NewProjection(0, NewAnchor(0)), NewProjection(1, NewAnchor(1)))
	cases := []struct {
		q    *Node
		want int
	}{
		{NewUnion(NewProjection(0, NewAnchor(0)), NewProjection(0, NewAnchor(1))), 2},
		{NewProjection(2, u.Clone()), 2},                              // up
		{NewIntersection(u.Clone(), u.Clone()), 4},                    // cross product
		{NewDifference(u.Clone(), NewProjection(2, NewAnchor(2))), 2}, // minuend distributes
		{NewDifference(NewProjection(2, NewAnchor(2)), u.Clone()), 1}, // subtrahend flattens
	}
	for i, c := range cases {
		if got := len(DNF(c.q)); got != c.want {
			t.Errorf("case %d: %d disjuncts, want %d", i, got, c.want)
		}
	}
}
