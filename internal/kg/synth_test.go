package kg

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

func TestSplitInvariants(t *testing.T) {
	ds := SynthFB237(1)
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	nTrain, nValid, nTest := ds.Train.NumTriples(), len(ds.ValidEdges), ds.Test.NumTriples()
	if nValid == 0 || nTrain+nValid >= nTest {
		t.Errorf("split sizes not strictly growing: train %d, valid edges %d, test %d", nTrain, nValid, nTest)
	}
	for _, tr := range ds.ValidEdges {
		if ds.Train.HasTriple(tr.H, tr.R, tr.T) {
			t.Fatalf("validation edge %+v is in train", tr)
		}
	}
	// Test holds Train, then the validation edges, then the test-only
	// edges, in insertion order.
	test := ds.Test.Triples()
	if !reflect.DeepEqual(test[:nTrain], ds.Train.Triples()) {
		t.Error("Test.Triples() does not start with Train.Triples()")
	}
	if !reflect.DeepEqual(test[nTrain:nTrain+nValid], ds.ValidEdges) {
		t.Error("Test.Triples() does not continue with ValidEdges")
	}
	// Holdout never takes a head's last fact under a relation, so train
	// stays non-trivial.
	if nTrain < nTest/2 {
		t.Errorf("train graph suspiciously small: %d of %d", nTrain, nTest)
	}
}

// TestValidateRejects: a dataset that breaks one invariant Validate
// states, and only that one, fails it.
func TestValidateRejects(t *testing.T) {
	train := tinyGraph()
	edge := Triple{2, 1, 3} // c likes d
	build := func() *Dataset {
		test := NewGraph(train.Entities, train.Relations)
		for _, tr := range train.Triples() {
			test.AddTriple(tr)
		}
		test.AddTriple(edge)
		return &Dataset{Name: "tiny", Train: train, ValidEdges: []Triple{edge}, Test: test}
	}
	if err := build().Validate(); err != nil {
		t.Fatalf("well-formed dataset: %v", err)
	}
	for name, breakIt := range map[string]func(*Dataset){
		"entity dictionary":   func(d *Dataset) { d.Test.Entities = NewDict() },
		"relation dictionary": func(d *Dataset) { d.Test.Relations = NewDict() },
		"train ⊄ test":        func(d *Dataset) { d.Test.RemoveTriple(Triple{0, 0, 1}) },
		"valid edge in train": func(d *Dataset) { d.ValidEdges = append(d.ValidEdges, Triple{0, 0, 1}) },
		"valid ⊄ test":        func(d *Dataset) { d.Test.RemoveTriple(edge) },
	} {
		d := build()
		breakIt(d)
		if d.Validate() == nil {
			t.Errorf("%s: Validate accepted the broken dataset", name)
		}
	}
}

func TestSynthDeterministic(t *testing.T) {
	a := SynthNELL(7)
	b := SynthNELL(7)
	ta, tb := a.Test.Triples(), b.Test.Triples()
	if len(ta) != len(tb) {
		t.Fatalf("sizes differ: %d vs %d", len(ta), len(tb))
	}
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("triple %d differs: %+v vs %+v", i, ta[i], tb[i])
		}
	}
	c := SynthNELL(8)
	if c.Test.NumTriples() == a.Test.NumTriples() {
		// Different seeds may rarely coincide in count; compare content.
		same := true
		for i, tr := range c.Test.Triples() {
			if tr != ta[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical datasets")
		}
	}
}

func TestStandardDatasets(t *testing.T) {
	for _, ds := range Standard(3) {
		if err := ds.Validate(); err != nil {
			t.Errorf("%s: %v", ds.Name, err)
		}
		if ds.Train.NumTriples() < 500 {
			t.Errorf("%s: too few train triples: %d", ds.Name, ds.Train.NumTriples())
		}
		if ds.Train.NumRelations() < 10 {
			t.Errorf("%s: too few relations: %d", ds.Name, ds.Train.NumRelations())
		}
	}
}

// TestSynthByName: each stand-in's name generates the dataset its own
// constructor does — the name a checkpoint header carries is enough to
// rebuild the graph — and any other name is an error.
func TestSynthByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		want *Dataset // nil: the name is unknown
	}{
		{"FB15k", SynthFB15k(3)},
		{"FB237", SynthFB237(3)},
		{"NELL", SynthNELL(3)},
		{"fb237", nil},
		{"", nil},
	} {
		got, err := SynthByName(tc.name, 3)
		if tc.want == nil {
			if err == nil || got != nil {
				t.Errorf("SynthByName(%q) = %v, %v; want an error", tc.name, got, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("SynthByName(%q): %v", tc.name, err)
		}
		if got.Name != tc.name || !reflect.DeepEqual(got.Train.Triples(), tc.want.Train.Triples()) ||
			!reflect.DeepEqual(got.Test.Triples(), tc.want.Test.Triples()) {
			t.Errorf("SynthByName(%q) differs from the %s constructor's dataset", tc.name, tc.name)
		}
	}
}

func TestFB15kHasInverses(t *testing.T) {
	ds := SynthFB15k(2)
	found := false
	for _, n := range ds.Train.Relations.Names() {
		if len(n) > 4 && n[len(n)-4:] == "_inv" {
			found = true
			break
		}
	}
	if !found {
		t.Error("FB15k stand-in has no inverse relations")
	}
	ds237 := SynthFB237(2)
	for _, n := range ds237.Train.Relations.Names() {
		if len(n) > 4 && n[len(n)-4:] == "_inv" {
			t.Error("FB237 stand-in should not contain inverse relations")
		}
	}
}

func TestSynthOneToManyRelationsExist(t *testing.T) {
	ds := SynthFB15k(4)
	g := ds.Test
	maxFan := 0
	for r := 0; r < g.NumRelations(); r++ {
		for _, h := range g.HeadsOf(RelationID(r)) {
			if d := g.OutDegree(h, RelationID(r)); d > maxFan {
				maxFan = d
			}
		}
	}
	if maxFan < 5 {
		t.Errorf("no one-to-many structure: max fan-out %d", maxFan)
	}
}

func TestTSVRoundTrip(t *testing.T) {
	ds := SynthFB237(9)
	var buf bytes.Buffer
	if err := WriteTSV(&buf, ds.Train); err != nil {
		t.Fatal(err)
	}
	g, err := ReadTSV(&buf, NewDict(), NewDict())
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTriples() != ds.Train.NumTriples() {
		t.Fatalf("triple count %d != %d", g.NumTriples(), ds.Train.NumTriples())
	}
	// spot-check a few triples by name
	for i, tr := range ds.Train.Triples() {
		if i >= 50 {
			break
		}
		h, _ := g.Entities.ID(ds.Train.Entities.Name(int32(tr.H)))
		r, _ := g.Relations.ID(ds.Train.Relations.Name(int32(tr.R)))
		tl, _ := g.Entities.ID(ds.Train.Entities.Name(int32(tr.T)))
		if !g.HasTriple(EntityID(h), RelationID(r), EntityID(tl)) {
			t.Fatalf("triple %d missing after round trip", i)
		}
	}
}

// TestWriteTSVExtra: the validation graph is written as Train's triples
// then the validation edges, and reads back as exactly that graph.
func TestWriteTSVExtra(t *testing.T) {
	ds := SynthFB237(9)
	var buf bytes.Buffer
	if err := WriteTSV(&buf, ds.Train, ds.ValidEdges...); err != nil {
		t.Fatal(err)
	}
	g, err := ReadTSV(&buf, ds.Train.Entities, ds.Train.Relations)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]Triple(nil), ds.Train.Triples()...), ds.ValidEdges...)
	if !reflect.DeepEqual(g.Triples(), want) {
		t.Errorf("read back %d triples, want Train's %d then %d validation edges",
			g.NumTriples(), ds.Train.NumTriples(), len(ds.ValidEdges))
	}
}

func TestReadTSVRejectsMalformed(t *testing.T) {
	_, err := ReadTSV(bytes.NewBufferString("a\tb\n"), NewDict(), NewDict())
	if err == nil {
		t.Error("expected error for 2-field line")
	}
}

func TestReadTSVSkipsCommentsAndBlanks(t *testing.T) {
	src := "# comment\n\na\tr\tb\n"
	g, err := ReadTSV(bytes.NewBufferString(src), NewDict(), NewDict())
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTriples() != 1 {
		t.Errorf("NumTriples = %d, want 1", g.NumTriples())
	}
}

func TestSplitPanicsOnBadFractions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Split("x", tinyGraph(), 0.6, 0.6, rand.New(rand.NewSource(1)))
}

func TestSynthConfigSweepInvariants(t *testing.T) {
	// Sweep a few generator configurations: the split invariants and
	// non-degeneracy must hold across the parameter space, not just the
	// three presets.
	base := SynthConfig{
		Name: "sweep", NumTypes: 6, HeadFrac: 0.5, MeanFanout: 2,
		OneToManyFrac: 0.2, ManyFanout: 5, ValidFrac: 0.1, TestFrac: 0.1,
	}
	cases := []struct{ n, m int }{{200, 10}, {500, 25}, {1500, 60}}
	for i, c := range cases {
		cfg := base
		cfg.NumEntities, cfg.NumRelations, cfg.Seed = c.n, c.m, int64(i+1)
		ds := Synth(cfg)
		if err := ds.Validate(); err != nil {
			t.Errorf("config %d: %v", i, err)
		}
		if ds.Train.NumTriples() == 0 {
			t.Errorf("config %d: empty training graph", i)
		}
		if ds.Test.NumTriples() <= ds.Train.NumTriples() {
			t.Errorf("config %d: no held-out edges", i)
		}
	}
}

func TestSynthPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Synth(SynthConfig{NumEntities: 0, NumRelations: 5, NumTypes: 2})
}
