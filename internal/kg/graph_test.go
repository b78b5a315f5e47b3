package kg

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func tinyGraph() *Graph {
	ents, rels := NewDict(), NewDict()
	for _, n := range []string{"a", "b", "c", "d"} {
		ents.Add(n)
	}
	rels.Add("knows")
	rels.Add("likes")
	g := NewGraph(ents, rels)
	g.AddTriple(Triple{0, 0, 1}) // a knows b
	g.AddTriple(Triple{0, 0, 2}) // a knows c
	g.AddTriple(Triple{1, 1, 2}) // b likes c
	g.AddTriple(Triple{3, 0, 2}) // d knows c
	return g
}

func TestGraphBasics(t *testing.T) {
	g := tinyGraph()
	if g.NumEntities() != 4 || g.NumRelations() != 2 || g.NumTriples() != 4 {
		t.Fatalf("sizes = (%d,%d,%d)", g.NumEntities(), g.NumRelations(), g.NumTriples())
	}
	if !g.HasTriple(0, 0, 1) || g.HasTriple(1, 0, 0) {
		t.Error("HasTriple wrong")
	}
	succ := g.Successors(0, 0)
	if len(succ) != 2 || succ[0] != 1 || succ[1] != 2 {
		t.Errorf("Successors(a, knows) = %v", succ)
	}
	pred := g.Predecessors(2, 0)
	if len(pred) != 2 || pred[0] != 0 || pred[1] != 3 {
		t.Errorf("Predecessors(c, knows) = %v", pred)
	}
	if g.OutDegree(0, 0) != 2 {
		t.Errorf("OutDegree = %d", g.OutDegree(0, 0))
	}
	if g.Degree(2) != 3 {
		t.Errorf("Degree(c) = %d, want 3", g.Degree(2))
	}
	heads := g.HeadsOf(0)
	if len(heads) != 2 || heads[0] != 0 || heads[1] != 3 {
		t.Errorf("HeadsOf(knows) = %v", heads)
	}
}

func TestGraphDuplicateIgnored(t *testing.T) {
	g := tinyGraph()
	if g.AddTriple(Triple{0, 0, 1}) {
		t.Error("duplicate AddTriple returned true")
	}
	if g.NumTriples() != 4 {
		t.Errorf("NumTriples = %d after duplicate", g.NumTriples())
	}
}

func TestGraphAddTripleOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	g := tinyGraph()
	g.AddTriple(Triple{99, 0, 0})
}

func TestInsertSortedKeepsOrder(t *testing.T) {
	f := func(raw []int16) bool {
		var s []EntityID
		for _, v := range raw {
			s = insertSorted(s, EntityID(v))
		}
		return sort.SliceIsSorted(s, func(i, j int) bool { return s[i] < s[j] }) && len(s) == len(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDict(t *testing.T) {
	d := NewDict()
	a := d.Add("alpha")
	b := d.Add("beta")
	if a != 0 || b != 1 {
		t.Fatalf("ids = %d,%d", a, b)
	}
	if again := d.Add("alpha"); again != a {
		t.Error("re-Add changed id")
	}
	if id, ok := d.ID("beta"); !ok || id != 1 {
		t.Error("ID lookup failed")
	}
	if _, ok := d.ID("gamma"); ok {
		t.Error("unknown name should not resolve")
	}
	if d.Name(0) != "alpha" || d.Len() != 2 {
		t.Error("Name/Len wrong")
	}
	if len(d.Names()) != 2 {
		t.Error("Names wrong")
	}
}

func TestDictNamePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewDict().Name(3)
}

func TestGroupingInvariants(t *testing.T) {
	g := tinyGraph()
	rng := rand.New(rand.NewSource(3))
	gr := NewGrouping(g, 2, rng)
	for e := EntityID(0); e < 4; e++ {
		oh := gr.OneHot(e)
		ones := 0
		for i, v := range oh {
			if v == 1 {
				ones++
				if i != gr.GroupOf(e) {
					t.Error("one-hot index mismatch")
				}
			} else if v != 0 {
				t.Error("one-hot has non-binary value")
			}
		}
		if ones != 1 {
			t.Error("one-hot is not one-hot")
		}
	}
	// Every triple's group pair must be connected.
	for _, tr := range g.Triples() {
		if !gr.Connected(tr.R, gr.GroupOf(tr.H), gr.GroupOf(tr.T)) {
			t.Errorf("group adjacency missing for %+v", tr)
		}
	}
}

func TestGroupingProjectHot(t *testing.T) {
	g := tinyGraph()
	gr := NewGrouping(g, 2, rand.New(rand.NewSource(3)))
	hot := gr.OneHot(0) // group of "a"
	out := gr.ProjectHot(hot, 0)
	// groups of b and c must be reachable
	if out[gr.GroupOf(1)] != 1 || out[gr.GroupOf(2)] != 1 {
		t.Errorf("ProjectHot = %v, groups of b,c = %d,%d", out, gr.GroupOf(1), gr.GroupOf(2))
	}
}

func TestIntersectHot(t *testing.T) {
	got := IntersectHot([]float64{1, 0, 1}, []float64{1, 1, 0})
	want := []float64{1, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IntersectHot = %v, want %v", got, want)
		}
	}
	if IntersectHot() != nil {
		t.Error("IntersectHot() of nothing should be nil")
	}
}

func TestRemoveTriple(t *testing.T) {
	g := tinyGraph()
	if g.RemoveTriple(Triple{1, 0, 0}) {
		t.Error("RemoveTriple of absent triple reported true")
	}
	if !g.RemoveTriple(Triple{0, 0, 1}) {
		t.Fatal("RemoveTriple of present triple reported false")
	}
	if g.HasTriple(0, 0, 1) {
		t.Error("HasTriple still reports the removed triple")
	}
	if g.NumTriples() != 3 {
		t.Errorf("NumTriples = %d, want 3", g.NumTriples())
	}
	if succ := g.Successors(0, 0); len(succ) != 1 || succ[0] != 2 {
		t.Errorf("Successors(a, knows) after removal = %v, want [2]", succ)
	}
	if pred := g.Predecessors(1, 0); len(pred) != 0 {
		t.Errorf("Predecessors(b, knows) after removal = %v, want empty", pred)
	}
	// Removing the same triple again is a no-op.
	if g.RemoveTriple(Triple{0, 0, 1}) {
		t.Error("second RemoveTriple reported true")
	}
	// Re-adding after removal works and restores the indexes.
	if !g.AddTriple(Triple{0, 0, 1}) {
		t.Error("re-AddTriple after removal reported duplicate")
	}
	if succ := g.Successors(0, 0); len(succ) != 2 || succ[0] != 1 || succ[1] != 2 {
		t.Errorf("Successors after re-add = %v, want [1 2]", succ)
	}
}

func TestRemoveTripleRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ents, rels := NewDict(), NewDict()
	for i := 0; i < 20; i++ {
		ents.Add(string(rune('a' + i)))
	}
	rels.Add("r0")
	rels.Add("r1")
	g := NewGraph(ents, rels)
	var live []Triple
	for i := 0; i < 200; i++ {
		tr := Triple{EntityID(rng.Intn(20)), RelationID(rng.Intn(2)), EntityID(rng.Intn(20))}
		if g.AddTriple(tr) {
			live = append(live, tr)
		}
	}
	// Remove half at random, then verify every index agrees with the
	// surviving set.
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	cut := len(live) / 2
	for _, tr := range live[:cut] {
		if !g.RemoveTriple(tr) {
			t.Fatalf("RemoveTriple(%+v) reported absent", tr)
		}
	}
	survivors := live[cut:]
	if g.NumTriples() != len(survivors) {
		t.Fatalf("NumTriples = %d, want %d", g.NumTriples(), len(survivors))
	}
	for _, tr := range survivors {
		if !g.HasTriple(tr.H, tr.R, tr.T) {
			t.Errorf("survivor %+v missing", tr)
		}
		found := false
		for _, s := range g.Successors(tr.H, tr.R) {
			if s == tr.T {
				found = true
			}
		}
		if !found {
			t.Errorf("survivor %+v missing from Successors", tr)
		}
	}
	for _, tr := range live[:cut] {
		if g.HasTriple(tr.H, tr.R, tr.T) {
			t.Errorf("removed %+v still present", tr)
		}
		for _, s := range g.Successors(tr.H, tr.R) {
			if s == tr.T {
				t.Errorf("removed %+v still in Successors", tr)
			}
		}
		for _, p := range g.Predecessors(tr.T, tr.R) {
			if p == tr.H {
				t.Errorf("removed %+v still in Predecessors", tr)
			}
		}
	}
}
