package kg

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
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

func TestAdjInsertKeepsOrder(t *testing.T) {
	f := func(raw []int16) bool {
		var a adj
		distinct := map[int16]bool{}
		for _, v := range raw {
			a.insert(EntityID(v%5), EntityID(v))
			distinct[v] = true
		}
		return adjLayoutErr(&a) == "" && len(a.vals) == len(distinct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// adjLayoutErr describes the first broken CSR invariant of a, or
// returns "": keys strictly ascending, off running from 0 to len(vals)
// with len(keys)+1 entries, and every key's list non-empty and strictly
// ascending.
func adjLayoutErr(a *adj) string {
	if len(a.keys) == 0 && len(a.vals) == 0 && len(a.off) <= 1 {
		return ""
	}
	if len(a.off) != len(a.keys)+1 || a.off[0] != 0 || int(a.off[len(a.keys)]) != len(a.vals) {
		return fmt.Sprintf("off %v over %d keys and %d values", a.off, len(a.keys), len(a.vals))
	}
	for i := range a.keys {
		if i > 0 && a.keys[i-1] >= a.keys[i] {
			return fmt.Sprintf("keys not strictly ascending: %v", a.keys)
		}
		l := a.vals[a.off[i]:a.off[i+1]]
		if len(l) == 0 {
			return fmt.Sprintf("key %d has an empty list", a.keys[i])
		}
		for j := 1; j < len(l); j++ {
			if l[j-1] >= l[j] {
				return fmt.Sprintf("key %d's list not strictly ascending: %v", a.keys[i], l)
			}
		}
	}
	return ""
}

// refGraph is the reference model of TestGraphMutationsMatchReference:
// a set of facts per relation and direction, plus the insertion order.
type refGraph struct {
	out, in map[RelationID]map[EntityID]map[EntityID]bool
	triples []Triple
}

func (r *refGraph) add(t Triple) bool {
	if r.out[t.R][t.H][t.T] {
		return false
	}
	put := func(m map[RelationID]map[EntityID]map[EntityID]bool, k, v EntityID) {
		if m[t.R] == nil {
			m[t.R] = map[EntityID]map[EntityID]bool{}
		}
		if m[t.R][k] == nil {
			m[t.R][k] = map[EntityID]bool{}
		}
		m[t.R][k][v] = true
	}
	put(r.out, t.H, t.T)
	put(r.in, t.T, t.H)
	r.triples = append(r.triples, t)
	return true
}

// remove reports whether t was present and whether removing it emptied
// its head's list.
func (r *refGraph) remove(t Triple) (present, emptied bool) {
	if !r.out[t.R][t.H][t.T] {
		return false, false
	}
	drop := func(m map[RelationID]map[EntityID]map[EntityID]bool, k, v EntityID) {
		delete(m[t.R][k], v)
		if len(m[t.R][k]) == 0 {
			delete(m[t.R], k)
		}
	}
	emptied = len(r.out[t.R][t.H]) == 1
	drop(r.out, t.H, t.T)
	drop(r.in, t.T, t.H)
	r.triples = slices.DeleteFunc(r.triples, func(x Triple) bool { return x == t })
	return true, emptied
}

func sortedKeys[V any](m map[EntityID]V) []EntityID {
	ks := make([]EntityID, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// graphMismatch describes the first read on which g and ref disagree,
// or returns "".
func graphMismatch(g *Graph, ref *refGraph) string {
	if g.NumTriples() != len(ref.triples) || !slices.Equal(g.Triples(), ref.triples) {
		return fmt.Sprintf("Triples() = %v, want %v", g.Triples(), ref.triples)
	}
	for r := RelationID(0); int(r) < g.NumRelations(); r++ {
		if int(r) < len(g.out) {
			for _, a := range []*adj{&g.out[r], &g.in[r]} {
				if err := adjLayoutErr(a); err != "" {
					return fmt.Sprintf("relation %d: %s", r, err)
				}
			}
		}
		if got, want := g.HeadsOf(r), sortedKeys(ref.out[r]); !slices.Equal(got, want) {
			return fmt.Sprintf("HeadsOf(%d) = %v, want %v", r, got, want)
		}
		if got, want := g.TailsOf(r), sortedKeys(ref.in[r]); !slices.Equal(got, want) {
			return fmt.Sprintf("TailsOf(%d) = %v, want %v", r, got, want)
		}
		for e := EntityID(0); int(e) < g.NumEntities(); e++ {
			if got, want := g.Successors(e, r), sortedKeys(ref.out[r][e]); !slices.Equal(got, want) {
				return fmt.Sprintf("Successors(%d, %d) = %v, want %v", e, r, got, want)
			}
			if got, want := g.Predecessors(e, r), sortedKeys(ref.in[r][e]); !slices.Equal(got, want) {
				return fmt.Sprintf("Predecessors(%d, %d) = %v, want %v", e, r, got, want)
			}
			for t := EntityID(0); int(t) < g.NumEntities(); t++ {
				if got, want := g.HasTriple(e, r, t), ref.out[r][e][t]; got != want {
					return fmt.Sprintf("HasTriple(%d, %d, %d) = %v, want %v", e, r, t, got, want)
				}
			}
		}
	}
	for e := EntityID(0); int(e) < g.NumEntities(); e++ {
		want := 0
		for r := range ref.out {
			want += len(ref.out[r][e]) + len(ref.in[r][e])
		}
		if got := g.Degree(e); got != want {
			return fmt.Sprintf("Degree(%d) = %d, want %d", e, got, want)
		}
	}
	return ""
}

// TestGraphMutationsMatchReference runs a seeded random interleaving of
// AddTriple and RemoveTriple, on a graph built by NewGraphFrom, against
// a map-of-sets reference, and compares every read after every
// operation. The run includes duplicate adds, absent removes, removals
// that empty a key's list, and a relation registered mid-run; before
// each comparison it appends to a returned Successors and HeadsOf
// slice, which must leave the graph unchanged.
func TestGraphMutationsMatchReference(t *testing.T) {
	const nEnt, ops = 10, 1500
	rng := rand.New(rand.NewSource(11))
	ents, rels := NewDict(), NewDict()
	for i := 0; i < nEnt; i++ {
		ents.Add(fmt.Sprintf("e%d", i))
	}
	for i := 0; i < 3; i++ {
		rels.Add(fmt.Sprintf("r%d", i))
	}
	randTriple := func() Triple {
		return Triple{EntityID(rng.Intn(nEnt)), RelationID(rng.Intn(rels.Len())), EntityID(rng.Intn(nEnt))}
	}
	ref := &refGraph{out: map[RelationID]map[EntityID]map[EntityID]bool{}, in: map[RelationID]map[EntityID]map[EntityID]bool{}}
	var initial []Triple
	for i := 0; i < 40; i++ {
		tr := randTriple()
		initial = append(initial, tr)
		ref.add(tr)
	}
	g := NewGraphFrom(ents, rels, initial)
	if err := graphMismatch(g, ref); err != "" {
		t.Fatalf("after NewGraphFrom: %s", err)
	}
	var dupAdds, absentRemoves, emptied, lateAdds int
	for op := 0; op < ops; op++ {
		if op == ops/3 {
			rels.Add("late")
		}
		var desc string
		switch p := rng.Float64(); {
		case p < 0.5:
			tr := randTriple()
			want := ref.add(tr)
			if got := g.AddTriple(tr); got != want {
				t.Fatalf("op %d: AddTriple(%v) = %v, want %v", op, tr, got, want)
			}
			if int(tr.R) == 3 && want {
				lateAdds++
			}
			desc = fmt.Sprintf("AddTriple(%v)", tr)
		case p < 0.6 && len(ref.triples) > 0:
			tr := ref.triples[rng.Intn(len(ref.triples))]
			dupAdds++
			if g.AddTriple(tr) {
				t.Fatalf("op %d: duplicate AddTriple(%v) reported new", op, tr)
			}
			desc = fmt.Sprintf("duplicate AddTriple(%v)", tr)
		case p < 0.9 && len(ref.triples) > 0:
			tr := ref.triples[rng.Intn(len(ref.triples))]
			_, e := ref.remove(tr)
			if e {
				emptied++
			}
			if !g.RemoveTriple(tr) {
				t.Fatalf("op %d: RemoveTriple(%v) reported absent", op, tr)
			}
			desc = fmt.Sprintf("RemoveTriple(%v)", tr)
		default:
			tr := randTriple()
			present, e := ref.remove(tr)
			if e {
				emptied++
			}
			if !present {
				absentRemoves++
			}
			if got := g.RemoveTriple(tr); got != present {
				t.Fatalf("op %d: RemoveTriple(%v) = %v, want %v", op, tr, got, present)
			}
			desc = fmt.Sprintf("random RemoveTriple(%v)", tr)
		}
		h, r := EntityID(rng.Intn(nEnt)), RelationID(rng.Intn(rels.Len()))
		_ = append(g.Successors(h, r), EntityID(nEnt-1))
		_ = append(g.HeadsOf(r), EntityID(nEnt-1))
		if err := graphMismatch(g, ref); err != "" {
			t.Fatalf("op %d, after %s: %s", op, desc, err)
		}
	}
	if dupAdds == 0 || absentRemoves == 0 || emptied == 0 || lateAdds == 0 {
		t.Errorf("run missed a case: %d duplicate adds, %d absent removes, %d emptied lists, %d adds under the late relation",
			dupAdds, absentRemoves, emptied, lateAdds)
	}
}

// TestNewGraphFromMatchesAddTriple: the bulk constructor builds the
// graph that sequential AddTriple calls build, duplicates and input
// order included, and the result keeps accepting mutations the same way.
func TestNewGraphFromMatchesAddTriple(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ents, rels := NewDict(), NewDict()
	for i := 0; i < 30; i++ {
		ents.Add(fmt.Sprintf("e%d", i))
	}
	for i := 0; i < 6; i++ {
		rels.Add(fmt.Sprintf("r%d", i)) // r5 stays empty
	}
	cases := map[string][]Triple{
		"empty":       nil,
		"descending":  {{3, 1, 2}, {3, 1, 1}, {2, 0, 4}, {1, 0, 4}, {0, 0, 4}},
		"duplicates":  {{1, 2, 3}, {0, 2, 3}, {1, 2, 3}, {4, 0, 0}, {0, 2, 3}, {1, 2, 3}},
		"self-loops":  {{2, 2, 2}, {2, 2, 2}, {5, 4, 5}},
		"random 2000": nil,
	}
	for i := 0; i < 2000; i++ {
		cases["random 2000"] = append(cases["random 2000"],
			Triple{EntityID(rng.Intn(30)), RelationID(rng.Intn(5)), EntityID(rng.Intn(30))})
	}
	for name, ts := range cases {
		bulk := NewGraphFrom(ents, rels, ts)
		seq := NewGraph(ents, rels)
		for _, tr := range ts {
			seq.AddTriple(tr)
		}
		if got, want := graphDigest(bulk), graphDigest(seq); got != want {
			t.Errorf("%s: NewGraphFrom digest %s, sequential AddTriple %s", name, got, want)
		}
		for _, tr := range []Triple{{7, 5, 8}, {7, 5, 9}, {1, 2, 3}} {
			bulk.AddTriple(tr)
			seq.AddTriple(tr)
		}
		bulk.RemoveTriple(Triple{7, 5, 8})
		seq.RemoveTriple(Triple{7, 5, 8})
		if got, want := graphDigest(bulk), graphDigest(seq); got != want {
			t.Errorf("%s: after the same mutations, digest %s, want %s", name, got, want)
		}
	}
}

func TestNewGraphFromOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	g := tinyGraph()
	NewGraphFrom(g.Entities, g.Relations, []Triple{{0, 0, 1}, {0, 9, 1}})
}

// graphBytes sums cap × element size over the graph's slices: the
// insertion slice, the per-relation adj headers, and each adj's arrays.
// The dictionaries are shared by a dataset's graphs and not counted.
func graphBytes(g *Graph) int {
	n := cap(g.triples)*int(unsafe.Sizeof(Triple{})) + (cap(g.out)+cap(g.in))*int(unsafe.Sizeof(adj{}))
	for _, as := range [][]adj{g.out, g.in} {
		for _, a := range as {
			n += (cap(a.keys)+cap(a.vals))*int(unsafe.Sizeof(EntityID(0))) + cap(a.off)*int(unsafe.Sizeof(int32(0)))
		}
	}
	return n
}

// TestGraphFootprint pins the layout's memory without timing: the
// serving benchmark's large table keeps Train and Test in at most 52
// bytes of slices per test-graph triple. Built at their final sizes,
// the arrays count 48.7 B (53.4 B if vals grows by append); the count
// is exact on any host, unlike the live heap (about 63 B with the
// allocator's rounding).
func TestGraphFootprint(t *testing.T) {
	ds := benchSynth(20000, 0.1)
	total := graphBytes(ds.Train) + graphBytes(ds.Test)
	perTriple := float64(total) / float64(ds.Test.NumTriples())
	t.Logf("Train + Test: %d B over %d test-graph triples = %.1f B/triple", total, ds.Test.NumTriples(), perTriple)
	if perTriple > 52 {
		t.Errorf("Train + Test take %.1f B per test-graph triple, want <= 52", perTriple)
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
