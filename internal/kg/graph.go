// Package kg provides the knowledge-graph substrate: entity/relation
// dictionaries, an indexed triple store, node groups with the
// relation-based 3-D group adjacency of HaLk Sec. II-A, train/valid/test
// splits, deterministic synthetic dataset generators standing in for
// FB15k / FB15k-237 / NELL995, and TSV import/export.
package kg

import (
	"fmt"
	"slices"
)

// EntityID identifies an entity (node) of a knowledge graph.
type EntityID int32

// RelationID identifies a relation (predicate).
type RelationID int32

// Triple is one fact (h, r, t): head entity h relates to tail entity t
// via relation r.
type Triple struct {
	H EntityID
	R RelationID
	T EntityID
}

// Graph is an indexed triple store. Each relation keeps its adjacency
// in both directions as sorted CSR arrays (see adj), so multi-hop
// traversal (the ground-truth oracle, the subgraph matcher) reads
// contiguous slices, a fact is indexed once per direction, and the
// sorted successor lists also answer membership. A slice returned by
// Successors, Predecessors, HeadsOf or TailsOf is owned by the graph:
// it must not be modified, and it is valid until the next AddTriple or
// RemoveTriple. Its capacity is clipped to its length, so a caller's
// append copies instead of overwriting the next list. A Graph is not
// safe for concurrent mutation, but read methods may be used
// concurrently.
type Graph struct {
	Entities  *Dict
	Relations *Dict

	triples []Triple
	// out[r] maps head -> sorted tails; in[r] maps tail -> sorted heads.
	out []adj
	in  []adj
}

// adj is one relation's adjacency in one direction, in CSR form: keys
// holds the distinct heads (or tails), sorted, and keys[i]'s sorted
// list is vals[off[i]:off[i+1]]. off has len(keys)+1 entries, except in
// the zero adj, whose three slices are all empty.
type adj struct {
	keys []EntityID
	off  []int32
	vals []EntityID
}

// list returns k's sorted list, its capacity clipped to its length.
func (a *adj) list(k EntityID) []EntityID {
	i, ok := slices.BinarySearch(a.keys, k)
	if !ok {
		return nil
	}
	lo, hi := a.off[i], a.off[i+1]
	return a.vals[lo:hi:hi]
}

// insert adds v to k's list, moving the later lists up by one; it
// reports whether v was new.
func (a *adj) insert(k, v EntityID) bool {
	i, ok := slices.BinarySearch(a.keys, k)
	if !ok {
		if len(a.off) == 0 {
			a.off = []int32{0}
		}
		a.keys = slices.Insert(a.keys, i, k)
		a.off = slices.Insert(a.off, i+1, a.off[i])
	}
	lo, hi := a.off[i], a.off[i+1]
	j, found := slices.BinarySearch(a.vals[lo:hi], v)
	if found {
		return false
	}
	a.vals = slices.Insert(a.vals, int(lo)+j, v)
	for x := i + 1; x < len(a.off); x++ {
		a.off[x]++
	}
	return true
}

// remove deletes v from k's list, and k itself when its list empties;
// it reports whether v was present.
func (a *adj) remove(k, v EntityID) bool {
	i, ok := slices.BinarySearch(a.keys, k)
	if !ok {
		return false
	}
	lo, hi := a.off[i], a.off[i+1]
	j, found := slices.BinarySearch(a.vals[lo:hi], v)
	if !found {
		return false
	}
	a.vals = slices.Delete(a.vals, int(lo)+j, int(lo)+j+1)
	for x := i + 1; x < len(a.off); x++ {
		a.off[x]--
	}
	if hi-lo == 1 {
		a.keys = slices.Delete(a.keys, i, i+1)
		a.off = slices.Delete(a.off, i+1, i+2)
	}
	return true
}

// NewGraph returns an empty graph sharing the given dictionaries. Both
// dictionaries may be pre-populated; relations registered later are also
// accepted by AddTriple.
func NewGraph(entities, relations *Dict) *Graph {
	return &Graph{
		Entities:  entities,
		Relations: relations,
	}
}

// NewGraphFrom returns the graph holding the facts ts over the given
// dictionaries, built by counting sorts instead of one insertion per
// fact. A duplicate keeps its first occurrence, so the graph, Triples()
// order included, equals the one that sequential AddTriple calls on
// NewGraph(entities, relations) would build. ts is not retained.
func NewGraphFrom(entities, relations *Dict, ts []Triple) *Graph {
	g := NewGraph(entities, relations)
	for _, t := range ts {
		g.checkRange("NewGraphFrom", t)
	}
	nEnt, nRel := entities.Len(), relations.Len()
	var order []int32
	g.triples, order = distinct(ts, nEnt, nRel)
	g.out = buildAdj(ts, order, nRel, func(t Triple) (EntityID, EntityID) { return t.H, t.T })
	// (r, h, t) order sorted stably by t, then by r, is (r, t, h) order.
	tmp, count := make([]int32, len(order)), make([]int32, max(nEnt, nRel)+1)
	stableSortBy(tmp, order, ts, count[:nEnt+1], func(t Triple) int32 { return int32(t.T) })
	stableSortBy(order, tmp, ts, count[:nRel+1], func(t Triple) int32 { return int32(t.R) })
	g.in = buildAdj(ts, order, nRel, func(t Triple) (EntityID, EntityID) { return t.T, t.H })
	return g
}

// distinct returns the distinct facts of ts, each at its first
// occurrence and in ts's order, and their positions in ts in (r, h, t)
// order. Entity and relation IDs must be below nEnt and nRel.
func distinct(ts []Triple, nEnt, nRel int) (uniq []Triple, order []int32) {
	a, b := make([]int32, len(ts)), make([]int32, len(ts))
	for i := range a {
		a[i] = int32(i)
	}
	count := make([]int32, max(nEnt, nRel)+1)
	// Positions by (r, h, t); the sorts are stable, so the first of each
	// run of equal facts is its first occurrence.
	stableSortBy(b, a, ts, count[:nEnt+1], func(t Triple) int32 { return int32(t.T) })
	stableSortBy(a, b, ts, count[:nEnt+1], func(t Triple) int32 { return int32(t.H) })
	stableSortBy(b, a, ts, count[:nRel+1], func(t Triple) int32 { return int32(t.R) })
	keep := make([]bool, len(ts))
	order = b[:0]
	for _, i := range b {
		if len(order) > 0 && ts[order[len(order)-1]] == ts[i] {
			continue
		}
		keep[i] = true
		order = append(order, i)
	}
	uniq = make([]Triple, 0, len(order))
	for i, t := range ts {
		if keep[i] {
			uniq = append(uniq, t)
		}
	}
	return uniq, order
}

// stableSortBy writes the positions src into dst ordered by key(ts[i]),
// keeping src's order among equal keys: a counting sort over the keys
// 0 … len(count)-2, with count as scratch.
func stableSortBy(dst, src []int32, ts []Triple, count []int32, key func(Triple) int32) {
	clear(count)
	for _, i := range src {
		count[key(ts[i])+1]++
	}
	for k := 1; k < len(count); k++ {
		count[k] += count[k-1]
	}
	for _, i := range src {
		k := key(ts[i])
		dst[count[k]] = i
		count[k]++
	}
}

// buildAdj lays out the adjacency of numRel relations from distinct
// facts ts[order[0]], ts[order[1]], … sorted by relation, then by key,
// then by value, where kv names a fact's key and value; each array is
// allocated at its final size.
func buildAdj(ts []Triple, order []int32, numRel int, kv func(Triple) (key, val EntityID)) []adj {
	adjs := make([]adj, numRel)
	for s := 0; s < len(order); {
		r := ts[order[s]].R
		e, nk := s, 0
		var prev EntityID
		for ; e < len(order) && ts[order[e]].R == r; e++ {
			if k, _ := kv(ts[order[e]]); e == s || k != prev {
				nk++
				prev = k
			}
		}
		a := &adjs[r]
		a.keys = make([]EntityID, 0, nk)
		a.off = make([]int32, 0, nk+1)
		a.vals = make([]EntityID, 0, e-s)
		for _, i := range order[s:e] {
			k, v := kv(ts[i])
			if len(a.keys) == 0 || a.keys[len(a.keys)-1] != k {
				a.keys = append(a.keys, k)
				a.off = append(a.off, int32(len(a.vals)))
			}
			a.vals = append(a.vals, v)
		}
		a.off = append(a.off, int32(len(a.vals)))
		s = e
	}
	return adjs
}

// NumEntities returns the number of registered entities.
func (g *Graph) NumEntities() int { return g.Entities.Len() }

// NumRelations returns the number of registered relations.
func (g *Graph) NumRelations() int { return g.Relations.Len() }

// NumTriples returns the number of stored facts.
func (g *Graph) NumTriples() int { return len(g.triples) }

// Triples returns the stored facts in insertion order. The slice is owned
// by the graph and must not be modified.
func (g *Graph) Triples() []Triple { return g.triples }

func (g *Graph) checkRange(op string, t Triple) {
	if int(t.H) >= g.Entities.Len() || int(t.T) >= g.Entities.Len() {
		panic(fmt.Sprintf("kg: %s: entity out of range: %+v (have %d)", op, t, g.Entities.Len()))
	}
	if int(t.R) >= g.Relations.Len() {
		panic(fmt.Sprintf("kg: %s: relation out of range: %+v (have %d)", op, t, g.Relations.Len()))
	}
}

// AddTriple inserts a fact; duplicates are ignored. It reports whether
// the triple was new. It moves the later entries of the relation's
// arrays, so it costs O(the relation's facts).
func (g *Graph) AddTriple(t Triple) bool {
	g.checkRange("AddTriple", t)
	for len(g.out) <= int(t.R) {
		g.out = append(g.out, adj{})
		g.in = append(g.in, adj{})
	}
	if !g.out[t.R].insert(t.H, t.T) {
		return false
	}
	g.in[t.R].insert(t.T, t.H)
	g.triples = append(g.triples, t)
	return true
}

// RemoveTriple deletes a fact; it reports whether the triple was
// present. Removal keeps every index consistent (insertion slice,
// per-relation successor/predecessor lists), so a removed fact
// is invisible to all read paths. Like AddTriple, it is not safe for
// use concurrent with readers — the streaming-ingest subsystem applies
// removals from a single goroutine. It scans the insertion slice, so it
// costs O(the graph's facts).
func (g *Graph) RemoveTriple(t Triple) bool {
	if int(t.R) >= len(g.out) || !g.out[t.R].remove(t.H, t.T) {
		return false
	}
	g.in[t.R].remove(t.T, t.H)
	i := slices.Index(g.triples, t)
	g.triples = slices.Delete(g.triples, i, i+1)
	return true
}

// HasTriple reports whether (h, r, t) is a stored fact: a binary search
// of the sorted Successors(h, r).
func (g *Graph) HasTriple(h EntityID, r RelationID, t EntityID) bool {
	_, ok := slices.BinarySearch(g.Successors(h, r), t)
	return ok
}

// Successors returns the tails t with (h, r, t) in the graph, sorted.
func (g *Graph) Successors(h EntityID, r RelationID) []EntityID {
	if int(r) >= len(g.out) {
		return nil
	}
	return g.out[r].list(h)
}

// Predecessors returns the heads h with (h, r, t) in the graph, sorted.
func (g *Graph) Predecessors(t EntityID, r RelationID) []EntityID {
	if int(r) >= len(g.in) {
		return nil
	}
	return g.in[r].list(t)
}

// OutDegree returns the number of facts with head h under relation r.
func (g *Graph) OutDegree(h EntityID, r RelationID) int { return len(g.Successors(h, r)) }

// Degree returns the total degree (in+out over all relations) of e.
func (g *Graph) Degree(e EntityID) int {
	d := 0
	for r := range g.out {
		d += len(g.out[r].list(e)) + len(g.in[r].list(e))
	}
	return d
}

// HeadsOf returns the distinct heads that have at least one fact under
// relation r, sorted. The slice is owned by the graph.
func (g *Graph) HeadsOf(r RelationID) []EntityID {
	if int(r) >= len(g.out) {
		return nil
	}
	return slices.Clip(g.out[r].keys)
}

// TailsOf returns the distinct tails that have at least one fact under
// relation r, sorted. The slice is owned by the graph.
func (g *Graph) TailsOf(r RelationID) []EntityID {
	if int(r) >= len(g.in) {
		return nil
	}
	return slices.Clip(g.in[r].keys)
}

// ContainsAll reports whether every triple of other is present in g.
// Dataset.Validate uses it to check Train ⊆ Test.
func (g *Graph) ContainsAll(other *Graph) bool {
	for _, t := range other.triples {
		if !g.HasTriple(t.H, t.R, t.T) {
			return false
		}
	}
	return true
}
