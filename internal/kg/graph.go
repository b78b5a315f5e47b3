// Package kg provides the knowledge-graph substrate: entity/relation
// dictionaries, an indexed triple store, node groups with the
// relation-based 3-D group adjacency of HaLk Sec. II-A, train/valid/test
// splits, deterministic synthetic dataset generators standing in for
// FB15k / FB15k-237 / NELL995, and TSV import/export.
package kg

import (
	"fmt"
	"slices"
	"sort"
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

// Graph is an indexed triple store. Successor and predecessor lists are
// maintained per relation so that multi-hop traversal (the ground-truth
// oracle, the subgraph matcher) is cheap; the sorted successor lists
// also answer membership, so a fact is indexed once per direction. A
// Graph is not safe for concurrent mutation, but read methods may be
// used concurrently.
type Graph struct {
	Entities  *Dict
	Relations *Dict

	triples []Triple
	// out[r] maps head -> sorted tails; in[r] maps tail -> sorted heads.
	out []map[EntityID][]EntityID
	in  []map[EntityID][]EntityID
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

// NumEntities returns the number of registered entities.
func (g *Graph) NumEntities() int { return g.Entities.Len() }

// NumRelations returns the number of registered relations.
func (g *Graph) NumRelations() int { return g.Relations.Len() }

// NumTriples returns the number of stored facts.
func (g *Graph) NumTriples() int { return len(g.triples) }

// Triples returns the stored facts in insertion order. The slice is owned
// by the graph and must not be modified.
func (g *Graph) Triples() []Triple { return g.triples }

func (g *Graph) growRelation(r RelationID) {
	for len(g.out) <= int(r) {
		g.out = append(g.out, make(map[EntityID][]EntityID))
		g.in = append(g.in, make(map[EntityID][]EntityID))
	}
}

// AddTriple inserts a fact; duplicates are ignored. It reports whether
// the triple was new.
func (g *Graph) AddTriple(t Triple) bool {
	if int(t.H) >= g.Entities.Len() || int(t.T) >= g.Entities.Len() {
		panic(fmt.Sprintf("kg: AddTriple: entity out of range: %+v (have %d)", t, g.Entities.Len()))
	}
	if int(t.R) >= g.Relations.Len() {
		panic(fmt.Sprintf("kg: AddTriple: relation out of range: %+v (have %d)", t, g.Relations.Len()))
	}
	if g.HasTriple(t.H, t.R, t.T) {
		return false
	}
	g.triples = append(g.triples, t)
	g.growRelation(t.R)
	g.out[t.R][t.H] = insertSorted(g.out[t.R][t.H], t.T)
	g.in[t.R][t.T] = insertSorted(g.in[t.R][t.T], t.H)
	return true
}

func insertSorted(s []EntityID, e EntityID) []EntityID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= e })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = e
	return s
}

// RemoveTriple deletes a fact; it reports whether the triple was
// present. Removal keeps every index consistent (insertion slice,
// per-relation successor/predecessor lists), so a removed fact
// is invisible to all read paths. Like AddTriple, it is not safe for
// use concurrent with readers — the streaming-ingest subsystem applies
// removals from a single goroutine.
func (g *Graph) RemoveTriple(t Triple) bool {
	if !g.HasTriple(t.H, t.R, t.T) {
		return false
	}
	for i, tr := range g.triples {
		if tr == t {
			g.triples = append(g.triples[:i], g.triples[i+1:]...)
			break
		}
	}
	g.out[t.R][t.H] = removeSorted(g.out[t.R][t.H], t.T)
	g.in[t.R][t.T] = removeSorted(g.in[t.R][t.T], t.H)
	return true
}

func removeSorted(s []EntityID, e EntityID) []EntityID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= e })
	if i >= len(s) || s[i] != e {
		return s
	}
	return append(s[:i], s[i+1:]...)
}

// HasTriple reports whether (h, r, t) is a stored fact: a binary search
// of the sorted Successors(h, r).
func (g *Graph) HasTriple(h EntityID, r RelationID, t EntityID) bool {
	_, ok := slices.BinarySearch(g.Successors(h, r), t)
	return ok
}

// Successors returns the tails t with (h, r, t) in the graph, sorted.
// The slice is owned by the graph.
func (g *Graph) Successors(h EntityID, r RelationID) []EntityID {
	if int(r) >= len(g.out) {
		return nil
	}
	return g.out[r][h]
}

// Predecessors returns the heads h with (h, r, t) in the graph, sorted.
// The slice is owned by the graph.
func (g *Graph) Predecessors(t EntityID, r RelationID) []EntityID {
	if int(r) >= len(g.in) {
		return nil
	}
	return g.in[r][t]
}

// OutDegree returns the number of facts with head h under relation r.
func (g *Graph) OutDegree(h EntityID, r RelationID) int { return len(g.Successors(h, r)) }

// Degree returns the total degree (in+out over all relations) of e.
func (g *Graph) Degree(e EntityID) int {
	d := 0
	for r := range g.out {
		d += len(g.out[r][e]) + len(g.in[r][e])
	}
	return d
}

// HeadsOf returns all distinct heads that have at least one fact under
// relation r, sorted.
func (g *Graph) HeadsOf(r RelationID) []EntityID {
	if int(r) >= len(g.out) {
		return nil
	}
	hs := make([]EntityID, 0, len(g.out[r]))
	for h := range g.out[r] {
		hs = append(hs, h)
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	return hs
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
