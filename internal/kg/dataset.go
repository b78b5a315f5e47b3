package kg

import (
	"fmt"
	"math/rand"
)

// Dataset bundles the splits of the standard logical-query evaluation
// protocol, the G_training ⊆ G_validation ⊆ G_test configuration of
// HaLk Sec. IV-A. Only the training and test graphs are built: the
// validation graph is Train plus ValidEdges, and Test holds Train, then
// ValidEdges, then the test edges, in that insertion order.
type Dataset struct {
	Name  string
	Train *Graph
	// ValidEdges are the held-out validation facts in split order: in
	// Test and not in Train.
	ValidEdges []Triple
	Test       *Graph
}

// Validate checks the shared dictionaries, Train ⊆ Test, and that every
// validation edge is in Test and not in Train.
func (d *Dataset) Validate() error {
	if d.Train.Entities != d.Test.Entities {
		return fmt.Errorf("kg: dataset %s: graphs do not share the entity dictionary", d.Name)
	}
	if d.Train.Relations != d.Test.Relations {
		return fmt.Errorf("kg: dataset %s: graphs do not share the relation dictionary", d.Name)
	}
	if !d.Test.ContainsAll(d.Train) {
		return fmt.Errorf("kg: dataset %s: train ⊄ test", d.Name)
	}
	for _, t := range d.ValidEdges {
		if d.Train.HasTriple(t.H, t.R, t.T) {
			return fmt.Errorf("kg: dataset %s: validation edge %+v is in train", d.Name, t)
		}
		if !d.Test.HasTriple(t.H, t.R, t.T) {
			return fmt.Errorf("kg: dataset %s: valid ⊄ test", d.Name)
		}
	}
	return nil
}

// Split partitions a full graph's triples into a Dataset using the given
// fractions of edges held out for validation and test. The held-out
// edges are chosen uniformly at random with rng, but an edge is only
// eligible for holdout if removing it leaves its head with at least one
// outgoing fact, which keeps the training graph connected enough to
// sample queries from.
func Split(name string, full *Graph, validFrac, testFrac float64, rng *rand.Rand) *Dataset {
	if validFrac < 0 || testFrac < 0 || validFrac+testFrac >= 1 {
		panic("kg: Split: fractions must be non-negative and sum to < 1")
	}
	triples := append([]Triple(nil), full.Triples()...)
	rng.Shuffle(len(triples), func(i, j int) { triples[i], triples[j] = triples[j], triples[i] })

	nValid := int(validFrac * float64(len(triples)))
	nTest := int(testFrac * float64(len(triples)))

	train := NewGraph(full.Entities, full.Relations)
	test := NewGraph(full.Entities, full.Relations)
	var validOnly, testOnly []Triple
	// Pass 1: tentatively assign; protect heads from losing all out-edges.
	outCount := make(map[[2]int32]int) // (head, rel) -> remaining train count
	for _, t := range triples {
		outCount[[2]int32{int32(t.H), int32(t.R)}]++
	}
	for _, t := range triples {
		key := [2]int32{int32(t.H), int32(t.R)}
		holdable := outCount[key] > 1
		switch {
		case len(testOnly) < nTest && holdable:
			testOnly = append(testOnly, t)
			outCount[key]--
		case len(validOnly) < nValid && holdable:
			validOnly = append(validOnly, t)
			outCount[key]--
		default:
			train.AddTriple(t)
			test.AddTriple(t)
		}
	}
	for _, t := range validOnly {
		test.AddTriple(t)
	}
	for _, t := range testOnly {
		test.AddTriple(t)
	}
	return &Dataset{Name: name, Train: train, ValidEdges: validOnly, Test: test}
}
