package query

import (
	"math/rand"

	"github.com/halk-kg/halk/internal/kg"
)

// Sampler grounds query-structure templates against a knowledge graph by
// backward sampling: a target answer entity is drawn first and the tree
// is instantiated top-down so the target is guaranteed to satisfy the
// positive branches; negative branches (negation, difference subtrahends)
// are re-sampled until they exclude the target.
type Sampler struct {
	G   *kg.Graph
	rng *rand.Rand

	targetable []kg.EntityID // entities with at least one incoming edge
	relations  []kg.RelationID
}

// NewSampler prepares a sampler over g using rng for all randomness.
func NewSampler(g *kg.Graph, rng *rand.Rand) *Sampler {
	s := &Sampler{G: g, rng: rng}
	isTail := make([]bool, g.NumEntities())
	for r := 0; r < g.NumRelations(); r++ {
		s.relations = append(s.relations, kg.RelationID(r))
		for _, e := range g.TailsOf(kg.RelationID(r)) {
			isTail[e] = true
		}
	}
	for e, ok := range isTail {
		if ok {
			s.targetable = append(s.targetable, kg.EntityID(e))
		}
	}
	return s
}

const (
	groundRetries = 8
	sampleRetries = 64
)

// Sample grounds the named structure, returning a query whose answer set
// on the sampler's graph is guaranteed non-empty. ok is false if no
// grounding was found within the retry budget (e.g. on degenerate
// graphs).
func (s *Sampler) Sample(structure string) (*Node, bool) {
	t := structureOf(structure)
	for attempt := 0; attempt < sampleRetries; attempt++ {
		target := s.randomTarget()
		n, ok := s.ground(t, target)
		if !ok {
			continue
		}
		if len(Answers(n, s.G)) == 0 {
			continue // negative branches can void the whole answer set
		}
		return n, true
	}
	return nil, false
}

func (s *Sampler) randomTarget() kg.EntityID {
	if len(s.targetable) == 0 {
		return kg.EntityID(s.rng.Intn(s.G.NumEntities()))
	}
	return s.targetable[s.rng.Intn(len(s.targetable))]
}

// ground instantiates t so that target ∈ answers of the positive
// branches.
func (s *Sampler) ground(t tmpl, target kg.EntityID) (*Node, bool) {
	switch t.op {
	case OpAnchor:
		return NewAnchor(target), true

	case OpProjection:
		// Choose an incoming edge (u, r, target) and recurse on u.
		rels := s.relationsInto(target)
		if len(rels) == 0 {
			return nil, false
		}
		for attempt := 0; attempt < groundRetries; attempt++ {
			r := rels[s.rng.Intn(len(rels))]
			preds := s.G.Predecessors(target, r)
			u := preds[s.rng.Intn(len(preds))]
			child, ok := s.ground(t.kids[0], u)
			if ok {
				return NewProjection(r, child), true
			}
		}
		return nil, false

	case OpIntersection:
		args := make([]*Node, len(t.kids))
		for i, k := range t.kids {
			c, ok := s.ground(k, target)
			if !ok {
				return nil, false
			}
			args[i] = c
		}
		return NewIntersection(args...), true

	case OpUnion:
		args := make([]*Node, len(t.kids))
		c, ok := s.ground(t.kids[0], target)
		if !ok {
			return nil, false
		}
		args[0] = c
		for i, k := range t.kids[1:] {
			c, ok := s.ground(k, s.randomTarget())
			if !ok {
				return nil, false
			}
			args[i+1] = c
		}
		return NewUnion(args...), true

	case OpDifference:
		args := make([]*Node, len(t.kids))
		c, ok := s.ground(t.kids[0], target)
		if !ok {
			return nil, false
		}
		args[0] = c
		for i, k := range t.kids[1:] {
			c, ok := s.groundExcluding(k, target)
			if !ok {
				return nil, false
			}
			args[i+1] = c
		}
		return NewDifference(args...), true

	case OpNegation:
		c, ok := s.groundExcluding(t.kids[0], target)
		if !ok {
			return nil, false
		}
		return NewNegation(c), true
	}
	panic("query: ground: unknown op")
}

// groundExcluding grounds t at a random target, retrying until the
// grounded subquery's answers do not contain excluded.
func (s *Sampler) groundExcluding(t tmpl, excluded kg.EntityID) (*Node, bool) {
	for attempt := 0; attempt < groundRetries; attempt++ {
		other := s.randomTarget()
		if other == excluded {
			continue
		}
		c, ok := s.ground(t, other)
		if !ok {
			continue
		}
		if !Answers(c, s.G).Has(excluded) {
			return c, true
		}
	}
	return nil, false
}

func (s *Sampler) relationsInto(e kg.EntityID) []kg.RelationID {
	var out []kg.RelationID
	for _, r := range s.relations {
		if len(s.G.Predecessors(e, r)) > 0 {
			out = append(out, r)
		}
	}
	return out
}

// Query is a grounded benchmark query with its ground-truth answers.
type Query struct {
	Structure string
	Root      *Node
	// Answers is the full answer set on the evaluation graph.
	Answers Set
	// HardAnswers are answers only derivable with the evaluation graph's
	// extra edges (answers(eval) \ answers(train)); metrics are computed
	// on these, the standard protocol for incomplete-KG query answering.
	// When a query has no hard answers it is skipped by the workload
	// generator unless train == eval (training workloads).
	HardAnswers Set
}

// Workload samples n queries of the named structure. Queries are sampled
// on (and answered against) evalG; trainG is used to determine hard
// answers. Pass trainG == evalG for a training workload, in which case
// HardAnswers == Answers. Returns fewer than n queries if sampling keeps
// failing (degenerate graphs).
func Workload(structure string, n int, trainG, evalG *kg.Graph, rng *rand.Rand) []Query {
	s := NewSampler(evalG, rng)
	out := make([]Query, 0, n)
	misses := 0
	for len(out) < n && misses < 20*n+100 {
		root, ok := s.Sample(structure)
		if !ok {
			misses++
			continue
		}
		ans := Answers(root, evalG)
		hard := ans
		if trainG != evalG {
			hard = ans.Minus(Answers(root, trainG))
			if len(hard) == 0 {
				misses++
				continue
			}
		}
		out = append(out, Query{Structure: structure, Root: root, Answers: ans, HardAnswers: hard})
	}
	return out
}
