package query

import (
	"math"
	"math/rand"
	"testing"

	"github.com/halk-kg/halk/internal/kg"
)

// widestDNF is DNFWidth by construction: the longest list DNF returns
// at any node, or flattens from a difference's subtrahends.
func widestDNF(n *Node) int {
	widest := len(DNF(n))
	if n.Op == OpDifference {
		subs := 0
		for _, a := range n.Args[1:] {
			subs += len(DNF(a))
		}
		widest = max(widest, subs)
	}
	for _, a := range n.Args {
		widest = max(widest, widestDNF(a))
	}
	return widest
}

func TestDNFWidthCountsWhatDNFBuilds(t *testing.T) {
	a := func(e kg.EntityID) *Node { return NewProjection(0, NewAnchor(e)) }
	u := func(k int) *Node {
		args := make([]*Node, k)
		for i := range args {
			args[i] = a(kg.EntityID(i))
		}
		return NewUnion(args...)
	}
	trees := map[string]*Node{
		"i(u3,u2,u2)":      NewIntersection(u(3), u(2), u(2)),
		"n(i(u3,u3))":      NewNegation(NewIntersection(u(3), u(3))),
		"d(u2,i(u3,u3))":   NewDifference(u(2), NewIntersection(u(3), u(3))),
		"d(a,u4,u5)":       NewDifference(a(1), u(4), u(5)),
		"p(u(i(u2,u2),a))": NewProjection(1, NewUnion(NewIntersection(u(2), u(2)), a(9))),
		"i(n(u4),u2)":      NewIntersection(NewNegation(u(4)), u(2)),
	}
	ds := kg.SynthFB237(12)
	s := NewSampler(ds.Test, rand.New(rand.NewSource(5)))
	for _, name := range StructureNames() {
		q, ok := s.Sample(name)
		if !ok {
			t.Fatalf("%s: sampling failed", name)
		}
		trees[name] = q
		if w := DNFWidth(q); w > 2 {
			t.Errorf("structure %s: DNFWidth %d, want at most 2", name, w)
		}
	}
	for name, q := range trees {
		if got, want := DNFWidth(q), widestDNF(q); got != want {
			t.Errorf("%s: DNFWidth %d, DNF builds %d", name, got, want)
		}
	}
}

func TestDNFWidthSaturates(t *testing.T) {
	args := make([]*Node, 80)
	for i := range args {
		args[i] = NewUnion(NewAnchor(kg.EntityID(2*i)), NewAnchor(kg.EntityID(2*i+1)))
	}
	// 2^80 disjuncts: counted without overflow, never built.
	if w := DNFWidth(NewIntersection(args...)); w != math.MaxInt {
		t.Errorf("DNFWidth = %d, want math.MaxInt", w)
	}
	if w := DNFWidth(NewUnion(NewIntersection(args...), NewAnchor(0))); w != math.MaxInt {
		t.Errorf("DNFWidth of a saturated union = %d, want math.MaxInt", w)
	}
}
