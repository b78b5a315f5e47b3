package query

import "math"

// DNF rewrites a query into Disjunctive Normal Form: a list of
// union-free conjunctive queries whose answer union equals the original
// query's answers (HaLk Sec. III-F). The union operator thereby becomes
// non-parametric and exact: a model answers each conjunctive query
// separately and the entity-to-query distance is the minimum over the
// disjuncts.
//
// Rewrite rules:
//
//	U(a, b)        -> dnf(a) ++ dnf(b)
//	P(r, U(a, b))  -> P(r, a) ∨ P(r, b)
//	I(U(a,b), c)   -> I(a, c) ∨ I(b, c)            (cross product)
//	D(U(a,b), c)   -> D(a, c) ∨ D(b, c)            (minuend distributes)
//	D(a, U(b, c))  -> D(a, b, c)                   (A−(B∪C) = A−B−C)
//	N(U(a, b))     -> I(N(a), N(b))                (De Morgan)
func DNF(n *Node) []*Node {
	switch n.Op {
	case OpAnchor:
		return []*Node{n}

	case OpProjection:
		kids := DNF(n.Args[0])
		out := make([]*Node, len(kids))
		for i, k := range kids {
			out[i] = NewProjection(n.Rel, k)
		}
		return out

	case OpIntersection:
		lists := make([][]*Node, len(n.Args))
		for i, a := range n.Args {
			lists[i] = DNF(a)
		}
		var out []*Node
		cross(lists, func(combo []*Node) {
			args := append([]*Node(nil), combo...)
			out = append(out, &Node{Op: OpIntersection, Args: args})
		})
		return out

	case OpDifference:
		minuends := DNF(n.Args[0])
		// Subtrahend unions flatten into additional subtrahends.
		var subs []*Node
		for _, a := range n.Args[1:] {
			subs = append(subs, DNF(a)...)
		}
		out := make([]*Node, len(minuends))
		for i, m := range minuends {
			args := append([]*Node{m}, subs...)
			out[i] = &Node{Op: OpDifference, Args: args}
		}
		return out

	case OpNegation:
		kids := DNF(n.Args[0])
		if len(kids) == 1 {
			return []*Node{NewNegation(kids[0])}
		}
		// ¬(B ∪ C) = ¬B ∧ ¬C — a single conjunctive query.
		negs := make([]*Node, len(kids))
		for i, k := range kids {
			negs[i] = NewNegation(k)
		}
		return []*Node{{Op: OpIntersection, Args: negs}}

	case OpUnion:
		var out []*Node
		for _, a := range n.Args {
			out = append(out, DNF(a)...)
		}
		return out
	}
	panic("query: DNF: unknown op")
}

// DNFWidth returns the largest number of disjuncts DNF builds at any
// node of n, without building them: an intersection multiplies its
// arguments' counts, a union adds them, and a difference keeps its
// minuend's count while flattening its subtrahends into one list. A
// negated or subtracted subtree collapses to one conjunct, but DNF
// expands it first, so its count is a candidate for the maximum too.
// Counts saturate at math.MaxInt instead of overflowing, so the width
// of an input-controlled query can be checked before DNF runs on it.
func DNFWidth(n *Node) int {
	_, widest := dnfWidth(n)
	return widest
}

// dnfWidth returns len(DNF(n)) and the largest list DNF builds at any
// node of n, both saturating.
func dnfWidth(n *Node) (count, widest int) {
	switch n.Op {
	case OpAnchor:
		return 1, 1
	case OpProjection:
		return dnfWidth(n.Args[0])
	case OpNegation:
		_, widest = dnfWidth(n.Args[0])
		return 1, widest
	case OpIntersection, OpUnion, OpDifference:
	default:
		panic("query: DNFWidth: unknown op")
	}
	if n.Op != OpUnion {
		count = 1
	}
	subs := 0
	for i, a := range n.Args {
		c, w := dnfWidth(a)
		widest = max(widest, w)
		switch {
		case n.Op == OpIntersection:
			count = satMul(count, c)
		case n.Op == OpUnion:
			count = satAdd(count, c)
		case i == 0:
			count = c
		default:
			subs = satAdd(subs, c)
		}
	}
	return count, max(widest, count, subs)
}

func satAdd(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

func satMul(a, b int) int {
	if a != 0 && b > math.MaxInt/a {
		return math.MaxInt
	}
	return a * b
}

// cross invokes f for every combination taking one element from each list.
func cross(lists [][]*Node, f func([]*Node)) {
	combo := make([]*Node, len(lists))
	var rec func(i int)
	rec = func(i int) {
		if i == len(lists) {
			f(combo)
			return
		}
		for _, n := range lists[i] {
			combo[i] = n
			rec(i + 1)
		}
	}
	rec(0)
}

// HasUnion reports whether the tree contains a union node; after DNF it
// must not.
func HasUnion(n *Node) bool {
	if n.Op == OpUnion {
		return true
	}
	for _, a := range n.Args {
		if HasUnion(a) {
			return true
		}
	}
	return false
}
