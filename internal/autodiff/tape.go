// Package autodiff implements a small reverse-mode automatic
// differentiation engine over float64 vectors.
//
// All neural operator models in this repository (HaLk and the baselines)
// are compositions of elementwise vector functions, small dense linear
// layers and reductions. A tape records the forward computation; Backward
// replays it in reverse (Sweep) and then hands each leaf's gradient to
// its sink (Flush), accumulating into parameter tensors. The tape is
// built per training sample and discarded, so the engine has no global
// state and Sweep is safe to run from multiple goroutines as long as
// each goroutine owns its tape. A tensor's sink takes no lock, so the
// caller runs one Flush at a time, in a fixed order when the bits must
// reproduce (see model.Train).
//
// Inference runs the same primitives on a forward-only tape
// (NewForwardTape): the same arithmetic loops, hence the same bits,
// without gradient buffers, backward closures or copies of the leaves.
package autodiff

import "fmt"

// V is a handle to a vector value on a Tape.
type V struct {
	t  *Tape
	id int
}

// Len returns the dimensionality of the vector.
func (v V) Len() int { return len(v.t.nodes[v.id].value) }

// Value returns the forward value. The returned slice is owned by the
// tape and must not be modified.
func (v V) Value() []float64 { return v.t.nodes[v.id].value }

// Grad returns the gradient accumulated for this node by Backward.
// It is only meaningful after Backward has run, and nil on a
// forward-only tape.
func (v V) Grad() []float64 { return v.t.nodes[v.id].grad }

type node struct {
	value []float64
	grad  []float64
	back  func()               // propagates node.grad into the inputs' grads; nil for leaves
	sink  func(grad []float64) // receives a leaf's final grad in Flush; nil otherwise
}

// Tape records a forward computation for reverse-mode differentiation.
// The zero value is ready to use.
type Tape struct {
	nodes []node
	// scratch buffers reused across Reset cycles to reduce allocation
	pool [][]float64

	// forward marks a forward-only tape: nodes carry values only, which
	// alloc bump-allocates from slabs (cur/off is the next free word).
	forward  bool
	slabs    [][]float64
	cur, off int
}

// slabLen is a forward tape's slab size in float64s: 32 KB, a few dozen
// d=64 values, so a deep query touches a handful of slabs.
const slabLen = 4096

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// NewForwardTape returns an empty forward-only tape for inference. It
// keeps values only: Backward panics and V.Grad is nil. Leaf aliases its
// input rather than copying it, so the caller must keep leaf inputs
// unmodified until it is done with the tape's values, and values live
// in slabs that Reset recycles: copy out whatever must survive Reset.
func NewForwardTape() *Tape { return &Tape{forward: true} }

// Reset clears the tape for reuse, recycling value/grad buffers. Values
// handed out before the call must not be used after it.
func (t *Tape) Reset() {
	if t.forward {
		// Slab memory and aliased leaf inputs must not enter the pool.
		clear(t.nodes)
		t.nodes = t.nodes[:0]
		t.cur, t.off = 0, 0
		return
	}
	for i := range t.nodes {
		t.pool = append(t.pool, t.nodes[i].value, t.nodes[i].grad)
		t.nodes[i] = node{}
	}
	t.nodes = t.nodes[:0]
}

// alloc returns a zeroed buffer of n float64s owned by the tape.
func (t *Tape) alloc(n int) []float64 {
	if t.forward {
		return t.bump(n)
	}
	for i := len(t.pool) - 1; i >= 0; i-- {
		if cap(t.pool[i]) >= n {
			b := t.pool[i][:n]
			t.pool[i] = t.pool[len(t.pool)-1]
			t.pool = t.pool[:len(t.pool)-1]
			for j := range b {
				b[j] = 0
			}
			return b
		}
	}
	return make([]float64, n)
}

// bump carves n float64s off the current slab, moving to the next slab
// (or adding one) when it does not fit. off only grows between Resets,
// so a live value is never handed out twice.
func (t *Tape) bump(n int) []float64 {
	for ; t.cur < len(t.slabs); t.cur, t.off = t.cur+1, 0 {
		if s := t.slabs[t.cur]; t.off+n <= len(s) {
			b := s[t.off : t.off+n : t.off+n]
			t.off += n
			clear(b)
			return b
		}
	}
	t.slabs = append(t.slabs, make([]float64, max(n, slabLen)))
	t.off = n
	return t.slabs[t.cur][:n:n]
}

// push appends a node and returns its handle. A forward-only tape
// records the value alone: primitives return through push(v, nil)
// before they build their backward closure, so it is never allocated.
func (t *Tape) push(value []float64, back func()) V {
	nd := node{value: value}
	if !t.forward {
		nd.grad, nd.back = t.alloc(len(value)), back
	}
	t.nodes = append(t.nodes, nd)
	return V{t, len(t.nodes) - 1}
}

// Const records a constant (no gradient flows back out of it). The input
// slice is copied.
func (t *Tape) Const(x []float64) V {
	v := t.alloc(len(x))
	copy(v, x)
	return t.push(v, nil)
}

// Scalar records a constant one-element vector.
func (t *Tape) Scalar(x float64) V { return t.Const([]float64{x}) }

// Leaf records a differentiable input. sink, if non-nil, receives the
// accumulated gradient when Flush reaches the leaf. The input slice is
// copied, except on a forward-only tape, which aliases it (and never
// writes through the alias: values are read-only, see V.Value).
func (t *Tape) Leaf(x []float64, sink func(grad []float64)) V {
	if t.forward {
		return t.push(x, nil)
	}
	v := t.alloc(len(x))
	copy(v, x)
	res := t.push(v, nil)
	t.nodes[res.id].sink = sink
	return res
}

// Backward seeds the gradient of root with 1 in every component,
// propagates gradients to all ancestors and hands the leaves' gradients
// to their sinks: Sweep then Flush. root is typically a scalar loss.
func (t *Tape) Backward(root V) {
	t.Sweep(root)
	t.Flush(root)
}

// Sweep seeds the gradient of root with 1 in every component and
// propagates gradients to all ancestors, touching nothing outside the
// tape. It panics on a forward-only tape, which recorded nothing to
// replay.
func (t *Tape) Sweep(root V) {
	if t.forward {
		panic("autodiff: backward pass on a forward-only tape")
	}
	g := t.nodes[root.id].grad
	for i := range g {
		g[i] = 1
	}
	for i := root.id; i >= 0; i-- {
		if t.nodes[i].back != nil {
			t.nodes[i].back()
		}
	}
}

// Flush hands each leaf recorded at or before root its gradient from
// the last Sweep of root, latest leaf first: the order in which the
// sweep completes them.
func (t *Tape) Flush(root V) {
	for i := root.id; i >= 0; i-- {
		if nd := &t.nodes[i]; nd.sink != nil {
			nd.sink(nd.grad)
		}
	}
}

func (t *Tape) checkSameLen(a, b V, op string) {
	if a.Len() != b.Len() {
		panic(fmt.Sprintf("autodiff: %s: length mismatch %d vs %d", op, a.Len(), b.Len()))
	}
}
