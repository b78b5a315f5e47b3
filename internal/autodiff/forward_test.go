package autodiff

import (
	"math"
	"math/rand"
	"testing"
)

// The TestForwardTape* suite is the contract of the forward-only mode:
// every primitive produces the bits the gradient tape produces, leaves
// alias instead of copying, nothing can be differentiated, and slabs
// recycled by Reset never hand a live value out twice. CI's
// kernel-identity job runs it across Go versions and GOAMD64 levels.
// That matrix is amd64 only, whose compiler never fuses x*y + z into an
// FMA, so it does not show the contraction that the arm64 compiler
// applies to these loops.

// forwardTapeCases is one entry per primitive of ops.go, batch.go and
// special.go (plus Tensor leaves and a 2-layer MLP). a and b are
// same-length inputs with entries in (0.1, 3) so the positive-domain
// special functions are defined; p holds the case's parameters.
func forwardTapeCases(p *Params, mlp *MLP) map[string]func(tp *Tape, a, b V) []V {
	one := func(v V) []V { return []V{v} }
	return map[string]func(tp *Tape, a, b V) []V{
		"Leaf":         func(tp *Tape, a, b V) []V { return one(a) },
		"Const":        func(tp *Tape, a, b V) []V { return one(tp.Const(a.Value())) },
		"Scalar":       func(tp *Tape, a, b V) []V { return one(tp.Scalar(1.25)) },
		"Add":          func(tp *Tape, a, b V) []V { return one(tp.Add(a, b)) },
		"Sub":          func(tp *Tape, a, b V) []V { return one(tp.Sub(a, b)) },
		"Mul":          func(tp *Tape, a, b V) []V { return one(tp.Mul(a, b)) },
		"Scale":        func(tp *Tape, a, b V) []V { return one(tp.Scale(a, 0.37)) },
		"AddScalar":    func(tp *Tape, a, b V) []V { return one(tp.AddScalar(a, -1.5)) },
		"Neg":          func(tp *Tape, a, b V) []V { return one(tp.Neg(a)) },
		"Sin":          func(tp *Tape, a, b V) []V { return one(tp.Sin(a)) },
		"Cos":          func(tp *Tape, a, b V) []V { return one(tp.Cos(a)) },
		"Tanh":         func(tp *Tape, a, b V) []V { return one(tp.Tanh(a)) },
		"Sigmoid":      func(tp *Tape, a, b V) []V { return one(tp.Sigmoid(tp.Sub(a, b))) },
		"Relu":         func(tp *Tape, a, b V) []V { return one(tp.Relu(tp.Sub(a, b))) },
		"Abs":          func(tp *Tape, a, b V) []V { return one(tp.Abs(tp.Sub(a, b))) },
		"Exp":          func(tp *Tape, a, b V) []V { return one(tp.Exp(a)) },
		"LogSigmoid":   func(tp *Tape, a, b V) []V { return one(tp.LogSigmoid(tp.Sub(a, b))) },
		"Reciprocal":   func(tp *Tape, a, b V) []V { return one(tp.Reciprocal(a)) },
		"Min":          func(tp *Tape, a, b V) []V { return one(tp.Min(a, b)) },
		"Max":          func(tp *Tape, a, b V) []V { return one(tp.Max(a, b)) },
		"Atan2":        func(tp *Tape, a, b V) []V { return one(tp.Atan2(tp.Sub(a, b), b)) },
		"Concat":       func(tp *Tape, a, b V) []V { return one(tp.Concat(a, b, a)) },
		"Sum":          func(tp *Tape, a, b V) []V { return one(tp.Sum(a)) },
		"L1":           func(tp *Tape, a, b V) []V { return one(tp.L1(tp.Sub(a, b))) },
		"Mean":         func(tp *Tape, a, b V) []V { return one(tp.Mean(a)) },
		"MeanStack":    func(tp *Tape, a, b V) []V { return one(tp.MeanStack([]V{a, b, a})) },
		"MinStack":     func(tp *Tape, a, b V) []V { return one(tp.MinStack([]V{a, b})) },
		"SoftmaxStack": func(tp *Tape, a, b V) []V { return tp.SoftmaxStack([]V{a, b, tp.Mul(a, b)}) },
		"Repeat":       func(tp *Tape, a, b V) []V { return one(tp.Repeat(a, 3)) },
		"SumSegments":  func(tp *Tape, a, b V) []V { return one(tp.SumSegments(tp.Repeat(a, 3), a.Len())) },
		"Slice":        func(tp *Tape, a, b V) []V { return one(tp.Slice(a, 1, 3)) },
		"Detach":       func(tp *Tape, a, b V) []V { return one(tp.Detach(tp.Mul(a, b))) },
		"Softplus":     func(tp *Tape, a, b V) []V { return one(tp.Softplus(tp.Sub(a, b))) },
		"Lgamma":       func(tp *Tape, a, b V) []V { return one(tp.Lgamma(a)) },
		"DigammaOp":    func(tp *Tape, a, b V) []V { return one(tp.DigammaOp(a)) },
		"LogBeta":      func(tp *Tape, a, b V) []V { return one(tp.LogBeta(a, b)) },
		"BetaKL":       func(tp *Tape, a, b V) []V { return one(tp.BetaKL(a, b, b, a)) },
		"MatVec": func(tp *Tape, a, b V) []V {
			w := p.Get("w").LeafAll(tp)
			return one(tp.MatVec(w, a, p.Get("bias").Leaf(tp, 0), 3, a.Len()))
		},
		"TensorLeaf": func(tp *Tape, a, b V) []V { return one(tp.Add(a, p.Get("rows").Leaf(tp, 1))) },
		"MLP":        func(tp *Tape, a, b V) []V { return one(mlp.Forward(tp, a)) },
	}
}

func TestForwardTapeSameBits(t *testing.T) {
	const n = 6
	rng := rand.New(rand.NewSource(41))
	draw := func() []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = 0.1 + 2.9*rng.Float64()
		}
		return x
	}
	p := NewParams()
	p.NewXavier("w", 3, n, rng)
	p.NewUniform("bias", 1, 3, -1, 1, rng)
	p.NewUniform("rows", 2, n, 0, 1, rng)
	mlp := NewMLP(p, "mlp", []int{n, 5, 4}, rng)
	av, bv := draw(), draw()

	grad, fwd := NewTape(), NewForwardTape()
	for name, run := range forwardTapeCases(p, mlp) {
		want := run(grad, grad.Leaf(av, nil), grad.Leaf(bv, nil))
		got := run(fwd, fwd.Leaf(av, nil), fwd.Leaf(bv, nil))
		if len(got) != len(want) {
			t.Errorf("%s: %d outputs, gradient tape %d", name, len(got), len(want))
			continue
		}
		for k := range want {
			g, w := got[k].Value(), want[k].Value()
			if len(g) != len(w) {
				t.Errorf("%s: output %d has %d values, gradient tape %d", name, k, len(g), len(w))
				continue
			}
			for i := range w {
				if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
					t.Errorf("%s: output %d [%d] = %v, gradient tape %v", name, k, i, g[i], w[i])
				}
			}
			if got[k].Grad() != nil {
				t.Errorf("%s: forward-only value has a gradient buffer", name)
			}
		}
	}
	for _, ts := range p.All() {
		if ts.Grad != nil || ts.M != nil || ts.Vm != nil {
			t.Errorf("forward passes gave tensor %s training state", ts.Name)
		}
	}
}

func TestForwardTapeBackwardPanics(t *testing.T) {
	tp := NewForwardTape()
	out := tp.Sum(tp.Leaf([]float64{1, 2}, nil))
	defer func() {
		if recover() == nil {
			t.Error("Backward on a forward-only tape did not panic")
		}
	}()
	tp.Backward(out)
}

// TestForwardTapeLeafAliases: forward leaves are the caller's memory,
// not copies — the whole point for weight matrices — and the tape never
// writes through them.
func TestForwardTapeLeafAliases(t *testing.T) {
	p := NewParams()
	ts := p.NewUniform("e", 3, 4, 0, 1, rand.New(rand.NewSource(1)))
	before := append([]float64(nil), ts.Data...)
	tp := NewForwardTape()
	row := tp.Leaf(ts.Row(2), nil)
	trow := ts.Leaf(tp, 1)
	all := ts.LeafAll(tp)
	if &row.Value()[0] != &ts.Row(2)[0] || &trow.Value()[0] != &ts.Row(1)[0] || &all.Value()[0] != &ts.Data[0] {
		t.Fatal("a forward leaf copied its input")
	}
	tp.Exp(tp.Add(tp.Scale(row, 2), trow))
	tp.Reset()
	tp.Scale(tp.Const(make([]float64, 12)), 3) // slab memory reused after Reset
	for i, v := range ts.Data {
		if v != before[i] {
			t.Fatalf("parameter %d changed under a forward tape", i)
		}
	}
	if g := NewTape(); &g.Leaf(ts.Row(0), nil).Value()[0] == &ts.Row(0)[0] {
		t.Fatal("a gradient-tape leaf aliased its input")
	}
}

// chain builds a graph of the given depth on tp — a chain of width-wide
// values with a reduction and a double-width Concat hanging off every
// fifth link — and returns the values in creation order.
func chain(tp *Tape, width, depth int) []V {
	x := make([]float64, width)
	for i := range x {
		x[i] = float64(i%7) / 7
	}
	link := tp.Const(x)
	vs := []V{link}
	for i := 0; i < depth; i++ {
		if i%5 == 0 {
			vs = append(vs, tp.Sum(link), tp.Concat(link, link))
		}
		link = tp.AddScalar(tp.Scale(link, 0.5), float64(i))
		vs = append(vs, link)
	}
	return vs
}

// TestForwardTapeResetSlabs: after Reset a larger graph reuses the old
// slabs and grows new ones, and no two live values ever share memory —
// checked by stamping every value with its own sentinel and reading all
// of them back, and by re-evaluating and comparing.
func TestForwardTapeResetSlabs(t *testing.T) {
	tp := NewForwardTape()
	chain(tp, 64, 20)
	small := len(tp.slabs)
	if small == 0 {
		t.Fatal("a forward tape allocated no slab")
	}
	tp.Reset()

	// Wider than a slab's remainder, deeper than before, and with one
	// value larger than a whole slab (the Concat of two 3000-vectors).
	want := chain(NewTape(), 3000, 40)
	got := chain(tp, 3000, 40)
	if len(tp.slabs) <= small {
		t.Fatalf("larger graph fits in %d slabs, the small one took %d", len(tp.slabs), small)
	}
	for i := range want {
		g, w := got[i].Value(), want[i].Value()
		for j := range w {
			if math.Float64bits(g[j]) != math.Float64bits(w[j]) {
				t.Fatalf("value %d [%d] = %v after slab reuse, gradient tape %v", i, j, g[j], w[j])
			}
		}
	}
	// The test may write what the tape's users may not.
	for i, v := range got {
		vals := v.Value()
		for j := range vals {
			vals[j] = float64(i)
		}
	}
	for i, v := range got {
		for j, x := range v.Value() {
			if x != float64(i) {
				t.Fatalf("value %d [%d] holds value %v's sentinel: two live values share slab memory", i, j, x)
			}
		}
	}

	// A graph the tape has already seen needs no new slab, and starts
	// from zeroed memory whatever the last cycle left behind.
	grown := len(tp.slabs)
	for cycle := 0; cycle < 3; cycle++ {
		tp.Reset()
		again := chain(tp, 3000, 40)
		if len(tp.slabs) != grown {
			t.Fatalf("cycle %d: re-running the same graph went from %d to %d slabs", cycle, grown, len(tp.slabs))
		}
		for i := range want {
			g, w := again[i].Value(), want[i].Value()
			for j := range w {
				if math.Float64bits(g[j]) != math.Float64bits(w[j]) {
					t.Fatalf("cycle %d: value %d [%d] = %v, want %v", cycle, i, j, g[j], w[j])
				}
			}
		}
	}
}
