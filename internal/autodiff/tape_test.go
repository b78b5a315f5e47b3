package autodiff

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// numGrad computes a central-difference approximation to d(sum f(x))/dx.
func numGrad(f func(x []float64) float64, x []float64) []float64 {
	const h = 1e-6
	g := make([]float64, len(x))
	for i := range x {
		orig := x[i]
		x[i] = orig + h
		fp := f(x)
		x[i] = orig - h
		fm := f(x)
		x[i] = orig
		g[i] = (fp - fm) / (2 * h)
	}
	return g
}

// checkGrad verifies the tape gradient of sum(op(x)) against finite
// differences for a single-input op.
func checkGrad(t *testing.T, name string, op func(tp *Tape, x V) V, x []float64, tol float64) {
	t.Helper()
	tp := NewTape()
	var got []float64
	leaf := tp.Leaf(x, func(g []float64) { got = append([]float64(nil), g...) })
	out := tp.Sum(op(tp, leaf))
	tp.Backward(out)

	want := numGrad(func(xs []float64) float64 {
		tp2 := NewTape()
		v := op(tp2, tp2.Const(xs))
		s := 0.0
		for _, e := range v.Value() {
			s += e
		}
		return s
	}, x)
	for i := range want {
		if math.Abs(got[i]-want[i]) > tol {
			t.Errorf("%s: grad[%d] = %g, want %g", name, i, got[i], want[i])
		}
	}
}

func TestUnaryGradients(t *testing.T) {
	x := []float64{-1.4, -0.3, 0.2, 0.9, 2.5}
	cases := []struct {
		name string
		op   func(tp *Tape, v V) V
	}{
		{"Sin", func(tp *Tape, v V) V { return tp.Sin(v) }},
		{"Cos", func(tp *Tape, v V) V { return tp.Cos(v) }},
		{"Tanh", func(tp *Tape, v V) V { return tp.Tanh(v) }},
		{"Sigmoid", func(tp *Tape, v V) V { return tp.Sigmoid(v) }},
		{"Relu", func(tp *Tape, v V) V { return tp.Relu(v) }},
		{"Abs", func(tp *Tape, v V) V { return tp.Abs(v) }},
		{"Exp", func(tp *Tape, v V) V { return tp.Exp(v) }},
		{"LogSigmoid", func(tp *Tape, v V) V { return tp.LogSigmoid(v) }},
		{"Scale", func(tp *Tape, v V) V { return tp.Scale(v, -2.5) }},
		{"AddScalar", func(tp *Tape, v V) V { return tp.AddScalar(v, 3.1) }},
		{"Neg", func(tp *Tape, v V) V { return tp.Neg(v) }},
		{"L1", func(tp *Tape, v V) V { return tp.L1(v) }},
	}
	for _, c := range cases {
		checkGrad(t, c.name, c.op, x, 1e-4)
	}
}

func TestReciprocalGradient(t *testing.T) {
	checkGrad(t, "Reciprocal", func(tp *Tape, v V) V { return tp.Reciprocal(v) },
		[]float64{0.5, 1.5, -2.0, 3.0}, 1e-4)
}

func TestBinaryGradients(t *testing.T) {
	a := []float64{0.3, -1.2, 2.2}
	b := []float64{1.1, 0.4, -0.7}
	cases := []struct {
		name string
		op   func(tp *Tape, x, y V) V
	}{
		{"Add", func(tp *Tape, x, y V) V { return tp.Add(x, y) }},
		{"Sub", func(tp *Tape, x, y V) V { return tp.Sub(x, y) }},
		{"Mul", func(tp *Tape, x, y V) V { return tp.Mul(x, y) }},
		{"Min", func(tp *Tape, x, y V) V { return tp.Min(x, y) }},
		{"Max", func(tp *Tape, x, y V) V { return tp.Max(x, y) }},
		{"Atan2", func(tp *Tape, x, y V) V { return tp.Atan2(x, y) }},
	}
	for _, c := range cases {
		// Gradient w.r.t. the first argument, second held constant.
		checkGrad(t, c.name+"/lhs", func(tp *Tape, v V) V {
			return c.op(tp, v, tp.Const(b))
		}, a, 1e-4)
		// And w.r.t. the second argument.
		checkGrad(t, c.name+"/rhs", func(tp *Tape, v V) V {
			return c.op(tp, tp.Const(a), v)
		}, b, 1e-4)
	}
}

func TestConcatGradient(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 4, 5}
	tp := NewTape()
	var ga, gb []float64
	la := tp.Leaf(a, func(g []float64) { ga = append([]float64(nil), g...) })
	lb := tp.Leaf(b, func(g []float64) { gb = append([]float64(nil), g...) })
	cat := tp.Concat(la, lb)
	if cat.Len() != 5 {
		t.Fatalf("Concat len = %d, want 5", cat.Len())
	}
	// weight each output element differently so we can see routing
	w := tp.Const([]float64{1, 10, 100, 1000, 10000})
	tp.Backward(tp.Sum(tp.Mul(cat, w)))
	wantA := []float64{1, 10}
	wantB := []float64{100, 1000, 10000}
	for i := range wantA {
		if ga[i] != wantA[i] {
			t.Errorf("ga[%d] = %g, want %g", i, ga[i], wantA[i])
		}
	}
	for i := range wantB {
		if gb[i] != wantB[i] {
			t.Errorf("gb[%d] = %g, want %g", i, gb[i], wantB[i])
		}
	}
}

// TestMatVecSameBitsAsPlainLoop pins MatVec's unrolled dot product to
// the one-accumulator loop it replaces, bit for bit, on every remainder
// of the four-way unroll.
func TestMatVecSameBitsAsPlainLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for rows := 1; rows <= 3; rows++ {
		for cols := 1; cols <= 13; cols++ {
			w := make([]float64, rows*cols)
			x := make([]float64, cols)
			b := make([]float64, rows)
			for i := range w {
				w[i] = rng.NormFloat64()
			}
			for i := range x {
				x[i] = rng.NormFloat64() * 1e3
			}
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			tp := NewTape()
			got := tp.MatVec(tp.Const(w), tp.Const(x), tp.Const(b), rows, cols).Value()
			for r := 0; r < rows; r++ {
				want := b[r]
				for c, xc := range x {
					want += w[r*cols+c] * xc
				}
				if math.Float64bits(got[r]) != math.Float64bits(want) {
					t.Fatalf("%dx%d row %d: MatVec %v, plain loop %v", rows, cols, r, got[r], want)
				}
			}
		}
	}
}

func TestMatVecGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows, cols := 3, 4
	w := make([]float64, rows*cols)
	x := make([]float64, cols)
	b := make([]float64, rows)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range b {
		b[i] = rng.NormFloat64()
	}

	eval := func(w, x, b []float64) float64 {
		tp := NewTape()
		out := tp.MatVec(tp.Const(w), tp.Const(x), tp.Const(b), rows, cols)
		s := 0.0
		for _, v := range out.Value() {
			s += v
		}
		return s
	}

	tp := NewTape()
	var gw, gx, gb []float64
	lw := tp.Leaf(w, func(g []float64) { gw = append([]float64(nil), g...) })
	lx := tp.Leaf(x, func(g []float64) { gx = append([]float64(nil), g...) })
	lb := tp.Leaf(b, func(g []float64) { gb = append([]float64(nil), g...) })
	tp.Backward(tp.Sum(tp.MatVec(lw, lx, lb, rows, cols)))

	for i, want := range numGrad(func(v []float64) float64 { return eval(v, x, b) }, w) {
		if math.Abs(gw[i]-want) > 1e-4 {
			t.Errorf("gw[%d] = %g, want %g", i, gw[i], want)
		}
	}
	for i, want := range numGrad(func(v []float64) float64 { return eval(w, v, b) }, x) {
		if math.Abs(gx[i]-want) > 1e-4 {
			t.Errorf("gx[%d] = %g, want %g", i, gx[i], want)
		}
	}
	for i, want := range numGrad(func(v []float64) float64 { return eval(w, x, v) }, b) {
		if math.Abs(gb[i]-want) > 1e-4 {
			t.Errorf("gb[%d] = %g, want %g", i, gb[i], want)
		}
	}
}

func TestSoftmaxStackSumsToOne(t *testing.T) {
	f := func(a, b, c float64) bool {
		// bound inputs to avoid Inf from quick's extreme floats
		clamp := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(x, 50)
		}
		tp := NewTape()
		xs := []V{
			tp.Const([]float64{clamp(a), clamp(b)}),
			tp.Const([]float64{clamp(b), clamp(c)}),
			tp.Const([]float64{clamp(c), clamp(a)}),
		}
		ws := tp.SoftmaxStack(xs)
		for j := 0; j < 2; j++ {
			sum := 0.0
			for _, w := range ws {
				v := w.Value()[j]
				if v < 0 || v > 1 {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxStackGradient(t *testing.T) {
	a := []float64{0.2, -0.5, 1.0}
	b := []float64{-0.1, 0.7, 0.3}
	checkGrad(t, "SoftmaxStack", func(tp *Tape, v V) V {
		ws := tp.SoftmaxStack([]V{v, tp.Const(b)})
		// weight the two outputs so gradient routing is visible
		return tp.Add(ws[0], tp.Scale(ws[1], 3))
	}, a, 1e-4)
}

func TestStackReductions(t *testing.T) {
	tp := NewTape()
	xs := []V{
		tp.Const([]float64{1, 5}),
		tp.Const([]float64{3, 2}),
		tp.Const([]float64{2, 8}),
	}
	mean := tp.MeanStack(xs).Value()
	if mean[0] != 2 || mean[1] != 5 {
		t.Errorf("MeanStack = %v, want [2 5]", mean)
	}
	min := tp.MinStack(xs).Value()
	if min[0] != 1 || min[1] != 2 {
		t.Errorf("MinStack = %v, want [1 2]", min)
	}
}

func TestTapeResetReusesBuffers(t *testing.T) {
	tp := NewTape()
	for iter := 0; iter < 3; iter++ {
		x := tp.Leaf([]float64{1, 2, 3}, nil)
		out := tp.Sum(tp.Mul(x, x))
		if got := out.Value()[0]; got != 14 {
			t.Fatalf("iter %d: sum(x*x) = %g, want 14", iter, got)
		}
		tp.Backward(out)
		if g := x.Grad(); g[0] != 2 || g[1] != 4 || g[2] != 6 {
			t.Fatalf("iter %d: grad = %v, want [2 4 6]", iter, g)
		}
		tp.Reset()
	}
}

func TestGradientAccumulatesOnSharedNode(t *testing.T) {
	// y = x + x should give dy/dx = 2 per component.
	tp := NewTape()
	x := tp.Leaf([]float64{3}, nil)
	tp.Backward(tp.Sum(tp.Add(x, x)))
	if g := x.Grad()[0]; g != 2 {
		t.Errorf("grad = %g, want 2", g)
	}
}

func TestAddLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	tp := NewTape()
	tp.Add(tp.Const([]float64{1}), tp.Const([]float64{1, 2}))
}

// TestSweepLeavesSinksToFlush: Sweep fills the tape's gradients without
// calling a sink; Flush then hands each leaf its gradient, latest leaf
// first, as Backward always has.
func TestSweepLeavesSinksToFlush(t *testing.T) {
	tp := NewTape()
	var order []string
	sink := func(name string) func([]float64) {
		return func([]float64) { order = append(order, name) }
	}
	a := tp.Leaf([]float64{2}, sink("a"))
	b := tp.Leaf([]float64{3}, sink("b"))
	out := tp.Sum(tp.Mul(a, b))
	tp.Sweep(out)
	if len(order) != 0 {
		t.Fatalf("Sweep called sinks %v", order)
	}
	if ga, gb := a.Grad()[0], b.Grad()[0]; ga != 3 || gb != 2 {
		t.Fatalf("swept grads = %g, %g, want 3, 2", ga, gb)
	}
	tp.Flush(out)
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("Flush order = %v, want [b a]", order)
	}
}
