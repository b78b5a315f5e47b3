package autodiff

import "math"

// Add returns a + b elementwise.
func (t *Tape) Add(a, b V) V {
	t.checkSameLen(a, b, "Add")
	v := t.alloc(a.Len())
	av, bv := a.Value(), b.Value()
	for i := range v {
		v[i] = av[i] + bv[i]
	}
	if t.forward {
		return t.push(v, nil)
	}
	var res V
	res = t.push(v, func() {
		g := t.nodes[res.id].grad
		ga, gb := t.nodes[a.id].grad, t.nodes[b.id].grad
		for i := range g {
			ga[i] += g[i]
			gb[i] += g[i]
		}
	})
	return res
}

// Sub returns a - b elementwise.
func (t *Tape) Sub(a, b V) V {
	t.checkSameLen(a, b, "Sub")
	v := t.alloc(a.Len())
	av, bv := a.Value(), b.Value()
	for i := range v {
		v[i] = av[i] - bv[i]
	}
	if t.forward {
		return t.push(v, nil)
	}
	var res V
	res = t.push(v, func() {
		g := t.nodes[res.id].grad
		ga, gb := t.nodes[a.id].grad, t.nodes[b.id].grad
		for i := range g {
			ga[i] += g[i]
			gb[i] -= g[i]
		}
	})
	return res
}

// Mul returns a * b elementwise (Hadamard product).
func (t *Tape) Mul(a, b V) V {
	t.checkSameLen(a, b, "Mul")
	v := t.alloc(a.Len())
	av, bv := a.Value(), b.Value()
	for i := range v {
		v[i] = av[i] * bv[i]
	}
	if t.forward {
		return t.push(v, nil)
	}
	var res V
	res = t.push(v, func() {
		g := t.nodes[res.id].grad
		ga, gb := t.nodes[a.id].grad, t.nodes[b.id].grad
		for i := range g {
			ga[i] += g[i] * bv[i]
			gb[i] += g[i] * av[i]
		}
	})
	return res
}

// Scale returns c*a.
func (t *Tape) Scale(a V, c float64) V {
	v := t.alloc(a.Len())
	av := a.Value()
	for i := range v {
		v[i] = c * av[i]
	}
	if t.forward {
		return t.push(v, nil)
	}
	var res V
	res = t.push(v, func() {
		g := t.nodes[res.id].grad
		ga := t.nodes[a.id].grad
		for i := range g {
			ga[i] += c * g[i]
		}
	})
	return res
}

// AddScalar returns a + c in every component.
func (t *Tape) AddScalar(a V, c float64) V {
	v := t.alloc(a.Len())
	av := a.Value()
	for i := range v {
		v[i] = av[i] + c
	}
	if t.forward {
		return t.push(v, nil)
	}
	var res V
	res = t.push(v, func() {
		g := t.nodes[res.id].grad
		ga := t.nodes[a.id].grad
		for i := range g {
			ga[i] += g[i]
		}
	})
	return res
}

// Neg returns -a.
func (t *Tape) Neg(a V) V { return t.Scale(a, -1) }

func (t *Tape) unary(a V, f, df func(x float64) float64) V {
	v := t.alloc(a.Len())
	av := a.Value()
	for i := range v {
		v[i] = f(av[i])
	}
	if t.forward {
		return t.push(v, nil)
	}
	var res V
	res = t.push(v, func() {
		g := t.nodes[res.id].grad
		ga := t.nodes[a.id].grad
		for i := range g {
			ga[i] += g[i] * df(av[i])
		}
	})
	return res
}

// Sin applies sin elementwise.
func (t *Tape) Sin(a V) V { return t.unary(a, math.Sin, math.Cos) }

// Cos applies cos elementwise.
func (t *Tape) Cos(a V) V {
	return t.unary(a, math.Cos, func(x float64) float64 { return -math.Sin(x) })
}

// Tanh applies tanh elementwise.
func (t *Tape) Tanh(a V) V {
	return t.unary(a, math.Tanh, func(x float64) float64 {
		th := math.Tanh(x)
		return 1 - th*th
	})
}

// Sigmoid applies the logistic function elementwise.
func (t *Tape) Sigmoid(a V) V {
	return t.unary(a, sigmoid, func(x float64) float64 {
		s := sigmoid(x)
		return s * (1 - s)
	})
}

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// Relu applies max(0, x) elementwise.
func (t *Tape) Relu(a V) V {
	return t.unary(a, func(x float64) float64 {
		if x > 0 {
			return x
		}
		return 0
	}, func(x float64) float64 {
		if x > 0 {
			return 1
		}
		return 0
	})
}

// Abs applies |x| elementwise; the subgradient at 0 is 0.
func (t *Tape) Abs(a V) V {
	return t.unary(a, math.Abs, func(x float64) float64 {
		switch {
		case x > 0:
			return 1
		case x < 0:
			return -1
		}
		return 0
	})
}

// Exp applies e^x elementwise.
func (t *Tape) Exp(a V) V { return t.unary(a, math.Exp, math.Exp) }

// LogSigmoid applies log(sigmoid(x)) elementwise, computed stably as
// -softplus(-x).
func (t *Tape) LogSigmoid(a V) V {
	return t.unary(a, func(x float64) float64 {
		return -softplus(-x)
	}, func(x float64) float64 {
		return sigmoid(-x) // d/dx [-softplus(-x)] = σ(-x)
	})
}

func softplus(x float64) float64 {
	if x > 30 {
		return x
	}
	return math.Log1p(math.Exp(x))
}

// Min returns the elementwise minimum of a and b. Where the inputs tie,
// the gradient flows to a.
func (t *Tape) Min(a, b V) V {
	t.checkSameLen(a, b, "Min")
	v := t.alloc(a.Len())
	av, bv := a.Value(), b.Value()
	for i := range v {
		v[i] = math.Min(av[i], bv[i])
	}
	if t.forward {
		return t.push(v, nil)
	}
	var res V
	res = t.push(v, func() {
		g := t.nodes[res.id].grad
		ga, gb := t.nodes[a.id].grad, t.nodes[b.id].grad
		for i := range g {
			if av[i] <= bv[i] {
				ga[i] += g[i]
			} else {
				gb[i] += g[i]
			}
		}
	})
	return res
}

// Max returns the elementwise maximum of a and b. Where the inputs tie,
// the gradient flows to a.
func (t *Tape) Max(a, b V) V {
	t.checkSameLen(a, b, "Max")
	v := t.alloc(a.Len())
	av, bv := a.Value(), b.Value()
	for i := range v {
		v[i] = math.Max(av[i], bv[i])
	}
	if t.forward {
		return t.push(v, nil)
	}
	var res V
	res = t.push(v, func() {
		g := t.nodes[res.id].grad
		ga, gb := t.nodes[a.id].grad, t.nodes[b.id].grad
		for i := range g {
			if av[i] >= bv[i] {
				ga[i] += g[i]
			} else {
				gb[i] += g[i]
			}
		}
	})
	return res
}

// Atan2 returns atan2(y, x) elementwise.
func (t *Tape) Atan2(y, x V) V {
	t.checkSameLen(y, x, "Atan2")
	v := t.alloc(y.Len())
	yv, xv := y.Value(), x.Value()
	for i := range v {
		v[i] = math.Atan2(yv[i], xv[i])
	}
	if t.forward {
		return t.push(v, nil)
	}
	var res V
	res = t.push(v, func() {
		g := t.nodes[res.id].grad
		gy, gx := t.nodes[y.id].grad, t.nodes[x.id].grad
		for i := range g {
			den := xv[i]*xv[i] + yv[i]*yv[i]
			if den == 0 {
				continue
			}
			gy[i] += g[i] * xv[i] / den
			gx[i] -= g[i] * yv[i] / den
		}
	})
	return res
}

// Concat concatenates the inputs into one vector.
func (t *Tape) Concat(xs ...V) V {
	n := 0
	for _, x := range xs {
		n += x.Len()
	}
	v := t.alloc(n)
	off := 0
	for _, x := range xs {
		copy(v[off:], x.Value())
		off += x.Len()
	}
	if t.forward {
		return t.push(v, nil)
	}
	var res V
	res = t.push(v, func() {
		g := t.nodes[res.id].grad
		off := 0
		for _, x := range xs {
			gx := t.nodes[x.id].grad
			for i := range gx {
				gx[i] += g[off+i]
			}
			off += len(gx)
		}
	})
	return res
}

// Sum reduces the vector to a one-element vector holding the sum of its
// components.
func (t *Tape) Sum(a V) V {
	s := 0.0
	for _, x := range a.Value() {
		s += x
	}
	v := t.alloc(1)
	v[0] = s
	if t.forward {
		return t.push(v, nil)
	}
	var res V
	res = t.push(v, func() {
		g := t.nodes[res.id].grad[0]
		ga := t.nodes[a.id].grad
		for i := range ga {
			ga[i] += g
		}
	})
	return res
}

// L1 returns the one-element vector ||a||_1.
func (t *Tape) L1(a V) V { return t.Sum(t.Abs(a)) }

// MeanStack returns the elementwise mean of k same-length vectors.
func (t *Tape) MeanStack(xs []V) V {
	if len(xs) == 0 {
		panic("autodiff: MeanStack of empty list")
	}
	acc := xs[0]
	for _, x := range xs[1:] {
		acc = t.Add(acc, x)
	}
	return t.Scale(acc, 1/float64(len(xs)))
}

// MinStack returns the elementwise minimum of k same-length vectors.
func (t *Tape) MinStack(xs []V) V {
	if len(xs) == 0 {
		panic("autodiff: MinStack of empty list")
	}
	acc := xs[0]
	for _, x := range xs[1:] {
		acc = t.Min(acc, x)
	}
	return acc
}

// SoftmaxStack normalises k same-length score vectors elementwise:
// out[i][j] = exp(xs[i][j]) / sum_k exp(xs[k][j]). The scores are shifted
// by the per-dimension maximum for numerical stability; the shift does not
// change the value or the gradient.
func (t *Tape) SoftmaxStack(xs []V) []V {
	if len(xs) == 0 {
		panic("autodiff: SoftmaxStack of empty list")
	}
	d := xs[0].Len()
	shift := make([]float64, d)
	for j := 0; j < d; j++ {
		m := math.Inf(-1)
		for _, x := range xs {
			if v := x.Value()[j]; v > m {
				m = v
			}
		}
		shift[j] = -m
	}
	sh := t.Const(shift)
	exps := make([]V, len(xs))
	for i, x := range xs {
		exps[i] = t.Exp(t.Add(x, sh))
	}
	den := exps[0]
	for _, e := range exps[1:] {
		den = t.Add(den, e)
	}
	inv := t.Reciprocal(den)
	out := make([]V, len(xs))
	for i := range exps {
		out[i] = t.Mul(exps[i], inv)
	}
	return out
}

// Reciprocal returns 1/a elementwise.
func (t *Tape) Reciprocal(a V) V {
	return t.unary(a, func(x float64) float64 { return 1 / x },
		func(x float64) float64 { return -1 / (x * x) })
}

// MatVec computes y = W·x + b for a row-major (rows × cols) weight vector
// w and bias b of length rows. Gradients flow into w, x and b.
func (t *Tape) MatVec(w, x, b V, rows, cols int) V {
	if w.Len() != rows*cols {
		panic("autodiff: MatVec: weight length mismatch")
	}
	if x.Len() != cols {
		panic("autodiff: MatVec: input length mismatch")
	}
	if b.Len() != rows {
		panic("autodiff: MatVec: bias length mismatch")
	}
	wv, xv, bv := w.Value(), x.Value(), b.Value()
	v := t.alloc(rows)
	for r := 0; r < rows; r++ {
		s := bv[r]
		row := wv[r*cols : (r+1)*cols]
		for c, xc := range xv {
			s += row[c] * xc
		}
		v[r] = s
	}
	if t.forward {
		return t.push(v, nil)
	}
	var res V
	res = t.push(v, func() {
		g := t.nodes[res.id].grad
		gw, gx, gb := t.nodes[w.id].grad, t.nodes[x.id].grad, t.nodes[b.id].grad
		for r := 0; r < rows; r++ {
			gr := g[r]
			if gr == 0 {
				continue
			}
			gb[r] += gr
			row := wv[r*cols : (r+1)*cols]
			growG := gw[r*cols : (r+1)*cols]
			for c := range xv {
				growG[c] += gr * xv[c]
				gx[c] += gr * row[c]
			}
		}
	})
	return res
}
