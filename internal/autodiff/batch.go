package autodiff

// Repeat tiles a k times: out = [a, a, ..., a]. Used to score a batch of
// entities against one query embedding in a single tape op.
func (t *Tape) Repeat(a V, k int) V {
	n := a.Len()
	v := t.alloc(n * k)
	av := a.Value()
	for i := 0; i < k; i++ {
		copy(v[i*n:(i+1)*n], av)
	}
	if t.forward {
		return t.push(v, nil)
	}
	var res V
	res = t.push(v, func() {
		g := t.nodes[res.id].grad
		ga := t.nodes[a.id].grad
		for i := 0; i < k; i++ {
			seg := g[i*n : (i+1)*n]
			for j := range seg {
				ga[j] += seg[j]
			}
		}
	})
	return res
}

// SumSegments reduces a vector of length n*segLen to n sums of
// consecutive segments. The inverse reduction of Repeat: with it, a
// per-dimension distance over a tiled batch collapses to one scalar per
// batch element.
func (t *Tape) SumSegments(a V, segLen int) V {
	if segLen <= 0 || a.Len()%segLen != 0 {
		panic("autodiff: SumSegments: length not divisible by segment length")
	}
	n := a.Len() / segLen
	v := t.alloc(n)
	av := a.Value()
	for i := 0; i < n; i++ {
		s := 0.0
		for _, x := range av[i*segLen : (i+1)*segLen] {
			s += x
		}
		v[i] = s
	}
	if t.forward {
		return t.push(v, nil)
	}
	var res V
	res = t.push(v, func() {
		g := t.nodes[res.id].grad
		ga := t.nodes[a.id].grad
		for i := 0; i < n; i++ {
			gi := g[i]
			seg := ga[i*segLen : (i+1)*segLen]
			for j := range seg {
				seg[j] += gi
			}
		}
	})
	return res
}

// Slice returns the sub-vector a[start : start+n].
func (t *Tape) Slice(a V, start, n int) V {
	if start < 0 || n < 0 || start+n > a.Len() {
		panic("autodiff: Slice out of range")
	}
	v := t.alloc(n)
	copy(v, a.Value()[start:start+n])
	if t.forward {
		return t.push(v, nil)
	}
	var res V
	res = t.push(v, func() {
		g := t.nodes[res.id].grad
		ga := t.nodes[a.id].grad
		for j := range g {
			ga[start+j] += g[j]
		}
	})
	return res
}

// Mean reduces the vector to a one-element vector holding the mean of
// its components.
func (t *Tape) Mean(a V) V { return t.Scale(t.Sum(a), 1/float64(a.Len())) }

// Detach returns a's value as a constant: gradients do not flow through.
// Used to let an auxiliary head read a representation without its
// objective leaking back into the representation's geometry.
func (t *Tape) Detach(a V) V { return t.Const(a.Value()) }
