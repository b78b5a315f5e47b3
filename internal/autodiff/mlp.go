package autodiff

import (
	"fmt"
	"math/rand"
)

// MLP is a multi-layer perceptron with ReLU activations on hidden layers
// and a linear output layer. Weights are registered in a Params registry
// so they are trained and serialised with the rest of the model.
type MLP struct {
	sizes   []int
	weights []*Tensor
	biases  []*Tensor
}

// NewMLP registers an MLP named prefix with the given layer sizes
// (input, hidden..., output) in p.
func NewMLP(p *Params, prefix string, sizes []int, rng *rand.Rand) *MLP {
	if len(sizes) < 2 {
		panic("autodiff: MLP needs at least input and output sizes")
	}
	m := &MLP{sizes: sizes}
	for l := 0; l+1 < len(sizes); l++ {
		in, out := sizes[l], sizes[l+1]
		m.weights = append(m.weights, p.NewXavier(fmt.Sprintf("%s.w%d", prefix, l), out, in, rng))
		m.biases = append(m.biases, p.New(fmt.Sprintf("%s.b%d", prefix, l), 1, out))
	}
	return m
}

// SetOutputBias fills the output layer's bias with v. Useful to steer
// the initial operating point of a bounded head (e.g. start tanh-bounded
// arclengths small instead of at the midpoint).
func (m *MLP) SetOutputBias(v float64) {
	b := m.biases[len(m.biases)-1]
	for i := range b.Data {
		b.Data[i] = v
	}
}

// View returns the MLP over Tensor.View headers of its weights and
// biases (see Tensor.View).
func (m *MLP) View() *MLP {
	v := &MLP{sizes: m.sizes, weights: make([]*Tensor, len(m.weights)), biases: make([]*Tensor, len(m.biases))}
	for l := range m.weights {
		v.weights[l], v.biases[l] = m.weights[l].View(), m.biases[l].View()
	}
	return v
}

// Forward applies the MLP to x on the tape.
func (m *MLP) Forward(t *Tape, x V) V {
	h := x
	for l := range m.weights {
		w := m.weights[l].LeafAll(t)
		b := m.biases[l].LeafAll(t)
		h = t.MatVec(w, h, b, m.sizes[l+1], m.sizes[l])
		if l+1 < len(m.weights) {
			h = t.Relu(h)
		}
	}
	return h
}

// InSize returns the expected input dimensionality.
func (m *MLP) InSize() int { return m.sizes[0] }

// OutSize returns the output dimensionality.
func (m *MLP) OutSize() int { return m.sizes[len(m.sizes)-1] }
