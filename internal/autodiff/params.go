package autodiff

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// Tensor is a named, trainable parameter: a dense row-major matrix (or a
// vector when Rows == 1). Grad accumulates gradients between optimizer
// steps; M and Vm are the Adam moment buffers. All three are nil until
// training needs them — Grad from the first backward pass into the
// tensor (under mu), the moments from the first optimizer step or moment
// checkpoint — so a process that only serves holds Data alone.
type Tensor struct {
	Name string
	Rows int
	Cols int
	Data []float64

	Grad []float64
	M    []float64
	Vm   []float64

	mu sync.Mutex
}

// Row returns the i-th row of the tensor's data.
func (t *Tensor) Row(i int) []float64 { return t.Data[i*t.Cols : (i+1)*t.Cols] }

// View returns a new header over the tensor's current Data and nothing
// else: a reader that holds it keeps reading these values even after
// t.Data is replaced by another array. It is for forward-only tapes; it
// carries no training state.
func (t *Tensor) View() *Tensor {
	return &Tensor{Name: t.Name, Rows: t.Rows, Cols: t.Cols, Data: t.Data}
}

// AddGrad accumulates g into the gradient of row i. It is safe for
// concurrent use by multiple goroutines.
func (t *Tensor) AddGrad(i int, g []float64) { t.addGrad(i*t.Cols, g) }

// addGrad accumulates g into Grad[off:off+len(g)] under mu, which is
// also the only place a backward pass allocates Grad.
func (t *Tensor) addGrad(off int, g []float64) {
	t.mu.Lock()
	if t.Grad == nil {
		t.Grad = make([]float64, len(t.Data))
	}
	gr := t.Grad[off : off+len(g)]
	for j := range g {
		gr[j] += g[j]
	}
	t.mu.Unlock()
}

// ZeroGrad clears accumulated gradients.
func (t *Tensor) ZeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}

// ensureState allocates the training buffers that are still nil, for the
// single-goroutine optimizer and checkpoint paths; backward passes use addGrad.
func (t *Tensor) ensureState() {
	if t.Grad == nil {
		t.Grad = make([]float64, len(t.Data))
	}
	if t.M == nil {
		t.M = make([]float64, len(t.Data))
		t.Vm = make([]float64, len(t.Data))
	}
}

// Leaf registers row i of the tensor on the tape as a differentiable
// leaf. A forward-only tape aliases the row (no copy, no gradient sink):
// the caller keeps writers of the tensor out until it is done with it.
func (t *Tensor) Leaf(tape *Tape, i int) V {
	if tape.forward {
		return tape.push(t.Row(i), nil)
	}
	return tape.Leaf(t.Row(i), func(g []float64) { t.AddGrad(i, g) })
}

// LeafAll registers the whole tensor (flattened) as a leaf; used for
// weight matrices of linear layers. A forward-only tape aliases Data,
// as in Leaf.
func (t *Tensor) LeafAll(tape *Tape) V {
	if tape.forward {
		return tape.push(t.Data, nil)
	}
	return tape.Leaf(t.Data, func(g []float64) { t.addGrad(0, g) })
}

// Params is a registry of named tensors making up a model.
type Params struct {
	byName map[string]*Tensor
}

// NewParams returns an empty parameter registry.
func NewParams() *Params { return &Params{byName: make(map[string]*Tensor)} }

// New allocates and registers a zero tensor (values only, see Tensor).
// It panics if the name is already taken.
func (p *Params) New(name string, rows, cols int) *Tensor {
	if _, ok := p.byName[name]; ok {
		panic(fmt.Sprintf("autodiff: duplicate parameter %q", name))
	}
	t := &Tensor{
		Name: name, Rows: rows, Cols: cols,
		Data: make([]float64, rows*cols),
	}
	p.byName[name] = t
	return t
}

// NewUniform allocates a tensor initialised uniformly in [lo, hi).
func (p *Params) NewUniform(name string, rows, cols int, lo, hi float64, rng *rand.Rand) *Tensor {
	t := p.New(name, rows, cols)
	for i := range t.Data {
		t.Data[i] = lo + (hi-lo)*rng.Float64()
	}
	return t
}

// NewXavier allocates a tensor with Glorot-uniform initialisation for a
// linear layer of shape (rows × cols).
func (p *Params) NewXavier(name string, rows, cols int, rng *rand.Rand) *Tensor {
	bound := math.Sqrt(6.0 / float64(rows+cols))
	return p.NewUniform(name, rows, cols, -bound, bound, rng)
}

// Get returns the named tensor, or nil.
func (p *Params) Get(name string) *Tensor { return p.byName[name] }

// All returns the tensors in deterministic (name) order.
func (p *Params) All() []*Tensor {
	names := make([]string, 0, len(p.byName))
	for n := range p.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Tensor, len(names))
	for i, n := range names {
		out[i] = p.byName[n]
	}
	return out
}

// ZeroGrad clears gradients of all tensors.
func (p *Params) ZeroGrad() {
	for _, t := range p.All() {
		t.ZeroGrad()
	}
}

// Count returns the total number of scalar parameters.
func (p *Params) Count() int {
	n := 0
	for _, t := range p.byName {
		n += len(t.Data)
	}
	return n
}

type tensorWire struct {
	Name       string
	Rows, Cols int
	Data       []float64
}

// Save writes all tensor values (not optimizer state) to w in gob format.
func (p *Params) Save(w io.Writer) error { return p.Encode(gob.NewEncoder(w)) }

// Encode writes the tensor values through an existing gob encoder; use
// this when the parameters are one value of a larger gob stream (a gob
// stream must be read back through a single decoder, so writers and
// readers of multi-value streams must share encoders/decoders).
func (p *Params) Encode(enc *gob.Encoder) error {
	ts := p.All()
	wire := make([]tensorWire, len(ts))
	for i, t := range ts {
		wire[i] = tensorWire{Name: t.Name, Rows: t.Rows, Cols: t.Cols, Data: t.Data}
	}
	return enc.Encode(wire)
}

// momentWire carries one tensor's Adam moment buffers for exact-resume
// checkpoints.
type momentWire struct {
	Name  string
	M, Vm []float64
}

// EncodeMoments writes every tensor's Adam moment buffers (M, Vm) as
// one gob value, in the same deterministic name order as Encode. A
// checkpoint carrying parameters plus moments (plus the optimizer step
// count, kept by the trainer) resumes training bit-exactly.
func (p *Params) EncodeMoments(enc *gob.Encoder) error {
	ts := p.All()
	wire := make([]momentWire, len(ts))
	for i, t := range ts {
		t.ensureState()
		wire[i] = momentWire{Name: t.Name, M: t.M, Vm: t.Vm}
	}
	return enc.Encode(wire)
}

// DecodeMoments restores moment buffers written by EncodeMoments into
// the registered tensors, validating names and shapes.
func (p *Params) DecodeMoments(dec *gob.Decoder) error {
	var wire []momentWire
	if err := dec.Decode(&wire); err != nil {
		return fmt.Errorf("autodiff: load moments: %w", err)
	}
	for _, mw := range wire {
		t := p.byName[mw.Name]
		if t == nil {
			return fmt.Errorf("autodiff: load moments: unknown tensor %q", mw.Name)
		}
		t.ensureState()
		if len(mw.M) != len(t.M) || len(mw.Vm) != len(t.Vm) {
			return fmt.Errorf("autodiff: load moments: tensor %q size mismatch", mw.Name)
		}
		copy(t.M, mw.M)
		copy(t.Vm, mw.Vm)
	}
	return nil
}

// CloneShapes returns a fresh registry with zero tensors of the same
// names and shapes — a staging area to decode a parameter stream into
// without touching the live tensors (see halk.Model.ReloadFromFile).
func (p *Params) CloneShapes() *Params {
	out := NewParams()
	for _, t := range p.All() {
		out.New(t.Name, t.Rows, t.Cols)
	}
	return out
}

// Load restores tensor values previously written by Save. Every tensor in
// the stream must already be registered with matching shape.
func (p *Params) Load(r io.Reader) error { return p.Decode(gob.NewDecoder(r)) }

// Decode is the counterpart of Encode for multi-value gob streams.
func (p *Params) Decode(dec *gob.Decoder) error {
	var wire []tensorWire
	if err := dec.Decode(&wire); err != nil {
		return fmt.Errorf("autodiff: load params: %w", err)
	}
	for _, tw := range wire {
		t := p.byName[tw.Name]
		if t == nil {
			return fmt.Errorf("autodiff: load params: unknown tensor %q", tw.Name)
		}
		if t.Rows != tw.Rows || t.Cols != tw.Cols {
			return fmt.Errorf("autodiff: load params: tensor %q shape mismatch", tw.Name)
		}
		copy(t.Data, tw.Data)
	}
	return nil
}
