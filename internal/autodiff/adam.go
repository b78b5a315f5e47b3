package autodiff

import "math"

// Adam implements the Adam optimizer (Kingma & Ba, ICLR 2015) over a
// parameter registry.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	step int
}

// NewAdam returns an Adam optimizer with the standard moment decays
// (0.9, 0.999) and epsilon 1e-8.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// Step applies one update using the gradients accumulated in the tensors,
// scaled by 1/scale (use the mini-batch size), then clears the gradients.
func (a *Adam) Step(p *Params, scale float64) {
	a.step++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	inv := 1 / scale
	for _, t := range p.All() {
		t.ensureState()
		for i, g := range t.Grad {
			g *= inv
			t.M[i] = a.Beta1*t.M[i] + (1-a.Beta1)*g
			t.Vm[i] = a.Beta2*t.Vm[i] + (1-a.Beta2)*g*g
			mHat := t.M[i] / bc1
			vHat := t.Vm[i] / bc2
			t.Data[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Epsilon)
			t.Grad[i] = 0
		}
	}
}

// StepCount reports how many updates have been applied.
func (a *Adam) StepCount() int { return a.step }

// SetStepCount restores the update counter when resuming from a
// checkpoint, so the bias corrections continue from where the
// interrupted run left off instead of re-warming from step 1.
func (a *Adam) SetStepCount(n int) { a.step = n }
