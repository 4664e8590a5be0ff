// Package opt implements Adam, the optimiser the paper trains the split
// model with (lr = 0.001, β₁ = 0.9, β₂ = 0.999).
//
// Adam owns per-parameter state keyed by position in the slice it was
// constructed with; call Step after each backward pass and ZeroGrads
// (from internal/nn) before the next forward.
package opt

import (
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Adam is the paper's optimiser: bias-corrected first and second moment
// estimates with per-coordinate step sizes (Kingma & Ba, 2015).
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	params                []*nn.Param
	m, v                  [][]float64
	t                     int
	k                     [8]float64 // tensor.AdamRow's constants for the current step
}

// NewAdam returns an Adam optimiser over params with ε = 1e-8. The
// paper's settings are lr, beta1, beta2 = 0.001, 0.9, 0.999.
func NewAdam(params []*nn.Param, lr, beta1, beta2 float64) *Adam {
	a := &Adam{
		LR: lr, Beta1: beta1, Beta2: beta2, Eps: 1e-8,
		params: params,
		m:      make([][]float64, len(params)),
		v:      make([][]float64, len(params)),
	}
	for i, p := range params {
		a.m[i] = make([]float64, p.Value.Size())
		a.v[i] = make([]float64, p.Value.Size())
	}
	return a
}

// Step applies one bias-corrected Adam update.
func (a *Adam) Step() {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	a.k = [8]float64{a.Beta1, 1 - a.Beta1, a.Beta2, 1 - a.Beta2, c1, c2, a.LR, a.Eps}
	for i, p := range a.params {
		tensor.AdamRow(p.Value.Data(), p.Grad.Data(), a.m[i], a.v[i], &a.k)
	}
}

// StepCount returns the number of updates applied so far.
func (a *Adam) StepCount() int { return a.t }

// SetStepCount overrides the update counter — the bias-correction clock —
// when the optimiser is restored from a checkpoint.
func (a *Adam) SetStepCount(t int) {
	if t < 0 {
		t = 0
	}
	a.t = t
}

// Moments returns the live first/second moment buffers of parameter i
// (the same slices the optimiser updates, not copies). Checkpointing
// reads them; restoring writes into them.
func (a *Adam) Moments(i int) (m, v []float64) { return a.m[i], a.v[i] }
