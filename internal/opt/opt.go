// Package opt implements the first-order stochastic optimisers used to
// train the split model. The paper trains with Adam (lr = 0.001,
// β₁ = 0.9, β₂ = 0.999); SGD, momentum-SGD and RMSProp are provided as
// ablation baselines.
//
// An Optimizer owns per-parameter state keyed by position in the slice it
// was constructed with; call Step after each backward pass and ZeroGrads
// (from internal/nn) before the next forward.
package opt

import (
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Optimizer updates parameter values from their accumulated gradients.
type Optimizer interface {
	// Step applies one update to every parameter the optimiser manages.
	Step()
	// Params returns the managed parameters.
	Params() []*nn.Param
}

// SGD is plain stochastic gradient descent: w ← w − lr·g.
type SGD struct {
	LR     float64
	params []*nn.Param
}

// NewSGD returns an SGD optimiser over params.
func NewSGD(params []*nn.Param, lr float64) *SGD {
	return &SGD{LR: lr, params: params}
}

// Step applies one SGD update.
func (s *SGD) Step() {
	for _, p := range s.params {
		p.Value.AddScaledInPlace(p.Grad, -s.LR)
	}
}

// Params returns the managed parameters.
func (s *SGD) Params() []*nn.Param { return s.params }

// Momentum is SGD with classical momentum: v ← μv − lr·g; w ← w + v.
type Momentum struct {
	LR, Mu float64
	params []*nn.Param
	vel    [][]float64
}

// NewMomentum returns a momentum optimiser (μ typically 0.9).
func NewMomentum(params []*nn.Param, lr, mu float64) *Momentum {
	m := &Momentum{LR: lr, Mu: mu, params: params, vel: make([][]float64, len(params))}
	for i, p := range params {
		m.vel[i] = make([]float64, p.Value.Size())
	}
	return m
}

// Step applies one momentum update.
func (m *Momentum) Step() {
	for i, p := range m.params {
		v := m.vel[i]
		w, g := p.Value.Data(), p.Grad.Data()
		for j := range w {
			v[j] = m.Mu*v[j] - m.LR*g[j]
			w[j] += v[j]
		}
	}
}

// Params returns the managed parameters.
func (m *Momentum) Params() []*nn.Param { return m.params }

// RMSProp keeps an exponential moving average of squared gradients and
// normalises the step by its square root.
type RMSProp struct {
	LR, Rho, Eps float64
	params       []*nn.Param
	ms           [][]float64
}

// NewRMSProp returns an RMSProp optimiser (ρ typically 0.9).
func NewRMSProp(params []*nn.Param, lr, rho float64) *RMSProp {
	r := &RMSProp{LR: lr, Rho: rho, Eps: 1e-8, params: params, ms: make([][]float64, len(params))}
	for i, p := range params {
		r.ms[i] = make([]float64, p.Value.Size())
	}
	return r
}

// Step applies one RMSProp update.
func (r *RMSProp) Step() {
	for i, p := range r.params {
		ms := r.ms[i]
		w, g := p.Value.Data(), p.Grad.Data()
		for j := range w {
			ms[j] = r.Rho*ms[j] + (1-r.Rho)*g[j]*g[j]
			w[j] -= r.LR * g[j] / (math.Sqrt(ms[j]) + r.Eps)
		}
	}
}

// Params returns the managed parameters.
func (r *RMSProp) Params() []*nn.Param { return r.params }

// Adam is the paper's optimiser: bias-corrected first and second moment
// estimates with per-coordinate step sizes (Kingma & Ba, 2015).
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	params                []*nn.Param
	m, v                  [][]float64
	t                     int
	k                     [8]float64 // tensor.AdamRow's constants for the current step
}

// NewAdam returns an Adam optimiser with the paper's hyper-parameters as
// defaults when lr, beta1, beta2 are given as 0.001, 0.9, 0.999.
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

// NewAdamPaper returns Adam with exactly the configuration reported in the
// paper's training section: lr = 0.001, β₁ = 0.9, β₂ = 0.999.
func NewAdamPaper(params []*nn.Param) *Adam { return NewAdam(params, 0.001, 0.9, 0.999) }

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

// Params returns the managed parameters.
func (a *Adam) Params() []*nn.Param { return a.params }

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
