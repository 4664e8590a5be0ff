package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// MaxPool2D is the max-pooling counterpart of AvgPool2D, provided as a
// compression-stage ablation: unlike the average, a window maximum is not
// an unbiased payload summary, and (unlike average pooling) it is not a
// linear map — the comparison quantifies how much that matters.
type MaxPool2D struct {
	PH, PW  int
	argmax  []int
	inShape []int

	out, gradX *tensor.Tensor // instance-owned scratch
}

// NewMaxPool2D returns a max-pooling layer with the given window.
func NewMaxPool2D(ph, pw int) *MaxPool2D { return &MaxPool2D{PH: ph, PW: pw} }

// Forward pools each window to its maximum.
func (p *MaxPool2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	p.out = tensor.EnsureShape(p.out, x.Dim(0), x.Dim(1), x.Dim(2)/p.PH, x.Dim(3)/p.PW)
	if cap(p.argmax) < p.out.Size() {
		p.argmax = make([]int, p.out.Size())
	}
	p.argmax = p.argmax[:p.out.Size()]
	tensor.MaxPool2DInto(p.out, p.argmax, x, p.PH, p.PW)
	p.inShape = x.Shape()
	return p.out
}

// Backward routes each gradient to its window's argmax.
func (p *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if p.argmax == nil {
		panic("nn: MaxPool2D.Backward before Forward")
	}
	p.gradX = tensor.EnsureShape(p.gradX, p.inShape...)
	tensor.MaxPool2DBackwardInto(p.gradX, grad, p.argmax)
	return p.gradX
}

// Release returns the layer's scratch to the shared pool.
func (p *MaxPool2D) Release() { tensor.Release(&p.out, &p.gradX) }

// Params returns nil; pooling has no parameters.
func (p *MaxPool2D) Params() []*Param { return nil }

// Dropout zeroes each activation independently with probability Rate
// during training and scales the survivors by 1/(1−Rate) (inverted
// dropout), so evaluation needs no rescaling. Call SetTraining(false)
// before validation/inference.
type Dropout struct {
	Rate     float64
	rng      *rand.Rand
	training bool
	mask     []float64

	out, gout *tensor.Tensor // instance-owned scratch
}

// NewDropout returns a dropout layer; rate must lie in [0, 1).
func NewDropout(rng *rand.Rand, rate float64) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("nn: dropout rate %g outside [0, 1)", rate))
	}
	return &Dropout{Rate: rate, rng: rng, training: true}
}

// SetTraining toggles between the stochastic (training) and identity
// (evaluation) behaviours.
func (d *Dropout) SetTraining(training bool) { d.training = training }

// Forward applies the mask (training) or the identity (evaluation).
func (d *Dropout) Forward(x *tensor.Tensor) *tensor.Tensor {
	if !d.training || d.Rate == 0 {
		d.mask = nil
		return x
	}
	keep := 1 - d.Rate
	scale := 1 / keep
	if cap(d.mask) < x.Size() {
		d.mask = make([]float64, x.Size())
	}
	d.mask = d.mask[:x.Size()]
	d.out = tensor.EnsureShape(d.out, x.Shape()...)
	xd, od := x.Data(), d.out.Data()
	for i := range xd {
		if d.rng.Float64() < keep {
			d.mask[i] = scale
			od[i] = xd[i] * scale
		} else {
			d.mask[i] = 0
			od[i] = 0
		}
	}
	return d.out
}

// Backward applies the same mask to the gradient.
func (d *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.mask == nil {
		return grad
	}
	d.gout = tensor.EnsureShape(d.gout, grad.Shape()...)
	gd, od := grad.Data(), d.gout.Data()
	for i := range gd {
		od[i] = gd[i] * d.mask[i]
	}
	return d.gout
}

// Params returns nil; dropout has no parameters.
func (d *Dropout) Params() []*Param { return nil }

// ClipGradNorm rescales all gradients in place so their global L2 norm
// does not exceed maxNorm, the standard guard against exploding RNN
// gradients. It returns the pre-clip norm.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	if maxNorm <= 0 {
		panic(fmt.Sprintf("nn: non-positive clip norm %g", maxNorm))
	}
	total := 0.0
	for _, p := range params {
		for _, g := range p.Grad.Data() {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm {
		scale := maxNorm / norm
		for _, p := range params {
			p.Grad.ScaleInPlace(scale)
		}
	}
	return norm
}
