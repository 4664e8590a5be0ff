package nn

import "repro/internal/tensor"

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
