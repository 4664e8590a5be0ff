package nn

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution layer in NCHW layout with bias.
type Conv2D struct {
	K    *Param // kernel (Cout, Cin, KH, KW)
	B    *Param // bias   (Cout)
	Spec tensor.Conv2DSpec
	// InputLayer marks a convolution whose input is data, not another
	// layer's output: nothing consumes dL/d(input), so Backward neither
	// computes it nor keeps a buffer for it, and returns nil.
	InputLayer bool

	in         *tensor.Tensor // the latest Forward's input, until Backward consumes it
	out, gradX *tensor.Tensor // instance-owned scratch
}

// NewConv2D returns a convolution layer with He-normal initialised kernels
// (appropriate for the ReLU activations used by the UE CNN) and zero bias.
func NewConv2D(rng *rand.Rand, cin, cout, kh, kw int, spec tensor.Conv2DSpec) *Conv2D {
	fanIn := float64(cin * kh * kw)
	std := math.Sqrt(2.0 / fanIn)
	return &Conv2D{
		K:    NewParam("conv.k", tensor.Randn(rng, std, cout, cin, kh, kw)),
		B:    NewParam("conv.b", tensor.New(cout)),
		Spec: spec,
	}
}

// NewConv2DSame returns a stride-1 convolution that preserves spatial size
// for odd kernel sizes, as used by the UE-side CNN (the CNN output must be
// an N_H × N_W "image" so the pooling arithmetic of the paper applies).
func NewConv2DSame(rng *rand.Rand, cin, cout, k int) *Conv2D {
	return NewConv2D(rng, cin, cout, k, k, tensor.Conv2DSpec{
		StrideH: 1, StrideW: 1, PadH: k / 2, PadW: k / 2,
	})
}

// Forward computes the convolution into the layer's cached output.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	c.in = x
	oh, ow := c.Spec.OutSize(x.Dim(2), x.Dim(3), c.K.Value.Dim(2), c.K.Value.Dim(3))
	c.out = tensor.EnsureShape(c.out, x.Dim(0), c.K.Value.Dim(0), oh, ow)
	tensor.Conv2DInto(c.out, x, c.K.Value, c.B.Value.Data(), c.Spec)
	return c.out
}

// Backward accumulates kernel and bias gradients (directly into the
// parameter accumulators) and returns the input gradient, nil for an
// input layer. It consumes the cached input: the layer lets go of it, so
// a caller that recycles its image stack is not pinned through the layer,
// and a second Backward without a new Forward panics like a first one.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if c.in == nil {
		panic("nn: Conv2D.Backward before Forward")
	}
	in := c.in
	c.in = nil
	var gradX *tensor.Tensor
	if !c.InputLayer {
		c.gradX = tensor.EnsureShape(c.gradX, in.Shape()...)
		gradX = c.gradX
	}
	tensor.Conv2DBackwardInto(gradX, c.K.Grad, c.B.Grad.Data(), in, c.K.Value, grad, c.Spec)
	return gradX
}

// Release returns the layer's scratch to the shared pool.
func (c *Conv2D) Release() {
	c.in = nil
	tensor.Release(&c.out, &c.gradX)
}

// Params returns the kernel and bias parameters.
func (c *Conv2D) Params() []*Param { return []*Param{c.K, c.B} }

// AvgPool2D is the paper's payload-compression stage: non-overlapping
// average pooling with window (PH, PW). Over a 40×40 CNN output a 40×40
// window yields the "one pixel image".
type AvgPool2D struct {
	PH, PW int

	out, gradX *tensor.Tensor // instance-owned scratch
}

// NewAvgPool2D returns an average-pooling layer with the given window.
func NewAvgPool2D(ph, pw int) *AvgPool2D { return &AvgPool2D{PH: ph, PW: pw} }

// Forward pools each window to its mean.
func (p *AvgPool2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	p.out = tensor.EnsureShape(p.out, x.Dim(0), x.Dim(1), x.Dim(2)/p.PH, x.Dim(3)/p.PW)
	tensor.AvgPool2DInto(p.out, x, p.PH, p.PW)
	return p.out
}

// Backward spreads the gradient uniformly over each window.
func (p *AvgPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	p.gradX = tensor.EnsureShape(p.gradX,
		grad.Dim(0), grad.Dim(1), grad.Dim(2)*p.PH, grad.Dim(3)*p.PW)
	tensor.AvgPool2DBackwardInto(p.gradX, grad, p.PH, p.PW)
	return p.gradX
}

// Release returns the layer's scratch to the shared pool.
func (p *AvgPool2D) Release() { tensor.Release(&p.out, &p.gradX) }

// Params returns nil; pooling has no parameters.
func (p *AvgPool2D) Params() []*Param { return nil }
