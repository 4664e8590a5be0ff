package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Layers own their forward/backward scratch: each instance keeps its
// output and gradient buffers across calls (re-headered only when the
// incoming shape changes), so steady-state training allocates nothing.
// The buffers come from the shared tensor pool, and a layer's Release
// hands them back, so that a session's model does not leave megabytes of
// garbage behind for the next session to allocate beside.
// Layer instances are single-threaded — the existing Layer contract —
// which is exactly what makes instance-owned scratch safe. The returned
// tensors are therefore only valid until the instance's next
// Forward/Backward call; callers that need them longer must Clone.

// Dense is a fully-connected layer y = x·W + b for x of shape (N, In).
type Dense struct {
	W, B *Param
	in   *tensor.Tensor // cached input of the latest Forward

	out, dx, wg *tensor.Tensor // instance-owned scratch
}

// NewDense returns a Dense layer with Glorot-uniform weights and zero bias.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	limit := math.Sqrt(6.0 / float64(in+out))
	return &Dense{
		W: NewParam("dense.w", tensor.RandUniform(rng, -limit, limit, in, out)),
		B: NewParam("dense.b", tensor.New(1, out)),
	}
}

// Forward computes x·W + b.
func (d *Dense) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != d.W.Value.Dim(0) {
		panic(fmt.Sprintf("nn: Dense input shape %v incompatible with W %v", x.Shape(), d.W.Value.Shape()))
	}
	d.in = x
	n, o := x.Dim(0), d.W.Value.Dim(1)
	d.out = tensor.EnsureShape(d.out, n, o)
	tensor.MatMulInto(d.out, x, d.W.Value)
	bd := d.B.Value.Data()
	od := d.out.Data()
	for i := 0; i < n; i++ {
		row := od[i*o : (i+1)*o]
		for j := range row {
			row[j] += bd[j]
		}
	}
	return d.out
}

// Backward accumulates dW = xᵀ·g, db = Σg and returns dx = g·Wᵀ.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.in == nil {
		panic("nn: Dense.Backward before Forward")
	}
	d.wg = tensor.EnsureShape(d.wg, d.W.Value.Dim(0), d.W.Value.Dim(1))
	tensor.MatMulTransAInto(d.wg, d.in, grad)
	d.W.Grad.AddInPlace(d.wg)
	n, o := grad.Dim(0), grad.Dim(1)
	gb := d.B.Grad.Data()
	gd := grad.Data()
	for i := 0; i < n; i++ {
		row := gd[i*o : (i+1)*o]
		for j := range row {
			gb[j] += row[j]
		}
	}
	d.dx = tensor.EnsureShape(d.dx, d.in.Dim(0), d.in.Dim(1))
	tensor.MatMulTransBInto(d.dx, grad, d.W.Value)
	return d.dx
}

// Release returns the layer's scratch to the shared pool.
func (d *Dense) Release() {
	d.in = nil
	tensor.Release(&d.out, &d.dx, &d.wg)
}

// Params returns the weight and bias parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// Activation is the parameter-free element-wise ReLU, max(0, x). The
// UE's fused conv → ReLU → pool layer does not use it; it is the middle
// link of the unfused chain that layer is checked against.
type Activation struct {
	out  *tensor.Tensor
	gout *tensor.Tensor
}

// NewReLU returns max(0, x).
func NewReLU() *Activation { return &Activation{} }

// Forward applies the activation element-wise.
func (a *Activation) Forward(x *tensor.Tensor) *tensor.Tensor {
	a.out = tensor.EnsureShape(a.out, x.Shape()...)
	od := a.out.Data()
	for i, v := range x.Data() {
		if v > 0 {
			od[i] = v
		} else {
			od[i] = 0
		}
	}
	return a.out
}

// Backward passes the upstream gradient where the output is positive.
func (a *Activation) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if a.out == nil {
		panic("nn: relu.Backward before Forward")
	}
	a.gout = tensor.EnsureShape(a.gout, grad.Shape()...)
	gd, od, rd := grad.Data(), a.out.Data(), a.gout.Data()
	for i := range rd {
		if od[i] > 0 {
			rd[i] = gd[i]
		} else {
			rd[i] = 0
		}
	}
	return a.gout
}

// Release returns the layer's scratch to the shared pool.
func (a *Activation) Release() { tensor.Release(&a.out, &a.gout) }

// Params returns nil; activations have no parameters.
func (a *Activation) Params() []*Param { return nil }
