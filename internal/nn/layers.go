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

// Flatten reshapes (N, ...) to (N, prod(...)). Backward restores the shape.
type Flatten struct {
	inShape []int
}

// NewFlatten returns a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens all but the leading (batch) dimension.
func (f *Flatten) Forward(x *tensor.Tensor) *tensor.Tensor {
	f.inShape = x.Shape()
	n := x.Dim(0)
	return x.Reshape(n, x.Size()/n)
}

// Backward restores the cached input shape.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if f.inShape == nil {
		panic("nn: Flatten.Backward before Forward")
	}
	return grad.Reshape(f.inShape...)
}

// Params returns nil; Flatten has no parameters.
func (f *Flatten) Params() []*Param { return nil }

// actKind selects a specialised element-wise kernel; the generic closure
// path remains for custom activations.
type actKind uint8

const (
	actGeneric actKind = iota
	actReLU
	actTanh
	actSigmoid
)

// Activation is a parameter-free element-wise layer defined by a function
// and the derivative expressed in terms of the cached output.
type Activation struct {
	name  string
	kind  actKind
	fn    func(float64) float64
	deriv func(out float64) float64 // derivative as a function of the output
	out   *tensor.Tensor
	gout  *tensor.Tensor
}

// NewReLU returns max(0, x).
func NewReLU() *Activation {
	return &Activation{
		name: "relu",
		kind: actReLU,
		fn:   func(v float64) float64 { return math.Max(0, v) },
		deriv: func(out float64) float64 {
			if out > 0 {
				return 1
			}
			return 0
		},
	}
}

// NewTanh returns tanh(x); d/dx = 1 - out².
func NewTanh() *Activation {
	return &Activation{
		name:  "tanh",
		kind:  actTanh,
		fn:    math.Tanh,
		deriv: func(out float64) float64 { return 1 - out*out },
	}
}

// NewSigmoid returns σ(x) = 1/(1+e^{-x}); d/dx = out·(1-out).
func NewSigmoid() *Activation {
	return &Activation{
		name:  "sigmoid",
		kind:  actSigmoid,
		fn:    sigmoid,
		deriv: func(out float64) float64 { return out * (1 - out) },
	}
}

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

// Forward applies the activation element-wise.
func (a *Activation) Forward(x *tensor.Tensor) *tensor.Tensor {
	a.out = tensor.EnsureShape(a.out, x.Shape()...)
	xd, od := x.Data(), a.out.Data()
	switch a.kind {
	case actReLU:
		// Specialised: the UE CNN applies ReLU to every pixel of every
		// frame in the batch (hundreds of thousands of elements per
		// step); a branch beats a closure call by a wide margin.
		for i, v := range xd {
			if v > 0 {
				od[i] = v
			} else {
				od[i] = 0
			}
		}
	case actTanh:
		for i, v := range xd {
			od[i] = math.Tanh(v)
		}
	case actSigmoid:
		for i, v := range xd {
			od[i] = sigmoid(v)
		}
	default:
		for i, v := range xd {
			od[i] = a.fn(v)
		}
	}
	return a.out
}

// Backward multiplies the upstream gradient by the local derivative.
func (a *Activation) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if a.out == nil {
		panic(fmt.Sprintf("nn: %s.Backward before Forward", a.name))
	}
	a.gout = tensor.EnsureShape(a.gout, grad.Shape()...)
	gd, od, rd := grad.Data(), a.out.Data(), a.gout.Data()
	switch a.kind {
	case actReLU:
		for i := range rd {
			if od[i] > 0 {
				rd[i] = gd[i]
			} else {
				rd[i] = 0
			}
		}
	case actTanh:
		for i := range rd {
			rd[i] = gd[i] * (1 - od[i]*od[i])
		}
	case actSigmoid:
		for i := range rd {
			rd[i] = gd[i] * od[i] * (1 - od[i])
		}
	default:
		for i := range rd {
			rd[i] = gd[i] * a.deriv(od[i])
		}
	}
	return a.gout
}

// Release returns the layer's scratch to the shared pool.
func (a *Activation) Release() { tensor.Release(&a.out, &a.gout) }

// Params returns nil; activations have no parameters.
func (a *Activation) Params() []*Param { return nil }
