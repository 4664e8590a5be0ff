// Package nn is a small neural-network library with hand-written
// reverse-mode gradients, sufficient to express the paper's split model:
// convolutional layers with average pooling on the UE side and an LSTM
// regression head on the BS side, trained with mini-batch Adam from
// internal/opt.
//
// Layers follow a stateful Forward/Backward protocol: Forward caches
// whatever intermediate values the gradient needs, and Backward must be
// called with the upstream gradient of the most recent Forward. This
// mirrors how the split-learning wire protocol works — the UE holds its
// activations while the BS computes and returns the cut-layer gradient.
package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Param is a trainable parameter tensor together with its gradient
// accumulator. Optimisers consume Params; layers expose them.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// NewParam wraps a value tensor in a Param with a zero gradient of the
// same shape.
func NewParam(name string, value *tensor.Tensor) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Shape()...)}
}

// ZeroGrad resets the gradient accumulator.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is a differentiable computation stage.
//
// Backward consumes dL/d(output of the latest Forward) and returns
// dL/d(input), accumulating parameter gradients into Params() as a side
// effect. Implementations are single-threaded per instance.
type Layer interface {
	Forward(x *tensor.Tensor) *tensor.Tensor
	Backward(grad *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// Sequential chains layers; the output of layer i feeds layer i+1.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a Sequential from the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward runs all layers in order.
func (s *Sequential) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward runs all layers in reverse order.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// Release returns the scratch of every layer that keeps some to the
// shared tensor pool; the next Forward takes up new scratch. Tensors the
// layers returned earlier must no longer be in use.
func (s *Sequential) Release() {
	for _, l := range s.Layers {
		if r, ok := l.(interface{ Release() }); ok {
			r.Release()
		}
	}
}

// Params returns the concatenated parameters of all layers.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrads resets the gradients of every parameter in params.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// CountParams returns the total number of scalar parameters.
func CountParams(params []*Param) int {
	n := 0
	for _, p := range params {
		n += p.Value.Size()
	}
	return n
}

// CopyParams copies parameter values from src to dst; the two lists must
// be shape-compatible and in the same order. Used to synchronise model
// replicas (e.g. monolithic reference vs split halves in tests).
func CopyParams(dst, src []*Param) error {
	if len(dst) != len(src) {
		return fmt.Errorf("nn: parameter count mismatch %d != %d", len(dst), len(src))
	}
	for i := range dst {
		if !dst[i].Value.SameShape(src[i].Value) {
			return fmt.Errorf("nn: parameter %d shape mismatch %v != %v",
				i, dst[i].Value.Shape(), src[i].Value.Shape())
		}
		dst[i].Value.CopyFrom(src[i].Value)
	}
	return nil
}
