package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// checkLayerGradients verifies a layer's Backward against central
// differences, both for the input gradient and every parameter gradient.
// The loss is sum(forward(x)) so the upstream gradient is all-ones.
func checkLayerGradients(t *testing.T, layer Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	const eps = 1e-6

	out := layer.Forward(x)
	ZeroGrads(layer.Params())
	gradIn := layer.Backward(tensor.Ones(out.Shape()...))

	// Input gradient.
	numIn := tensor.New(x.Shape()...)
	for i := range x.Data() {
		orig := x.Data()[i]
		x.Data()[i] = orig + eps
		plus := layer.Forward(x).Sum()
		x.Data()[i] = orig - eps
		minus := layer.Forward(x).Sum()
		x.Data()[i] = orig
		numIn.Data()[i] = (plus - minus) / (2 * eps)
	}
	if d := tensor.MaxAbsDiff(gradIn, numIn); d > tol {
		t.Fatalf("input gradient off by %g (tol %g)", d, tol)
	}

	// Parameter gradients.
	for pi, p := range layer.Params() {
		for i := range p.Value.Data() {
			orig := p.Value.Data()[i]
			p.Value.Data()[i] = orig + eps
			plus := layer.Forward(x).Sum()
			p.Value.Data()[i] = orig - eps
			minus := layer.Forward(x).Sum()
			p.Value.Data()[i] = orig
			num := (plus - minus) / (2 * eps)
			got := p.Grad.Data()[i]
			if math.Abs(got-num) > tol {
				t.Fatalf("param %d (%s) grad[%d] = %g, numeric %g", pi, p.Name, i, got, num)
			}
		}
	}
}

func TestDenseForwardKnown(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(rng, 2, 2)
	d.W.Value.CopyFrom(tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2))
	d.B.Value.CopyFrom(tensor.FromSlice([]float64{10, 20}, 1, 2))
	out := d.Forward(tensor.FromSlice([]float64{1, 1}, 1, 2))
	if out.At(0, 0) != 14 || out.At(0, 1) != 26 {
		t.Fatalf("Dense forward = %v", out.Data())
	}
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDense(rng, 4, 3)
	x := tensor.Randn(rng, 1, 5, 4)
	checkLayerGradients(t, d, x, 1e-6)
}

func TestDenseBackwardBeforeForwardPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDense(rng, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Backward before Forward did not panic")
		}
	}()
	d.Backward(tensor.Ones(1, 2))
}

func TestActivationsForward(t *testing.T) {
	x := tensor.FromSlice([]float64{-2, 0, 2}, 1, 3)
	relu := NewReLU().Forward(x)
	if relu.At(0, 0) != 0 || relu.At(0, 1) != 0 || relu.At(0, 2) != 2 {
		t.Fatalf("ReLU = %v", relu.Data())
	}
}

func TestActivationGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// ReLU: keep inputs away from the kink at 0.
	x := tensor.RandUniform(rng, 0.5, 2.0, 3, 4)
	for i := 0; i < x.Size(); i += 2 {
		x.Data()[i] = -x.Data()[i]
	}
	checkLayerGradients(t, NewReLU(), x, 1e-6)
}

func TestConv2DLayerGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := NewConv2DSame(rng, 1, 2, 3)
	x := tensor.Randn(rng, 1, 2, 1, 6, 6)
	checkLayerGradients(t, c, x, 1e-5)
}

// TestConv2DBackwardConsumesInput: Backward lets go of the cached input,
// so Backward-before-Forward and Backward-twice both panic with the same
// message, and an input-layer convolution returns no input gradient while
// accumulating the parameter gradients an inner one does, bit for bit.
func TestConv2DBackwardConsumesInput(t *testing.T) {
	mustPanic := func(name string, c *Conv2D, grad *tensor.Tensor) {
		t.Helper()
		defer func() {
			if r := recover(); r != "nn: Conv2D.Backward before Forward" {
				t.Fatalf("%s: recovered %v, want the Backward-before-Forward panic", name, r)
			}
		}()
		c.Backward(grad)
	}
	x := tensor.Randn(rand.New(rand.NewSource(11)), 1, 3, 1, 6, 6)
	grad := tensor.Randn(rand.New(rand.NewSource(12)), 1, 3, 2, 6, 6)
	inner := NewConv2DSame(rand.New(rand.NewSource(6)), 1, 2, 3)
	input := NewConv2DSame(rand.New(rand.NewSource(6)), 1, 2, 3)
	input.InputLayer = true

	mustPanic("before Forward", inner, grad)
	inner.Forward(x)
	if inner.Backward(grad) == nil {
		t.Fatal("an inner convolution returned no input gradient")
	}
	if inner.in != nil {
		t.Fatal("Backward left the input reachable through the layer")
	}
	mustPanic("second Backward", inner, grad)

	input.Forward(x)
	if g := input.Backward(grad); g != nil || input.gradX != nil {
		t.Fatalf("an input-layer convolution computed an input gradient: %v / %v", g, input.gradX)
	}
	mustPanic("second Backward, input layer", input, grad)
	for i, p := range input.Params() {
		want := inner.Params()[i].Grad.Data()
		for j, v := range p.Grad.Data() {
			if math.Float64bits(v) != math.Float64bits(want[j]) {
				t.Fatalf("%s grad[%d] = %g as input layer, %g as inner layer", p.Name, j, v, want[j])
			}
		}
	}
}

func TestAvgPoolLayerGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := NewAvgPool2D(2, 2)
	x := tensor.Randn(rng, 1, 2, 1, 4, 4)
	checkLayerGradients(t, p, x, 1e-6)
}

func TestLSTMForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	l := NewLSTM(rng, 5, 7)
	x := tensor.Randn(rng, 1, 3, 4, 5) // N=3, T=4, D=5
	h := l.Forward(x)
	if h.Rank() != 2 || h.Dim(0) != 3 || h.Dim(1) != 7 {
		t.Fatalf("LSTM output shape = %v", h.Shape())
	}
}

func TestLSTMOutputBounded(t *testing.T) {
	// h = o·tanh(c) with o ∈ (0,1) so |h| < 1 always.
	rng := rand.New(rand.NewSource(9))
	l := NewLSTM(rng, 3, 5)
	x := tensor.Randn(rng, 10, 8, 6, 3)
	h := l.Forward(x)
	if h.Max() >= 1 || h.Min() <= -1 {
		t.Fatalf("LSTM hidden escaped (-1,1): [%g, %g]", h.Min(), h.Max())
	}
}

func TestLSTMGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	l := NewLSTM(rng, 3, 4)
	x := tensor.Randn(rng, 1, 2, 3, 3) // small for numeric check cost
	checkLayerGradients(t, l, x, 1e-5)
}

func TestLSTMStatefulnessResetsBetweenForwards(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := NewLSTM(rng, 2, 3)
	x := tensor.Randn(rng, 1, 2, 4, 2)
	h1 := l.Forward(x).Clone() // Clone: layers reuse their output buffer
	h2 := l.Forward(x)
	if tensor.MaxAbsDiff(h1, h2) != 0 {
		t.Fatal("LSTM forward not deterministic / state leaked across calls")
	}
}

func TestSequentialComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	model := NewSequential(
		NewDense(rng, 4, 8),
		NewReLU(),
		NewDense(rng, 8, 1),
	)
	x := tensor.Randn(rng, 1, 6, 4)
	out := model.Forward(x)
	if out.Dim(0) != 6 || out.Dim(1) != 1 {
		t.Fatalf("sequential output shape = %v", out.Shape())
	}
	if got := len(model.Params()); got != 4 {
		t.Fatalf("sequential params = %d, want 4", got)
	}
	checkLayerGradients(t, model, x, 1e-5)
}

func TestMSEKnown(t *testing.T) {
	pred := tensor.FromSlice([]float64{1, 2}, 2, 1)
	target := tensor.FromSlice([]float64{0, 4}, 2, 1)
	loss, grad := MSE(pred, target)
	if math.Abs(loss-2.5) > 1e-12 { // (1 + 4)/2
		t.Fatalf("MSE = %g, want 2.5", loss)
	}
	if math.Abs(grad.At(0, 0)-1) > 1e-12 || math.Abs(grad.At(1, 0)+2) > 1e-12 {
		t.Fatalf("MSE grad = %v", grad.Data())
	}
}

func TestMSEGradientNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pred := tensor.Randn(rng, 1, 5, 1)
	target := tensor.Randn(rng, 1, 5, 1)
	_, grad := MSE(pred, target)
	const eps = 1e-6
	for i := range pred.Data() {
		orig := pred.Data()[i]
		pred.Data()[i] = orig + eps
		plus, _ := MSE(pred, target)
		pred.Data()[i] = orig - eps
		minus, _ := MSE(pred, target)
		pred.Data()[i] = orig
		num := (plus - minus) / (2 * eps)
		if math.Abs(grad.Data()[i]-num) > 1e-6 {
			t.Fatalf("MSE grad[%d] = %g, numeric %g", i, grad.Data()[i], num)
		}
	}
}

func TestCopyParams(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := NewDense(rng, 3, 2)
	b := NewDense(rng, 3, 2)
	if err := CopyParams(b.Params(), a.Params()); err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(a.W.Value, b.W.Value) != 0 {
		t.Fatal("CopyParams did not copy weights")
	}
	c := NewDense(rng, 4, 2)
	if err := CopyParams(c.Params(), a.Params()); err == nil {
		t.Fatal("shape-mismatched CopyParams did not error")
	}
}

func TestCountParams(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	d := NewDense(rng, 10, 5)
	if got := CountParams(d.Params()); got != 55 {
		t.Fatalf("CountParams = %d, want 55", got)
	}
}

func TestZeroGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	d := NewDense(rng, 2, 2)
	x := tensor.Randn(rng, 1, 3, 2)
	d.Forward(x)
	d.Backward(tensor.Ones(3, 2))
	if d.W.Grad.Norm2() == 0 {
		t.Fatal("gradient not accumulated")
	}
	ZeroGrads(d.Params())
	if d.W.Grad.Norm2() != 0 {
		t.Fatal("ZeroGrads did not reset")
	}
}
