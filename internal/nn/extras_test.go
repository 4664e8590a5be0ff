package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestMaxPoolForwardKnown(t *testing.T) {
	x := tensor.FromSlice([]float64{
		1, 2, 5, 4,
		3, 0, 1, 1,
		9, 1, 2, 2,
		1, 1, 2, 8,
	}, 1, 1, 4, 4)
	p := NewMaxPool2D(2, 2)
	out := p.Forward(x)
	want := []float64{3, 5, 9, 8}
	for i, v := range want {
		if out.Data()[i] != v {
			t.Fatalf("MaxPool = %v, want %v", out.Data(), want)
		}
	}
}

func TestMaxPoolBackwardRoutesToArgmax(t *testing.T) {
	x := tensor.FromSlice([]float64{
		1, 2,
		3, 0,
	}, 1, 1, 2, 2)
	p := NewMaxPool2D(2, 2)
	p.Forward(x)
	grad := p.Backward(tensor.FromSlice([]float64{7}, 1, 1, 1, 1))
	// Max was at position (1,0) = flat index 2.
	want := []float64{0, 0, 7, 0}
	for i, v := range want {
		if grad.Data()[i] != v {
			t.Fatalf("grad = %v, want %v", grad.Data(), want)
		}
	}
}

func TestMaxPoolGradientNumeric(t *testing.T) {
	// Max is piecewise linear; away from ties the numeric check applies.
	rng := rand.New(rand.NewSource(1))
	p := NewMaxPool2D(2, 2)
	x := tensor.Randn(rng, 1, 2, 1, 4, 4) // continuous values: ties have measure 0
	checkLayerGradients(t, p, x, 1e-6)
}

func TestMaxPoolIsUpperBoundOfAvgPool(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := tensor.Randn(rng, 1, 1, 1, 8, 8)
	mp := NewMaxPool2D(4, 4)
	ap := NewAvgPool2D(4, 4)
	mx := mp.Forward(x)
	av := ap.Forward(x)
	for i := range mx.Data() {
		if mx.Data()[i] < av.Data()[i] {
			t.Fatal("window max below window mean")
		}
	}
}
