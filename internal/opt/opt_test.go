package opt

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// quadParam builds a single scalar parameter initialised at x0; the test
// loss is f(w) = w², whose gradient 2w we set manually each step.
func quadParam(x0 float64) *nn.Param {
	return nn.NewParam("w", tensor.FromSlice([]float64{x0}, 1))
}

func runQuadratic(o *Adam, p *nn.Param, steps int) float64 {
	for i := 0; i < steps; i++ {
		p.ZeroGrad()
		p.Grad.Data()[0] = 2 * p.Value.Data()[0]
		o.Step()
	}
	return p.Value.Data()[0]
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Adam's per-step displacement is bounded by ≈ lr, so from w=5 it needs
	// ≥ 5/lr steps and then oscillates within ~lr of optimum.
	const lr = 0.01
	p := quadParam(5)
	if w := runQuadratic(NewAdam([]*nn.Param{p}, lr, 0.9, 0.999), p, 2000); math.Abs(w) > lr {
		t.Fatalf("Adam stalled at %g, want within %g of 0", w, lr)
	}
}

func TestAdamFirstStepIsLR(t *testing.T) {
	// With bias correction, the very first Adam step has magnitude ≈ lr
	// regardless of gradient scale.
	for _, g := range []float64{1e-4, 1, 1e4} {
		p := quadParam(0)
		a := NewAdam([]*nn.Param{p}, 0.001, 0.9, 0.999)
		p.Grad.Data()[0] = g
		a.Step()
		if got := math.Abs(p.Value.Data()[0]); math.Abs(got-0.001) > 1e-5 {
			t.Fatalf("first Adam step for g=%g moved %g, want ≈0.001", g, got)
		}
	}
}

func TestAdamStepCount(t *testing.T) {
	p := quadParam(1)
	a := NewAdam([]*nn.Param{p}, 0.001, 0.9, 0.999)
	for i := 0; i < 7; i++ {
		a.Step()
	}
	if a.StepCount() != 7 {
		t.Fatalf("StepCount = %d, want 7", a.StepCount())
	}
}

func TestOptimizersTrainTinyRegression(t *testing.T) {
	// End-to-end sanity: Adam must fit y = 2x - 1 with a linear model to
	// low loss.
	t.Run("adam", func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		model := nn.NewDense(rng, 1, 1)
		xs := tensor.RandUniform(rng, -1, 1, 32, 1)
		ys := tensor.Apply(xs, func(v float64) float64 { return 2*v - 1 })
		o := NewAdam(model.Params(), 0.05, 0.9, 0.999)
		var loss float64
		for i := 0; i < 500; i++ {
			nn.ZeroGrads(model.Params())
			pred := model.Forward(xs)
			var grad *tensor.Tensor
			loss, grad = nn.MSE(pred, ys)
			model.Backward(grad)
			o.Step()
		}
		if loss > 1e-3 {
			t.Fatalf("adam final loss %g > %g", loss, 1e-3)
		}
	})
}
