package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRMSEKnown(t *testing.T) {
	pred := []float64{1, 2, 3}
	truth := []float64{1, 2, 3}
	if got := RMSE(pred, truth); got != 0 {
		t.Fatalf("RMSE of identical = %g", got)
	}
	if got := RMSE([]float64{3}, []float64{0}); got != 3 {
		t.Fatalf("RMSE = %g, want 3", got)
	}
	got := RMSE([]float64{1, -1}, []float64{0, 0})
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("RMSE = %g, want 1", got)
	}
}

func TestPanicsOnMismatch(t *testing.T) {
	for name, f := range map[string]func(){
		"len":   func() { RMSE([]float64{1}, []float64{1, 2}) },
		"empty": func() { RMSE(nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// Property: RMSE ≥ mean |error| ≥ |mean error| for any series pair.
func TestErrorMeasureOrdering(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		pred := make([]float64, n)
		truth := make([]float64, n)
		var abs, signed float64
		for i := range pred {
			pred[i] = rng.NormFloat64() * 5
			truth[i] = rng.NormFloat64() * 5
			abs += math.Abs(pred[i] - truth[i])
			signed += pred[i] - truth[i]
		}
		mae, bias := abs/float64(n), signed/float64(n)
		return RMSE(pred, truth) >= mae-1e-12 && mae >= math.Abs(bias)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
