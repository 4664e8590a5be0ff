// Package metrics provides the error measures used by the experiment
// harness when comparing predicted and ground-truth received powers, and
// the per-session telemetry and gauges of the multi-UE base station.
package metrics

import (
	"fmt"
	"math"
)

// RMSE returns the root-mean-square error between two equal-length
// series. It panics on length mismatch or empty input — both are harness
// bugs, not data conditions.
func RMSE(pred, truth []float64) float64 {
	mustPair(pred, truth, "RMSE")
	var s float64
	for i := range pred {
		d := pred[i] - truth[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(pred)))
}

func mustPair(a, b []float64, op string) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("metrics: %s length mismatch %d != %d", op, len(a), len(b)))
	}
	if len(a) == 0 {
		panic(fmt.Sprintf("metrics: %s of empty series", op))
	}
}
