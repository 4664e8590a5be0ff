package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// MSE computes the paper's loss Σ (P̂ - P)² / |B| over a mini-batch and
// its gradient 2(P̂ - P)/|B| with respect to the prediction.
func MSE(pred, target *tensor.Tensor) (loss float64, grad *tensor.Tensor) {
	grad = tensor.New(pred.Shape()...)
	loss = MSEInto(grad, pred, target)
	return loss, grad
}

// MSEInto computes the MSE loss, writing the prediction gradient into
// grad (same shape as pred) — the allocation-free variant trainers use.
func MSEInto(grad, pred, target *tensor.Tensor) (loss float64) {
	if !pred.SameShape(target) {
		panic(fmt.Sprintf("nn: MSE shape mismatch %v vs %v", pred.Shape(), target.Shape()))
	}
	if !grad.SameShape(pred) {
		panic(fmt.Sprintf("nn: MSEInto grad shape %v vs pred %v", grad.Shape(), pred.Shape()))
	}
	n := float64(pred.Size())
	pd, td, gd := pred.Data(), target.Data(), grad.Data()
	for i := range pd {
		diff := pd[i] - td[i]
		loss += diff * diff
		gd[i] = 2 * diff / n
	}
	return loss / n
}
