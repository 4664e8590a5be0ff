package tensor

import (
	"math/rand"
	"testing"
)

// The conv kernels' allocation counts on one paper mini-batch (B·L = 256
// frames of 40×40, 3×3 same kernel) on ONE tensor worker, where they do
// not depend on the CPU count (w ≥ 2 workers add w + 1 heap objects to
// every call). DESIGN.md §6 accounts for each: the shard closure, plus
// one boxed slice header per pooled scratch slice handed back — the
// forward's start rows; the backward's partials (kernel and bias in one
// buffer), flipped kernel and start rows. Pooled scratch makes the
// counts meaningless under the race detector, whose sync.Pool drops
// Puts.

func convAllocsBatch() (x, k *Tensor, bias []float64, spec Conv2DSpec) {
	rng := rand.New(rand.NewSource(1))
	x = Randn(rng, 1, 256, 1, 40, 40)
	k = Randn(rng, 0.3, 1, 1, 3, 3)
	return x, k, []float64{0.1}, Conv2DSpec{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
}

func TestConv2DIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	defer SetWorkers(Workers())
	SetWorkers(1)
	x, k, bias, spec := convAllocsBatch()
	out := New(256, 1, 40, 40)
	Conv2DInto(out, x, k, bias, spec) // warm the scratch pool
	if n := testing.AllocsPerRun(20, func() {
		Conv2DInto(out, x, k, bias, spec)
	}); n > 2 {
		t.Fatalf("Conv2DInto allocates %.0f times per call on one worker, want ≤ 2", n)
	}
}

func TestConv2DBackwardIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	defer SetWorkers(Workers())
	SetWorkers(1)
	x, k, _, spec := convAllocsBatch()
	grad := Ones(256, 1, 40, 40)
	gradX, gradK := New(x.Shape()...), New(k.Shape()...)
	gradB := make([]float64, 1)
	backward := func() {
		gradK.Zero()
		gradB[0] = 0
		Conv2DBackwardInto(gradX, gradK, gradB, x, k, grad, spec)
	}
	backward() // warm the scratch pool
	if n := testing.AllocsPerRun(20, backward); n > 5 {
		t.Fatalf("Conv2DBackwardInto allocates %.0f times per call on one worker, want ≤ 5", n)
	}
}
