package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/tensor"
)

// negZeroConv returns an input-layer convolution over copies of k and bias
// whose gradient accumulators start at −0: a +0 sum added to one flips its
// sign, a term left out does not. The fused layer and the Conv2D → ReLU →
// AvgPool2D chain it must equal are each built over one.
func negZeroConv(k, bias *tensor.Tensor, spec tensor.Conv2DSpec) *Conv2D {
	c := &Conv2D{K: NewParam("conv.k", k.Clone()), B: NewParam("conv.b", bias.Clone()), Spec: spec, InputLayer: true}
	c.K.Grad.Fill(math.Copysign(0, -1))
	c.B.Grad.Fill(math.Copysign(0, -1))
	return c
}

// hostileImages draws an image stack with what a ReLU and a sum can get
// wrong among ordinary values: zeros of both signs, and whole frames of
// zeros, so that convolution outputs of exactly +0 and −0 reach the ReLU.
func hostileImages(rng *rand.Rand, n, cin, h, w int) *tensor.Tensor {
	x := tensor.Randn(rng, 1, n, cin, h, w)
	d := x.Data()
	for i := range d {
		switch rng.Intn(12) {
		case 0:
			d[i] = 0
		case 1:
			d[i] = math.Copysign(0, -1)
		}
	}
	clear(d[:cin*h*w]) // frame 0: all +0
	return x
}

// TestFusedUEMatchesLayerOracle: pooled output, K.Grad and B.Grad of the
// fused layer equal the three-layer chain's by Float64bits — at the paper's
// 40×40 frames over every pooling window that divides them and kernels 1,
// 3 and 5, on multi-channel and asymmetric geometries, with zeros, −0 and
// negatives in the inputs, −0 convolution outputs (an all-negative kernel
// on a zero frame under a −0 bias), NaN and ±Inf outputs (v > 0 is false
// for NaN; the mask must say so too), accumulators that start at −0, three
// steps that accumulate without ZeroGrads, and every worker count.
func TestFusedUEMatchesLayerOracle(t *testing.T) {
	defer tensor.SetWorkers(0)
	type geom struct {
		name                  string
		n, cin, cout, h, w, k int
		ph, pw                int
		special               string // "", "negzero" or "nan"
	}
	var cases []geom
	for _, pool := range []int{1, 2, 4, 5, 8, 10, 40} {
		for _, k := range []int{1, 3, 5} {
			cases = append(cases, geom{fmt.Sprintf("paper_pool%d_k%d", pool, k), 9, 1, 1, 40, 40, k, pool, pool, ""})
		}
	}
	cases = append(cases,
		geom{"multi_channel", 11, 2, 3, 8, 12, 3, 2, 4, ""},
		geom{"multi_channel_k5_tall_window", 5, 3, 2, 10, 6, 5, 5, 2, ""},
		geom{"one_image", 1, 2, 2, 4, 4, 3, 4, 4, ""},
		geom{"negative_zero_outputs", 9, 1, 2, 8, 8, 3, 4, 2, "negzero"},
		geom{"nan_and_inf_outputs", 9, 2, 2, 8, 8, 3, 2, 2, "nan"},
	)
	for _, g := range cases {
		t.Run(g.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(g.name)*1000 + g.ph)))
			spec := tensor.Conv2DSpec{StrideH: 1, StrideW: 1, PadH: g.k / 2, PadW: g.k / 2}
			k := tensor.Randn(rng, 0.5, g.cout, g.cin, g.k, g.k)
			bias := tensor.Randn(rng, 0.3, g.cout)
			const steps = 3
			var xs, grads [steps]*tensor.Tensor
			for s := range xs {
				xs[s] = hostileImages(rng, g.n, g.cin, g.h, g.w)
				grads[s] = tensor.Randn(rng, 1, g.n, g.cout, g.h/g.ph, g.w/g.pw)
			}
			switch g.special {
			case "negzero":
				for i, v := range k.Data() {
					k.Data()[i] = -math.Abs(v)
				}
				bias.Data()[0] = math.Copysign(0, -1) // frame 0, channel 0: −0 everywhere
			case "nan":
				xs[0].Data()[g.cin*g.h*g.w+9] = math.NaN()
				xs[1].Data()[2*g.cin*g.h*g.w+20] = math.Inf(1)
				xs[1].Data()[3*g.cin*g.h*g.w+21] = math.Inf(-1)
			}

			conv := negZeroConv(k, bias, spec)
			oracle := NewSequential(conv, NewReLU(), NewAvgPool2D(g.ph, g.pw))
			var outs, kg, bg [steps][]float64
			for s := range xs {
				outs[s] = append([]float64(nil), oracle.Forward(xs[s]).Data()...)
				oracle.Backward(grads[s])
				kg[s] = append([]float64(nil), conv.K.Grad.Data()...)
				bg[s] = append([]float64(nil), conv.B.Grad.Data()...)
			}
			if g.special == "negzero" {
				if v := conv.out.Data()[0]; v != 0 || !math.Signbit(v) {
					t.Fatalf("the case built no −0 convolution output: %g", v)
				}
			}
			for w := 1; w <= tensor.NumShards; w++ {
				tensor.SetWorkers(w)
				fused := NewConvReLUAvgPool(negZeroConv(k, bias, spec), g.ph, g.pw)
				for s := range xs {
					name := fmt.Sprintf("workers %d step %d", w, s)
					sliceBitsEqual(t, name+" pooled", fused.Forward(xs[s]).Data(), outs[s])
					if fused.Backward(grads[s]) != nil {
						t.Fatalf("%s: an input layer returned an input gradient", name)
					}
					sliceBitsEqual(t, name+" K.Grad", fused.K.Grad.Data(), kg[s])
					sliceBitsEqual(t, name+" B.Grad", fused.B.Grad.Data(), bg[s])
				}
			}
		})
	}
}

// TestFusedUEBackwardConsumesInput: like Conv2D, the fused layer lets go
// of its input in Backward, so Backward-before-Forward and Backward-twice
// panic with one message; an evaluation Forward (no Backward) in between
// is harmless.
func TestFusedUEBackwardConsumesInput(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	l := NewConvReLUAvgPool(NewConv2DSame(rng, 1, 1, 3), 2, 2)
	x, grad := tensor.Randn(rng, 1, 3, 1, 6, 6), tensor.Randn(rng, 1, 3, 1, 3, 3)
	mustPanic := func(name string) {
		t.Helper()
		defer func() {
			if r := recover(); r != "nn: ConvReLUAvgPool.Backward before Forward" {
				t.Fatalf("%s: recovered %v, want the Backward-before-Forward panic", name, r)
			}
		}()
		l.Backward(grad)
	}
	mustPanic("before Forward")
	l.Forward(x)
	l.Forward(x)
	l.Backward(grad)
	if l.in != nil {
		t.Fatal("Backward left the input reachable through the layer")
	}
	mustPanic("second Backward")
}

// TestFusedUEReleaseHandsBackMask: between Forward and Backward the fused
// UE half holds one bool per convolution output and nothing else of that
// size (400 KB at paper size, where the layer chain held 13 MB), a smaller
// evaluation batch lives in a prefix of it, and Release hands it to the
// pool: the next session's layer allocates no mask of its own. A released
// layer stays usable.
func TestFusedUEReleaseHandsBackMask(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection would empty the pool
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))  // and a Put on one P is not a Get's to take on another
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1) // no fan-out objects in the byte count
	rng := rand.New(rand.NewSource(43))
	x, grad := tensor.Randn(rng, 1, 256, 1, 40, 40), tensor.Ones(256, 1, 1, 1)
	session := func() *ConvReLUAvgPool {
		l := NewConvReLUAvgPool(NewConv2DSame(rng, 1, 1, 3), 40, 40)
		l.Forward(x)
		l.Backward(grad)
		return l
	}
	first := session()
	want := append([]float64(nil), first.Forward(x).Data()...)
	if len(first.mask) != x.Size() {
		t.Fatalf("mask holds %d signs for %d convolution outputs", len(first.mask), x.Size())
	}
	mask := &first.mask[0]
	first.Forward(tensor.Randn(rng, 1, 10, 1, 40, 40))
	if &first.mask[0] != mask || len(first.mask) != 10*40*40 {
		t.Fatal("a smaller batch did not use a prefix of the mask")
	}
	first.Release()
	var second *ConvReLUAvgPool
	if got := allocatedBytes(func() { second = session() }); got > 1<<16 {
		t.Fatalf("second session allocated %d bytes: the 400 KB mask was not reused", got)
	}
	if &second.mask[0] != mask {
		t.Fatal("second session did not take up the released mask")
	}
	second.Release()
	sliceBitsEqual(t, "forward after release", first.Forward(x).Data(), want)
}
