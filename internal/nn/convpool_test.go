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

// identity returns the index 0, 1, …, n−1: a frame store that is itself
// the batch.
func identity(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// gather copies the frames idx[i] of a frame store into a stack: the input
// the layer chain sees for what the fused layer reads in place.
func gather(frames *tensor.Tensor, idx []int32) *tensor.Tensor {
	px := frames.Size() / frames.Dim(0)
	out := tensor.New(len(idx), frames.Dim(1), frames.Dim(2), frames.Dim(3))
	for i, f := range idx {
		copy(out.Data()[i*px:][:px], frames.Data()[int(f)*px:][:px])
	}
	return out
}

// TestFusedUEMatchesLayerOracle: pooled output, K.Grad and B.Grad of the
// fused layer equal the three-layer chain's by Float64bits — at the paper's
// 40×40 frames over every pooling window that divides them and kernels 1,
// 3 and 5, on multi-channel and asymmetric geometries, with zeros, −0 and
// negatives in the inputs, −0 convolution outputs (an all-negative kernel
// on a zero frame under a −0 bias), NaN and ±Inf outputs (v > 0 is false
// for NaN; the mask must say so too), accumulators that start at −0, three
// steps that accumulate without ZeroGrads, and every worker count. The
// fused layer reads its frames in place, through the identity index and
// through one that runs the store backwards and repeats frames, and after
// each step serves an evaluation forward on a ragged prefix of its index
// from a prefix of its mask. The chain runs on the Go row kernels over the
// gathered stack, the fused layer on the Go and the AVX2 ones.
func TestFusedUEMatchesLayerOracle(t *testing.T) {
	defer tensor.SetWorkers(0)
	defer tensor.SetAVX2(true)
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
			// Backwards through the store, then frame 0 twice more and
			// the last frame again: the index of overlapping sequences.
			var shuffled []int32
			for f := g.n - 1; f >= 0; f-- {
				shuffled = append(shuffled, int32(f))
			}
			shuffled = append(shuffled, 0, 0, int32(g.n-1))
			rng := rand.New(rand.NewSource(int64(len(g.name)*1000 + g.ph)))
			var runs []*fusedCase
			for _, idx := range [][]int32{identity(g.n), shuffled} {
				runs = append(runs, newFusedCase(t, rng, g.n, g.cin, g.cout, g.h, g.w, g.k, g.ph, g.pw, g.special, idx))
			}
			bothKernelPaths(t, func(t *testing.T) {
				for _, c := range runs {
					c.check(t)
				}
			})
		})
	}
}

// fusedCase is one input of TestFusedUEMatchesLayerOracle: a kernel and
// bias, three steps of n frames read through idx with their upstream
// gradients, and what the layer chain makes of them on the Go row
// kernels over the gathered stacks.
type fusedCase struct {
	spec         tensor.Conv2DSpec
	k, bias      *tensor.Tensor
	ph, pw       int
	idx          []int32
	xs, grads    [3]*tensor.Tensor
	outs, kg, bg [3][]float64
	perSample    int
}

func newFusedCase(t *testing.T, rng *rand.Rand, n, cin, cout, h, w, ksize, ph, pw int, special string, idx []int32) *fusedCase {
	t.Helper()
	c := &fusedCase{
		spec: tensor.Conv2DSpec{StrideH: 1, StrideW: 1, PadH: ksize / 2, PadW: ksize / 2},
		k:    tensor.Randn(rng, 0.5, cout, cin, ksize, ksize),
		bias: tensor.Randn(rng, 0.3, cout),
		ph:   ph, pw: pw, idx: idx,
		perSample: cout * (h / ph) * (w / pw),
	}
	for s := range c.xs {
		c.xs[s] = hostileImages(rng, n, cin, h, w)
		c.grads[s] = tensor.Randn(rng, 1, len(idx), cout, h/ph, w/pw)
	}
	switch special {
	case "negzero":
		for i, v := range c.k.Data() {
			c.k.Data()[i] = -math.Abs(v)
		}
		c.bias.Data()[0] = math.Copysign(0, -1) // frame 0, channel 0: −0 everywhere
	case "nan":
		c.xs[0].Data()[cin*h*w+9] = math.NaN()
		c.xs[1].Data()[2*cin*h*w+20] = math.Inf(1)
		c.xs[1].Data()[3*cin*h*w+21] = math.Inf(-1)
	}

	tensor.SetAVX2(false)
	defer tensor.SetAVX2(true)
	conv := negZeroConv(c.k, c.bias, c.spec)
	oracle := NewSequential(conv, NewReLU(), NewAvgPool2D(ph, pw))
	for s, x := range c.xs {
		c.outs[s] = append([]float64(nil), oracle.Forward(gather(x, idx)).Data()...)
		if special == "negzero" && s == 0 {
			at := 0 // a sample reading frame 0
			for idx[at] != 0 {
				at++
			}
			if v := conv.out.Data()[at*cout*h*w]; v != 0 || !math.Signbit(v) {
				t.Fatalf("the case built no −0 convolution output: %g", v)
			}
		}
		oracle.Backward(c.grads[s])
		c.kg[s] = append([]float64(nil), conv.K.Grad.Data()...)
		c.bg[s] = append([]float64(nil), conv.B.Grad.Data()...)
	}
	return c
}

// check runs the fused layer on the case at every worker count: pooled
// output, K.Grad and B.Grad after each step, then an evaluation forward
// on a ragged prefix of the index.
func (c *fusedCase) check(t *testing.T) {
	t.Helper()
	evalN := (len(c.idx) + 1) / 2
	for wk := 1; wk <= tensor.NumShards; wk++ {
		tensor.SetWorkers(wk)
		fused := NewConvReLUAvgPool(negZeroConv(c.k, c.bias, c.spec), c.ph, c.pw)
		for s, x := range c.xs {
			name := fmt.Sprintf("index %v workers %d step %d", c.idx, wk, s)
			sliceBitsEqual(t, name+" pooled", fused.Forward(x, c.idx).Data(), c.outs[s])
			if fused.Backward(c.grads[s]) != nil {
				t.Fatalf("%s: an input layer returned an input gradient", name)
			}
			sliceBitsEqual(t, name+" K.Grad", fused.K.Grad.Data(), c.kg[s])
			sliceBitsEqual(t, name+" B.Grad", fused.B.Grad.Data(), c.bg[s])
			sliceBitsEqual(t, name+" evaluation prefix", fused.Forward(x, c.idx[:evalN]).Data(), c.outs[s][:evalN*c.perSample])
		}
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
	idx := identity(3)
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
	l.Forward(x, idx)
	l.Forward(x, idx)
	l.Backward(grad)
	if l.frames != nil || l.idx != nil {
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
	all := identity(256)
	session := func() *ConvReLUAvgPool {
		l := NewConvReLUAvgPool(NewConv2DSame(rng, 1, 1, 3), 40, 40)
		l.Forward(x, all)
		l.Backward(grad)
		return l
	}
	first := session()
	want := append([]float64(nil), first.Forward(x, all).Data()...)
	if len(first.mask) != x.Size() {
		t.Fatalf("mask holds %d signs for %d convolution outputs", len(first.mask), x.Size())
	}
	mask := &first.mask[0]
	first.Forward(tensor.Randn(rng, 1, 10, 1, 40, 40), all[:10])
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
	sliceBitsEqual(t, "forward after release", first.Forward(x, all).Data(), want)
}
