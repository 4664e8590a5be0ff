package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// The bit-identity equivalence suite of the performance engine: the
// row-kernel convolution against the direct loop oracle, every worker
// count against serial, and arena-backed buffers against fresh
// allocations. Comparisons use math.Float64bits, so even sign-of-zero
// differences would fail.

func bitsEqual(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v != %v", name, got.Shape(), want.Shape())
	}
	gd, wd := got.Data(), want.Data()
	for i := range gd {
		if math.Float64bits(gd[i]) != math.Float64bits(wd[i]) {
			t.Fatalf("%s: element %d differs: %x (%g) != %x (%g)",
				name, i, math.Float64bits(gd[i]), gd[i], math.Float64bits(wd[i]), wd[i])
		}
	}
}

func bitsEqualSlice(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d differs: %g != %g", name, i, got[i], want[i])
		}
	}
}

// convCase is one convolution geometry of the equivalence sweep. The set
// covers the repo's models (single-channel stride-1 same-padding at
// every pooling-relevant size) plus multi-channel, strided, asymmetric
// and unpadded cases the generic code paths must handle, and the row
// kernels' edge code: kernel widths on both sides of the three-tap
// unroll, images smaller than the kernel (no interior at all), and pads
// from none to wider than the kernel.
type convCase struct {
	name             string
	n, cin, h, w     int
	cout, kh, kw     int
	spec             Conv2DSpec
	sparseGrad       bool // zero out most of the upstream gradient (post-ReLU shape)
	includeNegatives bool
}

func convCases() []convCase {
	return []convCase{
		{name: "ue_cnn_40x40", n: 9, cin: 1, h: 40, w: 40, cout: 1, kh: 3, kw: 3,
			spec: Conv2DSpec{1, 1, 1, 1}, includeNegatives: true},
		{name: "small_batch", n: 3, cin: 1, h: 8, w: 8, cout: 1, kh: 3, kw: 3,
			spec: Conv2DSpec{1, 1, 1, 1}},
		{name: "multi_channel", n: 4, cin: 3, h: 11, w: 9, cout: 5, kh: 3, kw: 3,
			spec: Conv2DSpec{1, 1, 1, 1}, includeNegatives: true},
		{name: "strided", n: 5, cin: 2, h: 12, w: 12, cout: 3, kh: 3, kw: 3,
			spec: Conv2DSpec{2, 2, 1, 1}},
		{name: "asym_kernel_no_pad", n: 2, cin: 2, h: 9, w: 13, cout: 2, kh: 1, kw: 5,
			spec: Conv2DSpec{1, 1, 0, 2}},
		{name: "stride_mixed", n: 17, cin: 1, h: 10, w: 14, cout: 2, kh: 5, kw: 3,
			spec: Conv2DSpec{2, 1, 2, 1}, sparseGrad: true},
		{name: "sparse_grad", n: 8, cin: 1, h: 16, w: 16, cout: 1, kh: 3, kw: 3,
			spec: Conv2DSpec{1, 1, 1, 1}, sparseGrad: true, includeNegatives: true},
		{name: "kw1", n: 3, cin: 1, h: 6, w: 7, cout: 1, kh: 3, kw: 1,
			spec: Conv2DSpec{1, 1, 1, 0}},
		{name: "kw2", n: 3, cin: 2, h: 6, w: 7, cout: 1, kh: 2, kw: 2,
			spec: Conv2DSpec{1, 1, 1, 1}},
		{name: "kw4", n: 9, cin: 1, h: 7, w: 11, cout: 2, kh: 3, kw: 4,
			spec: Conv2DSpec{1, 1, 1, 2}, includeNegatives: true},
		{name: "kw5_same", n: 4, cin: 1, h: 9, w: 9, cout: 1, kh: 5, kw: 5,
			spec: Conv2DSpec{1, 1, 2, 2}, sparseGrad: true},
		{name: "kw7_same", n: 2, cin: 2, h: 10, w: 12, cout: 3, kh: 7, kw: 7,
			spec: Conv2DSpec{1, 1, 3, 3}},
		{name: "image_smaller_than_kernel", n: 5, cin: 2, h: 2, w: 3, cout: 2, kh: 5, kw: 7,
			spec: Conv2DSpec{1, 1, 2, 3}},
		{name: "one_row_image", n: 4, cin: 1, h: 1, w: 13, cout: 2, kh: 3, kw: 3,
			spec: Conv2DSpec{1, 1, 1, 1}},
		{name: "one_column_image", n: 4, cin: 1, h: 13, w: 1, cout: 2, kh: 3, kw: 3,
			spec: Conv2DSpec{1, 1, 1, 1}},
		{name: "no_pad", n: 3, cin: 1, h: 8, w: 10, cout: 1, kh: 3, kw: 3,
			spec: Conv2DSpec{1, 1, 0, 0}},
		{name: "pad_wider_than_half_kernel", n: 3, cin: 1, h: 6, w: 8, cout: 1, kh: 3, kw: 3,
			spec: Conv2DSpec{1, 1, 2, 2}},
		{name: "pad_wider_than_kernel", n: 10, cin: 2, h: 5, w: 4, cout: 2, kh: 2, kw: 3,
			spec: Conv2DSpec{1, 1, 3, 5}, includeNegatives: true},
		{name: "multi_channel_kw5", n: 6, cin: 4, h: 7, w: 10, cout: 3, kh: 3, kw: 5,
			spec: Conv2DSpec{1, 1, 1, 2}, sparseGrad: true, includeNegatives: true},
	}
}

func buildConvCase(tc convCase, seed int64) (x, k *Tensor, bias []float64, gradOut *Tensor) {
	rng := rand.New(rand.NewSource(seed))
	x = Randn(rng, 1, tc.n, tc.cin, tc.h, tc.w)
	k = Randn(rng, 0.5, tc.cout, tc.cin, tc.kh, tc.kw)
	if tc.includeNegatives {
		k.Data()[0] = -k.Data()[0]
		k.Data()[len(k.Data())-1] = 0 // exercise the zero-tap skip
	}
	bias = make([]float64, tc.cout)
	for i := range bias {
		bias[i] = rng.NormFloat64()
	}
	oh, ow := tc.spec.OutSize(tc.h, tc.w, tc.kh, tc.kw)
	gradOut = Randn(rng, 1, tc.n, tc.cout, oh, ow)
	if tc.sparseGrad {
		gd := gradOut.Data()
		for i := range gd {
			if i%3 != 0 {
				gd[i] = 0
			}
		}
	}
	return x, k, bias, gradOut
}

// TestConvIm2colMatchesDirectForward: the engine's forward (row kernels
// at stride 1, the direct nest otherwise) equals the direct oracle
// bit-for-bit on every geometry, on the Go and the AVX2 row kernels. The
// name predates the row kernels.
func TestConvIm2colMatchesDirectForward(t *testing.T) {
	for _, tc := range convCases() {
		t.Run(tc.name, func(t *testing.T) {
			x, k, bias, _ := buildConvCase(tc, 11)
			bothKernelPaths(t, func(t *testing.T) {
				bitsEqual(t, "forward",
					Conv2D(x, k, bias, tc.spec),
					Conv2DDirect(x, k, bias, tc.spec))
				// nil bias path
				bitsEqual(t, "forward_nobias",
					Conv2D(x, k, nil, tc.spec),
					Conv2DDirect(x, k, nil, tc.spec))
			})
		})
	}
}

// checkConvBackwardMatchesDirect: the engine's input, kernel and bias
// gradients equal the direct oracle's bit-for-bit, and a nil gradX ("not
// wanted") leaves the kernel and bias gradients exactly as they are with
// one.
func checkConvBackwardMatchesDirect(t *testing.T, name string, x, k, gradOut *Tensor, spec Conv2DSpec) {
	t.Helper()
	cout := k.Dim(0)
	gX, gK, gB := Conv2DBackward(x, k, gradOut, spec)
	dX, dK := New(x.Shape()...), New(k.Shape()...)
	dB := make([]float64, cout)
	Conv2DBackwardDirect(dX, dK, dB, x, k, gradOut, spec)
	bitsEqual(t, name+"gradX", gX, dX)
	bitsEqual(t, name+"gradK", gK, dK)
	bitsEqualSlice(t, name+"gradBias", gB, dB)

	nK, nB := New(k.Shape()...), make([]float64, cout)
	Conv2DBackwardInto(nil, nK, nB, x, k, gradOut, spec)
	bitsEqual(t, name+"gradK without gradX", nK, dK)
	bitsEqualSlice(t, name+"gradBias without gradX", nB, dB)
}

// TestConvIm2colMatchesDirectBackward: the engine's gradients equal the
// direct oracle bit-for-bit on every geometry, with and without gradX, on
// the Go and the AVX2 row kernels. The name predates the row kernels.
func TestConvIm2colMatchesDirectBackward(t *testing.T) {
	for _, tc := range convCases() {
		t.Run(tc.name, func(t *testing.T) {
			x, k, _, gradOut := buildConvCase(tc, 23)
			bothKernelPaths(t, func(t *testing.T) {
				checkConvBackwardMatchesDirect(t, "", x, k, gradOut, tc.spec)
			})
		})
	}
}

// TestConvRandomGeometryMatchesDirect: 300 seeded draws of batch,
// channels, image, kernel and pads (stride 1 on three draws of four, so
// the row kernels take most of them) against the direct oracle. Images
// are drawn from 1×1 up, so kernels overhanging the image, empty
// interiors and output columns no tap reaches all occur. The draws run
// once on the Go and once on the AVX2 row kernels.
func TestConvRandomGeometryMatchesDirect(t *testing.T) {
	bothKernelPaths(t, checkRandomGeometries)
}

func checkRandomGeometries(t *testing.T) {
	rng := rand.New(rand.NewSource(20260930))
	for draw := 0; draw < 300; draw++ {
		tc := convCase{
			n: 1 + rng.Intn(10), cin: 1 + rng.Intn(3), cout: 1 + rng.Intn(3),
			h: 1 + rng.Intn(9), w: 1 + rng.Intn(12),
			kh: 1 + rng.Intn(5), kw: 1 + rng.Intn(8),
			spec:       Conv2DSpec{StrideH: 1, StrideW: 1},
			sparseGrad: rng.Intn(3) == 0, includeNegatives: rng.Intn(2) == 0,
		}
		if rng.Intn(4) == 0 {
			tc.spec.StrideH, tc.spec.StrideW = 1+rng.Intn(2), 1+rng.Intn(3)
		}
		// Pads from the smallest that leaves an output up to a full kernel
		// and one beyond.
		tc.spec.PadH = max(0, (tc.kh-tc.h+1)/2) + rng.Intn(tc.kh+2)
		tc.spec.PadW = max(0, (tc.kw-tc.w+1)/2) + rng.Intn(tc.kw+2)
		x, k, bias, gradOut := buildConvCase(tc, int64(draw))
		name := fmt.Sprintf("draw %d %+v: ", draw, tc)
		bitsEqual(t, name+"forward", Conv2D(x, k, bias, tc.spec), Conv2DDirect(x, k, bias, tc.spec))
		checkConvBackwardMatchesDirect(t, name, x, k, gradOut, tc.spec)
	}
}

// TestWorkerCountInvariance: conv forward/backward (with and without the
// input gradient), the fused conv→ReLU→pool pair and all three matmul
// kernels produce bit-identical results for every worker-pool size — the
// shard decomposition, not the worker count, fixes reduction order — and
// for either row-kernel path: the reference is the Go path on one worker.
func TestWorkerCountInvariance(t *testing.T) {
	defer SetWorkers(0)
	defer SetAVX2(true)
	workerCounts := []int{1, 2, 3, 4, 5, 6, 7, 8, runtime.NumCPU()}

	rng := rand.New(rand.NewSource(31))
	a := Randn(rng, 1, 33, 17)
	b := Randn(rng, 1, 17, 29)
	at := Randn(rng, 1, 17, 33)
	bt := Randn(rng, 1, 29, 17)

	type result struct {
		mm, mmA, mmB, fwd, gX, gK, nilK *Tensor
		gB, nilB                        []float64
		pooled, poolK                   *Tensor
		poolB                           []float64
	}
	tc := convCases()[0]
	x, k, bias, gradOut := buildConvCase(tc, 47)
	const pool = 4 // over the 40×40 convolution output
	pooledGrad := Randn(rng, 1, tc.n, tc.cout, tc.h/pool, tc.w/pool)
	mask := make([]bool, gradOut.Size())

	runAll := func() result {
		var r result
		r.mm = MatMul(a, b)
		r.mmA = MatMulTransA(at, b)
		r.mmB = MatMulTransB(a, bt)
		r.fwd = Conv2D(x, k, bias, tc.spec)
		r.gX, r.gK, r.gB = Conv2DBackward(x, k, gradOut, tc.spec)
		r.nilK, r.nilB = New(k.Shape()...), make([]float64, tc.cout)
		Conv2DBackwardInto(nil, r.nilK, r.nilB, x, k, gradOut, tc.spec)
		r.pooled, r.poolK, r.poolB = New(pooledGrad.Shape()...), New(k.Shape()...), make([]float64, tc.cout)
		ConvReLUAvgPoolInto(r.pooled, mask, x, k, bias, tc.spec, pool, pool)
		ConvReLUAvgPoolBackwardInto(r.poolK, r.poolB, x, mask, pooledGrad, tc.spec, pool, pool)
		return r
	}

	SetWorkers(1)
	SetAVX2(false)
	ref := runAll()
	bothKernelPaths(t, func(t *testing.T) {
		for _, w := range workerCounts {
			got := SetWorkers(w)
			if got < 1 || got > NumShards {
				t.Fatalf("SetWorkers(%d) returned %d outside [1, %d]", w, got, NumShards)
			}
			r := runAll()
			bitsEqual(t, "MatMul", r.mm, ref.mm)
			bitsEqual(t, "MatMulTransA", r.mmA, ref.mmA)
			bitsEqual(t, "MatMulTransB", r.mmB, ref.mmB)
			bitsEqual(t, "Conv2D", r.fwd, ref.fwd)
			bitsEqual(t, "gradX", r.gX, ref.gX)
			bitsEqual(t, "gradK", r.gK, ref.gK)
			bitsEqualSlice(t, "gradBias", r.gB, ref.gB)
			bitsEqual(t, "gradK without gradX", r.nilK, ref.gK)
			bitsEqualSlice(t, "gradBias without gradX", r.nilB, ref.gB)
			bitsEqual(t, "fused pooled", r.pooled, ref.pooled)
			bitsEqual(t, "fused gradK", r.poolK, ref.poolK)
			bitsEqualSlice(t, "fused gradBias", r.poolB, ref.poolB)
		}
	})
}

// naiveProduct is the three matrix products as triple loops that spell
// out the contract of the row kernels: every output element starts at
// zero and takes its terms one at a time in ascending inner index; a·B
// and Aᵀ·B skip a term whose left factor is zero (either sign), a·Bᵀ
// skips nothing.
func naiveProduct(a, b *Tensor, transA, transB bool) *Tensor {
	m, k := a.shape[0], a.shape[1]
	if transA {
		m, k = k, m
	}
	n := b.shape[1]
	if transB {
		n = b.shape[0]
	}
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				av := a.data[i*k+p]
				if transA {
					av = a.data[p*m+i]
				}
				switch {
				case transB:
					s += av * b.data[j*k+p]
				case av != 0:
					s += av * b.data[p*n+j]
				}
			}
			out.data[i*n+j] = s
		}
	}
	return out
}

// sparseRandn draws a tensor with about a fifth of its entries zero, a
// few of them negative zero.
func sparseRandn(rng *rand.Rand, shape ...int) *Tensor {
	t := Randn(rng, 1, shape...)
	for i := range t.data {
		switch rng.Intn(10) {
		case 0:
			t.data[i] = 0
		case 1:
			t.data[i] = math.Copysign(0, -1)
		}
	}
	return t
}

// TestMatMulMatchesNaive: the three products equal the naive loops bit
// for bit over 250 seeded draws of shapes on both sides of the kernels'
// blocks of four, with zeros and negative zeros among the factors and
// any worker count; and a zero left factor skips its term even opposite
// an infinity, inside a block of four and in the remainder, where the
// product would be NaN. All of it runs on the Go and the AVX2 row kernels.
func TestMatMulMatchesNaive(t *testing.T) {
	bothKernelPaths(t, checkProductsMatchNaive)
}

func checkProductsMatchNaive(t *testing.T) {
	defer SetWorkers(0)
	rng := rand.New(rand.NewSource(73))
	check := func(name string, a, at, b, bt *Tensor) {
		t.Helper()
		bitsEqual(t, name+" MatMul", MatMul(a, b), naiveProduct(a, b, false, false))
		bitsEqual(t, name+" MatMulTransA", MatMulTransA(at, b), naiveProduct(at, b, true, false))
		bitsEqual(t, name+" MatMulTransB", MatMulTransB(a, bt), naiveProduct(a, bt, false, true))
	}
	for draw := 0; draw < 250; draw++ {
		m, k, n := 1+rng.Intn(19), 1+rng.Intn(19), 1+rng.Intn(19)
		if draw%10 == 0 {
			m, k, n = 40+rng.Intn(30), 30+rng.Intn(80), 100+rng.Intn(40) // wide enough to fan out
		}
		SetWorkers(1 + rng.Intn(NumShards))
		check(fmt.Sprintf("draw %d (%d×%d×%d)", draw, m, k, n),
			sparseRandn(rng, m, k), sparseRandn(rng, k, m), sparseRandn(rng, k, n), sparseRandn(rng, n, k))
	}

	a, b := Ones(2, 7), Ones(7, 3)
	a.Set(0, 0, 1) // in row 0's first block of four
	a.Set(0, 1, 6) // in row 1's remainder
	b.Set(math.Inf(1), 1, 0)
	b.Set(math.Inf(-1), 6, 2)
	at, bt := Transpose2D(a), Transpose2D(b)
	check("0·Inf", a, at, b, bt)
	if got := MatMul(a, b); got.At(0, 0) != 6 || got.At(1, 2) != 6 || !math.IsInf(got.At(1, 0), 1) {
		t.Fatalf("a zero factor did not skip its infinite term: %v", got.Data())
	}
	if got := MatMulTransB(a, bt); !math.IsNaN(got.At(0, 0)) {
		t.Fatalf("a·Bᵀ skips no term, 0·Inf must reach the sum: got %g", got.At(0, 0))
	}
}

// TestArenaMatchesFreshAlloc: operating into arena-recycled buffers —
// including deliberately dirtied ones — produces the same bits as fresh
// allocations.
func TestArenaMatchesFreshAlloc(t *testing.T) {
	tc := convCases()[2] // multi-channel
	x, k, bias, gradOut := buildConvCase(tc, 59)
	oh, ow := tc.spec.OutSize(tc.h, tc.w, tc.kh, tc.kw)

	var arena Arena
	// Cycle 1: dirty the arena's buffers with garbage results.
	dirty := arena.GetUninit(tc.n, tc.cout, oh, ow)
	dirty.Fill(math.Pi)
	arena.Reset()

	// Cycle 2: the same shapes come back dirty; Into-ops must fully
	// define their outputs.
	out := arena.GetUninit(tc.n, tc.cout, oh, ow)
	Conv2DInto(out, x, k, bias, tc.spec)
	bitsEqual(t, "conv_into_arena", out, Conv2D(x, k, bias, tc.spec))

	gX := arena.Get(tc.n, tc.cin, tc.h, tc.w)
	gK := arena.Get(tc.cout, tc.cin, tc.kh, tc.kw)
	gB := make([]float64, tc.cout)
	Conv2DBackwardInto(gX, gK, gB, x, k, gradOut, tc.spec)
	wX, wK, wB := Conv2DBackward(x, k, gradOut, tc.spec)
	bitsEqual(t, "gradX_arena", gX, wX)
	bitsEqual(t, "gradK_arena", gK, wK)
	bitsEqualSlice(t, "gradBias_arena", gB, wB)
}

// TestArenaSteadyStateReusesBuffers: after Reset, a same-shape Get
// returns the identical tensor — the zero-allocation steady state.
func TestArenaSteadyStateReusesBuffers(t *testing.T) {
	var arena Arena
	t1 := arena.GetUninit(4, 8)
	t2 := arena.GetUninit(2, 3, 5)
	arena.Reset()
	r2 := arena.GetUninit(2, 3, 5)
	r1 := arena.GetUninit(4, 8)
	if r1 != t1 || r2 != t2 {
		t.Fatal("arena did not hand back the recycled tensors for repeated shapes")
	}
	if arena.Get(4, 8) == t1 {
		t.Fatal("arena handed out an in-use tensor twice")
	}
	arena.Release()
}

// TestEnsureShapeReusesCapacity: same shape returns the identical
// tensor; a smaller shape reuses the backing storage.
func TestEnsureShapeReusesCapacity(t *testing.T) {
	a := New(6, 7)
	if EnsureShape(a, 6, 7) != a {
		t.Fatal("EnsureShape reallocated for an identical shape")
	}
	b := EnsureShape(a, 3, 7)
	if &b.Data()[0] != &a.Data()[0] {
		t.Fatal("EnsureShape did not reuse capacity for a smaller shape")
	}
	c := EnsureShape(a, 20, 20)
	if c.Size() != 400 {
		t.Fatalf("EnsureShape growth produced size %d", c.Size())
	}
}

// TestPoolServesLargeRequestsExactly: from 64 Ki floats up a buffer has
// exactly the requested size (a 409 600-float conv buffer must not take
// a 524 288-float slot), and a pooled buffer of the same power-of-two
// class that is too short is not handed out.
func TestPoolServesLargeRequestsExactly(t *testing.T) {
	conv := getSlice(256 * 40 * 40)
	if cap(conv) != 256*40*40 {
		t.Fatalf("large request got capacity %d, want %d", cap(conv), 256*40*40)
	}
	putSlice(conv)
	if longer := getSlice(500000); cap(longer) < 500000 {
		t.Fatalf("request for 500000 floats was served capacity %d", cap(longer))
	}
}

// TestParallelForSmallBatchEngages: the cost-based gate must fan out
// typical training batches (n ≈ 8 expensive tasks), which the old
// n >= 16 count threshold left fully serial.
func TestParallelForSmallBatchEngages(t *testing.T) {
	if Workers() < 2 {
		t.Skip("single-worker environment: fan-out not observable")
	}
	const n = 8
	seen := make(map[int]bool)
	var mu chan struct{} = make(chan struct{}, 1)
	mu <- struct{}{}
	ParallelFor(n, 1<<20 /* expensive tasks */, func(shard, stride int) {
		<-mu
		seen[shard] = true
		mu <- struct{}{}
	})
	if len(seen) != NumShards {
		t.Fatalf("expected all %d shards to run, saw %d", NumShards, len(seen))
	}
}

// TestParallelForCheapStaysInline: a tiny total cost must not spawn
// goroutines; every shard still runs exactly once.
func TestParallelForCheapStaysInline(t *testing.T) {
	calls := 0
	ParallelFor(4, 1, func(shard, stride int) {
		if stride != NumShards {
			t.Fatalf("stride %d != %d", stride, NumShards)
		}
		calls++
	})
	if calls != NumShards {
		t.Fatalf("shards run %d times, want %d", calls, NumShards)
	}
}

// TestConvReLUAvgPoolRejectsBadGeometry: the fused kernels take only
// stride 1, windows that tile the convolution output, and a pooled tensor
// and a mask of exactly the sizes that follow.
func TestConvReLUAvgPoolRejectsBadGeometry(t *testing.T) {
	x, k := New(2, 1, 8, 8), New(1, 1, 3, 3)
	same := Conv2DSpec{1, 1, 1, 1}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: accepted", name)
			}
		}()
		f()
	}
	fwd := func(out *Tensor, mask int, spec Conv2DSpec, ph, pw int) func() {
		return func() { ConvReLUAvgPoolInto(out, make([]bool, mask), x, k, nil, spec, ph, pw) }
	}
	fwd(New(2, 1, 2, 4), 128, same, 4, 2)() // the valid call
	mustPanic("stride 2", fwd(New(2, 1, 1, 1), 32, Conv2DSpec{2, 2, 1, 1}, 4, 4))
	mustPanic("window 3 over 8 rows", fwd(New(2, 1, 2, 4), 128, same, 3, 2))
	mustPanic("pooled shape", fwd(New(2, 1, 4, 2), 128, same, 4, 2))
	mustPanic("short mask", fwd(New(2, 1, 2, 4), 127, same, 4, 2))
	mustPanic("short upstream gradient", func() {
		ConvReLUAvgPoolBackwardInto(New(1, 1, 3, 3), make([]float64, 1), x, make([]bool, 128), New(1, 1, 2, 4), same, 4, 2)
	})
	mustPanic("nil gradBias", func() {
		ConvReLUAvgPoolBackwardInto(New(1, 1, 3, 3), nil, x, make([]bool, 128), New(2, 1, 2, 4), same, 4, 2)
	})
}

// BenchmarkConvForwardSmallBatch measures the satellite fix directly: a
// training-sized batch of 8 images (below the old n >= 16 serial cutoff)
// through the conv forward. With >1 workers this now parallelises.
func BenchmarkConvForwardSmallBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := Randn(rng, 1, 8, 1, 40, 40)
	k := Randn(rng, 0.3, 1, 1, 3, 3)
	spec := Conv2DSpec{1, 1, 1, 1}
	out := New(8, 1, 40, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2DInto(out, x, k, []float64{0.1}, spec)
	}
}

// BenchmarkConvBackwardSmallBatch is the backward counterpart.
func BenchmarkConvBackwardSmallBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := Randn(rng, 1, 8, 1, 40, 40)
	k := Randn(rng, 0.3, 1, 1, 3, 3)
	spec := Conv2DSpec{1, 1, 1, 1}
	grad := Ones(8, 1, 40, 40)
	gX, gK := New(x.Shape()...), New(k.Shape()...)
	gB := make([]float64, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gK.Zero()
		gB[0] = 0
		Conv2DBackwardInto(gX, gK, gB, x, k, grad, spec)
	}
}
