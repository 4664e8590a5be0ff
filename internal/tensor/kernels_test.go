package tensor

import (
	"encoding/binary"
	"flag"
	"math"
	"math/rand"
	"testing"
)

// bothKernelPaths runs f as two subtests, "go" on the Go row loops and
// "avx2" on the AVX2 kernels; the second skips where the CPU has none.
func bothKernelPaths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	defer SetAVX2(true)
	for _, path := range []struct {
		name string
		avx  bool
	}{{"go", false}, {"avx2", true}} {
		t.Run(path.name, func(t *testing.T) {
			if SetAVX2(path.avx) != path.avx {
				t.Skip("the CPU has no AVX2")
			}
			f(t)
		})
	}
}

// specialBits are the values a lane-wise kernel could get wrong: NaNs with
// distinct payloads and signs (quiet and signalling), both zeros, both
// infinities, subnormals, and the extremes of the normal range.
var specialBits = []uint64{
	0x7ff8000000000001, 0x7ff8000000000abc, 0xfff8000000000000, 0xfff800000000beef,
	0x7ff0000000000002, 0xfff0000000000003,
	0x0000000000000000, 0x8000000000000000,
	0x7ff0000000000000, 0xfff0000000000000,
	0x0000000000000001, 0x800fffffffffffff, 0x0010000000000000,
	0x7fefffffffffffff, 0x3ff0000000000000, 0xbff0000000000000,
}

// hostileValues draws values of which about a third are specialBits, the
// rest normal variates of varied scale.
func hostileValues(rng *rand.Rand) func() float64 {
	return func() float64 {
		if rng.Intn(3) == 0 {
			return math.Float64frombits(specialBits[rng.Intn(len(specialBits))])
		}
		return rng.NormFloat64() * math.Ldexp(1, rng.Intn(40)-20)
	}
}

// offsetSlice returns a length-n slice starting off floats into its
// backing array, filled from next: the kernels must not care where a row
// starts relative to a 32-byte line.
func offsetSlice(n, off int, next func() float64) []float64 {
	s := make([]float64, off+n)[off:]
	for i := range s {
		s[i] = next()
	}
	return s
}

// payloadsPinned reports whether the Go loops were compiled as they are
// in a program. The payload a sum or product of two NaNs keeps is that of
// the instruction's first source, so it follows the operand order the
// compiler gave the Go loop; the race detector's and the fuzzer's
// instrumentation recompile the loops with other registers and other
// orders. Such a build is no oracle for payloads: there a NaN matches any
// NaN, every other value still only its own bits.
func payloadsPinned() bool {
	fuzz := flag.Lookup("test.fuzz")
	return !raceEnabled && (fuzz == nil || fuzz.Value.String() == "")
}

// bitsMatch fails t unless got and want hold the same bit patterns.
func bitsMatch(t *testing.T, name string, got, want []float64) {
	t.Helper()
	matchBits(t, name, got, want, payloadsPinned())
}

// matchBits is bitsMatch, comparing NaN payloads only if payloads is set:
// otherwise a NaN matches any NaN.
func matchBits(t *testing.T, name string, got, want []float64, payloads bool) {
	t.Helper()
	for i := range want {
		g, w := math.Float64bits(got[i]), math.Float64bits(want[i])
		if g != w && (payloads || !math.IsNaN(got[i]) || !math.IsNaN(want[i])) {
			t.Fatalf("%s: element %d of %d is %#016x, want %#016x", name, i, len(want), g, w)
		}
	}
}

// withAVX2 runs f on the AVX2 kernels (on) or the Go loops, then restores
// the default.
func withAVX2(on bool, f func()) {
	defer useAVX2.Store(cpuHasAVX2())
	useAVX2.Store(on)
	f()
}

// checkRowKernels compares every AVX2 kernel with its Go twin on rows of
// length n starting off floats into their arrays, values from next; shift
// places the convolution rows against their input rows.
func checkRowKernels(t *testing.T, next func() float64, n, off, shift int) {
	t.Helper()
	// rowAXPY4 against its Go loop.
	o, b := offsetSlice(n, off, next), offsetSlice(4*n, off, next)
	a0, a1, a2, a3 := next(), next(), next(), next()
	want, got := append([]float64(nil), o...), append([]float64(nil), o...)
	rowAXPY4(want, b, a0, a1, a2, a3)
	rowAXPY4AVX2(got, b, a0, a1, a2, a3)
	bitsMatch(t, "rowAXPY4", got, want)

	// rowAXPYs on each path, the last factor zero so the skip runs.
	const rows = 3
	a := offsetSlice(rows, off, next)
	a[rows-1] = 0
	b = offsetSlice(rows*n, off, next)
	want, got = append([]float64(nil), o...), append([]float64(nil), o...)
	if n > 0 {
		rowAXPYs(want, a, 1, b, false)
		rowAXPYs(got, a, 1, b, true)
	}
	bitsMatch(t, "rowAXPYs", got, want)

	// RowMatMulTransBT on each path, with 0…3 rows of Bᵀ past its last
	// four-row block, and against RowMatMulTransB on B itself: the same
	// chains, but compiled with other operand orders, so NaNs there match
	// any NaN.
	for _, k := range []int{off, 4 + off} {
		av, bt := offsetSlice(k, off, next), offsetSlice(k*n, off, next)
		b := make([]float64, n*k)
		for p := 0; p < k; p++ {
			for j := 0; j < n; j++ {
				b[j*k+p] = bt[p*n+j]
			}
		}
		want, got = append([]float64(nil), o...), append([]float64(nil), o...)
		withAVX2(false, func() { RowMatMulTransBT(want, av, bt) })
		withAVX2(true, func() { RowMatMulTransBT(got, av, bt) })
		bitsMatch(t, "RowMatMulTransBT", got, want)
		RowMatMulTransB(want, av, b)
		matchBits(t, "RowMatMulTransBT against RowMatMulTransB", got, want, false)
	}

	// AdamRow under hostile constants and under the paper's at step 3,
	// with a negative second moment first, so that its square root is NaN.
	const b1, b2 = 0.9, 0.999
	for _, k := range []*[8]float64{
		{next(), next(), next(), next(), next(), next(), next(), next()},
		{b1, 1 - b1, b2, 1 - b2, 1 - b1*b1*b1, 1 - b2*b2*b2, 1e-3, 1e-8},
	} {
		w, g, m, v := offsetSlice(n, off, next), offsetSlice(n, off, next), offsetSlice(n, off, next), offsetSlice(n, off, next)
		if n > 0 {
			v[0] = -1.5
		}
		ww, wm, wv := append([]float64(nil), w...), append([]float64(nil), m...), append([]float64(nil), v...)
		withAVX2(false, func() { AdamRow(ww, g, wm, wv, k) })
		withAVX2(true, func() { AdamRow(w, g, m, v, k) })
		bitsMatch(t, "AdamRow w", w, ww)
		bitsMatch(t, "AdamRow m", m, wm)
		bitsMatch(t, "AdamRow v", v, wv)
	}

	// convRowTaps with one and two three-tap blocks, into a separate start
	// row and in place.
	for _, kw := range []int{3, 6} {
		taps := offsetSlice(kw, off, next)
		in := offsetSlice(max(0, n+2*shift+kw-1), off, next) // the input row of a stride-1 convolution
		src := offsetSlice(n, off, next)
		for _, inPlace := range []bool{false, true} {
			want, got = append([]float64(nil), src...), append([]float64(nil), src...)
			wsrc, gsrc := src, src
			if inPlace {
				wsrc, gsrc = want, got
			}
			withAVX2(false, func() { convRowTaps(want, wsrc, in, taps, shift) })
			withAVX2(true, func() { convRowTaps(got, gsrc, in, taps, shift) })
			bitsMatch(t, "convRowTaps", got, want)
		}
	}

	if shift == -1 {
		checkSame3Kernels(t, next, n, off)
	}
	if shift == 0 {
		checkGateKernels(t, gateValues(next), next, n, off)
	}

	// The 3×3 kernel gradient of a two-channel image n wide, upstream
	// gradient, kernel and bias partials all hostile.
	if n == 0 {
		return
	}
	const cin, cout, h = 2, 2, 5
	padH, padW := 1+off%2, -shift
	oh, ow := h+2*padH-2, n+2*padW-2
	if ow < 1 {
		return
	}
	xd := offsetSlice(cin*h*n, off, next)
	god := offsetSlice(cout*oh*ow, off, next)
	gk, gb := offsetSlice(cout*cin*9, off, next), offsetSlice(cout, off, next)
	wk, wb := append([]float64(nil), gk...), append([]float64(nil), gb...)
	withAVX2(false, func() { convGradKSampleRows(xd, god, wk, wb, 0, cin, cout, h, n, 3, 3, oh, ow, padH, padW) })
	withAVX2(true, func() { convGradKSampleRows(xd, god, gk, gb, 0, cin, cout, h, n, 3, 3, oh, ow, padH, padW) })
	bitsMatch(t, "gradK", gk, wk)
	bitsMatch(t, "gradBias", gb, wb)
}

// checkSame3Kernels compares the kernels of a 3×3 same row, n wide, with
// their Go twins: conv3x3RowAVX2 with three convRowTaps passes, into a
// separate start row and in place; convPoolGradK3AVX2 with the unpooled,
// masked row those passes' gradient twin, convRowGradK, reads, and its
// bias chain with sumInto, at windows of one column, three and the whole
// row; and the fused layer's per-sample forward and backward on a
// two-channel image five rows high, whose top and bottom rows stay in Go.
func checkSame3Kernels(t *testing.T, next func() float64, n, off int) {
	t.Helper()
	if n < 3 {
		return
	}
	k9 := (*[9]float64)(offsetSlice(9, off, next))
	rows := [][]float64{offsetSlice(n, off, next), offsetSlice(n, off, next), offsetSlice(n, off, next)}
	src := offsetSlice(n, off, next)
	for _, inPlace := range []bool{false, true} {
		want, got := append([]float64(nil), src...), append([]float64(nil), src...)
		wsrc, gsrc := src, src
		if inPlace {
			wsrc, gsrc = want, got
		}
		withAVX2(false, func() {
			for r, in := range rows {
				convRowTaps(want, wsrc, in, k9[3*r:3*r+3], -1)
				wsrc = want
			}
		})
		conv3x3RowAVX2(got, gsrc, rows[0], rows[1], rows[2], k9)
		bitsMatch(t, "conv3x3RowAVX2", got, want)
	}

	for _, pw := range []int{1, 3, n} {
		mask := make([]bool, n)
		for o := range mask {
			mask[o] = next() > 0
		}
		gw := offsetSlice((n+pw-1)/pw, off, next)
		g := make([]float64, n)
		for o, pos := range mask {
			if pos {
				g[o] = gw[o/pw]
			}
		}
		var want, got [12]float64
		for i := range want {
			want[i] = next()
		}
		got = want
		b := next()
		for r, in := range rows {
			convRowGradK(want[4*r:][:3], g, in, -1)
		}
		wb := sumInto(b, g)
		gb := convPoolGradK3AVX2(&got, mask, gw, pw, rows[0], rows[1], rows[2], b)
		for r := 0; r < 3; r++ {
			bitsMatch(t, "convPoolGradK3AVX2", got[4*r:][:3], want[4*r:][:3])
		}
		bitsMatch(t, "convPoolGradK3AVX2 bias", []float64{gb}, []float64{wb})
	}

	const cin, cout, h = 2, 2, 5
	xd := offsetSlice(cin*h*n, off, next)
	kd, bias := offsetSlice(cout*cin*9, off, next), offsetSlice(cout, off, next)
	for _, win := range [][2]int{{1, 1}, {h, n}} {
		ph, pw := win[0], win[1]
		pooled := cout * (h / ph) * (n / pw)
		god := offsetSlice(pooled, off, next)
		var outs [2][]float64
		var signs [2][]bool
		var gks, gbs [2][]float64
		for i, avx := range []bool{false, true} {
			outs[i], signs[i] = make([]float64, pooled), make([]bool, cout*h*n)
			gks[i], gbs[i] = make([]float64, cout*cin*9), make([]float64, cout)
			for j := range gks[i] {
				gks[i][j] = float64(j)
			}
			scratch := make([]float64, 4*n+2)
			withAVX2(avx, func() {
				convPoolSample(outs[i], signs[i], xd, kd, bias, scratch[:n], scratch[n:2*n], scratch[2*n:][:n/pw],
					0, cin, cout, h, n, 3, 3, h, n, 1, 1, ph, pw)
				convPoolGradSample(gks[i], gbs[i], scratch[:n], scratch[n:][:n/pw], xd, god, signs[i],
					0, cin, cout, h, n, 3, 3, h, n, 1, 1, ph, pw)
			})
		}
		bitsMatch(t, "convPoolSample", outs[1], outs[0])
		for o := range signs[0] {
			if signs[0][o] != signs[1][o] {
				t.Fatalf("convPoolSample: sign %d differs", o)
			}
		}
		bitsMatch(t, "convPoolGradSample gradK", gks[1], gks[0])
		bitsMatch(t, "convPoolGradSample gradBias", gbs[1], gbs[0])
	}
}

// gateEdges are the values at which the gate kernel changes what it does:
// tanh's branch points, the bounds of the exp arguments it checks, the
// values just past them, and both zeros.
var gateEdges = []float64{
	0.625, -0.625, math.Nextafter(0.625, 0),
	0.5 * 8.8029691931113054295988e+01, -0.5 * 8.8029691931113054295988e+01,
	354.5, -354.5, math.Nextafter(354.5, 400), math.Nextafter(-354.5, -400),
	708, -709, math.Nextafter(708, 800), math.Nextafter(-709, -800),
	0, math.Copysign(0, -1),
}

// gateValues adapts next to the gate rows. Hostile values would send
// nearly every group of four back to Go, so finite values are folded into
// (−400, 400), which spans tanh's three branches and the range bounds;
// a NaN or ±Inf is kept on every 29th draw only, and every 31st draw is
// one of gateEdges. Most groups then run on the kernel and some fall
// back mid-row, a few after their first check (a cell past ±354.5).
func gateValues(next func() float64) func() float64 {
	k := 0
	return func() float64 {
		k++
		v := next()
		switch {
		case k%31 == 0:
			return gateEdges[k/31%len(gateEdges)]
		case math.IsNaN(v) || math.IsInf(v, 0):
			if k%29 == 0 {
				return v
			}
			return float64(k%9) - 4
		}
		return math.Mod(v, 400)
	}
}

// checkGateKernels compares LSTMGates and LSTMGateGrads on each path over
// one row of hidden size n: the forward on pre-activations and cells from
// gate, the backward on operands from next, NaNs in either operand of
// every multiply.
func checkGateKernels(t *testing.T, gate, next func() float64, n, off int) {
	t.Helper()
	zero := func() float64 { return 0 }
	clone := func(s []float64) []float64 {
		c := offsetSlice(len(s), off, zero)
		copy(c, s)
		return c
	}
	z, c := offsetSlice(4*n, off, gate), offsetSlice(n, off, gate)
	var fwd [2][4][]float64
	for i, avx := range []bool{false, true} {
		zi := clone(z)
		cNew, tc, h := offsetSlice(n, off, zero), offsetSlice(n, off, zero), offsetSlice(n, off, zero)
		withAVX2(avx, func() { LSTMGates(zi, c, cNew, tc, h) })
		fwd[i] = [4][]float64{zi, cNew, tc, h}
	}
	for k, name := range []string{"gates", "cell", "tanh(cell)", "hidden"} {
		bitsMatch(t, "LSTMGates "+name, fwd[1][k], fwd[0][k])
	}

	g, tc, cPrev, dh := offsetSlice(4*n, off, next), offsetSlice(n, off, next), offsetSlice(n, off, next), offsetSlice(n, off, next)
	dc := offsetSlice(n, off, next)
	var bwd [2][2][]float64
	for i, avx := range []bool{false, true} {
		dz, dci := offsetSlice(4*n, off, zero), clone(dc)
		withAVX2(avx, func() { LSTMGateGrads(dz, g, tc, cPrev, dh, dci) })
		bwd[i] = [2][]float64{dz, dci}
	}
	bitsMatch(t, "LSTMGateGrads dz", bwd[1][0], bwd[0][0])
	bitsMatch(t, "LSTMGateGrads dc", bwd[1][1], bwd[0][1])
}

// TestExpAVX2MatchesMathExp: the vector exp equals math.Exp by
// Float64bits over its whole range [−708, 709], and the gate kernel built
// on it is on exactly where math.Exp takes the FMA path the vector exp
// copies. math.Exp's path is read off the first probe argument, on which
// the FMA path gives …7b23 and the multiply-then-add path …7b22; under
// GODEBUG=cpu.fma=off the test checks that the probe switched the kernel
// off, and stops there.
func TestExpAVX2MatchesMathExp(t *testing.T) {
	if !cpuHasAVX2() || !cpuHasFMA() {
		t.Skip("the CPU has no AVX2 and FMA")
	}
	fused := math.Float64bits(math.Exp(math.Float64frombits(expProbeBits[0]))) == 0x3fff21675c627b23
	if fused != expOK {
		t.Fatalf("math.Exp takes the FMA path: %v, but the probe says %v", fused, expOK)
	}
	if !expOK {
		t.Skip("math.Exp takes its multiply-then-add path; the probe has switched the gate kernel off")
	}
	rng := rand.New(rand.NewSource(20261020))
	xs := []float64{-708, 709, 0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-300, math.Ln2, -math.Ln2}
	for _, b := range expProbeBits {
		xs = append(xs, math.Float64frombits(b))
	}
	for k := -1021; k <= 1022; k++ { // both sides of every rounding edge of k = x·log2(e)
		edge := (float64(k) + 0.5) * math.Ln2
		xs = append(xs, math.Nextafter(edge, -1000), edge, math.Nextafter(edge, 1000))
	}
	for len(xs) < 1<<20 {
		xs = append(xs, rng.Float64()*1417-708, rng.NormFloat64()*math.Ldexp(1, rng.Intn(12)-6))
	}
	n := len(xs) &^ 3
	xs = xs[:n]
	got := make([]float64, n)
	expAVX2(got, xs)
	for i, x := range xs {
		if x < -708 || x > 709 {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(x)) {
			t.Fatalf("exp(%v = %#016x) is %#016x, math.Exp gives %#016x", x, math.Float64bits(x),
				math.Float64bits(got[i]), math.Float64bits(math.Exp(x)))
		}
	}
}

// TestLSTMGateKernelsMatchGo: LSTMGates and LSTMGateGrads give their Go
// loops' bits on 20 000 rows of hidden size 1…40. Pre-activations and
// cells are normal variates of scales 1/8…512; a fifth of the rows also
// carry NaNs of random payloads and both signs, ±Inf, subnormals, ±0,
// the gate kernel's edges (gateEdges) and ±354.5's neighbourhood, so that
// whole groups fall back to Go before and after the kernel's second check.
func TestLSTMGateKernelsMatchGo(t *testing.T) {
	if !cpuHasAVX2() {
		t.Skip("the CPU has no AVX2")
	}
	rng := rand.New(rand.NewSource(39))
	for row := 0; row < 20000; row++ {
		hostile := row%5 == 0
		scale := math.Ldexp(1, rng.Intn(13)-3)
		next := func() float64 {
			if hostile && rng.Intn(12) == 0 {
				switch rng.Intn(4) {
				case 0:
					return math.Float64frombits(0x7ff0000000000001 | rng.Uint64()&0x800fffffffffffff)
				case 1:
					return math.Float64frombits(specialBits[rng.Intn(len(specialBits))])
				case 2:
					return gateEdges[rng.Intn(len(gateEdges))]
				default:
					return math.Copysign(354.5+rng.Float64()-0.5, rng.Float64()-0.5)
				}
			}
			return rng.NormFloat64() * scale
		}
		checkGateKernels(t, next, next, 1+row%40, row%4)
	}
}

// TestAVX2KernelsMatchGo: every AVX2 kernel equals its Go loop by
// Float64bits on every row length 0…140 (every vector tail), at four
// offsets into the backing array and three row shifts, over values a third
// of which are NaNs of distinct payloads, signed zeros, infinities and
// subnormals, so that NaN meets NaN in either operand of each add,
// multiply and division (the payloads are pinned in uninstrumented builds
// only: payloadsPinned). The kernels are those under RowMatMul,
// RowMatMulTransBT, convRowTaps, the 3×3 kernel gradient, AdamRow, the
// 3×3 same rows of the convolution and of the fused UE layer, and the
// LSTM's gate rows (on values gateValues folds into the kernel's range).
func TestAVX2KernelsMatchGo(t *testing.T) {
	if !cpuHasAVX2() {
		t.Skip("the CPU has no AVX2")
	}
	rng := rand.New(rand.NewSource(20261017))
	next := hostileValues(rng)
	for n := 0; n <= 140; n++ {
		for off := 0; off < 4; off++ {
			for shift := -2; shift <= 0; shift++ {
				checkRowKernels(t, next, n, off, shift)
			}
		}
	}
}

// FuzzRowKernels: the AVX2 kernels equal their Go loops by Float64bits on
// fuzzer-chosen row lengths, offsets, shifts and bit patterns; while
// fuzzing, NaN payloads are not compared (payloadsPinned).
func FuzzRowKernels(f *testing.F) {
	seed := make([]byte, 0, 8*len(specialBits))
	for _, b := range specialBits {
		seed = binary.LittleEndian.AppendUint64(seed, b)
	}
	f.Add(uint8(41), uint8(1), uint8(1), seed)
	f.Add(uint8(7), uint8(3), uint8(0), []byte{0xff, 0xf8, 1})
	f.Fuzz(func(t *testing.T, n, off, shift uint8, raw []byte) {
		if !cpuHasAVX2() {
			t.Skip("the CPU has no AVX2")
		}
		var i int
		next := func() float64 { // raw's bytes as float64 bit patterns, cycled
			if len(raw) < 8 {
				return 0
			}
			j := (8 * i) % (len(raw) - 7)
			i++
			return math.Float64frombits(binary.LittleEndian.Uint64(raw[j:]))
		}
		checkRowKernels(t, next, int(n)%160, int(off)%4, -int(shift)%3)
	})
}
