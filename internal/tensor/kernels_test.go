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
	pinned := payloadsPinned()
	for i := range want {
		g, w := math.Float64bits(got[i]), math.Float64bits(want[i])
		if g != w && (pinned || !math.IsNaN(got[i]) || !math.IsNaN(want[i])) {
			t.Fatalf("%s: element %d of %d is %#016x on AVX2, %#016x in Go", name, i, len(want), g, w)
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
	withAVX2(false, func() { convGradKSampleRows(xd, god, wk, wb, 0, 0, cin, cout, h, n, 3, 3, oh, ow, padH, padW) })
	withAVX2(true, func() { convGradKSampleRows(xd, god, gk, gb, 0, 0, cin, cout, h, n, 3, 3, oh, ow, padH, padW) })
	bitsMatch(t, "gradK", gk, wk)
	bitsMatch(t, "gradBias", gb, wb)
}

// TestAVX2KernelsMatchGo: every AVX2 kernel equals its Go loop by
// Float64bits on every row length 0…140 (every vector tail), at four
// offsets into the backing array and three row shifts, over values a third
// of which are NaNs of distinct payloads, signed zeros, infinities and
// subnormals, so that NaN meets NaN in either operand of each add (the
// payloads are pinned in uninstrumented builds only: payloadsPinned).
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
