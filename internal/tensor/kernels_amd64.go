package tensor

// The AVX2 kernels of kernels_amd64.s and the CPU check that selects them
// (kernels.go). None bounds-checks: each caller slices its arguments to
// the lengths the kernel reads.

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers: CPUID leaf 1 OSXSAVE and AVX, XCR0's SSE and AVX state, and
// leaf 7 EBX bit 5.
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	const sseAVXState = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&sseAVXState != sseAVXState {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// rowAXPY4AVX2 is rowAXPY4; len(b) ≥ 4·len(o).
//
//go:noescape
func rowAXPY4AVX2(o, b []float64, a0, a1, a2, a3 float64)

// axpyAVX2 is one row of rowAXPYs: o[j] += a·b[j]; len(b) ≥ len(o).
//
//go:noescape
func axpyAVX2(o, b []float64, a float64)

// convRowTaps3AVX2 is convRowTaps' three-tap block: o[j] = s[j] +
// k0·in[j] + k1·in[j+1] + k2·in[j+2], one add at a time; len(s) ≥ len(o)
// and len(in) ≥ len(o)+2.
//
//go:noescape
func convRowTaps3AVX2(o, s, in []float64, k0, k1, k2 float64)

// gradK3RowsAVX2 folds the interior columns g of one output row into the
// three kernel rows of a 3×3 kernel gradient, acc[4·r+t] += g[j]·inr[j+t]
// (lane 3 of each row is scratch), and returns b + Σ g[j]: the bias chain,
// run alongside. len(inr) ≥ len(g)+2.
//
//go:noescape
func gradK3RowsAVX2(acc *[12]float64, g, in0, in1, in2 []float64, b float64) float64

// adamAVX2 is adamRow; g, m and v are at least len(w) long.
//
//go:noescape
func adamAVX2(w, g, m, v []float64, k *[8]float64)

// conv3x3RowAVX2 is one output row of a 3×3 same convolution over one
// input channel, edge columns included: what convRowTaps gives o over
// three passes, one per input row, starting from s; len(o) = len(inr) ≥ 3
// and len(s) ≥ len(o).
//
//go:noescape
func conv3x3RowAVX2(o, s, in0, in1, in2 []float64, k *[9]float64)

// convPoolGradK3AVX2 folds one output row of the fused layer into the
// three kernel rows of a 3×3 same kernel gradient, edge columns included,
// column j's upstream value being mask[j] ? gw[j/pw] : +0 (lane 3 of each
// kernel row is scratch), and returns b plus those values: the bias chain.
// len(mask) = len(inr) ≥ 3 and len(gw)·pw ≥ len(mask).
//
//go:noescape
func convPoolGradK3AVX2(acc *[12]float64, mask []bool, gw []float64, pw int, in0, in1, in2 []float64, b float64) float64
