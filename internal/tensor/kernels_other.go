//go:build !amd64

package tensor

// Outside amd64 there are no AVX2 kernels: useAVX2 stays false and these
// stubs are never reached.

func cpuHasAVX2() bool { return false }

const noAVX2 = "tensor: AVX2 kernel called on a non-amd64 build"

func rowAXPY4AVX2(o, b []float64, a0, a1, a2, a3 float64) { panic(noAVX2) }

func axpyAVX2(o, b []float64, a float64) { panic(noAVX2) }

func convRowTaps3AVX2(o, s, in []float64, k0, k1, k2 float64) { panic(noAVX2) }

func gradK3RowsAVX2(acc *[12]float64, g, in0, in1, in2 []float64, b float64) float64 {
	panic(noAVX2)
}

func conv3x3RowAVX2(o, s, in0, in1, in2 []float64, k *[9]float64) { panic(noAVX2) }

func convPoolGradK3AVX2(acc *[12]float64, mask []bool, gw []float64, pw int, in0, in1, in2 []float64, b float64) float64 {
	panic(noAVX2)
}

func adamAVX2(w, g, m, v []float64, k *[8]float64) { panic(noAVX2) }

func cpuHasFMA() bool { return false }

func expAVX2(dst, x []float64) { panic(noAVX2) }

func lstmGatesAVX2(z, c, cNew, tc, h []float64, j int) int { panic(noAVX2) }

func lstmGateGradsAVX2(dz, g, tc, cPrev, dh, dc []float64) { panic(noAVX2) }
