package tensor

import (
	"math"
	"sync/atomic"
)

// AVX2 row kernels. On amd64 hosts with AVX2 the hottest row loops run
// four float64 lanes wide in hand-written assembly (kernels_amd64.s):
// rowAXPY4 and the rows of rowAXPYs under every RowMatMul and
// RowMatMulTransBT, the three-tap block of convRowTaps, the nine-tap row
// of a 3×3 same convolution, the interiors of a 3×3 kernel gradient, the
// fused UE layer's 3×3 kernel-gradient row, AdamRow, and the LSTM's gate
// epilogue (LSTMGates) and gate derivatives (LSTMGateGrads). Each lane is
// one independent output element or accumulator, which receives its terms
// in the order the Go loop gives them, multiplied and added as two rounded
// operations with the operands in the Go loop's order (divisions and
// square roots round correctly in either form). The results are therefore
// the Go loops' to the bit, NaN payloads included, and the Go loops stay
// as the fallback everywhere else and as the oracle the kernels are
// tested against (DESIGN.md §6 has the rules).
//
// One kernel fuses: LSTMGates' exp copies the FMA path of math.Exp's own
// assembly, fusing exactly where it fuses, and so matches math.Exp only
// where math.Exp takes that path. It runs only where a start-up probe
// (expProbe) has seen it match, and only on groups of four whose exp
// arguments lie in [−708, 709]; any other group runs the Go loop whole.

// useAVX2 selects the AVX2 kernels. It is set at start-up where the CPU
// supports them and changed only by SetAVX2.
var useAVX2 atomic.Bool

// expOK reports whether the CPU has the vector exp's FMA and math.Exp
// takes the same path, so that LSTMGates may use its AVX2 kernel. It is
// set once, at start-up, by expProbe.
var expOK bool

func init() {
	useAVX2.Store(cpuHasAVX2())
	expOK = cpuHasAVX2() && cpuHasFMA() && expProbe()
}

// SetAVX2 switches the AVX2 row kernels on or off and returns whether they
// are on now: on takes effect only where the CPU has AVX2, and the gate
// kernel only where the probe passed, so SetAVX2(true) also restores the
// default. Like SetWorkers it never changes a result; it lets tests and
// in-process timings run both paths.
func SetAVX2(on bool) bool {
	on = on && cpuHasAVX2()
	useAVX2.Store(on)
	return on
}

// expProbeBits are expProbe's arguments: eight on which math.Exp's two
// amd64 paths, FMA and multiply-then-add, give different bits, then both
// ends of the vector exp's range, 0 and −1.
var expProbeBits = [12]uint64{
	0x3fe54c95d5e5d937, 0x3feefd430b1a99b4, 0xc0044e67616fb6af, 0xc011775058a2c135,
	0xc056eea8565bdda8, 0x407573331a5b89c0, 0xc08573e7b0cb0b43, 0x40817a7c0c5db17a,
	0xc086200000000000, 0x4086280000000000, 0, 0xbff0000000000000,
}

// expProbe reports whether expAVX2 gives math.Exp's bits on expProbeBits,
// that is, whether math.Exp takes the FMA path the vector exp copies. The
// CPU's flags do not say so: under GODEBUG=cpu.fma=off math.Exp takes the
// other path on a host that has FMA. Call it only where cpuHasAVX2 and
// cpuHasFMA hold.
func expProbe() bool {
	var x, got [len(expProbeBits)]float64
	for i, b := range expProbeBits {
		x[i] = math.Float64frombits(b)
	}
	expAVX2(got[:], x[:])
	for i, v := range x {
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(v)) {
			return false
		}
	}
	return true
}
