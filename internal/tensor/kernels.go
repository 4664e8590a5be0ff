package tensor

import "sync/atomic"

// AVX2 row kernels. On amd64 hosts with AVX2 the hottest row loops run
// four float64 lanes wide in hand-written assembly (kernels_amd64.s):
// rowAXPY4 and the rows of rowAXPYs under every RowMatMul, the three-tap
// block of convRowTaps, and the interiors of a 3×3 kernel gradient. Each
// lane is one independent output element or accumulator, which receives
// its terms in the order the Go loop gives them, multiplied and added as
// two rounded operations with the operands in the Go loop's order. The
// results are therefore the Go loops' to the bit, NaN payloads included,
// and the Go loops stay as the fallback everywhere else and as the oracle
// the kernels are tested against (DESIGN.md §6 has the rules).

// useAVX2 selects the AVX2 kernels. It is set at start-up where the CPU
// supports them and changed only by SetAVX2.
var useAVX2 atomic.Bool

func init() { useAVX2.Store(cpuHasAVX2()) }

// SetAVX2 switches the AVX2 row kernels on or off and returns whether they
// are on now: on takes effect only where the CPU has AVX2, so SetAVX2(true)
// also restores the default. Like SetWorkers it never changes a result; it
// lets tests and in-process timings run both paths.
func SetAVX2(on bool) bool {
	on = on && cpuHasAVX2()
	useAVX2.Store(on)
	return on
}
