#include "textflag.h"

// AVX2 versions of the hot row loops (kernels.go). Every lane is one
// independent accumulator, every multiply and every add is its own
// rounded instruction (VMULPD then VADDPD, never a fused multiply-add),
// and every instruction takes its operands in the order the Go loop it
// replaces compiles them, so that a NaN meeting a NaN keeps the same
// payload. Go assembly lists the sources last-first: VADDPD Y5, Y4, Y4
// computes Y4 + Y5 with Y4 as the first source. Scalar tails use the VEX
// forms, and every function clears the upper halves before it returns.

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func rowAXPY4AVX2(o, b []float64, a0, a1, a2, a3 float64)
//
// rowAXPY4: s = b0·a0 + s; s = s + b1·a1; s = b2·a2 + s; s = b3·a3 + s.
TEXT ·rowAXPY4AVX2(SB), NOSPLIT, $0-80
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ b_base+24(FP), SI
	LEAQ (SI)(CX*8), R8
	LEAQ (R8)(CX*8), R9
	LEAQ (R9)(CX*8), R10
	VBROADCASTSD a0+48(FP), Y0
	VBROADCASTSD a1+56(FP), Y1
	VBROADCASTSD a2+64(FP), Y2
	VBROADCASTSD a3+72(FP), Y3
	MOVQ CX, DX
	ANDQ $-4, DX
	XORQ AX, AX

axpy4vec:
	CMPQ AX, DX
	JAE  axpy4tail
	VMOVUPD (SI)(AX*8), Y4
	VMULPD  Y0, Y4, Y4
	VADDPD  (DI)(AX*8), Y4, Y4
	VMOVUPD (R8)(AX*8), Y5
	VMULPD  Y1, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD (R9)(AX*8), Y5
	VMULPD  Y2, Y5, Y5
	VADDPD  Y4, Y5, Y4
	VMOVUPD (R10)(AX*8), Y5
	VMULPD  Y3, Y5, Y5
	VADDPD  Y4, Y5, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     axpy4vec

axpy4tail:
	CMPQ   AX, CX
	JAE    axpy4done
	VMOVSD (SI)(AX*8), X4
	VMULSD X0, X4, X4
	VADDSD (DI)(AX*8), X4, X4
	VMOVSD (R8)(AX*8), X5
	VMULSD X1, X5, X5
	VADDSD X5, X4, X4
	VMOVSD (R9)(AX*8), X5
	VMULSD X2, X5, X5
	VADDSD X4, X5, X4
	VMOVSD (R10)(AX*8), X5
	VMULSD X3, X5, X5
	VADDSD X4, X5, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	JMP    axpy4tail

axpy4done:
	VZEROUPPER
	RET

// func axpyAVX2(o, b []float64, a float64)
//
// rowAXPYs' row: o = b·a + o.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ b_base+24(FP), SI
	VBROADCASTSD a+48(FP), Y0
	MOVQ CX, DX
	ANDQ $-4, DX
	XORQ AX, AX

axpyvec:
	CMPQ AX, DX
	JAE  axpytail
	VMOVUPD (SI)(AX*8), Y4
	VMULPD  Y0, Y4, Y4
	VADDPD  (DI)(AX*8), Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     axpyvec

axpytail:
	CMPQ   AX, CX
	JAE    axpydone
	VMOVSD (SI)(AX*8), X4
	VMULSD X0, X4, X4
	VADDSD (DI)(AX*8), X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	JMP    axpytail

axpydone:
	VZEROUPPER
	RET

// func convRowTaps3AVX2(o, s, in []float64, k0, k1, k2 float64)
//
// convRowTaps' three-tap block, column j reading in[j], in[j+1], in[j+2]:
// v = in0·k0 + s; v = in1·k1 + v; o = v + in2·k2.
TEXT ·convRowTaps3AVX2(SB), NOSPLIT, $0-96
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ s_base+24(FP), SI
	MOVQ in_base+48(FP), R8
	VBROADCASTSD k0+72(FP), Y0
	VBROADCASTSD k1+80(FP), Y1
	VBROADCASTSD k2+88(FP), Y2
	MOVQ CX, DX
	ANDQ $-4, DX
	XORQ AX, AX

tapsvec:
	CMPQ AX, DX
	JAE  tapstail
	VMOVUPD (R8)(AX*8), Y4
	VMULPD  Y0, Y4, Y4
	VADDPD  (SI)(AX*8), Y4, Y4
	VMOVUPD 8(R8)(AX*8), Y5
	VMULPD  Y1, Y5, Y5
	VADDPD  Y4, Y5, Y4
	VMOVUPD 16(R8)(AX*8), Y5
	VMULPD  Y2, Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     tapsvec

tapstail:
	CMPQ   AX, CX
	JAE    tapsdone
	VMOVSD (R8)(AX*8), X4
	VMULSD X0, X4, X4
	VADDSD (SI)(AX*8), X4, X4
	VMOVSD 8(R8)(AX*8), X5
	VMULSD X1, X5, X5
	VADDSD X4, X5, X4
	VMOVSD 16(R8)(AX*8), X5
	VMULSD X2, X5, X5
	VADDSD X5, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	JMP    tapstail

tapsdone:
	VZEROUPPER
	RET

// func gradK3RowsAVX2(acc *[12]float64, g, in0, in1, in2 []float64, b float64) float64
//
// The interiors of one output row for the three rows of a 3×3 kernel:
// acc[4·r+t] = acc[4·r+t] + inr[j+t]·g[j] in ascending j, lane t of row r,
// and b = b + g[j], the bias chain, alongside; lane 3 of each row is
// scratch. The vector loop reads inr[j..j+3], so it stops where that would
// pass the end of in0 and the remaining columns run scalar.
TEXT ·gradK3RowsAVX2(SB), NOSPLIT, $0-120
	MOVQ acc+0(FP), DI
	MOVQ g_base+8(FP), SI
	MOVQ g_len+16(FP), CX
	MOVQ in0_base+32(FP), R8
	MOVQ in0_len+40(FP), DX
	MOVQ in1_base+56(FP), R9
	MOVQ in2_base+80(FP), R10
	VMOVSD b+104(FP), X6
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	SUBQ $3, DX
	CMPQ DX, CX
	JLE  gradkclamped
	MOVQ CX, DX

gradkclamped:
	XORQ AX, AX

gradkvec:
	CMPQ AX, DX
	JGE  gradkstore
	VBROADCASTSD (SI)(AX*8), Y3
	VADDSD  (SI)(AX*8), X6, X6
	VMOVUPD (R8)(AX*8), Y4
	VMULPD  Y3, Y4, Y4
	VADDPD  Y4, Y0, Y0
	VMOVUPD (R9)(AX*8), Y5
	VMULPD  Y3, Y5, Y5
	VADDPD  Y5, Y1, Y1
	VMOVUPD (R10)(AX*8), Y7
	VMULPD  Y3, Y7, Y7
	VADDPD  Y7, Y2, Y2
	INCQ    AX
	JMP     gradkvec

gradkstore:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)

gradktail:
	CMPQ   AX, CX
	JAE    gradkdone
	VMOVSD (SI)(AX*8), X3
	VADDSD X3, X6, X6

	VMOVSD (R8)(AX*8), X4
	VMULSD X3, X4, X4
	VMOVSD 0(DI), X5
	VADDSD X4, X5, X5
	VMOVSD X5, 0(DI)
	VMOVSD 8(R8)(AX*8), X4
	VMULSD X3, X4, X4
	VMOVSD 8(DI), X5
	VADDSD X4, X5, X5
	VMOVSD X5, 8(DI)
	VMOVSD 16(R8)(AX*8), X4
	VMULSD X3, X4, X4
	VMOVSD 16(DI), X5
	VADDSD X4, X5, X5
	VMOVSD X5, 16(DI)

	VMOVSD (R9)(AX*8), X4
	VMULSD X3, X4, X4
	VMOVSD 32(DI), X5
	VADDSD X4, X5, X5
	VMOVSD X5, 32(DI)
	VMOVSD 8(R9)(AX*8), X4
	VMULSD X3, X4, X4
	VMOVSD 40(DI), X5
	VADDSD X4, X5, X5
	VMOVSD X5, 40(DI)
	VMOVSD 16(R9)(AX*8), X4
	VMULSD X3, X4, X4
	VMOVSD 48(DI), X5
	VADDSD X4, X5, X5
	VMOVSD X5, 48(DI)

	VMOVSD (R10)(AX*8), X4
	VMULSD X3, X4, X4
	VMOVSD 64(DI), X5
	VADDSD X4, X5, X5
	VMOVSD X5, 64(DI)
	VMOVSD 8(R10)(AX*8), X4
	VMULSD X3, X4, X4
	VMOVSD 72(DI), X5
	VADDSD X4, X5, X5
	VMOVSD X5, 72(DI)
	VMOVSD 16(R10)(AX*8), X4
	VMULSD X3, X4, X4
	VMOVSD 80(DI), X5
	VADDSD X4, X5, X5
	VMOVSD X5, 80(DI)

	INCQ AX
	JMP  gradktail

gradkdone:
	VMOVSD X6, ret+112(FP)
	VZEROUPPER
	RET

// func adamAVX2(w, g, m, v []float64, k *[8]float64)
//
// adamRow, k = β₁, 1−β₁, β₂, 1−β₂, c1, c2, lr, ε: m = (1−β₁)·g + m·β₁;
// v = ((1−β₂)·g)·g + v·β₂; w = w − ((m/c1)·lr) / (√(v/c2) + ε). VDIVPD and
// VSQRTPD round as DIVSD and SQRTSD do, and the subtraction and the
// divisions keep the Go loop's operands because they have no other order.
TEXT ·adamAVX2(SB), NOSPLIT, $0-104
	MOVQ w_base+0(FP), DI
	MOVQ w_len+8(FP), CX
	MOVQ g_base+24(FP), SI
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9
	MOVQ k+96(FP), R10
	VBROADCASTSD 0(R10), Y0
	VBROADCASTSD 8(R10), Y1
	VBROADCASTSD 16(R10), Y2
	VBROADCASTSD 24(R10), Y3
	VBROADCASTSD 32(R10), Y4
	VBROADCASTSD 40(R10), Y5
	VBROADCASTSD 48(R10), Y6
	VBROADCASTSD 56(R10), Y7
	MOVQ CX, DX
	ANDQ $-4, DX
	XORQ AX, AX

adamvec:
	CMPQ AX, DX
	JAE  adamtail
	VMOVUPD (SI)(AX*8), Y8
	VMOVUPD (R8)(AX*8), Y9
	VMULPD  Y0, Y9, Y9
	VMULPD  Y8, Y1, Y10
	VADDPD  Y9, Y10, Y10
	VMOVUPD Y10, (R8)(AX*8)
	VMOVUPD (R9)(AX*8), Y9
	VMULPD  Y2, Y9, Y9
	VMULPD  Y8, Y3, Y11
	VMULPD  Y8, Y11, Y11
	VADDPD  Y9, Y11, Y11
	VMOVUPD Y11, (R9)(AX*8)
	VDIVPD  Y4, Y10, Y10
	VMULPD  Y6, Y10, Y10
	VDIVPD  Y5, Y11, Y11
	VSQRTPD Y11, Y9
	VADDPD  Y7, Y9, Y9
	VDIVPD  Y9, Y10, Y10
	VMOVUPD (DI)(AX*8), Y8
	VSUBPD  Y10, Y8, Y8
	VMOVUPD Y8, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     adamvec

adamtail:
	CMPQ    AX, CX
	JAE     adamdone
	VMOVSD  (SI)(AX*8), X8
	VMOVSD  (R8)(AX*8), X9
	VMULSD  X0, X9, X9
	VMULSD  X8, X1, X10
	VADDSD  X9, X10, X10
	VMOVSD  X10, (R8)(AX*8)
	VMOVSD  (R9)(AX*8), X9
	VMULSD  X2, X9, X9
	VMULSD  X8, X3, X11
	VMULSD  X8, X11, X11
	VADDSD  X9, X11, X11
	VMOVSD  X11, (R9)(AX*8)
	VDIVSD  X4, X10, X10
	VMULSD  X6, X10, X10
	VDIVSD  X5, X11, X11
	VSQRTSD X11, X11, X9
	VADDSD  X7, X9, X9
	VDIVSD  X9, X10, X10
	VMOVSD  (DI)(AX*8), X8
	VSUBSD  X10, X8, X8
	VMOVSD  X8, (DI)(AX*8)
	INCQ    AX
	JMP     adamtail

adamdone:
	VZEROUPPER
	RET

// func conv3x3RowAVX2(o, s, in0, in1, in2 []float64, k *[9]float64)
//
// One output row of a 3×3 same convolution over one input channel, the
// nine taps in registers: o[j] = s[j] + Σ k[3·r+t]·inr[j−1+t] in ascending
// (r, t), a tap that falls outside the row left out. Each column takes the
// adds three passes of convRowTaps would give it: an interior column the
// three-tap block's, v = in·k + s, v = in·k + v, v = v + in·k per row, and
// the two edge columns convRowTapsEdge's, v = v + k·in per tap.
// len(o) = len(inr) ≥ 3 and len(s) ≥ len(o).
TEXT ·conv3x3RowAVX2(SB), NOSPLIT, $0-128
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ s_base+24(FP), SI
	MOVQ in0_base+48(FP), R8
	MOVQ in1_base+72(FP), R9
	MOVQ in2_base+96(FP), R10
	MOVQ k+120(FP), R11
	VBROADCASTSD 0(R11), Y0
	VBROADCASTSD 8(R11), Y1
	VBROADCASTSD 16(R11), Y2
	VBROADCASTSD 24(R11), Y3
	VBROADCASTSD 32(R11), Y4
	VBROADCASTSD 40(R11), Y5
	VBROADCASTSD 48(R11), Y6
	VBROADCASTSD 56(R11), Y7
	VBROADCASTSD 64(R11), Y8

	// Column 0: taps 1 and 2 of each row.
	VMOVSD (SI), X9
	VMULSD (R8), X1, X10
	VADDSD X10, X9, X9
	VMULSD 8(R8), X2, X10
	VADDSD X10, X9, X9
	VMULSD (R9), X4, X10
	VADDSD X10, X9, X9
	VMULSD 8(R9), X5, X10
	VADDSD X10, X9, X9
	VMULSD (R10), X7, X10
	VADDSD X10, X9, X9
	VMULSD 8(R10), X8, X10
	VADDSD X10, X9, X9
	VMOVSD X9, (DI)

	// Columns 1 … len−2, four at a time while inr[j+4] is in the row.
	MOVQ $1, AX
	MOVQ CX, DX
	SUBQ $4, DX

row3vec:
	CMPQ AX, DX
	JGE  row3tail
	VMOVUPD -8(R8)(AX*8), Y9
	VMULPD  Y0, Y9, Y9
	VADDPD  (SI)(AX*8), Y9, Y9
	VMOVUPD (R8)(AX*8), Y10
	VMULPD  Y1, Y10, Y10
	VADDPD  Y9, Y10, Y9
	VMOVUPD 8(R8)(AX*8), Y10
	VMULPD  Y2, Y10, Y10
	VADDPD  Y10, Y9, Y9
	VMOVUPD -8(R9)(AX*8), Y10
	VMULPD  Y3, Y10, Y10
	VADDPD  Y9, Y10, Y9
	VMOVUPD (R9)(AX*8), Y10
	VMULPD  Y4, Y10, Y10
	VADDPD  Y9, Y10, Y9
	VMOVUPD 8(R9)(AX*8), Y10
	VMULPD  Y5, Y10, Y10
	VADDPD  Y10, Y9, Y9
	VMOVUPD -8(R10)(AX*8), Y10
	VMULPD  Y6, Y10, Y10
	VADDPD  Y9, Y10, Y9
	VMOVUPD (R10)(AX*8), Y10
	VMULPD  Y7, Y10, Y10
	VADDPD  Y9, Y10, Y9
	VMOVUPD 8(R10)(AX*8), Y10
	VMULPD  Y8, Y10, Y10
	VADDPD  Y10, Y9, Y9
	VMOVUPD Y9, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     row3vec

row3tail:
	MOVQ CX, DX
	DECQ DX

row3scalar:
	CMPQ   AX, DX
	JGE    row3right
	VMOVSD -8(R8)(AX*8), X9
	VMULSD X0, X9, X9
	VADDSD (SI)(AX*8), X9, X9
	VMOVSD (R8)(AX*8), X10
	VMULSD X1, X10, X10
	VADDSD X9, X10, X9
	VMOVSD 8(R8)(AX*8), X10
	VMULSD X2, X10, X10
	VADDSD X10, X9, X9
	VMOVSD -8(R9)(AX*8), X10
	VMULSD X3, X10, X10
	VADDSD X9, X10, X9
	VMOVSD (R9)(AX*8), X10
	VMULSD X4, X10, X10
	VADDSD X9, X10, X9
	VMOVSD 8(R9)(AX*8), X10
	VMULSD X5, X10, X10
	VADDSD X10, X9, X9
	VMOVSD -8(R10)(AX*8), X10
	VMULSD X6, X10, X10
	VADDSD X9, X10, X9
	VMOVSD (R10)(AX*8), X10
	VMULSD X7, X10, X10
	VADDSD X9, X10, X9
	VMOVSD 8(R10)(AX*8), X10
	VMULSD X8, X10, X10
	VADDSD X10, X9, X9
	VMOVSD X9, (DI)(AX*8)
	INCQ   AX
	JMP    row3scalar

row3right:
	// Column len−1: taps 0 and 1 of each row.
	VMOVSD (SI)(AX*8), X9
	VMULSD -8(R8)(AX*8), X0, X10
	VADDSD X10, X9, X9
	VMULSD (R8)(AX*8), X1, X10
	VADDSD X10, X9, X9
	VMULSD -8(R9)(AX*8), X3, X10
	VADDSD X10, X9, X9
	VMULSD (R9)(AX*8), X4, X10
	VADDSD X10, X9, X9
	VMULSD -8(R10)(AX*8), X6, X10
	VADDSD X10, X9, X9
	VMULSD (R10)(AX*8), X7, X10
	VADDSD X10, X9, X9
	VMOVSD X9, (DI)(AX*8)
	VZEROUPPER
	RET

// func convPoolGradK3AVX2(acc *[12]float64, mask []bool, gw []float64, pw int, in0, in1, in2 []float64, b float64) float64
//
// One output row of the fused layer's 3×3 same kernel gradient, edge
// columns included, with the unpooling folded in: column j's upstream
// value is g = mask[j] ? gw[j/pw] : +0, selected in an integer register
// (an AND of gw's bits with 0 or all ones), so it is the value the
// unpooled map held, bit for bit, and no map exists. Then
// acc[4·r+t] += g·inr[j−1+t] for every tap inside the row (lane 3 of each
// kernel row is scratch) and b += g, the bias chain. The interior columns
// take gradK3RowsAVX2's operand orders (acc + in·g, and b + g), the two
// edge columns convRowGradKEdge's (in·g + acc). len(mask) = len(inr) ≥ 3
// and len(gw)·pw ≥ len(mask).
TEXT ·convPoolGradK3AVX2(SB), NOSPLIT, $0-152
	MOVQ acc+0(FP), DI
	MOVQ mask_base+8(FP), BX
	MOVQ mask_len+16(FP), CX
	MOVQ gw_base+32(FP), R13
	MOVQ pw+56(FP), SI
	MOVQ in0_base+64(FP), R8
	MOVQ in1_base+88(FP), R9
	MOVQ in2_base+112(FP), R10
	VMOVSD b+136(FP), X6
	MOVQ (R13), R11
	MOVQ SI, R12
	XORQ AX, AX

	// Column 0: taps 1 and 2 of each row. Every column first steps the
	// window (R12 columns left in it, R11 its value's bits) and selects g
	// into X3.
	DECQ    R12
	MOVBQZX (BX)(AX*1), DX
	NEGQ    DX
	ANDQ    R11, DX
	VMOVQ   DX, X3
	VADDSD  X3, X6, X6
	VMOVSD  (R8), X4
	VMULSD  X3, X4, X4
	VADDSD  8(DI), X4, X4
	VMOVSD  X4, 8(DI)
	VMOVSD  8(R8), X4
	VMULSD  X3, X4, X4
	VADDSD  16(DI), X4, X4
	VMOVSD  X4, 16(DI)
	VMOVSD  (R9), X4
	VMULSD  X3, X4, X4
	VADDSD  40(DI), X4, X4
	VMOVSD  X4, 40(DI)
	VMOVSD  8(R9), X4
	VMULSD  X3, X4, X4
	VADDSD  48(DI), X4, X4
	VMOVSD  X4, 48(DI)
	VMOVSD  (R10), X4
	VMULSD  X3, X4, X4
	VADDSD  72(DI), X4, X4
	VMOVSD  X4, 72(DI)
	VMOVSD  8(R10), X4
	VMULSD  X3, X4, X4
	VADDSD  80(DI), X4, X4
	VMOVSD  X4, 80(DI)

	// Columns 1 … len−3 as vectors of the three taps of a kernel row,
	// while inr[j+2] is in the row.
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	MOVQ    $1, AX

pgradvec:
	LEAQ    2(AX), DX
	CMPQ    DX, CX
	JGE     pgradstore
	TESTQ   R12, R12
	JNZ     pgradvecg
	ADDQ    $8, R13
	MOVQ    (R13), R11
	MOVQ    SI, R12

pgradvecg:
	DECQ    R12
	MOVBQZX (BX)(AX*1), DX
	NEGQ    DX
	ANDQ    R11, DX
	VMOVQ   DX, X3
	VADDSD  X3, X6, X6
	VBROADCASTSD X3, Y3
	VMOVUPD -8(R8)(AX*8), Y4
	VMULPD  Y3, Y4, Y4
	VADDPD  Y4, Y0, Y0
	VMOVUPD -8(R9)(AX*8), Y5
	VMULPD  Y3, Y5, Y5
	VADDPD  Y5, Y1, Y1
	VMOVUPD -8(R10)(AX*8), Y7
	VMULPD  Y3, Y7, Y7
	VADDPD  Y7, Y2, Y2
	INCQ    AX
	JMP     pgradvec

pgradstore:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)

pgradtail:
	// The interior column len−2, scalar: its lane 3 would read past the row.
	LEAQ    1(AX), DX
	CMPQ    DX, CX
	JGE     pgradright
	TESTQ   R12, R12
	JNZ     pgradtailg
	ADDQ    $8, R13
	MOVQ    (R13), R11
	MOVQ    SI, R12

pgradtailg:
	DECQ    R12
	MOVBQZX (BX)(AX*1), DX
	NEGQ    DX
	ANDQ    R11, DX
	VMOVQ   DX, X3
	VADDSD  X3, X6, X6

	VMOVSD -8(R8)(AX*8), X4
	VMULSD X3, X4, X4
	VMOVSD 0(DI), X5
	VADDSD X4, X5, X5
	VMOVSD X5, 0(DI)
	VMOVSD (R8)(AX*8), X4
	VMULSD X3, X4, X4
	VMOVSD 8(DI), X5
	VADDSD X4, X5, X5
	VMOVSD X5, 8(DI)
	VMOVSD 8(R8)(AX*8), X4
	VMULSD X3, X4, X4
	VMOVSD 16(DI), X5
	VADDSD X4, X5, X5
	VMOVSD X5, 16(DI)

	VMOVSD -8(R9)(AX*8), X4
	VMULSD X3, X4, X4
	VMOVSD 32(DI), X5
	VADDSD X4, X5, X5
	VMOVSD X5, 32(DI)
	VMOVSD (R9)(AX*8), X4
	VMULSD X3, X4, X4
	VMOVSD 40(DI), X5
	VADDSD X4, X5, X5
	VMOVSD X5, 40(DI)
	VMOVSD 8(R9)(AX*8), X4
	VMULSD X3, X4, X4
	VMOVSD 48(DI), X5
	VADDSD X4, X5, X5
	VMOVSD X5, 48(DI)

	VMOVSD -8(R10)(AX*8), X4
	VMULSD X3, X4, X4
	VMOVSD 64(DI), X5
	VADDSD X4, X5, X5
	VMOVSD X5, 64(DI)
	VMOVSD (R10)(AX*8), X4
	VMULSD X3, X4, X4
	VMOVSD 72(DI), X5
	VADDSD X4, X5, X5
	VMOVSD X5, 72(DI)
	VMOVSD 8(R10)(AX*8), X4
	VMULSD X3, X4, X4
	VMOVSD 80(DI), X5
	VADDSD X4, X5, X5
	VMOVSD X5, 80(DI)

	INCQ AX
	JMP  pgradtail

pgradright:
	// Column len−1: taps 0 and 1 of each row.
	TESTQ   R12, R12
	JNZ     pgradrightg
	ADDQ    $8, R13
	MOVQ    (R13), R11

pgradrightg:
	MOVBQZX (BX)(AX*1), DX
	NEGQ    DX
	ANDQ    R11, DX
	VMOVQ   DX, X3
	VADDSD  X3, X6, X6
	VMOVSD  -8(R8)(AX*8), X4
	VMULSD  X3, X4, X4
	VADDSD  0(DI), X4, X4
	VMOVSD  X4, 0(DI)
	VMOVSD  (R8)(AX*8), X4
	VMULSD  X3, X4, X4
	VADDSD  8(DI), X4, X4
	VMOVSD  X4, 8(DI)
	VMOVSD  -8(R9)(AX*8), X4
	VMULSD  X3, X4, X4
	VADDSD  32(DI), X4, X4
	VMOVSD  X4, 32(DI)
	VMOVSD  (R9)(AX*8), X4
	VMULSD  X3, X4, X4
	VADDSD  40(DI), X4, X4
	VMOVSD  X4, 40(DI)
	VMOVSD  -8(R10)(AX*8), X4
	VMULSD  X3, X4, X4
	VADDSD  64(DI), X4, X4
	VMOVSD  X4, 64(DI)
	VMOVSD  (R10)(AX*8), X4
	VMULSD  X3, X4, X4
	VADDSD  72(DI), X4, X4
	VMOVSD  X4, 72(DI)

	VMOVSD X6, ret+144(FP)
	VZEROUPPER
	RET
