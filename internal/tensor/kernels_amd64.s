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
