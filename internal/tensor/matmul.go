package tensor

import "fmt"

// Matrix products. Each of the three is a fan-out over output rows of
// one row kernel, and every output element accumulates its inner-product
// terms in ascending inner-index order whatever the blocking or the worker
// count, so results are bit-deterministic. The row kernels are exported
// for callers that walk rows themselves (nn.LSTM): they work on raw
// row-major slices and do no fan-out of their own.

// RowMatMul computes o = Σ_p a[p·as]·B[p,:] for B (k×len(o), row-major in
// b): a row of a·B with as = 1, a row of Aᵀ·B with a starting at A's
// column and as = A's width. o starts at zero, terms add in ascending p,
// and a term whose a is zero is skipped, not added. Four p share one pass
// over o, as four separate adds in p order, so one load and one store of
// o[j] serve four multiply-adds; a block holding a zero takes its p one at
// a time, which keeps the skip rule (and 0·Inf) as the scalar loop has it.
// On the AVX2 path (kernels.go) both run four columns per instruction.
func RowMatMul(o, a []float64, as int, b []float64) {
	n := len(o)
	k := len(b) / n
	for j := range o {
		o[j] = 0
	}
	avx := useAVX2.Load()
	p := 0
	for ; p+4 <= k; p += 4 {
		a0, a1, a2, a3 := a[p*as], a[(p+1)*as], a[(p+2)*as], a[(p+3)*as]
		switch {
		case a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0:
			rowAXPYs(o, a[p*as:], as, b[p*n:(p+4)*n], avx)
		case avx:
			rowAXPY4AVX2(o, b[p*n:(p+4)*n], a0, a1, a2, a3)
		default:
			rowAXPY4(o, b[p*n:(p+4)*n], a0, a1, a2, a3)
		}
	}
	if p < k {
		rowAXPYs(o, a[p*as:], as, b[p*n:k*n], avx)
	}
}

// rowAXPY4 adds a0·B[0,:], a1·B[1,:], a2·B[2,:], a3·B[3,:] to o, in that
// order element by element, for the four rows of b. It is a function of
// its own so that the loop's five pointers and four factors get the
// registers: inlined into RowMatMul the compiler spills the loop counter.
//
//go:noinline
func rowAXPY4(o, b []float64, a0, a1, a2, a3 float64) {
	n := len(o)
	b0, b1, b2, b3 := b[:n], b[n:][:n], b[2*n:][:n], b[3*n:][:n]
	for j := range o {
		s := o[j]
		s += a0 * b0[j]
		s += a1 * b1[j]
		s += a2 * b2[j]
		s += a3 * b3[j]
		o[j] = s
	}
}

// rowAXPYs adds a[p·as]·B[p,:] to o for every row p of b, one at a time,
// skipping zero a; avx runs each row on axpyAVX2.
func rowAXPYs(o, a []float64, as int, b []float64, avx bool) {
	n := len(o)
	for p := 0; p*n < len(b); p++ {
		av := a[p*as]
		switch {
		case av == 0:
		case avx:
			axpyAVX2(o, b[p*n:][:n], av)
		default:
			axpy(o, b[p*n:][:n], av)
		}
	}
}

// axpy adds a·b to o, axpyAVX2's Go twin. Its one compiled body serves
// every caller, so that all of them keep the operand order axpyAVX2
// reproduces.
//
//go:noinline
func axpy(o, b []float64, a float64) {
	b = b[:len(o)]
	for j, bv := range b {
		o[j] += a * bv
	}
}

// RowMatMulTransB computes o[j] = Σ_p a[p]·B[j,p] for B (len(o)×len(a),
// row-major in b), one row of a·Bᵀ: every dot product starts at zero and
// adds in ascending p with no term skipped. Four independent chains run
// at a time; a last block of fewer than four repeats its final row, which
// costs nothing beside the add latency the chains already wait for.
func RowMatMulTransB(o, a, b []float64) {
	k, last := len(a), len(o)-1
	for j := 0; j <= last; j += 4 {
		j1, j2, j3 := min(j+1, last), min(j+2, last), min(j+3, last)
		b0, b1, b2, b3 := b[j*k:][:k], b[j1*k:][:k], b[j2*k:][:k], b[j3*k:][:k]
		var s0, s1, s2, s3 float64
		for p, av := range a {
			s0 += av * b0[p]
			s1 += av * b1[p]
			s2 += av * b2[p]
			s3 += av * b3[p]
		}
		o[j], o[j1], o[j2], o[j3] = s0, s1, s2, s3
	}
}

// RowMatMulTransBT is RowMatMulTransB(o, a, b) to the bit, given bt =
// Bᵀ (len(a)×len(o), row-major) instead of B: o[j] = 0 + Σ_p a[p]·bt[p,j],
// in ascending p with no term skipped. Each output is the same chain of
// rounded multiplies and adds, but the chains now lie along bt's rows, so
// they run as RowMatMul's four-row passes (on the AVX2 kernels where
// chosen) rather than as RowMatMulTransB's dot products. A caller that
// reuses one B for many rows pays the transpose once.
func RowMatMulTransBT(o, a, bt []float64) {
	n := len(o)
	for j := range o {
		o[j] = 0
	}
	avx := useAVX2.Load()
	p := 0
	for ; p+4 <= len(a); p += 4 {
		if avx {
			rowAXPY4AVX2(o, bt[p*n:(p+4)*n], a[p], a[p+1], a[p+2], a[p+3])
		} else {
			rowAXPY4(o, bt[p*n:(p+4)*n], a[p], a[p+1], a[p+2], a[p+3])
		}
	}
	for ; p < len(a); p++ {
		if avx {
			axpyAVX2(o, bt[p*n:][:n], a[p])
		} else {
			axpy(o, bt[p*n:][:n], a[p])
		}
	}
}

func checkMatMul(a, b *Tensor, op string) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: %s requires rank-2 operands, got %v × %v", op, a.shape, b.shape))
	}
}

func checkDst(dst *Tensor, m, n int, op string) {
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s destination shape %v, want [%d %d]", op, dst.shape, m, n))
	}
}

// MatMul returns the matrix product a·b for a (m×k) and b (k×n).
func MatMul(a, b *Tensor) *Tensor {
	checkMatMul(a, b, "MatMul")
	out := New(a.shape[0], b.shape[1])
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes dst = a·b, overwriting dst (m×n). dst must not
// alias a or b.
func MatMulInto(dst, a, b *Tensor) {
	checkMatMul(a, b, "MatMulInto")
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d != %d (%v × %v)", k, k2, a.shape, b.shape))
	}
	checkDst(dst, m, n, "MatMulInto")
	ad, bd, od := a.data, b.data, dst.data
	ParallelFor(m, 2*k*n, func(shard, stride int) {
		for i := shard; i < m; i += stride {
			RowMatMul(od[i*n:(i+1)*n], ad[i*k:(i+1)*k], 1, bd)
		}
	})
}

// MatMulTransA returns aᵀ·b for a (k×m) and b (k×n), without
// materialising the transpose. The result is m×n.
func MatMulTransA(a, b *Tensor) *Tensor {
	checkMatMul(a, b, "MatMulTransA")
	out := New(a.shape[1], b.shape[1])
	MatMulTransAInto(out, a, b)
	return out
}

// MatMulTransAInto computes dst = aᵀ·b, overwriting dst (m×n). dst must
// not alias a or b.
func MatMulTransAInto(dst, a, b *Tensor) {
	checkMatMul(a, b, "MatMulTransAInto")
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dims %d != %d", k, k2))
	}
	checkDst(dst, m, n, "MatMulTransAInto")
	ad, bd, od := a.data, b.data, dst.data
	// Each output row i accumulates Σ_p a[p,i]·b[p,·] independently.
	ParallelFor(m, 2*k*n, func(shard, stride int) {
		for i := shard; i < m; i += stride {
			RowMatMul(od[i*n:(i+1)*n], ad[i:], m, bd)
		}
	})
}

// MatMulTransB returns a·bᵀ for a (m×k) and b (n×k), without
// materialising the transpose. The result is m×n.
func MatMulTransB(a, b *Tensor) *Tensor {
	checkMatMul(a, b, "MatMulTransB")
	out := New(a.shape[0], b.shape[0])
	MatMulTransBInto(out, a, b)
	return out
}

// MatMulTransBInto computes dst = a·bᵀ, overwriting dst (m×n). dst must
// not alias a or b.
func MatMulTransBInto(dst, a, b *Tensor) {
	checkMatMul(a, b, "MatMulTransBInto")
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dims %d != %d", k, k2))
	}
	checkDst(dst, m, n, "MatMulTransBInto")
	ad, bd, od := a.data, b.data, dst.data
	ParallelFor(m, 2*k*n, func(shard, stride int) {
		for i := shard; i < m; i += stride {
			RowMatMulTransB(od[i*n:(i+1)*n], ad[i*k:(i+1)*k], bd)
		}
	})
}

// Transpose2D returns the transpose of a rank-2 tensor as a new tensor.
func Transpose2D(a *Tensor) *Tensor {
	mustRank(a, 2, "Transpose2D")
	m, n := a.shape[0], a.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out
}

// MatVec returns the matrix-vector product a·x for a (m×n) and x of length n.
func MatVec(a *Tensor, x []float64) []float64 {
	mustRank(a, 2, "MatVec")
	m, n := a.shape[0], a.shape[1]
	if len(x) != n {
		panic(fmt.Sprintf("tensor: MatVec length %d != %d", len(x), n))
	}
	out := make([]float64, m)
	for i := 0; i < m; i++ {
		row := a.data[i*n : (i+1)*n]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}
