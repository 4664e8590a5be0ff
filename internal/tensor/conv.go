package tensor

import "fmt"

// Conv2DSpec describes a 2-D convolution in NCHW layout.
// Input:  (N, Cin, H, W). Kernel: (Cout, Cin, KH, KW). Output:
// (N, Cout, OH, OW) with OH = (H+2*PadH-KH)/StrideH + 1 and likewise for OW.
type Conv2DSpec struct {
	StrideH, StrideW int
	PadH, PadW       int
}

// OutSize returns the output spatial size for an input of size (h, w) under
// kernel (kh, kw) and this spec. It panics if the geometry is inconsistent.
func (s Conv2DSpec) OutSize(h, w, kh, kw int) (oh, ow int) {
	if s.StrideH <= 0 || s.StrideW <= 0 {
		panic("tensor: convolution stride must be positive")
	}
	oh = (h+2*s.PadH-kh)/s.StrideH + 1
	ow = (w+2*s.PadW-kw)/s.StrideW + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: convolution output size %dx%d not positive (in %dx%d, kernel %dx%d, spec %+v)",
			oh, ow, h, w, kh, kw, s))
	}
	return oh, ow
}

func checkConvGeometry(x, k *Tensor, bias []float64, op string) (n, cin, h, w, cout, kh, kw int) {
	if x.Rank() != 4 || k.Rank() != 4 {
		panic(fmt.Sprintf("tensor: %s requires NCHW input and OIHW kernel", op))
	}
	n, cin, h, w = x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	cout, kh, kw = k.shape[0], k.shape[2], k.shape[3]
	if cin != k.shape[1] {
		panic(fmt.Sprintf("tensor: %s channel mismatch input Cin=%d kernel Cin=%d", op, cin, k.shape[1]))
	}
	if bias != nil && len(bias) != cout {
		panic(fmt.Sprintf("tensor: %s bias length %d != Cout %d", op, len(bias), cout))
	}
	return
}

// Conv2D computes the cross-correlation (the deep-learning "convolution")
// of x (N,Cin,H,W) with kernel k (Cout,Cin,KH,KW), adding bias[co] to each
// output channel if bias is non-nil. Zero padding is used. Stride-1
// geometries run the row kernels below, strided ones the direct loop
// nest; results are bit-identical to Conv2DDirect, the reference
// implementation.
func Conv2D(x, k *Tensor, bias []float64, spec Conv2DSpec) *Tensor {
	oh, ow := spec.OutSize(x.shape[2], x.shape[3], k.shape[2], k.shape[3])
	out := New(x.shape[0], k.shape[0], oh, ow)
	Conv2DInto(out, x, k, bias, spec)
	return out
}

// Conv2DInto computes Conv2D into out (N,Cout,OH,OW), overwriting it.
// out must not alias x or k.
func Conv2DInto(out, x, k *Tensor, bias []float64, spec Conv2DSpec) {
	convForward(out, x, k, bias, spec, spec.unitStride(), "Conv2DInto")
}

// Conv2DDirect is the straightforward 7-loop convolution, kept as the
// reference oracle the row kernels are tested against bit-for-bit.
func Conv2DDirect(x, k *Tensor, bias []float64, spec Conv2DSpec) *Tensor {
	oh, ow := spec.OutSize(x.shape[2], x.shape[3], k.shape[2], k.shape[3])
	out := New(x.shape[0], k.shape[0], oh, ow)
	convForward(out, x, k, bias, spec, false, "Conv2DDirect")
	return out
}

func (s Conv2DSpec) unitStride() bool { return s.StrideH == 1 && s.StrideW == 1 }

// convForward validates the geometry and runs one sample kernel per batch
// element. Each sample's output block is independent: the batch is
// parallelised over the deterministic worker pool.
func convForward(out, x, k *Tensor, bias []float64, spec Conv2DSpec, rows bool, op string) {
	n, cin, h, w, cout, kh, kw := checkConvGeometry(x, k, bias, op)
	oh, ow := spec.OutSize(h, w, kh, kw)
	if out.Rank() != 4 || out.shape[0] != n || out.shape[1] != cout ||
		out.shape[2] != oh || out.shape[3] != ow {
		panic(fmt.Sprintf("tensor: %s out shape %v, want [%d %d %d %d]",
			op, out.shape, n, cout, oh, ow))
	}
	xd, kd, od := x.data, k.data, out.data
	var starts []float64 // one scratch row per shard
	if rows {
		starts = getSlice(NumShards * ow)
		defer putSlice(starts)
	}
	ParallelFor(n, 2*cout*cin*kh*kw*oh*ow, func(shard, stride int) {
		for ni := shard; ni < n; ni += stride {
			if rows {
				convSampleRows(xd, kd, od, bias, starts[shard*ow:][:ow], ni, ni, cin, cout, h, w, kh, kw, oh, ow, spec.PadH, spec.PadW)
			} else {
				convSampleDirect(xd, kd, od, bias, ni, cin, cout, h, w, kh, kw, oh, ow, spec)
			}
		}
	})
}

// convSampleDirect computes the full output block of batch element ni with
// the direct nested loops. Summation order per output element: bias, then
// (cin, kh, kw) ascending — the order the row kernels reproduce.
func convSampleDirect(xd, kd, od, bias []float64, ni, cin, cout, h, w, kh, kw, oh, ow int, spec Conv2DSpec) {
	for co := 0; co < cout; co++ {
		b := 0.0
		if bias != nil {
			b = bias[co]
		}
		obase := ((ni * cout) + co) * oh * ow
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*spec.StrideH - spec.PadH
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*spec.StrideW - spec.PadW
				acc := b
				for ci := 0; ci < cin; ci++ {
					xbase := ((ni * cin) + ci) * h * w
					kbase := ((co * cin) + ci) * kh * kw
					for ky := 0; ky < kh; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= h {
							continue
						}
						xrow := xd[xbase+iy*w : xbase+(iy+1)*w]
						krow := kd[kbase+ky*kw : kbase+(ky+1)*kw]
						for kx := 0; kx < kw; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= w {
								continue
							}
							acc += xrow[ix] * krow[kx]
						}
					}
				}
				od[obase+oy*ow+ox] = acc
			}
		}
	}
}

// Conv2DBackward computes the gradients of a Conv2D call given the
// upstream gradient gradOut (N,Cout,OH,OW). It returns the gradient with
// respect to the input x, the kernel k, and the bias (summed over batch
// and space).
func Conv2DBackward(x, k, gradOut *Tensor, spec Conv2DSpec) (gradX, gradK *Tensor, gradBias []float64) {
	gradX = New(x.shape...)
	gradK = New(k.shape...)
	gradBias = make([]float64, k.shape[0])
	Conv2DBackwardInto(gradX, gradK, gradBias, x, k, gradOut, spec)
	return gradX, gradK, gradBias
}

// Conv2DBackwardInto computes the convolution gradients: with the row
// kernels at stride 1, with the direct loop nest otherwise. gradX is
// OVERWRITTEN, or skipped altogether when nil (an input layer has no use
// for dL/d(pixels)); gradK and gradBias are ACCUMULATED into (zero them
// first for plain gradients) — the natural contract for layers that fold
// parameter gradients over a step.
//
// Kernel- and bias-gradient partial sums are kept per shard and reduced
// in shard order, so results are bit-deterministic for any worker count
// and bit-identical to Conv2DBackwardDirect.
func Conv2DBackwardInto(gradX, gradK *Tensor, gradBias []float64, x, k, gradOut *Tensor, spec Conv2DSpec) {
	convBackward(gradX, gradK, gradBias, x, k, gradOut, spec, spec.unitStride(), "Conv2DBackwardInto")
}

// Conv2DBackwardDirect is the loop-nest reference implementation of the
// convolution gradients, bit-identical to Conv2DBackwardInto and kept as
// the test oracle. Same contract as the Into variant.
func Conv2DBackwardDirect(gradX, gradK *Tensor, gradBias []float64, x, k, gradOut *Tensor, spec Conv2DSpec) {
	convBackward(gradX, gradK, gradBias, x, k, gradOut, spec, false, "Conv2DBackwardDirect")
}

// convBackward checks every backward-pass shape, runs one sample kernel
// per batch element into per-shard partials and reduces those in shard
// order.
func convBackward(gradX, gradK *Tensor, gradBias []float64, x, k, gradOut *Tensor, spec Conv2DSpec, rows bool, op string) {
	n, cin, h, w, cout, kh, kw := checkConvGeometry(x, k, nil, op)
	oh, ow := spec.OutSize(h, w, kh, kw)
	if gradOut.Rank() != 4 || gradOut.shape[0] != n || gradOut.shape[1] != cout ||
		gradOut.shape[2] != oh || gradOut.shape[3] != ow {
		panic(fmt.Sprintf("tensor: %s gradOut shape %v, want [%d %d %d %d]",
			op, gradOut.shape, n, cout, oh, ow))
	}
	if gradX != nil && !gradX.SameShape(x) {
		panic(fmt.Sprintf("tensor: %s gradX shape %v, want %v", op, gradX.shape, x.shape))
	}
	if !gradK.SameShape(k) {
		panic(fmt.Sprintf("tensor: %s gradK shape %v, want %v", op, gradK.shape, k.shape))
	}
	if len(gradBias) != cout {
		panic(fmt.Sprintf("tensor: %s gradBias length %d != Cout %d", op, len(gradBias), cout))
	}
	xd, kd, god := x.data, k.data, gradOut.data
	var gxd, kflip, starts []float64
	if gradX != nil {
		gxd = gradX.data
		if rows {
			kflip = flipKernel(kd, cin, cout, kh, kw)
			defer putSlice(kflip)
			starts = getSlice(NumShards * w)
			defer putSlice(starts)
		} else {
			gradX.Zero()
		}
	}
	kSize := cout * cin * kh * kw
	pStride := shardStride(kSize + cout)
	partials := getSliceZeroed(NumShards * pStride)

	ParallelFor(n, 4*kSize*oh*ow, func(shard, stride int) {
		gkd := partials[shard*pStride:][:kSize]
		gbd := partials[shard*pStride+kSize:][:cout]
		for ni := shard; ni < n; ni += stride {
			if !rows {
				convBackSampleDirect(xd, kd, gxd, god, gkd, gbd,
					ni, cin, cout, h, w, kh, kw, oh, ow, spec)
				continue
			}
			convGradKSampleRows(xd, god, gkd, gbd, ni, ni, cin, cout, h, w, kh, kw, oh, ow, spec.PadH, spec.PadW)
			if gxd != nil {
				convSampleRows(god, kflip, gxd, nil, starts[shard*w:][:w],
					ni, ni, cout, cin, oh, ow, kh, kw, h, w, kh-1-spec.PadH, kw-1-spec.PadW)
			}
		}
	})

	foldShardPartials(gradK.data, gradBias, partials, pStride)
	putSlice(partials)
}

// shardStride rounds a per-shard block of n floats up to whole 64-byte
// cache lines. Pooled buffers start on a line (power-of-two size classes,
// page-aligned large objects), so blocks at this stride share no line and
// two workers' stores never invalidate each other's.
func shardStride(n int) int { return (n + 7) &^ 7 }

// foldShardPartials adds the per-shard kernel- and bias-gradient partials
// to the accumulators in shard order: the bit-deterministic reduction.
// Shard s's block starts at partials[s·stride], kernel partials first,
// then the bias partials. The fold stays a function of its own: the NaN
// payload a sum of two NaNs keeps depends on the operand order the
// compiler gives its adds, and both backward passes must share it.
func foldShardPartials(gradK, gradBias, partials []float64, stride int) {
	kSize, cout := len(gradK), len(gradBias)
	for s := 0; s < NumShards; s++ {
		for i, v := range partials[s*stride:][:kSize] {
			gradK[i] += v
		}
		for i, v := range partials[s*stride+kSize:][:cout] {
			gradBias[i] += v
		}
	}
}

// convBackSampleDirect accumulates one sample's gradient contributions
// with the direct loop nest: for each upstream element in ascending
// (cout, oy, ox) order, walk the receptive field in (cin, kh, kw) order.
// A nil gxd skips the input gradient.
func convBackSampleDirect(xd, kd, gxd, god, gkd, gbd []float64,
	ni, cin, cout, h, w, kh, kw, oh, ow int, spec Conv2DSpec) {
	for co := 0; co < cout; co++ {
		obase := ((ni * cout) + co) * oh * ow
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*spec.StrideH - spec.PadH
			for ox := 0; ox < ow; ox++ {
				g := god[obase+oy*ow+ox]
				if g == 0 {
					continue
				}
				gbd[co] += g
				ix0 := ox*spec.StrideW - spec.PadW
				for ci := 0; ci < cin; ci++ {
					xbase := ((ni * cin) + ci) * h * w
					kbase := ((co * cin) + ci) * kh * kw
					for ky := 0; ky < kh; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < kw; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= w {
								continue
							}
							xi := xbase + iy*w + ix
							ki := kbase + ky*kw + kx
							gkd[ki] += g * xd[xi]
							if gxd != nil {
								gxd[xi] += g * kd[ki]
							}
						}
					}
				}
			}
		}
	}
}

// Row kernels: the stride-1 convolution engine.
//
// At stride 1 the inputs of one kernel tap along an output row are a
// contiguous, shifted slice of one input row, so the kernels read x where
// it lies. Each output row starts at the bias and takes one pass per
// (cin, kh) kernel row, every pass adding that row's kw taps in ascending
// kx as separate adds. Per output element the terms therefore arrive as
// bias, then (cin, kh, kw) ascending — the summation order of the direct
// loop nest — and the result is bit-identical to Conv2DDirect.
//
// The kernel gradient is the same walk with the roles turned: the kw
// accumulators of a kernel row advance together over each output row
// (left edge, interior, right edge; row oy before oy+1), so each receives
// its terms in ascending (oy, ox) — the direct loop's order — while the
// kw floating-point add chains overlap. The input gradient is the forward
// kernel itself, run over gradOut with the flipped kernel (see
// flipKernel).

// convSampleRows computes the output block of batch element ni of a
// stride-1 convolution and writes it as sample no of od: no is ni for a
// whole output tensor and 0 for a one-sample block (the fused kernels of
// convpool.go). Pads may be negative (the input-gradient call).
// start is a length-ow scratch row of the calling shard: it holds the
// bias, and a row's first pass reads its starting values from there, so
// the output is written once with its first terms instead of being
// filled and re-read.
func convSampleRows(xd, kd, od, bias, start []float64, ni, no, cin, cout, h, w, kh, kw, oh, ow, padH, padW int) {
	for co := 0; co < cout; co++ {
		b := 0.0
		if bias != nil {
			b = bias[co]
		}
		for j := range start {
			start[j] = b
		}
		for oy := 0; oy < oh; oy++ {
			orow := od[((no*cout+co)*oh+oy)*ow:][:ow]
			kyLo, kyHi := max(0, padH-oy), min(kh, h+padH-oy) // kernel rows inside the image
			if kyLo >= kyHi {
				copy(orow, start)
				continue
			}
			src := start
			for ci := 0; ci < cin; ci++ {
				for ky := kyLo; ky < kyHi; ky++ {
					convRowTaps(orow, src, xd[((ni*cin+ci)*h+oy-padH+ky)*w:][:w], kd[((co*cin+ci)*kh+ky)*kw:][:kw], -padW)
					src = orow
				}
			}
		}
	}
}

// interiorSpan returns the positions [lo, hi) of a length-n output row
// whose kw taps all fall inside an input row of length w, tap t of
// position o reading in[o+shift+t]. [0, lo) and [hi, n) are the edges; an
// empty interior is returned as (n, n), all left edge.
func interiorSpan(n, w, kw, shift int) (lo, hi int) {
	lo, hi = max(0, -shift), min(n, w-kw-shift+1)
	if hi <= lo {
		return n, n
	}
	return lo, hi
}

// convRowTaps adds one kernel row to one output row:
// out[o] = src[o] + Σ_t taps[t]·in[o+shift+t], t ascending, one add per
// tap (a += t0 + t1 would regroup the floating-point chain and break
// bit-equality with the direct loop). src is out itself or the row's
// starting values. Edge positions skip the taps that fall outside in, the
// way convSampleDirect does; the interior takes the taps three at a time
// with no bounds checks, four columns wide on the AVX2 path.
func convRowTaps(out, src, in, taps []float64, shift int) {
	lo, hi := interiorSpan(len(out), len(in), len(taps), shift)
	// Output positions are independent of each other, so both edges can go
	// first.
	convRowTapsEdge(out, src, in, taps, shift, 0, lo)
	convRowTapsEdge(out, src, in, taps, shift, hi, len(out))
	if lo == hi {
		return
	}
	o := out[lo:hi]
	s := src[lo:hi][:len(o)]
	avx := useAVX2.Load()
	t := 0
	for ; t+3 <= len(taps); t += 3 {
		k0, k1, k2 := taps[t], taps[t+1], taps[t+2]
		if avx {
			convRowTaps3AVX2(o, s, in[lo+shift+t:][:len(o)+2], k0, k1, k2)
			s = o
			continue
		}
		x0 := in[lo+shift+t:][:len(o)]
		x1 := in[lo+shift+t+1:][:len(o)]
		x2 := in[lo+shift+t+2:][:len(o)]
		for j := range o {
			v := s[j] + k0*x0[j]
			v += k1 * x1[j]
			o[j] = v + k2*x2[j]
		}
		s = o
	}
	for ; t < len(taps); t++ {
		kv := taps[t]
		x := in[lo+shift+t:][:len(o)]
		for j := range o {
			o[j] = s[j] + kv*x[j]
		}
		s = o
	}
}

func convRowTapsEdge(out, src, in, taps []float64, shift, from, to int) {
	for o := from; o < to; o++ {
		acc := src[o]
		for t, kv := range taps {
			if i := o + shift + t; i >= 0 && i < len(in) {
				acc += in[i] * kv
			}
		}
		out[o] = acc
	}
}

// convRowGradK folds one output row into the kw accumulators of one
// kernel row: acc[t] += Σ_o g[o]·in[o+shift+t], o ascending per
// accumulator.
func convRowGradK(acc, g, in []float64, shift int) {
	lo, hi := interiorSpan(len(g), len(in), len(acc), shift)
	convRowGradKEdge(acc, g, in, shift, 0, lo)
	if lo < hi {
		gi := g[lo:hi]
		t := 0
		for ; t+3 <= len(acc); t += 3 {
			a0, a1, a2 := acc[t], acc[t+1], acc[t+2]
			x0 := in[lo+shift+t:][:len(gi)]
			x1 := in[lo+shift+t+1:][:len(gi)]
			x2 := in[lo+shift+t+2:][:len(gi)]
			for j, gv := range gi {
				a0 += gv * x0[j]
				a1 += gv * x1[j]
				a2 += gv * x2[j]
			}
			acc[t], acc[t+1], acc[t+2] = a0, a1, a2
		}
		for ; t < len(acc); t++ {
			a := acc[t]
			for j, xv := range in[lo+shift+t:][:len(gi)] {
				a += gi[j] * xv
			}
			acc[t] = a
		}
	}
	convRowGradKEdge(acc, g, in, shift, hi, len(g))
}

func convRowGradKEdge(acc, g, in []float64, shift, from, to int) {
	for o := from; o < to; o++ {
		gv := g[o]
		for t := range acc {
			if i := o + shift + t; i >= 0 && i < len(in) {
				acc[t] += gv * in[i]
			}
		}
	}
}

// flipKernel returns k (Cout,Cin,KH,KW) with channel roles swapped and
// both spatial axes reversed: f[ci][co][ky][kx] = k[co][ci][KH-1-ky][KW-1-kx].
// A stride-1 input gradient is the forward convolution of gradOut with
// this kernel under pads (KH-1-PadH, KW-1-PadW). Walking the flipped
// kernel ascending is walking k's taps DESCENDING, which is what makes
// each input cell receive its contributions in ascending (cout, oy, ox)
// order, the direct loop's order. The buffer comes from the slice pool.
func flipKernel(kd []float64, cin, cout, kh, kw int) []float64 {
	f := getSlice(len(kd))
	taps := kh * kw
	for co := 0; co < cout; co++ {
		for ci := 0; ci < cin; ci++ {
			src, dst := kd[(co*cin+ci)*taps:][:taps], f[(ci*cout+co)*taps:][:taps]
			for i, v := range src {
				dst[taps-1-i] = v
			}
		}
	}
	return f
}

// convGradKSampleRows accumulates one sample's kernel- and bias-gradient
// contributions of a stride-1 convolution into the shard buffers gkd/gbd:
// sample ni of xd against sample ng of the upstream gradient god (ng is
// ni for a whole gradient tensor, 0 for a one-sample block).
//
// The direct loop skips g == 0 terms; the row kernels add them anyway.
// That is bit-identical because a ±0 add is an identity on any
// accumulator reachable from a +0 start, and it keeps the hot loops
// branch-free. 3×3 kernels on the AVX2 path take convGradK3SampleRows.
func convGradKSampleRows(xd, god, gkd, gbd []float64, ni, ng, cin, cout, h, w, kh, kw, oh, ow, padH, padW int) {
	if kh == 3 && kw == 3 && cin > 0 && useAVX2.Load() {
		convGradK3SampleRows(xd, god, gkd, gbd, ni, ng, cin, cout, h, w, oh, ow, padH, padW)
		return
	}
	for co := 0; co < cout; co++ {
		gmap := god[(ng*cout+co)*oh*ow:][:oh*ow]
		acc := gbd[co]
		for _, gv := range gmap {
			acc += gv
		}
		gbd[co] = acc
		for ci := 0; ci < cin; ci++ {
			for ky := 0; ky < kh; ky++ {
				gk := gkd[((co*cin+ci)*kh+ky)*kw:][:kw]
				for oy := max(0, padH-ky); oy < min(oh, h+padH-ky); oy++ {
					convRowGradK(gk, gmap[oy*ow:][:ow], xd[((ni*cin+ci)*h+oy-padH+ky)*w:][:w], -padW)
				}
			}
		}
	}
}

// convGradK3SampleRows is convGradKSampleRows for a 3×3 kernel on the
// AVX2 path, walked with the output row outermost: where all three kernel
// rows fall inside the image, gradK3RowsAVX2 folds the row's interior into
// all nine accumulators at once, lane t of kernel row r in acc[4·r+t],
// between the Go left and right edges. Each accumulator still takes its
// terms in ascending (oy, ox), every row in the order left edge, interior,
// right edge. The bias chain rides along in the first input channel's
// walk, in ascending (oy, ox) as well.
func convGradK3SampleRows(xd, god, gkd, gbd []float64, ni, ng, cin, cout, h, w, oh, ow, padH, padW int) {
	shift := -padW
	lo, hi := interiorSpan(ow, w, 3, shift)
	var acc [12]float64
	for co := 0; co < cout; co++ {
		gmap := god[(ng*cout+co)*oh*ow:][:oh*ow]
		b := gbd[co]
		for ci := 0; ci < cin; ci++ {
			gk := gkd[(co*cin+ci)*9:][:9]
			copy(acc[0:3], gk[0:3])
			copy(acc[4:7], gk[3:6])
			copy(acc[8:11], gk[6:9])
			img := xd[(ni*cin+ci)*h*w:][:h*w]
			for oy := 0; oy < oh; oy++ {
				g := gmap[oy*ow:][:ow]
				iy := oy - padH // the input row under kernel row 0
				if iy < 0 || iy+3 > h || lo == hi {
					for r := 0; r < 3; r++ {
						if iy+r >= 0 && iy+r < h {
							convRowGradK(acc[4*r:][:3], g, img[(iy+r)*w:][:w], shift)
						}
					}
					if ci == 0 {
						b = sumInto(b, g)
					}
					continue
				}
				r0, r1, r2 := img[iy*w:][:w], img[(iy+1)*w:][:w], img[(iy+2)*w:][:w]
				convRowGradKEdge(acc[0:3], g, r0, shift, 0, lo)
				convRowGradKEdge(acc[4:7], g, r1, shift, 0, lo)
				convRowGradKEdge(acc[8:11], g, r2, shift, 0, lo)
				// The kernel runs the bias chain on every channel; only the
				// first channel's sum is kept.
				n := hi - lo + 2 // the interior's input columns
				bi := gradK3RowsAVX2(&acc, g[lo:hi], r0[lo+shift:][:n], r1[lo+shift:][:n], r2[lo+shift:][:n], sumInto(b, g[:lo]))
				convRowGradKEdge(acc[0:3], g, r0, shift, hi, ow)
				convRowGradKEdge(acc[4:7], g, r1, shift, hi, ow)
				convRowGradKEdge(acc[8:11], g, r2, shift, hi, ow)
				if ci == 0 {
					b = sumInto(bi, g[hi:])
				}
			}
			copy(gk[0:3], acc[0:3])
			copy(gk[3:6], acc[4:7])
			copy(gk[6:9], acc[8:11])
		}
		gbd[co] = b
	}
}

// sumInto returns acc plus the values of g, added one at a time in order.
func sumInto(acc float64, g []float64) float64 {
	for _, gv := range g {
		acc += gv
	}
	return acc
}

// AvgPool2D applies non-overlapping average pooling with window (ph, pw) to
// x (N,C,H,W). H must be divisible by ph and W by pw — the paper's pooling
// dimensions (1×1, 4×4, 10×10, 40×40 over 40×40 images) all satisfy this.
func AvgPool2D(x *Tensor, ph, pw int) *Tensor {
	n, c, oh, ow := avgPoolGeometry(x, ph, pw)
	out := New(n, c, oh, ow)
	AvgPool2DInto(out, x, ph, pw)
	return out
}

func avgPoolGeometry(x *Tensor, ph, pw int) (n, c, oh, ow int) {
	mustRank(x, 4, "AvgPool2D")
	n, c = x.shape[0], x.shape[1]
	h, w := x.shape[2], x.shape[3]
	if ph <= 0 || pw <= 0 || h%ph != 0 || w%pw != 0 {
		panic(fmt.Sprintf("tensor: AvgPool2D window %dx%d incompatible with input %dx%d", ph, pw, h, w))
	}
	return n, c, h / ph, w / pw
}

// AvgPool2DInto computes AvgPool2D into out (N,C,H/ph,W/pw), overwriting it.
func AvgPool2DInto(out, x *Tensor, ph, pw int) {
	n, c, oh, ow := avgPoolGeometry(x, ph, pw)
	if out.Rank() != 4 || out.shape[0] != n || out.shape[1] != c ||
		out.shape[2] != oh || out.shape[3] != ow {
		panic(fmt.Sprintf("tensor: AvgPool2DInto out shape %v, want [%d %d %d %d]",
			out.shape, n, c, oh, ow))
	}
	h, w := x.shape[2], x.shape[3]
	inv := 1.0 / float64(ph*pw)
	xd, od := x.data, out.data
	for nc := 0; nc < n*c; nc++ {
		xbase := nc * h * w
		obase := nc * oh * ow
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				acc := 0.0
				for dy := 0; dy < ph; dy++ {
					row := xd[xbase+(oy*ph+dy)*w:]
					for dx := 0; dx < pw; dx++ {
						acc += row[ox*pw+dx]
					}
				}
				od[obase+oy*ow+ox] = acc * inv
			}
		}
	}
}

// AvgPool2DBackward distributes the upstream gradient gradOut (N,C,OH,OW)
// of an AvgPool2D call uniformly over each pooling window, returning the
// gradient with respect to the input of shape (N,C,H,W).
func AvgPool2DBackward(gradOut *Tensor, ph, pw int) *Tensor {
	mustRank(gradOut, 4, "AvgPool2DBackward")
	n, c, oh, ow := gradOut.shape[0], gradOut.shape[1], gradOut.shape[2], gradOut.shape[3]
	out := New(n, c, oh*ph, ow*pw)
	AvgPool2DBackwardInto(out, gradOut, ph, pw)
	return out
}

// AvgPool2DBackwardInto computes AvgPool2DBackward into out (N,C,H,W),
// overwriting it.
func AvgPool2DBackwardInto(out, gradOut *Tensor, ph, pw int) {
	mustRank(gradOut, 4, "AvgPool2DBackwardInto")
	n, c, oh, ow := gradOut.shape[0], gradOut.shape[1], gradOut.shape[2], gradOut.shape[3]
	h, w := oh*ph, ow*pw
	if out.Rank() != 4 || out.shape[0] != n || out.shape[1] != c ||
		out.shape[2] != h || out.shape[3] != w {
		panic(fmt.Sprintf("tensor: AvgPool2DBackwardInto out shape %v, want [%d %d %d %d]",
			out.shape, n, c, h, w))
	}
	inv := 1.0 / float64(ph*pw)
	god, od := gradOut.data, out.data
	for nc := 0; nc < n*c; nc++ {
		gbase := nc * oh * ow
		obase := nc * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				g := god[gbase+oy*ow+ox] * inv
				for dy := 0; dy < ph; dy++ {
					row := od[obase+(oy*ph+dy)*w:]
					for dx := 0; dx < pw; dx++ {
						row[ox*pw+dx] = g
					}
				}
			}
		}
	}
}

// UpsampleNearest2D scales x (N,C,H,W) by integer factors (fh, fw) using
// nearest-neighbour replication. Used by the privacy metric to compare
// pooled feature maps against raw images at equal resolution.
func UpsampleNearest2D(x *Tensor, fh, fw int) *Tensor {
	mustRank(x, 4, "UpsampleNearest2D")
	if fh <= 0 || fw <= 0 {
		panic("tensor: UpsampleNearest2D factors must be positive")
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := h*fh, w*fw
	out := New(n, c, oh, ow)
	xd, od := x.data, out.data
	for nc := 0; nc < n*c; nc++ {
		xbase := nc * h * w
		obase := nc * oh * ow
		for oy := 0; oy < oh; oy++ {
			srow := xd[xbase+(oy/fh)*w:]
			drow := od[obase+oy*ow:]
			for ox := 0; ox < ow; ox++ {
				drow[ox] = srow[ox/fw]
			}
		}
	}
	return out
}
