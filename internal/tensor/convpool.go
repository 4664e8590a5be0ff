package tensor

import "fmt"

// The fused UE kernels: stride-1 convolution, ReLU and non-overlapping
// average pooling in one pass per sample, and the kernel- and bias-gradient
// of that chain. They compute what Conv2DInto → ReLU → AvgPool2DInto and
// AvgPool2DBackwardInto → ReLU' → Conv2DBackwardInto (nil gradX) compute,
// bit for bit, without the four full-resolution tensors in between: a
// sample's convolution output lives in a per-shard block that stays in L1
// from the row kernels to the epilogue, and all that survives the forward
// pass is the pooled output and one bool per convolution output, "was it
// positive".
//
// Pinned orders. The block is filled by convSampleRows, so each element
// has Conv2DDirect's chain. A pooling window starts at +0 and adds its
// ReLU outputs in ascending (dy, dx), AvgPool2DInto's order, then scales
// by 1/(ph·pw); a clipped element's +0 term is left out, which is exact
// because a sum of non-negative terms from +0 is never −0. The upstream
// map of the backward pass is rebuilt per sample as mask ? g·inv : +0,
// the values ReLU' of AvgPool2DBackwardInto's output holds, and goes
// through convGradKSampleRows into per-shard partials that fold in shard
// order, exactly as in convBackward.

// convPoolGeometry validates a fused call: the convolution's geometry, the
// pooled tensor (output or upstream gradient) and the mask length. k is
// any tensor of the kernel's shape.
func convPoolGeometry(pooled *Tensor, mask []bool, x, k *Tensor, bias []float64, spec Conv2DSpec, ph, pw int, op string) (n, cin, h, w, cout, kh, kw, oh, ow int) {
	n, cin, h, w, cout, kh, kw = checkConvGeometry(x, k, bias, op)
	if !spec.unitStride() {
		panic(fmt.Sprintf("tensor: %s requires stride 1, got %+v", op, spec))
	}
	oh, ow = spec.OutSize(h, w, kh, kw)
	if ph <= 0 || pw <= 0 || oh%ph != 0 || ow%pw != 0 {
		panic(fmt.Sprintf("tensor: %s window %dx%d incompatible with convolution output %dx%d", op, ph, pw, oh, ow))
	}
	if pooled.Rank() != 4 || pooled.shape[0] != n || pooled.shape[1] != cout ||
		pooled.shape[2] != oh/ph || pooled.shape[3] != ow/pw {
		panic(fmt.Sprintf("tensor: %s pooled shape %v, want [%d %d %d %d]",
			op, pooled.shape, n, cout, oh/ph, ow/pw))
	}
	if len(mask) != n*cout*oh*ow {
		panic(fmt.Sprintf("tensor: %s mask length %d, want %d", op, len(mask), n*cout*oh*ow))
	}
	return
}

// ConvReLUAvgPoolInto computes AvgPool2D(ReLU(Conv2D(x, k, bias)), ph, pw)
// for a stride-1 spec into out (N,Cout,OH/ph,OW/pw), overwriting it, and
// records in mask (N·Cout·OH·OW, overwritten) which convolution outputs
// were positive: what ConvReLUAvgPoolBackwardInto needs of this pass.
func ConvReLUAvgPoolInto(out *Tensor, mask []bool, x, k *Tensor, bias []float64, spec Conv2DSpec, ph, pw int) {
	n, cin, h, w, cout, kh, kw, oh, ow := convPoolGeometry(out, mask, x, k, bias, spec, ph, pw, "ConvReLUAvgPoolInto")
	xd, kd, od := x.data, k.data, out.data
	blk := cout * oh * ow
	pooled := blk / (ph * pw)
	// Per shard: one sample's convolution output, then the start row.
	scratch := getSlice(NumShards * (blk + ow))
	defer putSlice(scratch)
	ParallelFor(n, 2*cout*cin*kh*kw*oh*ow, func(shard, stride int) {
		conv := scratch[shard*(blk+ow):][:blk]
		start := scratch[shard*(blk+ow)+blk:][:ow]
		for ni := shard; ni < n; ni += stride {
			convSampleRows(xd, kd, conv, bias, start, ni, 0, cin, cout, h, w, kh, kw, oh, ow, spec.PadH, spec.PadW)
			reluAvgPoolSample(od[ni*pooled:][:pooled], mask[ni*blk:][:blk], conv, ow, ph, pw)
		}
	})
}

// reluAvgPoolSample is the forward epilogue over one sample's maps, rows
// of ow: the sign of every element into mask, the mean of every window's
// ReLU outputs into out.
func reluAvgPoolSample(out []float64, mask []bool, conv []float64, ow, ph, pw int) {
	inv := 1.0 / float64(ph*pw)
	for y := 0; y*ow < len(conv); y += ph { // the maps' rows run on: oh is a multiple of ph
		for x := 0; x < ow; x += pw {
			acc := 0.0
			for dy := 0; dy < ph; dy++ {
				at := (y+dy)*ow + x
				signs := mask[at:][:pw]
				for dx, v := range conv[at:][:pw] {
					pos := v > 0 // false for NaN, like ReLU's own test
					signs[dx] = pos
					if pos {
						acc += v
					}
				}
			}
			out[(y/ph)*(ow/pw)+x/pw] = acc * inv
		}
	}
}

// ConvReLUAvgPoolBackwardInto ACCUMULATES into gradK and gradBias the
// gradients of a ConvReLUAvgPoolInto call on x that filled mask, given the
// upstream gradient gradOut (N,Cout,OH/ph,OW/pw): the same contract, shard
// partials and bits as Conv2DBackwardInto with a nil gradX. There is no
// input gradient: the chain is an input layer.
func ConvReLUAvgPoolBackwardInto(gradK *Tensor, gradBias []float64, x *Tensor, mask []bool, gradOut *Tensor, spec Conv2DSpec, ph, pw int) {
	const op = "ConvReLUAvgPoolBackwardInto"
	n, cin, h, w, cout, kh, kw, oh, ow := convPoolGeometry(gradOut, mask, x, gradK, nil, spec, ph, pw, op)
	if len(gradBias) != cout {
		panic(fmt.Sprintf("tensor: %s gradBias length %d != Cout %d", op, len(gradBias), cout))
	}
	xd, god := x.data, gradOut.data
	blk := cout * oh * ow
	pooled := blk / (ph * pw)
	kSize := cout * cin * kh * kw
	// One sample's upstream map per shard, then the per-shard partials,
	// each block on cache lines of its own.
	upStride, pStride := shardStride(blk), shardStride(kSize+cout)
	scratch := getSlice(NumShards * (upStride + pStride))
	defer putSlice(scratch)
	ups, partials := scratch[:NumShards*upStride], scratch[NumShards*upStride:]
	clear(partials)

	ParallelFor(n, 4*kSize*oh*ow, func(shard, stride int) {
		up := ups[shard*upStride:][:blk]
		gkd := partials[shard*pStride:][:kSize]
		gbd := partials[shard*pStride+kSize:][:cout]
		for ni := shard; ni < n; ni += stride {
			maskedUnpoolSample(up, mask[ni*blk:][:blk], god[ni*pooled:][:pooled], ow, ph, pw)
			convGradKSampleRows(xd, up, gkd, gbd, ni, 0, cin, cout, h, w, kh, kw, oh, ow, spec.PadH, spec.PadW)
		}
	})
	foldShardPartials(gradK.data, gradBias, partials, pStride)
}

// maskedUnpoolSample rebuilds one sample's gradient with respect to the
// convolution output: every window's g/(ph·pw) where the output was
// positive, +0 where ReLU clipped it.
func maskedUnpoolSample(up []float64, mask []bool, g []float64, ow, ph, pw int) {
	inv := 1.0 / float64(ph*pw)
	for y := 0; y*ow < len(up); y += ph {
		for x := 0; x < ow; x += pw {
			gv := g[(y/ph)*(ow/pw)+x/pw] * inv
			for dy := 0; dy < ph; dy++ {
				at := (y+dy)*ow + x
				dst := up[at:][:pw]
				for dx, pos := range mask[at:][:pw] {
					if pos {
						dst[dx] = gv
					} else {
						dst[dx] = 0
					}
				}
			}
		}
	}
}
