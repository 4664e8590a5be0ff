package tensor

import "fmt"

// The fused UE kernels: stride-1 convolution, ReLU and non-overlapping
// average pooling in one pass per output row, and the kernel- and
// bias-gradient of that chain. They compute what Conv2DInto → ReLU →
// AvgPool2DInto and AvgPool2DBackwardInto → ReLU' → Conv2DBackwardInto
// (nil gradX) compute, bit for bit, without the four full-resolution
// tensors in between: all that survives the forward pass is the pooled
// output and one bool per convolution output, "was it positive".
//
// Frames are read where they lie. Both kernels take a frame store
// (F,Cin,H,W) and an index from sample to frame: sample i is frame
// idx[i], so a batch of overlapping sequences reads each frame from the
// store instead of from a copied stack, and a caller that holds a stack
// passes the identity index. A frame may appear under any number of
// samples, in any order.
//
// Pinned orders. Each output row is computed by convOutRow into a
// per-shard row, so each element has Conv2DDirect's chain. The row's
// ReLU, signs and window sums follow at once, while the row is in
// registers' reach: a pooling window starts at +0 and adds its ReLU
// outputs in ascending (dy, dx), AvgPool2DInto's order, then scales by
// 1/(ph·pw); a clipped element's +0 term is left out, which is exact
// because a sum of non-negative terms from +0 is never −0. The window
// sums of the rows of one band of windows are one accumulator per window,
// carried from row to row, so the order is that of the whole-block walk.
// In the backward pass each column's upstream value is mask ? g·inv : +0,
// the value ReLU' of AvgPool2DBackwardInto's output holds, formed where
// the kernel gradient reads it; the per-shard partials fold in shard
// order, exactly as in convBackward.

// convPoolGeometry validates a fused call: the convolution's geometry over
// the frame store, the index into it, the pooled tensor (output or
// upstream gradient) and the mask length. k is any tensor of the kernel's
// shape.
func convPoolGeometry(pooled *Tensor, mask []bool, frames *Tensor, idx []int32, k *Tensor, bias []float64, spec Conv2DSpec, ph, pw int, op string) (n, cin, h, w, cout, kh, kw, oh, ow int) {
	var nf int
	nf, cin, h, w, cout, kh, kw = checkConvGeometry(frames, k, bias, op)
	if !spec.unitStride() {
		panic(fmt.Sprintf("tensor: %s requires stride 1, got %+v", op, spec))
	}
	for i, f := range idx {
		if f < 0 || int(f) >= nf {
			panic(fmt.Sprintf("tensor: %s sample %d reads frame %d of a %d-frame store", op, i, f, nf))
		}
	}
	n = len(idx)
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
// for a stride-1 spec into out (N,Cout,OH/ph,OW/pw), overwriting it, where
// x holds the N = len(idx) samples frames[idx[i]] of the frame store, and
// records in mask (N·Cout·OH·OW, overwritten) which convolution outputs
// were positive: what ConvReLUAvgPoolBackwardInto needs of this pass.
func ConvReLUAvgPoolInto(out *Tensor, mask []bool, frames *Tensor, idx []int32, k *Tensor, bias []float64, spec Conv2DSpec, ph, pw int) {
	n, cin, h, w, cout, kh, kw, oh, ow := convPoolGeometry(out, mask, frames, idx, k, bias, spec, ph, pw, "ConvReLUAvgPoolInto")
	xd, kd, od := frames.data, k.data, out.data
	blk, pooled := cout*oh*ow, cout*(oh/ph)*(ow/pw)
	// Per shard: the starting row, the convolution row and the window sums
	// of one band.
	stride := shardStride(2*ow + ow/pw)
	scratch := getSlice(NumShards * stride)
	defer putSlice(scratch)
	ParallelFor(n, 2*cout*cin*kh*kw*oh*ow, func(shard, step int) {
		s := scratch[shard*stride:]
		start, row, sums := s[:ow], s[ow:2*ow], s[2*ow:][:ow/pw]
		for i := shard; i < n; i += step {
			convPoolSample(od[i*pooled:][:pooled], mask[i*blk:][:blk], xd, kd, bias, start, row, sums,
				int(idx[i]), cin, cout, h, w, kh, kw, oh, ow, spec.PadH, spec.PadW, ph, pw)
		}
	})
}

// convPoolSample is the forward pass of one sample, frame f of xd, into its
// pooled maps out and its signs.
func convPoolSample(out []float64, signs []bool, xd, kd, bias, start, row, sums []float64, f, cin, cout, h, w, kh, kw, oh, ow, padH, padW, ph, pw int) {
	inv := 1.0 / float64(ph*pw)
	nh, nw := oh/ph, ow/pw
	for co := 0; co < cout; co++ {
		fillBias(start, bias, co)
		for by := 0; by < nh; by++ { // one band of windows, ph rows
			clear(sums)
			for oy := by * ph; oy < (by+1)*ph; oy++ {
				convOutRow(row, start, xd, kd, f, co, oy, cin, h, w, kh, kw, padH, padW)
				reluPoolRow(sums, signs[(co*oh+oy)*ow:][:ow], row, pw)
			}
			maps := out[(co*nh+by)*nw:][:nw]
			for x, acc := range sums {
				maps[x] = acc * inv
			}
		}
	}
}

// reluPoolRow is the forward epilogue of one convolution row: the sign of
// every element into signs, its ReLU output into the sum of its window,
// sums[x] for the pw columns from x·pw.
func reluPoolRow(sums []float64, signs []bool, row []float64, pw int) {
	for x := range sums {
		acc := sums[x]
		sg := signs[x*pw:][:pw]
		for dx, v := range row[x*pw:][:pw] {
			pos := v > 0 // false for NaN, like ReLU's own test
			sg[dx] = pos
			if pos {
				acc += v
			}
		}
		sums[x] = acc
	}
}

// ConvReLUAvgPoolBackwardInto ACCUMULATES into gradK and gradBias the
// gradients of a ConvReLUAvgPoolInto call on the same frames and index
// that filled mask, given the upstream gradient gradOut
// (N,Cout,OH/ph,OW/pw): the same contract, shard partials and bits as
// Conv2DBackwardInto with a nil gradX on the unpooled, masked gradient.
// There is no input gradient: the chain is an input layer.
func ConvReLUAvgPoolBackwardInto(gradK *Tensor, gradBias []float64, frames *Tensor, idx []int32, mask []bool, gradOut *Tensor, spec Conv2DSpec, ph, pw int) {
	const op = "ConvReLUAvgPoolBackwardInto"
	n, cin, h, w, cout, kh, kw, oh, ow := convPoolGeometry(gradOut, mask, frames, idx, gradK, nil, spec, ph, pw, op)
	if len(gradBias) != cout {
		panic(fmt.Sprintf("tensor: %s gradBias length %d != Cout %d", op, len(gradBias), cout))
	}
	xd, god := frames.data, gradOut.data
	blk, pooled := cout*oh*ow, cout*(oh/ph)*(ow/pw)
	kSize := cout * cin * kh * kw
	// Per shard, on cache lines of its own: the kernel and bias partials
	// (foldShardPartials reads them there), then one row of upstream
	// values and the scaled gradients of one band of windows.
	stride := shardStride(kSize + cout + ow + ow/pw)
	scratch := getSlice(NumShards * stride)
	defer putSlice(scratch)
	clear(scratch)

	ParallelFor(n, 4*kSize*oh*ow, func(shard, step int) {
		s := scratch[shard*stride:]
		gkd, gbd := s[:kSize], s[kSize:][:cout]
		grow, gw := s[kSize+cout:][:ow], s[kSize+cout+ow:][:ow/pw]
		for i := shard; i < n; i += step {
			convPoolGradSample(gkd, gbd, grow, gw, xd, god[i*pooled:][:pooled], mask[i*blk:][:blk],
				int(idx[i]), cin, cout, h, w, kh, kw, oh, ow, spec.PadH, spec.PadW, ph, pw)
		}
	})
	foldShardPartials(gradK.data, gradBias, scratch, stride)
}

// convPoolGradSample accumulates one sample's kernel- and bias-gradient
// contributions into the shard partials gkd/gbd: frame f of xd against
// the sample's pooled gradient g and signs. Output rows run outermost, so
// every accumulator takes its terms in ascending (oy, ox) and the bias
// chain runs in the first input channel's walk, as in convGradK3SampleRows.
// Where convPoolGradK3AVX2 takes a row it selects each column's upstream
// value itself; elsewhere the row of values is written to grow for
// convRowGradK. gw holds one band's g·inv, a value per window.
func convPoolGradSample(gkd, gbd, grow, gw, xd, g []float64, signs []bool, f, cin, cout, h, w, kh, kw, oh, ow, padH, padW, ph, pw int) {
	inv := 1.0 / float64(ph*pw)
	nh, nw := oh/ph, ow/pw
	three := kh == 3 && kw == 3 && same3(ow, w, padW)
	var acc [12]float64 // a 3×3 kernel's rows, lane 3 of each scratch
	for co := 0; co < cout; co++ {
		b := gbd[co]
		for ci := 0; ci < cin; ci++ {
			gk := gkd[(co*cin+ci)*kh*kw:][:kh*kw]
			rows, rs := gk, kw // kernel row ky is rows[ky·rs:][:kw]
			if three {
				copy(acc[0:3], gk[0:3])
				copy(acc[4:7], gk[3:6])
				copy(acc[8:11], gk[6:9])
				rows, rs = acc[:], 4
			}
			img := xd[(f*cin+ci)*h*w:][:h*w]
			for by := 0; by < nh; by++ { // one band of windows, ph rows
				for x, gv := range g[(co*nh+by)*nw:][:nw] {
					gw[x] = gv * inv
				}
				for oy := by * ph; oy < (by+1)*ph; oy++ {
					m := signs[(co*oh+oy)*ow:][:ow]
					iy := oy - padH // the input row under kernel row 0
					if three && iy >= 0 && iy+3 <= h {
						bi := convPoolGradK3AVX2(&acc, m, gw, pw, img[iy*w:][:w], img[(iy+1)*w:][:w], img[(iy+2)*w:][:w], b)
						if ci == 0 {
							b = bi
						}
						continue
					}
					for o, pos := range m {
						grow[o] = 0
						if pos {
							grow[o] = gw[o/pw]
						}
					}
					for ky := max(0, -iy); ky < min(kh, h-iy); ky++ {
						convRowGradK(rows[ky*rs:][:kw], grow, img[(iy+ky)*w:][:w], -padW)
					}
					if ci == 0 {
						b = sumInto(b, grow)
					}
				}
			}
			if three {
				copy(gk[0:3], acc[0:3])
				copy(gk[3:6], acc[4:7])
				copy(gk[6:9], acc[8:11])
			}
		}
		gbd[co] = b
	}
}
