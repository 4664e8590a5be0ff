package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// LSTM is a single-layer long short-term memory network over input
// sequences of shape (N, T, D), returning the final hidden state (N, H).
// This is the BS-side recurrent model of the paper: at each of the T = L
// time steps it consumes the concatenation of the pooled CNN output pixels
// and the RF received power, and its final state drives the regression
// head that predicts the future received power.
//
// Gate layout in the packed weight matrices is [input, forget, cell, output].
//
// Inside the recurrence every batch row is independent of every other, at
// every step and in both directions; only the parameter gradients reduce
// across rows. Forward is therefore one fan-out in which each row walks
// t = 0…T−1 by itself, and Backward is two: each row walks t = T−1…0
// leaving its pre-activation gradients behind, then each parameter row
// sums over the batch, step by step.
type LSTM struct {
	Wx *Param // (D, 4H)
	Wh *Param // (H, 4H)
	B  *Param // (1, 4H)

	InDim, Hidden int

	// BPTT caches of the latest Forward, carved out of one grow-only
	// buffer: a smaller batch or a shorter sequence reuses it. All are
	// time-major, step t of batch row i at [(t·N+i)·width], so that one
	// step's block is the (N, width) matrix the parameter sums run over.
	batch, seqLen int
	buf           *tensor.Tensor
	xs            []float64 // (T, N, D) inputs
	hs, cs        []float64 // (T, N, H) state entering step t; step 0's is zero
	gates         []float64 // (T, N, 4H) activated gates
	tanhC         []float64 // (T, N, H) tanh of the cell leaving step t
	dz            []float64 // (T, N, 4H) pre-activation gradients; Forward's h·Wh scratch
	shard         []float64 // (NumShards, 4H) per-shard row scratch

	out, dx *tensor.Tensor
}

// NewLSTM returns an LSTM with Glorot-uniform weights and the customary
// forget-gate bias of 1 (helps gradient flow early in training).
func NewLSTM(rng *rand.Rand, inDim, hidden int) *LSTM {
	limitX := math.Sqrt(6.0 / float64(inDim+4*hidden))
	limitH := math.Sqrt(6.0 / float64(hidden+4*hidden))
	l := &LSTM{
		Wx:     NewParam("lstm.wx", tensor.RandUniform(rng, -limitX, limitX, inDim, 4*hidden)),
		Wh:     NewParam("lstm.wh", tensor.RandUniform(rng, -limitH, limitH, hidden, 4*hidden)),
		B:      NewParam("lstm.b", tensor.New(1, 4*hidden)),
		InDim:  inDim,
		Hidden: hidden,
	}
	for j := hidden; j < 2*hidden; j++ {
		l.B.Value.Set(1, 0, j) // forget gate slice
	}
	return l
}

// carve lays the caches of an (n, T) pass out over the buffer, growing it
// only when it is too small.
func (l *LSTM) carve(n, T int) {
	l.batch, l.seqLen = n, T
	d, hid := l.InDim, l.Hidden
	rows := T * n
	need := rows*(d+11*hid) + tensor.NumShards*4*hid
	if l.buf == nil || l.buf.Size() < need {
		l.buf = tensor.EnsureShape(l.buf, need)
	}
	rest := l.buf.Data()
	take := func(size int) []float64 {
		s := rest[:size:size]
		rest = rest[size:]
		return s
	}
	l.xs = take(rows * d)
	l.hs, l.cs, l.tanhC = take(rows*hid), take(rows*hid), take(rows*hid)
	l.gates, l.dz = take(rows*4*hid), take(rows*4*hid)
	l.shard = take(tensor.NumShards * 4 * hid)
}

// Forward consumes a (N, T, D) sequence and returns the final hidden state
// (N, H).
func (l *LSTM) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 3 || x.Dim(2) != l.InDim {
		panic(fmt.Sprintf("nn: LSTM input shape %v, want (N, T, %d)", x.Shape(), l.InDim))
	}
	n, T, d, hid := x.Dim(0), x.Dim(1), l.InDim, l.Hidden
	l.carve(n, T)
	l.out = tensor.EnsureShape(l.out, n, hid)
	xd, od := x.Data(), l.out.Data()
	wx, wh, bias := l.Wx.Value.Data(), l.Wh.Value.Data(), l.B.Value.Data()

	tensor.ParallelFor(n, T*8*(d+hid)*hid, func(shard, stride int) {
		for i := shard; i < n; i += stride {
			h, c := l.hs[i*hid:][:hid], l.cs[i*hid:][:hid]
			for j := range h {
				h[j], c[j] = 0, 0 // h_{-1} = c_{-1} = 0
			}
			for t := 0; t < T; t++ {
				r := t*n + i
				xt := l.xs[r*d:][:d]
				copy(xt, xd[(i*T+t)*d:])
				// z = (x·Wx + h·Wh) + b, activated in place.
				z, z2 := l.gates[r*4*hid:][:4*hid], l.dz[r*4*hid:][:4*hid]
				tensor.RowMatMul(z, xt, 1, wx)
				tensor.RowMatMul(z2, h, 1, wh)
				for j, v := range z2 {
					z[j] = (z[j] + v) + bias[j]
				}
				// The state leaving the last step is the output; its
				// cell is only needed as tanhC.
				hNew, cNew := od[i*hid:][:hid], z2[:hid]
				if t+1 < T {
					hNew, cNew = l.hs[(r+n)*hid:][:hid], l.cs[(r+n)*hid:][:hid]
				}
				tc := l.tanhC[r*hid:][:hid]
				for j := 0; j < hid; j++ {
					iv := sigmoid(z[j])
					fv := sigmoid(z[hid+j])
					gv := math.Tanh(z[2*hid+j])
					ov := sigmoid(z[3*hid+j])
					cv := fv*c[j] + iv*gv
					tcv := math.Tanh(cv)
					z[j], z[hid+j], z[2*hid+j], z[3*hid+j] = iv, fv, gv, ov
					cNew[j], tc[j] = cv, tcv
					hNew[j] = ov * tcv
				}
				h, c = hNew, cNew
			}
		}
	})
	return l.out
}

// Backward runs truncated BPTT from the gradient of the final hidden state
// (N, H) and returns the gradient with respect to the input sequence
// (N, T, D).
func (l *LSTM) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if l.buf == nil {
		panic("nn: LSTM.Backward before Forward")
	}
	n, T, d, hid := l.batch, l.seqLen, l.InDim, l.Hidden
	if grad.Rank() != 2 || grad.Dim(0) != n || grad.Dim(1) != hid {
		panic(fmt.Sprintf("nn: LSTM gradient shape %v, want (%d, %d)", grad.Shape(), n, hid))
	}
	l.dx = tensor.EnsureShape(l.dx, n, T, d)
	gd, dxd := grad.Data(), l.dx.Data()
	wx, wh := l.Wx.Value.Data(), l.Wh.Value.Data()

	// Phase 1, over batch rows: the gate derivatives of every step into
	// dz, and the input gradient.
	tensor.ParallelFor(n, T*8*(d+hid)*hid, func(shard, stride int) {
		dh, dc := l.shard[shard*4*hid:][:hid], l.shard[shard*4*hid+hid:][:hid]
		for i := shard; i < n; i += stride {
			copy(dh, gd[i*hid:])
			for j := range dc {
				dc[j] = 0
			}
			for t := T - 1; t >= 0; t-- {
				r := t*n + i
				g, dz := l.gates[r*4*hid:][:4*hid], l.dz[r*4*hid:][:4*hid]
				tc, cPrev := l.tanhC[r*hid:][:hid], l.cs[r*hid:][:hid]
				for j := 0; j < hid; j++ {
					iv, fv, gv, ov := g[j], g[hid+j], g[2*hid+j], g[3*hid+j]
					tcv := tc[j]
					dhv := dh[j]
					dcv := dc[j] + dhv*ov*(1-tcv*tcv)
					do := dhv * tcv
					di := dcv * gv
					df := dcv * cPrev[j]
					dg := dcv * iv
					dz[j] = di * iv * (1 - iv)
					dz[hid+j] = df * fv * (1 - fv)
					dz[2*hid+j] = dg * (1 - gv*gv)
					dz[3*hid+j] = do * ov * (1 - ov)
					dc[j] = dcv * fv // carried to step t-1
				}
				tensor.RowMatMulTransB(dxd[(i*T+t)*d:][:d], dz, wx)
				tensor.RowMatMulTransB(dh, dz, wh)
			}
		}
	})

	// Phase 2, over the D + H + 1 parameter rows (the bias is the last):
	// per step a fresh sum over the batch in ascending row order, then
	// added to the accumulator, steps descending. The temporary per step
	// is what keeps the accumulators' rounding: folding the batch terms
	// straight into Grad would associate differently. The zero h_{-1}
	// step adds its all-zero sum too, because -0 + 0 is not -0.
	wxg, whg, bg := l.Wx.Grad.Data(), l.Wh.Grad.Data(), l.B.Grad.Data()
	tensor.ParallelFor(d+hid+1, T*8*n*hid, func(shard, stride int) {
		sum := l.shard[shard*4*hid:][:4*hid]
		for r := shard; r <= d+hid; r += stride {
			for t := T - 1; t >= 0; t-- {
				dz := l.dz[t*n*4*hid:][:n*4*hid]
				var acc []float64
				switch {
				case r < d:
					tensor.RowMatMul(sum, l.xs[t*n*d+r:], d, dz)
					acc = wxg[r*4*hid:][:4*hid]
				case r < d+hid:
					tensor.RowMatMul(sum, l.hs[t*n*hid+r-d:], hid, dz)
					acc = whg[(r-d)*4*hid:][:4*hid]
				default:
					for i := 0; i < n; i++ {
						for j, v := range dz[i*4*hid:][:4*hid] {
							bg[j] += v
						}
					}
					continue
				}
				for j, v := range sum {
					acc[j] += v
				}
			}
		}
	})
	return l.dx
}

// Release returns the layer's scratch to the shared pool; the next
// Forward takes up new scratch.
func (l *LSTM) Release() { tensor.Release(&l.buf, &l.out, &l.dx) }

// Params returns the packed input, recurrent and bias parameters.
func (l *LSTM) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }
