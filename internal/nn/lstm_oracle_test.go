package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/tensor"
)

// lstmOracle is the per-timestep formulation the LSTM had before it
// walked the sequence row by row: one (N, ·) matrix per step and per
// gate, whole-batch products written as plain triple loops (none of the
// tensor package's kernels), parameter gradients through a temporary per
// step. It anchors the row walk the way Conv2DDirect anchors the
// convolution's row kernels: the layer must equal it bit for bit.
type lstmOracle struct {
	wx, wh, b       []float64 // values, shared with the layer under test
	wxg, whg, bg    []float64 // own accumulators
	d, hid          int
	n, T            int
	xs, hs, cs      [][]float64
	gi, gf, gg, go_ [][]float64
	tanhC           [][]float64
}

func newLSTMOracle(l *LSTM) *lstmOracle {
	return &lstmOracle{
		wx: l.Wx.Value.Data(), wh: l.Wh.Value.Data(), b: l.B.Value.Data(),
		wxg: make([]float64, l.Wx.Grad.Size()), whg: make([]float64, l.Wh.Grad.Size()),
		bg: make([]float64, l.B.Grad.Size()),
		d:  l.InDim, hid: l.Hidden,
	}
}

// oracleMatMul returns a·b for a (m×k) and b (k×n): ascending p from zero,
// a zero a[i,p] skipped.
func oracleMatMul(a, b []float64, m, k, n int) []float64 {
	out := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				if av := a[i*k+p]; av != 0 {
					s += av * b[p*n+j]
				}
			}
			out[i*n+j] = s
		}
	}
	return out
}

// oracleMatMulTransA returns aᵀ·b for a (k×m) and b (k×n), same order and
// skip rule.
func oracleMatMulTransA(a, b []float64, k, m, n int) []float64 {
	out := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				if av := a[p*m+i]; av != 0 {
					s += av * b[p*n+j]
				}
			}
			out[i*n+j] = s
		}
	}
	return out
}

// oracleMatMulTransB returns a·bᵀ for a (m×k) and b (n×k): ascending p from
// zero, nothing skipped.
func oracleMatMulTransB(a, b []float64, m, k, n int) []float64 {
	out := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[j*k+p]
			}
			out[i*n+j] = s
		}
	}
	return out
}

func (o *lstmOracle) forward(x *tensor.Tensor) []float64 {
	n, T, d, hid := x.Dim(0), x.Dim(1), o.d, o.hid
	o.n, o.T = n, T
	steps := func(count int) [][]float64 { return make([][]float64, count) }
	o.xs, o.hs, o.cs = steps(T), steps(T+1), steps(T+1)
	o.gi, o.gf, o.gg, o.go_, o.tanhC = steps(T), steps(T), steps(T), steps(T), steps(T)
	o.hs[0], o.cs[0] = make([]float64, n*hid), make([]float64, n*hid)
	for t := 0; t < T; t++ {
		xt := make([]float64, n*d)
		for i := 0; i < n; i++ {
			copy(xt[i*d:(i+1)*d], x.Data()[(i*T+t)*d:])
		}
		o.xs[t] = xt
		z := oracleMatMul(xt, o.wx, n, d, 4*hid)
		z2 := oracleMatMul(o.hs[t], o.wh, n, hid, 4*hid)
		for k := range z {
			z[k] += z2[k]
		}
		for i := 0; i < n; i++ {
			for j := 0; j < 4*hid; j++ {
				z[i*4*hid+j] += o.b[j]
			}
		}
		mk := func() []float64 { return make([]float64, n*hid) }
		o.gi[t], o.gf[t], o.gg[t], o.go_[t] = mk(), mk(), mk(), mk()
		o.cs[t+1], o.hs[t+1], o.tanhC[t] = mk(), mk(), mk()
		for i := 0; i < n; i++ {
			zrow := z[i*4*hid : (i+1)*4*hid]
			for j := 0; j < hid; j++ {
				iv := sigmoid(zrow[j])
				fv := sigmoid(zrow[hid+j])
				gv := math.Tanh(zrow[2*hid+j])
				ov := sigmoid(zrow[3*hid+j])
				k := i*hid + j
				cv := fv*o.cs[t][k] + iv*gv
				tcv := math.Tanh(cv)
				o.gi[t][k], o.gf[t][k], o.gg[t][k], o.go_[t][k] = iv, fv, gv, ov
				o.cs[t+1][k], o.tanhC[t][k] = cv, tcv
				o.hs[t+1][k] = ov * tcv
			}
		}
	}
	return o.hs[T]
}

func (o *lstmOracle) backward(grad *tensor.Tensor) []float64 {
	n, T, d, hid := o.n, o.T, o.d, o.hid
	dx := make([]float64, n*T*d)
	dh := append([]float64(nil), grad.Data()...)
	dc := make([]float64, n*hid)
	for t := T - 1; t >= 0; t-- {
		dz := make([]float64, n*4*hid)
		for i := 0; i < n; i++ {
			for j := 0; j < hid; j++ {
				k := i*hid + j
				iv, fv, gv, ov := o.gi[t][k], o.gf[t][k], o.gg[t][k], o.go_[t][k]
				tcv := o.tanhC[t][k]
				dhv := dh[k]
				dcv := dc[k] + dhv*ov*(1-tcv*tcv)
				do := dhv * tcv
				di := dcv * gv
				df := dcv * o.cs[t][k]
				dg := dcv * iv
				zrow := dz[i*4*hid : (i+1)*4*hid]
				zrow[j] = di * iv * (1 - iv)
				zrow[hid+j] = df * fv * (1 - fv)
				zrow[2*hid+j] = dg * (1 - gv*gv)
				zrow[3*hid+j] = do * ov * (1 - ov)
				dc[k] = dcv * fv
			}
		}
		for k, v := range oracleMatMulTransA(o.xs[t], dz, n, d, 4*hid) {
			o.wxg[k] += v
		}
		for k, v := range oracleMatMulTransA(o.hs[t], dz, n, hid, 4*hid) {
			o.whg[k] += v
		}
		for i := 0; i < n; i++ {
			for j := 0; j < 4*hid; j++ {
				o.bg[j] += dz[i*4*hid+j]
			}
		}
		dxt := oracleMatMulTransB(dz, o.wx, n, 4*hid, d)
		for i := 0; i < n; i++ {
			copy(dx[(i*T+t)*d:(i*T+t+1)*d], dxt[i*d:])
		}
		dh = oracleMatMulTransB(dz, o.wh, n, 4*hid, hid)
	}
	return dx
}

func sliceBitsEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d differs: %x (%g) != %x (%g)", name, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// sameWeights returns a fresh layer (no scratch, zero gradients) over
// ref's parameter values.
func sameWeights(ref *LSTM) *LSTM {
	return &LSTM{
		Wx: NewParam(ref.Wx.Name, ref.Wx.Value), Wh: NewParam(ref.Wh.Name, ref.Wh.Value),
		B: NewParam(ref.B.Name, ref.B.Value), InDim: ref.InDim, Hidden: ref.Hidden,
	}
}

// sparseSeq draws a tensor with a fifth of its entries zeroed, so that the
// products' skip rule and the sign of an all-skipped sum are exercised.
func sparseSeq(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.Randn(rng, 1, shape...)
	for i := range x.Data() {
		if rng.Intn(5) == 0 {
			x.Data()[i] = 0
		}
	}
	return x
}

// TestLSTMMatchesPerTimestepOracle: output, input gradient and the three
// parameter gradients of the row-walking LSTM equal the per-timestep
// oracle's by Float64bits, at the paper's shapes (one pixel + RF, 10×10
// pixels + RF, RF only) and at small odd ones, with zeros in the inputs,
// over three steps that accumulate into the same gradients, for every
// worker count.
func TestLSTMMatchesPerTimestepOracle(t *testing.T) {
	defer tensor.SetWorkers(0)
	for _, c := range [][4]int{{64, 4, 2, 32}, {64, 4, 101, 32}, {64, 4, 1, 32}, {7, 3, 5, 6}, {1, 1, 1, 1}, {9, 5, 3, 7}} {
		n, T, d, hid := c[0], c[1], c[2], c[3]
		t.Run(fmt.Sprintf("N%d_T%d_D%d_H%d", n, T, d, hid), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000*n + d)))
			ref := NewLSTM(rng, d, hid)
			// The accumulators start at -0: adding the all-zero sum of the
			// h_{-1} step turns that into +0, leaving the step out would not.
			negZero := math.Copysign(0, -1)
			oracle := newLSTMOracle(ref)
			for _, g := range [][]float64{oracle.wxg, oracle.whg, oracle.bg} {
				for i := range g {
					g[i] = negZero
				}
			}
			const steps = 3
			var xs, grads [steps]*tensor.Tensor
			var outs, dxs, wxg, whg, bg [steps][]float64
			for s := 0; s < steps; s++ {
				xs[s], grads[s] = sparseSeq(rng, n, T, d), sparseSeq(rng, n, hid)
				outs[s] = append([]float64(nil), oracle.forward(xs[s])...)
				dxs[s] = oracle.backward(grads[s])
				wxg[s] = append([]float64(nil), oracle.wxg...)
				whg[s] = append([]float64(nil), oracle.whg...)
				bg[s] = append([]float64(nil), oracle.bg...)
			}
			for w := 1; w <= tensor.NumShards; w++ {
				tensor.SetWorkers(w)
				l := sameWeights(ref)
				for _, p := range l.Params() {
					p.Grad.Fill(negZero)
				}
				for s := 0; s < steps; s++ {
					name := fmt.Sprintf("workers %d step %d", w, s)
					sliceBitsEqual(t, name+" output", l.Forward(xs[s]).Data(), outs[s])
					sliceBitsEqual(t, name+" dx", l.Backward(grads[s]).Data(), dxs[s])
					sliceBitsEqual(t, name+" Wx.Grad", l.Wx.Grad.Data(), wxg[s])
					sliceBitsEqual(t, name+" Wh.Grad", l.Wh.Grad.Data(), whg[s])
					sliceBitsEqual(t, name+" B.Grad", l.B.Grad.Data(), bg[s])
				}
			}
		})
	}
}

// TestLSTMWorkerCountInvariance: a forward/backward pass wide enough to
// fan out gives the same bits on every worker-pool size (the LSTM's part
// of the tensor package's TestWorkerCountInvariance).
func TestLSTMWorkerCountInvariance(t *testing.T) {
	defer tensor.SetWorkers(0)
	rng := rand.New(rand.NewSource(37))
	ref := NewLSTM(rng, 17, 12)
	x, grad := tensor.Randn(rng, 1, 33, 5, 17), tensor.Randn(rng, 1, 33, 12)
	run := func() (out, dx, wx, wh, b []float64) {
		l := sameWeights(ref)
		out = append(out, l.Forward(x).Data()...)
		dx = l.Backward(grad).Data()
		return out, dx, l.Wx.Grad.Data(), l.Wh.Grad.Data(), l.B.Grad.Data()
	}
	tensor.SetWorkers(1)
	out1, dx1, wx1, wh1, b1 := run()
	for _, w := range []int{2, 3, 4, 5, 6, 7, 8, runtime.NumCPU()} {
		tensor.SetWorkers(w)
		out, dx, wx, wh, b := run()
		sliceBitsEqual(t, "output", out, out1)
		sliceBitsEqual(t, "dx", dx, dx1)
		sliceBitsEqual(t, "Wx.Grad", wx, wx1)
		sliceBitsEqual(t, "Wh.Grad", wh, wh1)
		sliceBitsEqual(t, "B.Grad", b, b1)
	}
}

// allocatedBytes reports the heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLSTMScratchGrowOnly: a ragged evaluation batch between two training
// batches lives in a prefix of the same buffer. Training on 64 rows, evaluating
// 10, training on 64 again keeps the buffer, allocates no more than the
// re-headered output the second time, and ends in the bits fresh layers
// compute.
func TestLSTMScratchGrowOnly(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1) // no fan-out objects in the byte count
	rng := rand.New(rand.NewSource(41))
	const T, d, hid = 4, 2, 32
	ref := NewLSTM(rng, d, hid)
	fresh := func() *LSTM { return sameWeights(ref) }
	x1, g1 := tensor.Randn(rng, 1, 64, T, d), tensor.Randn(rng, 1, 64, hid)
	xe := tensor.Randn(rng, 1, 10, T, d)
	x2, g2 := tensor.Randn(rng, 1, 64, T, d), tensor.Randn(rng, 1, 64, hid)

	l := fresh()
	l.Forward(x1)
	l.Backward(g1)
	buf := &l.buf.Data()[0]
	eval := append([]float64(nil), l.Forward(xe).Data()...)
	if &l.buf.Data()[0] != buf {
		t.Fatal("a smaller batch rebuilt the scratch buffer")
	}
	var out, dx []float64
	if got := allocatedBytes(func() {
		out = l.Forward(x2).Data()
		dx = l.Backward(g2).Data()
	}); got > 1<<10 {
		t.Fatalf("training step after a ragged evaluation allocated %d bytes", got)
	}
	if &l.buf.Data()[0] != buf {
		t.Fatal("returning to the training batch rebuilt the scratch buffer")
	}

	// Three fresh layers: a trains on both batches with no evaluation in
	// between (the accumulated gradients), b evaluates, c sees only the
	// second training batch.
	a, b, c := fresh(), fresh(), fresh()
	a.Forward(x1)
	a.Backward(g1)
	a.Forward(x2)
	a.Backward(g2)
	sliceBitsEqual(t, "evaluation output", eval, b.Forward(xe).Data())
	sliceBitsEqual(t, "output", out, c.Forward(x2).Data())
	sliceBitsEqual(t, "dx", dx, c.Backward(g2).Data())
	for i, p := range l.Params() {
		sliceBitsEqual(t, p.Name+".Grad", p.Grad.Data(), a.Params()[i].Grad.Data())
	}
}

// TestReleasedScratchServesNextModel: a model whose scratch was released
// leaves its large buffers in the shared pool, and the next model of the
// same shape takes them up instead of allocating its own beside fresh
// garbage: the second session allocates no new large buffer. The model
// is the UE half at paper size, four 3.3 MB buffers.
func TestReleasedScratchServesNextModel(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection would empty the pool
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))  // and a Put on one P is not a Get's to take on another
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1) // every Get and Put on the calling goroutine
	rng := rand.New(rand.NewSource(43))
	x, grad := tensor.Randn(rng, 1, 256, 1, 40, 40), tensor.Ones(256, 1, 1, 1)
	session := func() *Sequential {
		conv := NewConv2DSame(rng, 1, 1, 3)
		conv.InputLayer = true
		net := NewSequential(conv, NewReLU(), NewAvgPool2D(40, 40))
		net.Forward(x)
		net.Backward(grad)
		return net
	}
	first := session()
	want := append([]float64(nil), first.Forward(x).Data()...)
	first.Release()
	var second *Sequential
	if got := allocatedBytes(func() { second = session() }); got > 8*(1<<16) {
		t.Fatalf("second session allocated %d bytes: a large buffer was not reused", got)
	}
	// A released model stays usable: its next Forward takes up scratch
	// again, whatever the pool's buffers hold by now.
	second.Release()
	sliceBitsEqual(t, "forward after release", first.Forward(x).Data(), want)
}
