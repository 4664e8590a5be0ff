package tensor

import "math"

// LSTMGates applies the gate epilogue of one LSTM step to one batch row.
// z holds the row's pre-activations [i f g o], each H = len(c) wide, and
// is overwritten with the activated gates; c is the cell entering the
// step. It writes
//
//	i, f, o = σ(z) = 1/(1+exp(−z)),  g = tanh(z)
//	cNew = f·c + i·g,  tc = tanh(cNew),  h = o·tc
//
// with math.Exp and math.Tanh's own arithmetic. The AVX2 kernel runs four
// columns at a time where math.Exp takes the same path as its vector
// exp (expOK); a group of four with an exp argument outside [−708, 709],
// NaN and ±Inf included, is handed back untouched and finished here, as
// are the columns past the last whole group.
func LSTMGates(z, c, cNew, tc, h []float64) {
	hid := len(c)
	z, cNew, tc, h = z[:4*hid], cNew[:hid], tc[:hid], h[:hid]
	j := 0
	if expOK && useAVX2.Load() {
		for j = lstmGatesAVX2(z, c, cNew, tc, h, 0); j < hid&^3; j = lstmGatesAVX2(z, c, cNew, tc, h, j+4) {
			lstmGateCols(z, c, cNew, tc, h, j, j+4)
		}
	}
	lstmGateCols(z, c, cNew, tc, h, j, hid)
}

// lstmGateCols is LSTMGates' Go loop over columns [lo, hi): the fallback
// and the AVX2 kernel's oracle.
func lstmGateCols(z, c, cNew, tc, h []float64, lo, hi int) {
	hid := len(c)
	for j := lo; j < hi; j++ {
		iv := sigmoid(z[j])
		fv := sigmoid(z[hid+j])
		gv := math.Tanh(z[2*hid+j])
		ov := sigmoid(z[3*hid+j])
		cv := fv*c[j] + iv*gv
		tcv := math.Tanh(cv)
		z[j], z[hid+j], z[2*hid+j], z[3*hid+j] = iv, fv, gv, ov
		cNew[j], tc[j] = cv, tcv
		h[j] = ov * tcv
	}
}

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

// LSTMGateGrads is the gate-derivative block of one LSTM backward step
// for one batch row. g holds the activated gates [i f g o] of the step
// (4H), tc the tanh of the cell leaving it and cPrev the cell entering it,
// dh the gradient of the hidden state leaving it; dc, the cell gradient,
// is updated in place to the one carried to the step before. It writes
// the pre-activation gradients dz (4H):
//
//	dc' = dc + dh·o·(1−tc²)
//	dz = [dc'·g·i·(1−i), dc'·cPrev·f·(1−f), dc'·i·(1−g²), dh·tc·o·(1−o)]
//	dc ← dc'·f
//
// Only multiplies and subtractions, so the AVX2 kernel takes every column
// it can, its operands in the order the Go loop compiles them.
func LSTMGateGrads(dz, g, tc, cPrev, dh, dc []float64) {
	hid := len(dh)
	dz, g, tc, cPrev, dc = dz[:4*hid], g[:4*hid], tc[:hid], cPrev[:hid], dc[:hid]
	j := 0
	if useAVX2.Load() {
		j = hid &^ 3
		lstmGateGradsAVX2(dz, g, tc, cPrev, dh, dc)
	}
	lstmGateGradCols(dz, g, tc, cPrev, dh, dc, j)
}

// lstmGateGradCols is LSTMGateGrads' Go loop from column lo on: the
// fallback and the AVX2 kernel's oracle.
func lstmGateGradCols(dz, g, tc, cPrev, dh, dc []float64, lo int) {
	hid := len(dh)
	for j := lo; j < hid; j++ {
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
}
