package tensor

import "math"

// AdamRow applies one bias-corrected Adam update to a block of parameters
// w with gradients g and moments m and v, all of len(w). k holds β₁, 1−β₁,
// β₂, 1−β₂, the bias corrections c1 = 1−β₁ᵗ and c2 = 1−β₂ᵗ, lr and ε, in
// that order:
//
//	m ← β₁·m + (1−β₁)·g
//	v ← β₂·v + ((1−β₂)·g)·g
//	w ← w − (lr·(m/c1)) / (√(v/c2) + ε)
//
// Every element is independent, so the AVX2 kernel runs four at a time,
// each operation the Go loop's to the bit (division and square root round
// correctly under IEEE 754 in either form).
func AdamRow(w, g, m, v []float64, k *[8]float64) {
	n := len(w)
	g, m, v = g[:n], m[:n], v[:n]
	if useAVX2.Load() {
		adamAVX2(w, g, m, v, k)
		return
	}
	adamRow(w, g, m, v, k)
}

// adamRow is AdamRow's Go loop: the fallback and the AVX2 kernel's oracle.
func adamRow(w, g, m, v []float64, k *[8]float64) {
	b1, nb1, b2, nb2, c1, c2, lr, eps := k[0], k[1], k[2], k[3], k[4], k[5], k[6], k[7]
	n := len(w)
	g, m, v = g[:n], m[:n], v[:n]
	for j := range w {
		gj := g[j]
		mj := b1*m[j] + nb1*gj
		vj := b2*v[j] + nb2*gj*gj
		m[j], v[j] = mj, vj
		w[j] -= lr * (mj / c1) / (math.Sqrt(vj/c2) + eps)
	}
}
