package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/tensor"
)

// paperTensor builds a cut-layer-shaped tensor: one mini-batch of
// pooled activations at 4×4 pooling (B·L = 256 maps of 10×10).
func paperTensor(seed int64) *tensor.Tensor {
	return tensor.Randn(rand.New(rand.NewSource(seed)), 1, 256, 1, 10, 10)
}

func TestRegistry(t *testing.T) {
	if len(IDs()) != numCodecs {
		t.Fatalf("IDs() returned %d codecs", len(IDs()))
	}
	for _, id := range IDs() {
		if !id.Valid() {
			t.Fatalf("id %v not valid", id)
		}
		c, err := New(id)
		if err != nil {
			t.Fatal(err)
		}
		if c.ID() != id {
			t.Fatalf("codec %v reports id %v", id, c.ID())
		}
		parsed, err := Parse(id.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", id.String(), err)
		}
		if parsed != id {
			t.Fatalf("Parse(%q) = %v", id.String(), parsed)
		}
	}
	if ID(numCodecs).Valid() {
		t.Fatal("out-of-range id valid")
	}
	if _, err := New(ID(numCodecs)); err == nil {
		t.Fatal("New accepted unknown id")
	}
	if _, err := Parse("gzip"); err == nil {
		t.Fatal("Parse accepted unknown name")
	}
}

func TestRawBitIdentical(t *testing.T) {
	in := paperTensor(1)
	enc, err := Raw{}.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Raw{}.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shapeBytes(in), shapeBytes(out)) {
		t.Fatal("shape changed")
	}
	for i, v := range in.Data() {
		if out.Data()[i] != v {
			t.Fatalf("element %d: %g != %g", i, out.Data()[i], v)
		}
	}
}

func shapeBytes(t *tensor.Tensor) []byte {
	var b []byte
	for _, d := range t.Shape() {
		b = append(b, byte(d), byte(d>>8))
	}
	return b
}

// TestRoundTripShapes: every codec must preserve the shape and decode
// cleanly for a variety of ranks and sizes.
func TestRoundTripShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	shapes := [][]int{{1}, {7}, {3, 4}, {2, 3, 5}, {4, 1, 10, 10}, {256, 1, 1, 1}}
	for _, id := range IDs() {
		c := MustNew(id)
		for _, shape := range shapes {
			in := tensor.Randn(rng, 1, shape...)
			enc, err := c.Encode(in)
			if err != nil {
				t.Fatalf("%v %v: %v", id, shape, err)
			}
			out, err := c.Decode(enc)
			if err != nil {
				t.Fatalf("%v %v: %v", id, shape, err)
			}
			gotShape := out.Shape()
			for i, d := range in.Shape() {
				if gotShape[i] != d {
					t.Fatalf("%v: shape %v → %v", id, in.Shape(), gotShape)
				}
			}
		}
	}
}

func TestFloat16Accuracy(t *testing.T) {
	// Exactly representable halves survive the round trip bit-for-bit.
	exact := []float64{0, 1, -1, 0.5, -2.25, 1024, 65504, 6.103515625e-05}
	in := tensor.FromSlice(append([]float64(nil), exact...), len(exact))
	enc, err := Float16{}.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Float16{}.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range exact {
		if out.Data()[i] != v {
			t.Fatalf("exact value %g decoded to %g", v, out.Data()[i])
		}
	}

	// Random values: relative error ≤ 2⁻¹¹ in the normal range, plus
	// the 2⁻²⁴ absolute floor of the subnormal range.
	rng := rand.New(rand.NewSource(3))
	random := paperTensor(4)
	_ = rng
	enc, err = Float16{}.Encode(random)
	if err != nil {
		t.Fatal(err)
	}
	out, err = Float16{}.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range random.Data() {
		if err := math.Abs(out.Data()[i] - v); err > math.Abs(v)*0x1p-11+0x1p-24 {
			t.Fatalf("element %d: %g decoded to %g (err %g)", i, v, out.Data()[i], err)
		}
	}

	// Overflow saturates to Inf rather than wrapping.
	big := tensor.FromSlice([]float64{1e10, -1e10}, 2)
	enc, err = Float16{}.Encode(big)
	if err != nil {
		t.Fatal(err)
	}
	out, err = Float16{}.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(out.Data()[0], 1) || !math.IsInf(out.Data()[1], -1) {
		t.Fatalf("overflow decoded to %v", out.Data())
	}
}

func TestQuantInt8ErrorBound(t *testing.T) {
	in := paperTensor(5)
	enc, err := QuantInt8{}.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := QuantInt8{}.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	span := in.Max() - in.Min()
	bound := span / 510 * 1.01 // half a quantisation step, with slack
	for i, v := range in.Data() {
		if math.Abs(out.Data()[i]-v) > bound {
			t.Fatalf("element %d: error %g exceeds %g", i, math.Abs(out.Data()[i]-v), bound)
		}
	}
}

func TestTopKSparsification(t *testing.T) {
	vals := []float64{0.1, -5, 0.2, 4, -0.3, 3, 0.01, -2}
	in := tensor.FromSlice(append([]float64(nil), vals...), len(vals))
	c := TopK{Frac: 0.5} // keep 4 of 8
	enc, err := c.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	// The four largest magnitudes (−5, 4, 3, −2) survive at float32
	// precision; everything else is exactly zero.
	want := []float64{0, -5, 0, 4, 0, 3, 0, -2}
	for i, w := range want {
		if got := out.Data()[i]; got != w {
			t.Fatalf("element %d: got %g, want %g", i, got, w)
		}
	}
}

func TestTopKDeterministicTies(t *testing.T) {
	in := tensor.FromSlice([]float64{1, -1, 1, -1}, 4)
	c := TopK{Frac: 0.5}
	a, err := c.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("identical tensors encoded differently")
	}
	out, err := c.Decode(a)
	if err != nil {
		t.Fatal(err)
	}
	// Ties break toward the lower index: positions 0 and 1 survive.
	want := []float64{1, -1, 0, 0}
	for i, w := range want {
		if out.Data()[i] != w {
			t.Fatalf("tie break: got %v, want %v", out.Data(), want)
		}
	}
}

func TestBitsModels(t *testing.T) {
	in := paperTensor(6) // 25600 elements
	n := in.Size()
	cases := []struct {
		codec Codec
		want  int
	}{
		{Raw{}, n * 32},
		{Raw{ModelBits: 64}, n * 64},
		{Float16{}, n * 16},
		{QuantInt8{}, n*8 + 128},
		{TopK{}, 32 + 64*3200},
		{TopK{Frac: 1}, 32 + 64*n},
	}
	for _, c := range cases {
		if got := c.codec.Bits(in); got != c.want {
			t.Fatalf("%v Bits = %d, want %d", c.codec.ID(), got, c.want)
		}
	}
	// The default lossy codecs must all undercut Raw's paper payload.
	for _, id := range []ID{CodecFloat16, CodecQuantInt8, CodecTopK} {
		if got := MustNew(id).Bits(in); got >= (Raw{}).Bits(in) {
			t.Fatalf("%v Bits %d not below Raw %d", id, got, (Raw{}).Bits(in))
		}
	}
}

// TestDecodeRejectsCorruption mutates valid payloads and truncations;
// Decode must return ErrCorrupt-style errors, never panic, and never
// accept structurally inconsistent bytes.
func TestDecodeRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := tensor.Randn(rng, 1, 3, 4)
	for _, id := range IDs() {
		c := MustNew(id)
		enc, err := c.Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		// Truncations at every length must fail (except the full payload).
		for cut := 0; cut < len(enc); cut++ {
			if _, err := c.Decode(enc[:cut]); err == nil {
				t.Fatalf("%v accepted truncation to %d bytes", id, cut)
			}
		}
		// Trailing garbage must fail.
		if _, err := c.Decode(append(append([]byte(nil), enc...), 0xAA)); err == nil {
			t.Fatalf("%v accepted trailing garbage", id)
		}
		// Random mutations must never panic.
		for trial := 0; trial < 500; trial++ {
			mut := append([]byte(nil), enc...)
			mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%v panicked on mutation: %v", id, r)
					}
				}()
				_, _ = c.Decode(mut)
			}()
		}
	}
	// A codec must refuse every other codec's encoding of the same
	// tensor: the BS checks a frame's codec tag, so a payload that
	// decodes under the wrong codec would smuggle lossy values past it.
	// One pair is ambiguous in the formats themselves: a float16 body is
	// any 2·size bytes, so float16 accepts a top-k payload of exactly
	// that length (4 + 8k = 2·size, sizes 6 and 10 at the default
	// fraction). Shape {2, 1, 5} pins that exception; every other pair
	// must refuse.
	for _, shape := range [][]int{{1}, {3, 4}, {2, 1, 5}, {16, 1, 1, 1}} {
		x := tensor.Randn(rng, 1, shape...)
		for _, from := range IDs() {
			enc, err := MustNew(from).Encode(x)
			if err != nil {
				t.Fatal(err)
			}
			for _, to := range IDs() {
				if to == from {
					continue
				}
				c := MustNew(to)
				if from == CodecTopK && to == CodecFloat16 && len(enc) == 1+4*len(shape)+2*x.Size() {
					if _, err := c.Decode(enc); err != nil {
						t.Errorf("same-length top-k payload of shape %v: err = %v, want the known float16 ambiguity", shape, err)
					}
					continue
				}
				if _, err := c.Decode(enc); !errors.Is(err, ErrCorrupt) {
					t.Errorf("%v.Decode accepted a %v payload of shape %v: err = %v", to, from, shape, err)
				}
				dst := tensor.New(shape...)
				if _, err := c.DecodeInto(dst, enc); !errors.Is(err, ErrCorrupt) {
					t.Errorf("%v.DecodeInto accepted a %v payload of shape %v: err = %v", to, from, shape, err)
				}
			}
		}
	}
}

// TestTopKRejectsDecompressionBomb: a tiny payload must not be able to
// declare a huge dense shape — the expansion from stored pairs to the
// decoded tensor is capped, so allocation stays proportional to the
// payload.
func TestTopKRejectsDecompressionBomb(t *testing.T) {
	// rank 2, shape 16384×16384 (2^28 elements, within readShapeBuf's
	// absolute bound), k = 1, one pair: a ~45-byte bomb.
	bomb := []byte{2}
	bomb = binary.BigEndian.AppendUint32(bomb, 16384)
	bomb = binary.BigEndian.AppendUint32(bomb, 16384)
	bomb = binary.BigEndian.AppendUint32(bomb, 1)          // k
	bomb = binary.BigEndian.AppendUint32(bomb, 0)          // index
	bomb = binary.BigEndian.AppendUint32(bomb, 0x3F800000) // value 1.0f
	if _, err := (TopK{}).Decode(bomb); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bomb payload: err = %v, want ErrCorrupt", err)
	}
}

// TestTopKEncodeSelectsExactly cross-checks the quickselect path
// against a straightforward sort over random tensors, including heavy
// magnitude ties and constant (all-equal) data.
func TestTopKEncodeSelectsExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	build := func(n int, gen func(i int) float64) *tensor.Tensor {
		data := make([]float64, n)
		for i := range data {
			data[i] = gen(i)
		}
		return tensor.FromSlice(data, n)
	}
	cases := []*tensor.Tensor{
		build(257, func(int) float64 { return rng.NormFloat64() }),
		build(300, func(i int) float64 { return float64(i%5) - 2 }), // heavy ties
		build(128, func(int) float64 { return 0 }),                  // all equal
		build(1, func(int) float64 { return 3 }),
	}
	for ci, in := range cases {
		c := TopK{Frac: 0.3}
		enc, err := c.Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		// Reference: sort (|v| desc, index asc), keep the first k.
		k := c.keep(in.Size())
		idx := make([]int, in.Size())
		for i := range idx {
			idx[i] = i
		}
		data := in.Data()
		sort.Slice(idx, func(a, b int) bool {
			ma, mb := math.Abs(data[idx[a]]), math.Abs(data[idx[b]])
			if ma != mb {
				return ma > mb
			}
			return idx[a] < idx[b]
		})
		want := make([]float64, in.Size())
		for _, i := range idx[:k] {
			want[i] = float64(float32(data[i]))
		}
		for i := range want {
			if out.Data()[i] != want[i] {
				t.Fatalf("case %d element %d: got %g, want %g", ci, i, out.Data()[i], want[i])
			}
		}
	}
}

func TestTopKRejectsBadIndices(t *testing.T) {
	in := tensor.FromSlice([]float64{1, 2, 3, 4}, 4)
	enc, err := (TopK{Frac: 0.5}).Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate the first index into the second slot (out of order).
	mut := append([]byte(nil), enc...)
	body := mut[1+4+4:] // rank, dim, k
	copy(body[8:12], body[0:4])
	if _, err := (TopK{}).Decode(mut); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("duplicate index: err = %v, want ErrCorrupt", err)
	}
}
