package tensor

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// decodeAll decodes the one tensor that must fill data exactly.
func decodeAll(data []byte) (*Tensor, error) {
	t, rest, err := DecodeBytes(nil, data)
	if err == nil && len(rest) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(rest))
	}
	return t, err
}

func TestEncodeDecodeDepth64Lossless(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := Randn(rng, 3, 2, 3, 4)
	var buf bytes.Buffer
	if err := Encode(&buf, x, Depth64); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != EncodedSize(x, Depth64) {
		t.Fatalf("encoded size = %d, want %d", buf.Len(), EncodedSize(x, Depth64))
	}
	y, err := decodeAll(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !x.SameShape(y) {
		t.Fatalf("shape %v != %v", x.Shape(), y.Shape())
	}
	if MaxAbsDiff(x, y) != 0 {
		t.Fatal("Depth64 round trip not lossless")
	}
}

func TestPricedDepthsAreNeverWritten(t *testing.T) {
	x := Ones(2, 3)
	for _, d := range []BitDepth{Depth16, Depth32, 0, 7} {
		if _, err := Append(nil, x, d); err == nil {
			t.Errorf("Append wrote depth %d", d)
		}
	}
	// Depth16 and Depth32 still price the paper's R.
	if got, want := EncodedSize(x, Depth32), 2+4*2+4*6; got != want {
		t.Fatalf("EncodedSize(Depth32) = %d, want %d", got, want)
	}
	if got, want := EncodedSize(x, Depth16), 2+4*2+16+2*6; got != want {
		t.Fatalf("EncodedSize(Depth16) = %d, want %d", got, want)
	}
}

func TestEncodeDecodeQuantised(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x := RandUniform(rng, -30, -10, 5, 5) // dBm-like range
	var buf bytes.Buffer
	if err := Encode(&buf, x, Depth8); err != nil {
		t.Fatal(err)
	}
	y, err := decodeAll(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	tol := (x.Max() - x.Min()) / 250 // one quantisation step
	if diff := MaxAbsDiff(x, y); diff > tol {
		t.Fatalf("Depth8 quantisation error %g > %g", diff, tol)
	}
}

func TestEncodeConstantTensor(t *testing.T) {
	x := Full(-25.5, 4, 4)
	for _, d := range []BitDepth{Depth8, Depth64} {
		var buf bytes.Buffer
		if err := Encode(&buf, x, d); err != nil {
			t.Fatal(err)
		}
		y, err := decodeAll(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if diff := MaxAbsDiff(x, y); diff > 1e-6 {
			t.Fatalf("constant tensor at depth %d: error %g", d, diff)
		}
	}
}

func TestDecodeRejectsCorruptHeader(t *testing.T) {
	cases := [][]byte{
		{},                                   // empty
		{byte(Depth64)},                      // truncated header
		{99, 2, 0, 0, 0, 1, 0, 0, 0, 1},      // bad depth
		{byte(Depth16), 1, 0, 0, 0, 1, 0, 0}, // priced-only depth
		{byte(Depth32), 1, 0, 0, 0, 1, 0, 0, 0, 0}, // priced-only depth
		{byte(Depth64), 0},                         // zero rank
		{byte(Depth64), 9},                         // rank too big
		{byte(Depth64), 1, 0, 0},                   // truncated shape
		{byte(Depth64), 1, 0, 0, 0, 0},             // zero dim
		{byte(Depth64), 1, 0xFF, 0xFF, 0, 0},       // absurd dim
		{byte(Depth8), 1, 0, 0, 0, 2, 0, 0, 0},     // bad quant range (truncated)
	}
	for i, c := range cases {
		if _, _, err := DecodeBytes(nil, c); !errors.Is(err, ErrCorruptTensor) {
			t.Errorf("case %d: want ErrCorruptTensor, got %v", i, err)
		}
	}
}

func TestDecodeCorruptIsTyped(t *testing.T) {
	_, _, err := DecodeBytes(nil, []byte{99, 1, 0, 0, 0, 1})
	if !errors.Is(err, ErrCorruptTensor) {
		t.Fatalf("want ErrCorruptTensor, got %v", err)
	}
}

// A truncated body is refused at every length, and a refused decode
// leaves the caller's reusable tensor as it was.
func TestDecodeTruncatedBody(t *testing.T) {
	for _, d := range []BitDepth{Depth8, Depth64} {
		x := RandUniform(rand.New(rand.NewSource(24)), -1, 1, 4, 4)
		enc, err := Append(nil, x, d)
		if err != nil {
			t.Fatal(err)
		}
		dst := Full(7, 4, 4)
		for n := 0; n < len(enc); n++ {
			if _, _, err := DecodeBytes(dst, enc[:n]); !errors.Is(err, ErrCorruptTensor) {
				t.Fatalf("depth %d, %d of %d bytes: want ErrCorruptTensor, got %v", d, n, len(enc), err)
			}
		}
		if dst.Min() != 7 || dst.Max() != 7 {
			t.Fatalf("depth %d: refused decode wrote into dst", d)
		}
	}
}

func TestEncodedBitsMatchesPaperPayloadFormula(t *testing.T) {
	// The paper's uplink payload: B^UL = N_H·N_W·B·R·L/(w_H·w_W) bits. Our
	// codec adds a fixed small header; body bits must match the formula.
	const batch, seqLen, nh, nw, pool = 64, 4, 40, 40, 4
	act := New(batch*seqLen, 1, nh/pool, nw/pool)
	bodyBits := act.Size() * 32
	wantBody := nh * nw * batch * 32 * seqLen / (pool * pool)
	if bodyBits != wantBody {
		t.Fatalf("body bits %d != paper formula %d", bodyBits, wantBody)
	}
	headerBits := EncodedBits(act, Depth32) - bodyBits
	if headerBits <= 0 || headerBits > 64*8 {
		t.Fatalf("unreasonable header size %d bits", headerBits)
	}
}

// Property: encode/decode at Depth64 round-trips arbitrary finite tensors.
func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				vals[i] = 0
			}
		}
		x := FromSlice(vals, len(vals))
		var buf bytes.Buffer
		if err := Encode(&buf, x, Depth64); err != nil {
			return false
		}
		y, err := decodeAll(buf.Bytes())
		if err != nil {
			return false
		}
		return MaxAbsDiff(x, y) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
