package compress

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// FuzzCodecDecodeInto feeds arbitrary bytes to every codec's DecodeInto,
// decoding into a destination tensor reused across calls the way the
// frame reader reuses its per-connection scratch. A decode must not
// panic; it returns an error or a tensor whose data matches its shape;
// TopK never expands past maxTopKExpansion elements per stored pair;
// and a failed or odd-shaped decode leaves the scratch fit for the next
// valid frame, which must decode exactly as into a fresh tensor.
func FuzzCodecDecodeInto(f *testing.F) {
	src := tensor.Randn(rand.New(rand.NewSource(1)), 1, 2, 1, 3, 4)
	valid := make([][]byte, len(IDs()))
	for _, id := range IDs() {
		enc, err := ForID(id).Encode(src)
		if err != nil {
			f.Fatal(err)
		}
		valid[id] = enc
		f.Add(uint8(id), enc)
	}
	f.Fuzz(func(t *testing.T, id uint8, data []byte) {
		cid := ID(id % uint8(len(IDs())))
		codec := ForID(cid)
		dst := tensor.Randn(rand.New(rand.NewSource(2)), 1, 3, 5)
		for range 2 {
			got, err := codec.DecodeInto(dst, data)
			if err != nil {
				break
			}
			checkShape(t, got)
			if cid == CodecTopK {
				// shape header (1 + 4·rank) and count word (4), then 8 bytes a pair
				pairs := (len(data) - 1 - 4*got.Rank() - 4) / 8
				if got.Size() > maxTopKExpansion*pairs {
					t.Fatalf("topk decoded %d elements from %d pairs", got.Size(), pairs)
				}
			}
			dst = got
		}
		got, err := codec.DecodeInto(dst, valid[cid])
		if err != nil {
			t.Fatalf("valid %v encoding after a fuzzed one: %v", cid, err)
		}
		want, _ := codec.DecodeInto(nil, valid[cid])
		checkShape(t, got)
		if !slices.Equal(got.Shape(), want.Shape()) {
			t.Fatalf("valid %v encoding decoded to %v, want %v", cid, got.Shape(), want.Shape())
		}
		for i, v := range want.Data() {
			if math.Float64bits(got.Data()[i]) != math.Float64bits(v) {
				t.Fatalf("valid %v encoding: element %d = %v after a fuzzed decode, want %v", cid, i, got.Data()[i], v)
			}
		}
	})
}

func checkShape(t *testing.T, x *tensor.Tensor) {
	t.Helper()
	vol := 1
	for _, d := range x.Shape() {
		vol *= d
	}
	if vol != x.Size() || len(x.Data()) != vol {
		t.Fatalf("tensor of shape %v holds %d elements (Size %d)", x.Shape(), len(x.Data()), x.Size())
	}
}
