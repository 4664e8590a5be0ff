package compress

import (
	"bytes"
	"fmt"

	"repro/internal/tensor"
)

// Raw and QuantInt8 delegate to the tensor package's wire format
// (Depth64 lossless / Depth8 affine min-max), which already carries the
// shape and, for Depth8, the per-tensor quantisation range. That format
// describes its own depth, so each decoder insists on its codec's depth:
// otherwise Raw would accept a lossy payload (and QuantInt8 a lossless
// one) under the wrong codec tag.

// Raw is the identity codec: lossless float64 elements, bit-identical
// through Encode∘Decode — the protocol's original behaviour.
//
// Its cost model is deliberately not the encoded size: the paper charges
// the channel R bits per element (R = 32 by default) while the lossless
// protocol ships float64s, and Raw preserves exactly that split so the
// existing artefacts (Fig. 3a, Table 1, the ablations) are unchanged.
// ModelBits is the paper's R; zero means 32.
type Raw struct {
	ModelBits int
}

// ID implements Codec.
func (Raw) ID() ID { return CodecRaw }

// Encode implements Codec: lossless Depth64 tensor encoding.
func (Raw) Encode(t *tensor.Tensor) ([]byte, error) { return tensorEncode(t, tensor.Depth64) }

// EncodeInto implements Codec.
func (Raw) EncodeInto(dst []byte, t *tensor.Tensor) ([]byte, error) {
	return tensor.Append(dst, t, tensor.Depth64)
}

// Decode implements Codec.
func (Raw) Decode(data []byte) (*tensor.Tensor, error) {
	return tensorDecodeInto(nil, data, tensor.Depth64)
}

// DecodeInto implements Codec.
func (Raw) DecodeInto(dst *tensor.Tensor, data []byte) (*tensor.Tensor, error) {
	return tensorDecodeInto(dst, data, tensor.Depth64)
}

// Bits implements Codec: the paper's R-bit-per-element payload model.
func (r Raw) Bits(t *tensor.Tensor) int {
	bits := r.ModelBits
	if bits <= 0 {
		bits = 32
	}
	return t.Size() * bits
}

// QuantInt8 is per-tensor affine min/max quantisation: each element is
// mapped linearly from [min, max] onto one byte, and the range rides
// along so the far end can invert. Worst-case absolute error is
// (max−min)/510 per element.
type QuantInt8 struct{}

// ID implements Codec.
func (QuantInt8) ID() ID { return CodecQuantInt8 }

// Encode implements Codec: Depth8 tensor encoding (range + bytes).
func (QuantInt8) Encode(t *tensor.Tensor) ([]byte, error) { return tensorEncode(t, tensor.Depth8) }

// EncodeInto implements Codec.
func (QuantInt8) EncodeInto(dst []byte, t *tensor.Tensor) ([]byte, error) {
	return tensor.Append(dst, t, tensor.Depth8)
}

// Decode implements Codec.
func (QuantInt8) Decode(data []byte) (*tensor.Tensor, error) {
	return tensorDecodeInto(nil, data, tensor.Depth8)
}

// DecodeInto implements Codec.
func (QuantInt8) DecodeInto(dst *tensor.Tensor, data []byte) (*tensor.Tensor, error) {
	return tensorDecodeInto(dst, data, tensor.Depth8)
}

// Bits implements Codec: one byte per element plus the two float64s of
// the quantisation range.
func (QuantInt8) Bits(t *tensor.Tensor) int { return t.Size()*8 + 128 }

func tensorEncode(t *tensor.Tensor, d tensor.BitDepth) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(tensor.EncodedSize(t, d))
	if err := tensor.Encode(&buf, t, d); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// tensorDecodeInto decodes one tensor-format payload that must be
// written at depth d and fill data exactly.
func tensorDecodeInto(dst *tensor.Tensor, data []byte, d tensor.BitDepth) (*tensor.Tensor, error) {
	if len(data) > 0 && tensor.BitDepth(data[0]) != d {
		return nil, fmt.Errorf("%w: bit depth %d, codec writes %d", ErrCorrupt, data[0], d)
	}
	t, rest, err := tensor.DecodeBytes(dst, data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
	}
	return t, nil
}
