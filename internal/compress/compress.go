// Package compress implements the negotiated cut-layer payload codecs.
//
// The paper's single communication knob is the pooling width w: a 40×40
// average pool shrinks each frame's activation map to one pixel. This
// package generalises that fixed knob into a family of payload/accuracy
// trade-offs applied *after* pooling, to the tensors that actually cross
// the cut: forward activations on the uplink and cut-layer gradients on
// the downlink.
//
// A Codec has three faces:
//
//   - Encode/Decode: the byte-level wire representation used by
//     internal/transport's framed protocol (the real TCP path). Decode
//     is total on adversarial input — corrupt payloads return an error,
//     never a panic or an unbounded allocation.
//   - Bits: the idealised on-air payload size charged to the simulated
//     channel by internal/split — the codec-generalised form of the
//     paper's B^UL = N_H·N_W·B·R·L/(w_H·w_W) formula. Like the paper's
//     formula it excludes framing overhead (shape headers, CRCs); the
//     transport layer's CountingConn measures true framed bytes.
//
// Codecs are identified by a single byte so the session handshake can
// negotiate them (DESIGN.md §5); Decode is self-describing for every
// codec, so a receiver needs only the id to invert any payload.
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/tensor"
)

// ID identifies a codec on the wire (one byte in the session hello and
// in every tensor-bearing frame). The zero value is CodecRaw, the
// lossless identity codec.
type ID uint8

// The built-in codecs.
const (
	// CodecRaw is the identity codec: float64 elements, bit-identical
	// round trip. Its Bits model is the paper's R-bit payload formula.
	CodecRaw ID = iota
	// CodecFloat16 stores IEEE 754 half-precision elements (~3 decimal
	// digits), halving the paper's R = 32 payload.
	CodecFloat16
	// CodecQuantInt8 stores per-tensor affine min/max quantised bytes,
	// a 4× reduction over R = 32 plus a 16-byte range header.
	CodecQuantInt8
	// CodecTopK keeps only the largest-magnitude elements (index+value
	// pairs); Decode restores a dense tensor with zeros elsewhere, so
	// gradients flow safely through the inverse.
	CodecTopK
)

// numCodecs bounds Valid and IDs; keep it in sync with the const block.
const numCodecs = 4

// Codec encodes cut-layer tensors for the wire and prices them for the
// simulated channel. Implementations are stateless value types, safe
// for concurrent use.
//
// EncodeInto/DecodeInto are the zero-copy faces used by the transport
// layer's serving hot path: EncodeInto appends to a caller-owned frame
// buffer and DecodeInto refills a caller-owned tensor, so a connection
// that round-trips the same cut-layer shape every message reaches a
// steady state with no per-message allocation. Encode/Decode remain the
// convenience forms (Encode(t) ≡ EncodeInto(nil, t); Decode(d) ≡
// DecodeInto(nil, d)) and both pairs produce byte-identical wire
// payloads and bit-identical tensors.
type Codec interface {
	// ID returns the codec's wire identifier.
	ID() ID
	// Encode serialises t, shape included.
	Encode(t *tensor.Tensor) ([]byte, error)
	// EncodeInto appends t's serialisation to dst and returns the
	// extended slice.
	EncodeInto(dst []byte, t *tensor.Tensor) ([]byte, error)
	// Decode inverts Encode. For lossy codecs the values are the
	// quantised/sparsified approximation the far end would see.
	Decode(data []byte) (*tensor.Tensor, error)
	// DecodeInto inverts Encode reusing dst's storage when its shape (or
	// capacity) allows; dst may be nil. The returned tensor is only
	// guaranteed to alias dst when shapes match — callers keep the
	// return value, exactly as with tensor.EnsureShape.
	DecodeInto(dst *tensor.Tensor, data []byte) (*tensor.Tensor, error)
	// Bits returns the idealised on-air payload size of t in bits, the
	// unit the wireless channel model charges. It depends only on the
	// tensor's size, never its values.
	Bits(t *tensor.Tensor) int
}

// ErrCorrupt is returned when a codec payload fails structural
// validation during decoding.
var ErrCorrupt = errors.New("compress: corrupt payload")

// Valid reports whether id names a built-in codec.
func (id ID) Valid() bool { return id < numCodecs }

// String names the codec as accepted by Parse.
func (id ID) String() string {
	switch id {
	case CodecRaw:
		return "raw"
	case CodecFloat16:
		return "float16"
	case CodecQuantInt8:
		return "int8"
	case CodecTopK:
		return "topk"
	}
	return fmt.Sprintf("ID(%d)", uint8(id))
}

// Parse resolves a -codec flag value.
func Parse(s string) (ID, error) {
	switch s {
	case "raw", "none", "float64":
		return CodecRaw, nil
	case "float16", "f16", "half":
		return CodecFloat16, nil
	case "int8", "q8", "quant8":
		return CodecQuantInt8, nil
	case "topk", "top-k", "sparse":
		return CodecTopK, nil
	}
	return 0, fmt.Errorf("compress: unknown codec %q (want raw, float16, int8 or topk)", s)
}

// IDs returns every built-in codec id in wire order.
func IDs() []ID {
	out := make([]ID, numCodecs)
	for i := range out {
		out[i] = ID(i)
	}
	return out
}

// New constructs the codec for an id with its default parameters — the
// shared contract both ends of a negotiated session instantiate from
// the id alone.
func New(id ID) (Codec, error) {
	switch id {
	case CodecRaw:
		return Raw{}, nil
	case CodecFloat16:
		return Float16{}, nil
	case CodecQuantInt8:
		return QuantInt8{}, nil
	case CodecTopK:
		return TopK{}, nil
	}
	return nil, fmt.Errorf("compress: unknown codec id %d", uint8(id))
}

// MustNew is New for ids already validated (e.g. by split.Config.Validate).
func MustNew(id ID) Codec {
	c, err := New(id)
	if err != nil {
		panic(err)
	}
	return c
}

// codecTable caches one default-parameter instance per built-in id so
// the per-message decode path can resolve a codec without the interface
// boxing allocation New incurs.
var codecTable = func() [numCodecs]Codec {
	var t [numCodecs]Codec
	for _, id := range IDs() {
		t[id] = MustNew(id)
	}
	return t
}()

// ForID returns the cached default-parameter codec for a valid id and
// nil otherwise — the allocation-free form of New for the serving path.
func ForID(id ID) Codec {
	if !id.Valid() {
		return nil
	}
	return codecTable[id]
}

// Shape-header helpers shared by the self-contained codecs (Float16,
// TopK): uint8 rank, rank × uint32 dims. Raw and QuantInt8 reuse the
// tensor package's wire format instead.

const (
	maxRank = 8
	maxDim  = 1 << 20
	maxVol  = 1 << 28
)

func appendShape(buf []byte, t *tensor.Tensor) ([]byte, error) {
	if t.Rank() > maxRank {
		return nil, fmt.Errorf("compress: rank %d exceeds wire maximum %d", t.Rank(), maxRank)
	}
	buf = append(buf, byte(t.Rank()))
	// Dim, not Shape: Shape returns a defensive copy, which would cost
	// the zero-alloc encode path one allocation per message.
	for i := 0; i < t.Rank(); i++ {
		buf = binary.BigEndian.AppendUint32(buf, uint32(t.Dim(i)))
	}
	return buf, nil
}

// readShape parses a shape header, returning the shape, its volume and
// the remaining bytes. Dimensions and volume are bounded before any
// allocation.
func readShape(data []byte) (shape []int, vol int, rest []byte, err error) {
	var buf [maxRank]int
	rank, vol, rest, err := readShapeBuf(data, &buf)
	if err != nil {
		return nil, 0, nil, err
	}
	return append([]int(nil), buf[:rank]...), vol, rest, nil
}

// readShapeBuf is readShape into a caller-owned array — the
// allocation-free form the DecodeInto paths use.
func readShapeBuf(data []byte, shape *[maxRank]int) (rank, vol int, rest []byte, err error) {
	if len(data) < 1 {
		return 0, 0, nil, fmt.Errorf("%w: missing shape header", ErrCorrupt)
	}
	rank = int(data[0])
	if rank == 0 || rank > maxRank {
		return 0, 0, nil, fmt.Errorf("%w: bad rank %d", ErrCorrupt, rank)
	}
	data = data[1:]
	if len(data) < 4*rank {
		return 0, 0, nil, fmt.Errorf("%w: truncated shape header", ErrCorrupt)
	}
	vol = 1
	for i := 0; i < rank; i++ {
		dim := int(binary.BigEndian.Uint32(data[4*i:]))
		if dim <= 0 || dim > maxDim {
			return 0, 0, nil, fmt.Errorf("%w: bad dimension %d", ErrCorrupt, dim)
		}
		shape[i] = dim
		vol *= dim
		if vol > maxVol {
			return 0, 0, nil, fmt.Errorf("%w: volume too large", ErrCorrupt)
		}
	}
	return rank, vol, data[4*rank:], nil
}
