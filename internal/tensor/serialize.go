package tensor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// Wire format: uint8 depth, uint8 rank, rank × uint32 dims, then the
// elements. The paper's payload model B^UL = N_H·N_W·B·R·L/(w_H·w_W)
// parameterises the bit depth R, and EncodedSize prices a tensor at any
// R ∈ {8, 16, 32, 64}. Two of those depths are written: Depth64 is
// lossless float64 (checkpoints and the raw codec), and Depth8 quantises
// linearly over a [lo, hi] range carried in the header (the int8 codec).

// BitDepth is the paper's per-element bit depth R.
type BitDepth uint8

// The priced bit depths. Depth32 matches the paper's calibrated R = 32.
const (
	Depth8  BitDepth = 8
	Depth16 BitDepth = 16
	Depth32 BitDepth = 32
	Depth64 BitDepth = 64
)

// Valid reports whether b is a depth the payload model prices.
func (b BitDepth) Valid() bool {
	switch b {
	case Depth8, Depth16, Depth32, Depth64:
		return true
	}
	return false
}

// ErrCorruptTensor is returned when a tensor payload fails structural
// validation during decoding.
var ErrCorruptTensor = errors.New("tensor: corrupt serialized tensor")

const maxWireRank = 8

// EncodedSize returns the size in bytes of t's encoding at depth d: what
// Append writes at Depth8 and Depth64, and the price of the paper's R at
// the depths that are only priced (a Depth16 range header included).
func EncodedSize(t *Tensor, d BitDepth) int {
	header := 1 + 1 + 4*t.Rank()
	if d == Depth8 || d == Depth16 {
		header += 16 // quantisation range (lo, hi) as two float64
	}
	return header + t.Size()*int(d)/8
}

// EncodedBits returns the payload size in bits, the unit used by the
// wireless channel model.
func EncodedBits(t *Tensor, d BitDepth) int { return EncodedSize(t, d) * 8 }

// Encode writes t to w at the given bit depth.
func Encode(w io.Writer, t *Tensor, d BitDepth) error {
	buf, err := Append(make([]byte, 0, EncodedSize(t, d)), t, d)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// Append appends t's wire encoding at depth d, Depth8 or Depth64, to buf
// and returns the extended slice — the allocation-free building block of
// the transport layer's zero-copy frame path (a caller that reuses buf
// across messages reaches a steady state with no per-message
// allocation).
func Append(buf []byte, t *Tensor, d BitDepth) ([]byte, error) {
	if d != Depth8 && d != Depth64 {
		return nil, fmt.Errorf("tensor: bit depth %d is priced, never written", d)
	}
	if t.Rank() > maxWireRank {
		return nil, fmt.Errorf("tensor: rank %d exceeds wire maximum %d", t.Rank(), maxWireRank)
	}
	buf = append(buf, byte(d), byte(t.Rank()))
	for _, dim := range t.shape {
		buf = binary.BigEndian.AppendUint32(buf, uint32(dim))
	}
	if d == Depth64 {
		return appendFloat64s(buf, t.data), nil
	}
	lo, hi := t.Min(), t.Max()
	if hi <= lo {
		hi = lo + 1 // degenerate constant tensor: any range decodes back to lo
	}
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(lo))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(hi))
	scale := 1.0 / (hi - lo)
	for _, v := range t.data {
		buf = append(buf, byte(math.Round(clamp01((v-lo)*scale)*255)))
	}
	return buf, nil
}

// AppendVector appends data as a rank-1 Depth64 tensor — byte-identical
// to Append(buf, FromSlice(data, len(data)), Depth64) without building
// the tensor, so a caller serialising plain slices stays allocation-free.
func AppendVector(buf []byte, data []float64) []byte {
	buf = append(buf, byte(Depth64), 1)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(data)))
	return appendFloat64s(buf, data)
}

// appendFloat64s appends the elements big-endian, growing buf once.
func appendFloat64s(buf []byte, data []float64) []byte {
	n := len(buf)
	buf = slices.Grow(buf, 8*len(data))[:n+8*len(data)]
	for i, v := range data {
		binary.BigEndian.PutUint64(buf[n+8*i:], math.Float64bits(v))
	}
	return buf
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// DecodeBytes decodes one tensor encoding from the front of data,
// returning the decoded tensor and the remaining bytes. When dst is
// non-nil its storage is reused: the returned tensor is dst itself when
// the shapes match (the steady state of a serving loop decoding the
// same cut-layer shape every round — zero allocations), a re-headered
// view of dst's buffer when the capacity suffices, and a fresh tensor
// otherwise. Pass nil dst for the plain allocating behaviour.
func DecodeBytes(dst *Tensor, data []byte) (*Tensor, []byte, error) {
	if len(data) < 2 {
		return nil, nil, fmt.Errorf("%w: truncated header", ErrCorruptTensor)
	}
	d := BitDepth(data[0])
	rank := int(data[1])
	if d != Depth8 && d != Depth64 {
		return nil, nil, fmt.Errorf("%w: bad bit depth %d", ErrCorruptTensor, data[0])
	}
	if rank == 0 || rank > maxWireRank {
		return nil, nil, fmt.Errorf("%w: bad rank %d", ErrCorruptTensor, rank)
	}
	data = data[2:]
	if len(data) < 4*rank {
		return nil, nil, fmt.Errorf("%w: truncated shape", ErrCorruptTensor)
	}
	var shape [maxWireRank]int
	vol := 1
	for i := 0; i < rank; i++ {
		dim := int(binary.BigEndian.Uint32(data[4*i:]))
		if dim <= 0 || dim > 1<<20 {
			return nil, nil, fmt.Errorf("%w: bad dimension %d", ErrCorruptTensor, dim)
		}
		shape[i] = dim
		vol *= dim
		if vol > 1<<28 {
			return nil, nil, fmt.Errorf("%w: volume too large", ErrCorruptTensor)
		}
	}
	data = data[4*rank:]
	// Validate the body length before touching dst so corrupt input never
	// clobbers a caller's reusable buffer.
	var lo, hi float64
	if d == Depth8 {
		if len(data) < 16 {
			return nil, nil, fmt.Errorf("%w: truncated quantisation range", ErrCorruptTensor)
		}
		lo = math.Float64frombits(binary.BigEndian.Uint64(data[0:]))
		hi = math.Float64frombits(binary.BigEndian.Uint64(data[8:]))
		if math.IsNaN(lo) || math.IsNaN(hi) || hi <= lo {
			return nil, nil, fmt.Errorf("%w: bad quantisation range [%g,%g]", ErrCorruptTensor, lo, hi)
		}
		data = data[16:]
	}
	body := vol * int(d) / 8
	if len(data) < body {
		return nil, nil, fmt.Errorf("%w: body %d bytes, want %d", ErrCorruptTensor, len(data), body)
	}
	t := EnsureShape(dst, shape[:rank]...)
	if d == Depth64 {
		for i := range t.data {
			t.data[i] = math.Float64frombits(binary.BigEndian.Uint64(data[8*i:]))
		}
	} else {
		span := hi - lo
		for i := range t.data {
			t.data[i] = lo + span*float64(data[i])/255
		}
	}
	return t, data[body:], nil
}
