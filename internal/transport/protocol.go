// Package transport runs the split-learning protocol over a real byte
// stream. It is the distributed counterpart of internal/split's
// in-process trainer: a UEPeer owns the camera images and the CNN half, a
// BSPeer owns the received powers, the labels and the LSTM half, and the
// two exchange cut-layer tensors through a framed, checksummed protocol
// over any net.Conn (TCP between processes, net.Pipe inside tests).
//
// Each peer updates only its own parameter partition — the defining
// property of split learning: raw images never leave the UE, labels and
// the BS model never leave the BS; only the pooled CNN outputs and their
// gradients cross the network.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/compress"
	"repro/internal/tensor"
)

// MsgType identifies a protocol message.
type MsgType uint8

// Protocol messages. The BS orchestrates: it requests forward passes for
// batches of anchor indices and returns cut-layer gradients for training
// steps (evaluation requests get no gradient). A multi-UE session opens
// with a hello/ack handshake before any training traffic.
const (
	MsgBatchRequest MsgType = iota + 1 // BS→UE: anchors for a training step
	MsgEvalRequest                     // BS→UE: anchors for evaluation (no backward)
	MsgActivations                     // UE→BS: pooled CNN outputs
	MsgCutGradient                     // BS→UE: gradient of the cut layer
	MsgShutdown                        // BS→UE: training finished
	MsgSessionHello                    // UE→BS: join request with session parameters
	MsgSessionAck                      // BS→UE: session accepted or rejected
	MsgCheckpoint                      // BS→UE: train state checkpointed at Step; UE saves its half
)

// ProtocolVersion is stamped into every frame header. Version 0 is the
// original 1:1 UE↔BS protocol without the session handshake; version 1
// added the hello/ack handshake; version 2 added the negotiated
// cut-layer payload codec (tensor sections carry a codec id, hellos a
// requested codec); version 3 added the session lifecycle — hellos and
// acks carry a resume token (epoch + last checkpointed step), and the
// BS instructs the UE to checkpoint with MsgCheckpoint.
//
// Readers accept any version up to their own and reject newer ones;
// version-0/1 tensor sections decode as the lossless Raw codec.
// Compatibility is now negotiated on both sides: a reader understands
// every older peer's frames, and a writer can stamp (and lay out) its
// frames at any older version via WriteMessageVersion, which the
// multi-UE server uses to talk to v1/v2 peers in their own dialect —
// an old UE against a new BS negotiates down cleanly instead of
// rejecting the BS's frames.
const ProtocolVersion = 3

// String names the message type for diagnostics.
func (t MsgType) String() string {
	switch t {
	case MsgBatchRequest:
		return "BatchRequest"
	case MsgEvalRequest:
		return "EvalRequest"
	case MsgActivations:
		return "Activations"
	case MsgCutGradient:
		return "CutGradient"
	case MsgShutdown:
		return "Shutdown"
	case MsgSessionHello:
		return "SessionHello"
	case MsgSessionAck:
		return "SessionAck"
	case MsgCheckpoint:
		return "Checkpoint"
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Hello carries the handshake parameters of a multi-UE session. The UE
// announces the dataset/model identity it was launched with; the BS
// provisions a matching session (or rejects) and echoes its own view
// back. ConfigFP lets both ends detect a drifted configuration before any
// tensor crosses the wire.
type Hello struct {
	Version      uint8   // sender's ProtocolVersion
	SessionID    string  // UE-chosen session name, unique per BS
	Seed         int64   // shared experiment seed
	Frames       uint32  // synthetic dataset length
	Pool         uint16  // square pooling size w
	Modality     uint8   // split.Modality the session trains
	ConfigFP     uint64  // fingerprint of the derived split.Config
	TargetRMSEdB float64 // UE's stopping criterion (0: use the server's)
	Err          string  // ack only: non-empty means the session was rejected
	Codec        uint8   // compress.ID of the requested/granted payload codec

	// Resume token (protocol ≥ 3). Epoch is the BS-assigned incarnation
	// number of the session: each accepted connection for a session id
	// gets a strictly larger epoch, fencing any half-dead predecessor.
	// ResumeStep in a hello asks the BS to resume from the train-state
	// checkpoint taken at that step (0: fresh join); in an ack it is the
	// granted resume step. Flags carries the HelloFlag* bits.
	Epoch      uint32
	ResumeStep uint32
	Flags      uint8
}

// Hello flag bits (protocol ≥ 3).
const (
	// HelloFlagResumeRejected marks a rejection ack whose cause is the
	// resume token itself (missing checkpoint, stale fingerprint,
	// resume unsupported) rather than the join as such — a structured
	// signal that rejoining without the token can cure the rejection,
	// so clients need not parse the human-readable reason.
	HelloFlagResumeRejected uint8 = 1 << 0
)

// CodecServerDefault is a sentinel hello codec asking the BS to pick:
// the server rewrites it to its current policy's default codec before
// provisioning, and the ack carries the concrete grant. It deliberately
// lives outside the compress.ID space (Raw is 0, so 0 cannot mean
// "unset") and is never valid on the wire after the handshake. A
// sentinel hello must also leave ConfigFP zero — the UE cannot
// fingerprint a config whose codec it does not yet know.
const CodecServerDefault uint8 = 0xFF

// maxHelloString bounds the variable-length handshake fields.
const maxHelloString = 256

// Message is one protocol datagram.
type Message struct {
	Type    MsgType
	Step    uint32         // training step / request correlation id
	Anchors []int32        // batch/eval requests
	Tensor  *tensor.Tensor // activations / gradients
	Codec   compress.ID    // codec the tensor section was encoded with
	Hello   *Hello         // session handshake (hello/ack only)
}

// Protocol limits; a frame that exceeds them is rejected as corrupt or
// hostile rather than allocated.
const (
	maxFramePayload = 64 << 20 // 64 MiB
	maxAnchors      = 1 << 20
)

var (
	frameMagic = [2]byte{0xA5, 0x5C}

	// ErrBadFrame is returned for structurally invalid frames.
	ErrBadFrame = errors.New("transport: bad frame")
	// ErrChecksum is returned when a frame fails CRC validation.
	ErrChecksum = errors.New("transport: checksum mismatch")
)

// Frame layout:
//
//	magic(2) type(1) version(1) step(4) length(4) payload(length) crc32(4)
//
// crc32 (IEEE) covers everything from magic through payload. The version
// byte was reserved (always 0) before ProtocolVersion 1 introduced the
// session handshake; readers accept any version up to their own.

// WriteMessage encodes and writes one frame at the current
// ProtocolVersion.
func WriteMessage(w io.Writer, m *Message) error {
	return WriteMessageVersion(w, m, ProtocolVersion)
}

// WriteMessageVersion encodes and writes one frame stamped — and laid
// out — at the given protocol version, which must not exceed this
// endpoint's own. The multi-UE server uses it to answer v1/v2 peers in
// frames they can read: older hello layouts drop the trailing v2/v3
// fields, and pre-codec tensor sections fall back to the bare Depth64
// encoding (only valid for the Raw codec).
//
// The frame is assembled in one buffer and issued as a single Write, so
// a frame is never torn across writes on its way into the kernel; the
// serving hot path uses FrameWriter, which reuses the buffer across
// messages.
func WriteMessageVersion(w io.Writer, m *Message, version uint8) error {
	buf, err := AppendMessage(nil, m, version)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// AppendMessage appends one complete frame (header, payload, CRC
// trailer) for m to buf, laid out at the given protocol version, and
// returns the extended slice — the zero-copy primitive behind
// WriteMessageVersion and FrameWriter. A caller that reuses buf across
// messages performs no per-message allocation once the buffer has grown
// to the session's steady-state frame size.
func AppendMessage(buf []byte, m *Message, version uint8) ([]byte, error) {
	if version > ProtocolVersion {
		return nil, fmt.Errorf("%w: cannot write protocol version %d (own is %d)",
			ErrBadFrame, version, ProtocolVersion)
	}
	if version < 3 && m.Type == MsgCheckpoint {
		return nil, fmt.Errorf("%w: %v needs protocol ≥ 3 (writing %d)", ErrBadFrame, m.Type, version)
	}
	start := len(buf)
	buf = append(buf, frameMagic[0], frameMagic[1], byte(m.Type), version)
	buf = binary.BigEndian.AppendUint32(buf, m.Step)
	buf = append(buf, 0, 0, 0, 0) // length, backfilled below
	buf, err := appendPayload(buf, m, version)
	if err != nil {
		return nil, err
	}
	payloadLen := len(buf) - start - 12
	if payloadLen > maxFramePayload {
		return nil, fmt.Errorf("%w: payload %d bytes exceeds limit", ErrBadFrame, payloadLen)
	}
	binary.BigEndian.PutUint32(buf[start+8:], uint32(payloadLen))
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:])), nil
}

// ReadMessage reads and validates one frame. The returned message and
// its tensor are freshly allocated; the serving hot path uses
// FrameReader, which reuses a per-connection buffer and decode scratch
// instead.
func ReadMessage(r io.Reader) (*Message, error) {
	fr := FrameReader{r: r}
	m, err := fr.ReadMessage()
	if err != nil {
		return nil, err
	}
	out := *m // detach from the local reader's scratch
	return &out, nil
}

// FrameHeader is a validated frame header: what FrameReader.ReadFrame
// returns beside the payload bytes, for callers that follow frames
// without decoding them.
type FrameHeader struct {
	Type    MsgType
	Version uint8
	Step    uint32
}

// Payload layout: uint32 anchor count, anchors as int32, then an
// optional tensor section, then an optional hello section (presence
// flag byte + hello encoding).
//
// The tensor section is versioned. Version ≥ 2 frames carry the
// negotiated codec explicitly:
//
//	flag(1) codec(1) length(4) codec-encoded payload
//
// Version-0/1 frames carry `flag(1) tensor@Depth64` — exactly the Raw
// codec's encoding without the id/length prefix — and decode with
// Codec == compress.CodecRaw. Version-0 frames simply end after the
// tensor section; their absence of a hello flag decodes as Hello == nil.

func appendPayload(buf []byte, m *Message, version uint8) ([]byte, error) {
	if len(m.Anchors) > maxAnchors {
		return nil, fmt.Errorf("%w: %d anchors exceeds limit", ErrBadFrame, len(m.Anchors))
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Anchors)))
	for _, a := range m.Anchors {
		buf = binary.BigEndian.AppendUint32(buf, uint32(a))
	}
	switch {
	case m.Tensor == nil:
		buf = append(buf, 0)
	case version < 2:
		// Pre-codec dialect: a bare Depth64 tensor section, which the
		// receiver decodes as Raw — so only Raw can be spoken down.
		if m.Codec != compress.CodecRaw {
			return nil, fmt.Errorf("%w: codec %v needs protocol ≥ 2 (writing %d)",
				ErrBadFrame, m.Codec, version)
		}
		var err error
		buf, err = tensor.Append(append(buf, 1), m.Tensor, tensor.Depth64)
		if err != nil {
			return nil, err
		}
	default:
		codec := compress.ForID(m.Codec)
		if codec == nil {
			return nil, fmt.Errorf("%w: compress: unknown codec id %d", ErrBadFrame, uint8(m.Codec))
		}
		buf = append(buf, 1, byte(m.Codec))
		lenAt := len(buf)
		buf = append(buf, 0, 0, 0, 0) // section length, backfilled
		var err error
		buf, err = codec.EncodeInto(buf, m.Tensor)
		if err != nil {
			return nil, err
		}
		binary.BigEndian.PutUint32(buf[lenAt:], uint32(len(buf)-lenAt-4))
	}
	if m.Hello == nil {
		return buf, nil
	}
	return appendHello(append(buf, 1), m.Hello, version)
}

func appendHello(buf []byte, h *Hello, version uint8) ([]byte, error) {
	if len(h.SessionID) > maxHelloString || len(h.Err) > maxHelloString {
		return nil, fmt.Errorf("%w: hello string exceeds %d bytes", ErrBadFrame, maxHelloString)
	}
	buf = append(buf, h.Version, h.Modality)
	buf = binary.BigEndian.AppendUint16(buf, h.Pool)
	buf = binary.BigEndian.AppendUint32(buf, h.Frames)
	buf = binary.BigEndian.AppendUint64(buf, uint64(h.Seed))
	buf = binary.BigEndian.AppendUint64(buf, h.ConfigFP)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(h.TargetRMSEdB))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(h.SessionID)))
	buf = append(buf, h.SessionID...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(h.Err)))
	buf = append(buf, h.Err...)
	if version < 2 {
		// Version-1 hellos simply stop after the strings (and decode
		// with Codec == Raw); requesting anything else cannot be said
		// in this dialect.
		if h.Codec != 0 || h.Epoch != 0 || h.ResumeStep != 0 || h.Flags != 0 {
			return nil, fmt.Errorf("%w: hello codec/resume fields need protocol ≥ 2 (writing %d)",
				ErrBadFrame, version)
		}
		return buf, nil
	}
	// The codec byte trails the version-1 layout so version-1 hellos
	// keep decoding as Raw.
	buf = append(buf, h.Codec)
	if version < 3 {
		if h.Epoch != 0 || h.ResumeStep != 0 || h.Flags != 0 {
			return nil, fmt.Errorf("%w: hello resume token needs protocol ≥ 3 (writing %d)",
				ErrBadFrame, version)
		}
		return buf, nil
	}
	// The version-3 resume token and flags trail the version-2 layout.
	buf = binary.BigEndian.AppendUint32(buf, h.Epoch)
	buf = binary.BigEndian.AppendUint32(buf, h.ResumeStep)
	return append(buf, h.Flags), nil
}

func decodeHello(payload []byte) (*Hello, error) {
	const fixed = 1 + 1 + 2 + 4 + 8 + 8 + 8 // version, modality, pool, frames, seed, fingerprint, target
	if len(payload) < fixed+2 {
		return nil, fmt.Errorf("%w: hello section too short", ErrBadFrame)
	}
	h := &Hello{
		Version:      payload[0],
		Modality:     payload[1],
		Pool:         binary.BigEndian.Uint16(payload[2:]),
		Frames:       binary.BigEndian.Uint32(payload[4:]),
		Seed:         int64(binary.BigEndian.Uint64(payload[8:])),
		ConfigFP:     binary.BigEndian.Uint64(payload[16:]),
		TargetRMSEdB: math.Float64frombits(binary.BigEndian.Uint64(payload[24:])),
	}
	payload = payload[fixed:]
	for i, dst := range []*string{&h.SessionID, &h.Err} {
		if len(payload) < 2 {
			return nil, fmt.Errorf("%w: hello string %d truncated", ErrBadFrame, i)
		}
		n := int(binary.BigEndian.Uint16(payload))
		payload = payload[2:]
		if n > maxHelloString || len(payload) < n {
			return nil, fmt.Errorf("%w: hello string %d length %d inconsistent", ErrBadFrame, i, n)
		}
		*dst = string(payload[:n])
		payload = payload[n:]
	}
	switch len(payload) {
	case 0: // version-1 hello: no codec byte, Raw implied
	case 1: // version-2 hello: codec byte only
		h.Codec = payload[0]
	case 10: // version-3 hello: codec byte + epoch + resume step + flags
		h.Codec = payload[0]
		h.Epoch = binary.BigEndian.Uint32(payload[1:])
		h.ResumeStep = binary.BigEndian.Uint32(payload[5:])
		h.Flags = payload[9]
	default:
		return nil, fmt.Errorf("%w: trailing bytes after hello", ErrBadFrame)
	}
	return h, nil
}

// decodeScratch is the reusable decode state of one connection: the
// anchor slice and tensor a FrameReader refills message after message,
// so steady-state serving decodes with zero per-message allocations.
type decodeScratch struct {
	anchors []int32
	tensor  *tensor.Tensor
}

func decodePayload(m *Message, payload []byte, version uint8, sc *decodeScratch) error {
	if len(payload) < 5 {
		return fmt.Errorf("%w: payload too short", ErrBadFrame)
	}
	n := binary.BigEndian.Uint32(payload)
	if n > maxAnchors || len(payload) < int(4+4*n+1) {
		return fmt.Errorf("%w: anchor count %d inconsistent with payload", ErrBadFrame, n)
	}
	payload = payload[4:]
	if n > 0 {
		if sc != nil && cap(sc.anchors) >= int(n) {
			m.Anchors = sc.anchors[:n]
		} else {
			m.Anchors = make([]int32, n)
			if sc != nil {
				sc.anchors = m.Anchors
			}
		}
		for i := range m.Anchors {
			m.Anchors[i] = int32(binary.BigEndian.Uint32(payload[4*i:]))
		}
	}
	payload = payload[4*n:]
	hasTensor := payload[0]
	payload = payload[1:]
	switch hasTensor {
	case 0:
	case 1:
		rest, err := decodeTensorSection(m, payload, version, sc)
		if err != nil {
			return err
		}
		payload = rest
	default:
		return fmt.Errorf("%w: bad tensor flag %d", ErrBadFrame, hasTensor)
	}
	if len(payload) == 0 {
		return nil // version-0 payload: no hello section
	}
	if payload[0] != 1 {
		return fmt.Errorf("%w: bad hello flag %d", ErrBadFrame, payload[0])
	}
	h, err := decodeHello(payload[1:])
	if err != nil {
		return err
	}
	m.Hello = h
	return nil
}

// decodeTensorSection parses the tensor section after its presence flag
// and returns the remaining payload. Version ≥ 2 sections are
// length-prefixed and codec-tagged; earlier versions are a bare Depth64
// tensor encoding, which the Raw codec inverts. With a scratch, the
// tensor decodes into (and the scratch then tracks) the reusable
// per-connection tensor.
func decodeTensorSection(m *Message, payload []byte, version uint8, sc *decodeScratch) ([]byte, error) {
	var dst *tensor.Tensor
	if sc != nil {
		dst = sc.tensor
	}
	if version < 2 {
		t, rest, err := tensor.DecodeBytes(dst, payload)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
		m.Tensor, m.Codec = t, compress.CodecRaw
		if sc != nil {
			sc.tensor = t
		}
		return rest, nil
	}
	if len(payload) < 5 {
		return nil, fmt.Errorf("%w: truncated tensor section", ErrBadFrame)
	}
	id := compress.ID(payload[0])
	length := binary.BigEndian.Uint32(payload[1:])
	payload = payload[5:]
	codec := compress.ForID(id)
	if codec == nil {
		return nil, fmt.Errorf("%w: compress: unknown codec id %d", ErrBadFrame, uint8(id))
	}
	if int(length) > len(payload) {
		return nil, fmt.Errorf("%w: tensor section length %d exceeds payload", ErrBadFrame, length)
	}
	t, err := codec.DecodeInto(dst, payload[:length])
	if err != nil {
		// Fold codec-level corruption into the protocol's error
		// contract: every reader error is ErrBadFrame or ErrChecksum.
		return nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	m.Tensor, m.Codec = t, id
	if sc != nil {
		sc.tensor = t
	}
	return payload[length:], nil
}
