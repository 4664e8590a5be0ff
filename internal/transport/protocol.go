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
	"unicode/utf8"

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

// ProtocolVersion is stamped into every frame header and into every
// hello, and it is the only version this package writes or reads: a
// frame stamped anything else is ErrBadFrame at the reader, and the BS
// and the coordinator answer a hello they cannot read with a diagnostic
// ack. Tensor sections carry the negotiated codec id; hellos and acks
// carry the codec and a resume token (epoch + last checkpointed step),
// and the BS instructs the UE to checkpoint with MsgCheckpoint.
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
	SessionID    string  // UE-chosen session name, unique per BS
	Seed         int64   // shared experiment seed
	Frames       uint32  // synthetic dataset length
	Pool         uint16  // square pooling size w
	Modality     uint8   // split.Modality the session trains
	ConfigFP     uint64  // fingerprint of the derived split.Config
	TargetRMSEdB float64 // UE's stopping criterion (0: use the server's)
	Err          string  // ack only: non-empty means the session was rejected
	Codec        uint8   // compress.ID of the requested/granted payload codec

	// Resume token. Epoch is the BS-assigned incarnation number of the
	// session: each accepted connection for a session id gets a strictly
	// larger epoch, fencing any half-dead predecessor. ResumeStep in a
	// hello asks the BS to resume from the train-state checkpoint taken
	// at that step (0: fresh join); in an ack it is the granted resume
	// step. Flags carries the HelloFlag* bits.
	Epoch      uint32
	ResumeStep uint32
	Flags      uint8
}

// Hello flag bits.
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
// byte is always ProtocolVersion.

// WriteMessage encodes and writes one frame. The frame is assembled in
// one buffer and issued as a single Write, so a frame is never torn
// across writes on its way into the kernel; the serving hot path uses
// FrameWriter, which reuses the buffer across messages.
func WriteMessage(w io.Writer, m *Message) error {
	buf, err := AppendMessage(nil, m, ProtocolVersion)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// WriteRefusal writes a rejection ack for sessionID to w: the cause's
// text, cut to at most maxHelloString bytes at a rune boundary, becomes
// the ack's Err and flags its Flags. The BS and the coordinator turn a
// UE away through it alike, so a client sees one refusal shape at
// either front door.
func WriteRefusal(w io.Writer, sessionID string, cause error, flags uint8) error {
	reason := cause.Error()
	if len(reason) > maxHelloString {
		n := maxHelloString
		for n > 0 && !utf8.RuneStart(reason[n]) {
			n--
		}
		reason = reason[:n]
	}
	ack := Hello{SessionID: sessionID, Err: reason, Flags: flags}
	return WriteMessage(w, &Message{Type: MsgSessionAck, Hello: &ack})
}

// AppendMessage appends one complete frame (header, payload, CRC
// trailer) for m to buf and returns the extended slice — the zero-copy
// primitive behind WriteMessage and FrameWriter. version must be
// ProtocolVersion; any other value is ErrBadFrame. A caller that reuses
// buf across messages performs no per-message allocation once the
// buffer has grown to the session's steady-state frame size.
func AppendMessage(buf []byte, m *Message, version uint8) ([]byte, error) {
	if version != ProtocolVersion {
		return nil, fmt.Errorf("%w: cannot write protocol version %d, want %d",
			ErrBadFrame, version, ProtocolVersion)
	}
	start := len(buf)
	buf = append(buf, frameMagic[0], frameMagic[1], byte(m.Type), ProtocolVersion)
	buf = binary.BigEndian.AppendUint32(buf, m.Step)
	buf = append(buf, 0, 0, 0, 0) // length, backfilled below
	buf, err := appendPayload(buf, m)
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
	Type MsgType
	Step uint32
}

// Payload layout: uint32 anchor count, anchors as int32, then an
// optional tensor section, then an optional hello section (presence
// flag byte + hello encoding). A frame without a hello simply ends
// after the tensor section. The tensor section carries the negotiated
// codec explicitly:
//
//	flag(1) codec(1) length(4) codec-encoded payload

func appendPayload(buf []byte, m *Message) ([]byte, error) {
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
	return appendHello(append(buf, 1), m.Hello)
}

func appendHello(buf []byte, h *Hello) ([]byte, error) {
	if len(h.SessionID) > maxHelloString || len(h.Err) > maxHelloString {
		return nil, fmt.Errorf("%w: hello string exceeds %d bytes", ErrBadFrame, maxHelloString)
	}
	buf = append(buf, ProtocolVersion, h.Modality)
	buf = binary.BigEndian.AppendUint16(buf, h.Pool)
	buf = binary.BigEndian.AppendUint32(buf, h.Frames)
	buf = binary.BigEndian.AppendUint64(buf, uint64(h.Seed))
	buf = binary.BigEndian.AppendUint64(buf, h.ConfigFP)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(h.TargetRMSEdB))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(h.SessionID)))
	buf = append(buf, h.SessionID...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(h.Err)))
	buf = append(buf, h.Err...)
	buf = append(buf, h.Codec)
	buf = binary.BigEndian.AppendUint32(buf, h.Epoch)
	buf = binary.BigEndian.AppendUint32(buf, h.ResumeStep)
	return append(buf, h.Flags), nil
}

func decodeHello(payload []byte) (*Hello, error) {
	const fixed = 1 + 1 + 2 + 4 + 8 + 8 + 8 // version, modality, pool, frames, seed, fingerprint, target
	if len(payload) < fixed+2 {
		return nil, fmt.Errorf("%w: hello section too short", ErrBadFrame)
	}
	if payload[0] != ProtocolVersion {
		return nil, fmt.Errorf("%w: hello protocol version %d, want %d", ErrBadFrame, payload[0], ProtocolVersion)
	}
	h := &Hello{
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
	if len(payload) != 10 { // codec + epoch + resume step + flags
		return nil, fmt.Errorf("%w: hello trailer is %d bytes, want 10", ErrBadFrame, len(payload))
	}
	h.Codec = payload[0]
	h.Epoch = binary.BigEndian.Uint32(payload[1:])
	h.ResumeStep = binary.BigEndian.Uint32(payload[5:])
	h.Flags = payload[9]
	return h, nil
}

// decodeScratch is the reusable decode state of one connection: the
// anchor slice and tensor a FrameReader refills message after message,
// so steady-state serving decodes with zero per-message allocations.
type decodeScratch struct {
	anchors []int32
	tensor  *tensor.Tensor
}

func decodePayload(m *Message, payload []byte, sc *decodeScratch) error {
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
		rest, err := decodeTensorSection(m, payload, sc)
		if err != nil {
			return err
		}
		payload = rest
	default:
		return fmt.Errorf("%w: bad tensor flag %d", ErrBadFrame, hasTensor)
	}
	if len(payload) == 0 {
		return nil // no hello section
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
// and returns the remaining payload. The section is length-prefixed and
// codec-tagged. With a scratch, the tensor decodes into (and the
// scratch then tracks) the reusable per-connection tensor.
func decodeTensorSection(m *Message, payload []byte, sc *decodeScratch) ([]byte, error) {
	var dst *tensor.Tensor
	if sc != nil {
		dst = sc.tensor
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
