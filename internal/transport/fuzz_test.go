package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"

	"repro/internal/compress"
	"repro/internal/tensor"
)

// fuzzSeedFrames is one valid frame of every message type, a tensor
// section in every codec and a v3 hello carrying a resume token among
// them.
func fuzzSeedFrames(tb testing.TB) [][]byte {
	rng := rand.New(rand.NewSource(3))
	hello := &Hello{
		SessionID: "ue-7", Seed: 7, Frames: 600, Pool: 40,
		Modality: 2, ConfigFP: 0xFEEDFACE, TargetRMSEdB: 4.5, Codec: uint8(compress.CodecQuantInt8),
		Epoch: 3, ResumeStep: 40, Flags: HelloFlagResumeRejected,
	}
	msgs := []*Message{
		{Type: MsgBatchRequest, Step: 1, Anchors: []int32{3, 5, 8}},
		{Type: MsgEvalRequest, Step: 2, Anchors: []int32{13, 21}},
		{Type: MsgShutdown, Step: 3},
		{Type: MsgSessionHello, Hello: hello},
		{Type: MsgSessionAck, Hello: &Hello{SessionID: "ue-7", Err: "server full"}},
		{Type: MsgCheckpoint, Step: 40},
	}
	for _, codec := range compress.IDs() {
		msgs = append(msgs,
			&Message{Type: MsgActivations, Step: 4, Anchors: []int32{1, 2}, Tensor: tensor.Randn(rng, 1, 2, 1, 2, 3), Codec: codec},
			&Message{Type: MsgCutGradient, Step: 4, Tensor: tensor.Randn(rng, 1, 2, 1, 2, 3), Codec: codec})
	}
	frames := make([][]byte, len(msgs))
	for i, m := range msgs {
		frame, err := AppendMessage(nil, m, ProtocolVersion)
		if err != nil {
			tb.Fatalf("seed %v: %v", m.Type, err)
		}
		frames[i] = frame
	}
	return frames
}

// sealFrame makes data a frame whose length field and CRC trailer are
// right for data's own bytes (the last four are taken as the old
// trailer and replaced), so mutations reach the payload decoders instead
// of stopping at the checksum.
func sealFrame(data []byte) []byte {
	frame := append([]byte(nil), data[:len(data)-4]...)
	binary.BigEndian.PutUint32(frame[8:], uint32(len(frame)-12))
	return binary.BigEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame))
}

// FuzzReadMessage throws arbitrary bytes at the wire reader. Whatever
// the input, reading must not panic, and every error must be one the
// protocol promises: ErrBadFrame, ErrChecksum, or the stream ending.
// Each input is read as sent and again sealed, and the sealed frame
// goes twice through one FrameReader, so decoding into a scratch that
// already holds a tensor is covered too.
func FuzzReadMessage(f *testing.F) {
	for _, frame := range fuzzSeedFrames(f) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(what string, err error) {
			t.Helper()
			if err == nil || errors.Is(err, ErrBadFrame) || errors.Is(err, ErrChecksum) ||
				err == io.EOF || err == io.ErrUnexpectedEOF {
				return
			}
			t.Fatalf("%s: error outside the reader's contract: %v", what, err)
		}
		_, err := ReadMessage(bytes.NewReader(data))
		check("as sent", err)
		if len(data) < 16 {
			return
		}
		sealed := sealFrame(data)
		fr := NewFrameReader(bytes.NewReader(append(append([]byte(nil), sealed...), sealed...)))
		defer fr.Release()
		for i := 0; i < 2; i++ {
			_, err := fr.ReadMessage()
			check("sealed", err)
		}
	})
}

// TestFuzzSeedsDecode: every seed frame is valid as written, so the
// corpus starts from the inside of every decoder.
func TestFuzzSeedsDecode(t *testing.T) {
	for _, frame := range fuzzSeedFrames(t) {
		if _, err := ReadMessage(bytes.NewReader(frame)); err != nil {
			t.Fatalf("seed frame type %d: %v", frame[2], err)
		}
		if !bytes.Equal(sealFrame(frame), frame) {
			t.Fatalf("seed frame type %d: sealing a valid frame changed it", frame[2])
		}
	}
}
