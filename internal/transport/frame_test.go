package transport

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"repro/internal/compress"
	"repro/internal/tensor"
)

// The zero-copy frame path: FrameWriter/FrameReader must round-trip
// byte-identically with the one-shot WriteMessage/ReadMessage pair, and
// steady-state serving must perform zero allocations per message in
// both directions — the property TestFramePathZeroAllocSteadyState pins.

func frameTestMessage(codec compress.ID) *Message {
	rng := rand.New(rand.NewSource(5))
	return &Message{
		Type:    MsgActivations,
		Step:    42,
		Anchors: []int32{9, 11, 13, 15},
		Tensor:  tensor.Randn(rng, 1, 8, 1, 2, 2),
		Codec:   codec,
	}
}

func TestFrameWriterMatchesWriteMessage(t *testing.T) {
	for _, codec := range compress.IDs() {
		m := frameTestMessage(codec)
		var legacy bytes.Buffer
		if err := WriteMessage(&legacy, m); err != nil {
			t.Fatal(err)
		}
		var buffered bytes.Buffer
		fw := NewFrameWriter(&buffered)
		if err := fw.WriteMessage(m, ProtocolVersion); err != nil {
			t.Fatal(err)
		}
		fw.Release()
		if !bytes.Equal(legacy.Bytes(), buffered.Bytes()) {
			t.Fatalf("codec %v: FrameWriter bytes differ from WriteMessage", codec)
		}
		// And the reader inverts them through its reusable scratch.
		fr := NewFrameReader(&buffered)
		got, err := fr.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != m.Type || got.Step != m.Step || got.Codec != codec {
			t.Fatalf("codec %v: header round-trip: %+v", codec, got)
		}
		if len(got.Anchors) != len(m.Anchors) {
			t.Fatalf("codec %v: anchors %v", codec, got.Anchors)
		}
		if !got.Tensor.SameShape(m.Tensor) {
			t.Fatalf("codec %v: tensor shape %v", codec, got.Tensor.Shape())
		}
		fr.Release()
	}
}

// replayReader replays the same byte slice forever, allocation-free.
type replayReader struct {
	data []byte
	off  int
}

func (r *replayReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

func TestFramePathZeroAllocSteadyState(t *testing.T) {
	for _, codec := range compress.IDs() {
		m := frameTestMessage(codec)

		fw := NewFrameWriter(io.Discard)
		defer fw.Release()
		if err := fw.WriteMessage(m, ProtocolVersion); err != nil { // warm the buffer
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(50, func() {
			if err := fw.WriteMessage(m, ProtocolVersion); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("codec %v: encode path allocates %.1f allocs/op, want 0", codec, avg)
		}

		var frame bytes.Buffer
		if err := WriteMessage(&frame, m); err != nil {
			t.Fatal(err)
		}
		fr := NewFrameReader(&replayReader{data: frame.Bytes()})
		defer fr.Release()
		if _, err := fr.ReadMessage(); err != nil { // warm scratch + buffer
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(50, func() {
			if _, err := fr.ReadMessage(); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("codec %v: decode path allocates %.1f allocs/op, want 0", codec, avg)
		}
	}
}

func TestFrameReaderFragmentedStream(t *testing.T) {
	m := frameTestMessage(compress.CodecRaw)
	var frame bytes.Buffer
	if err := WriteMessage(&frame, m); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&oneByteReader{data: frame.Bytes()})
	defer fr.Release()
	got, err := fr.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != m.Step || !got.Tensor.SameShape(m.Tensor) {
		t.Fatalf("fragmented round-trip: %+v", got)
	}
}

// oneByteReader delivers one byte per Read, the worst-case fragmentation.
type oneByteReader struct {
	data []byte
	off  int
}

func (r *oneByteReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		return 0, io.EOF
	}
	p[0] = r.data[r.off]
	r.off++
	return 1, nil
}
