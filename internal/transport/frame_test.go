package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"runtime"
	"slices"
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

// TestFrameReaderAllocTracksBytesReceived: a bare 12-byte header that
// claims the largest legal payload and then hangs up must cost memory
// for the bytes that arrived, not for the claimed length — anyone can
// send such a header to the coordinator's hello peek.
func TestFrameReaderAllocTracksBytesReceived(t *testing.T) {
	header := []byte{frameMagic[0], frameMagic[1], byte(MsgSessionHello), ProtocolVersion, 0, 0, 0, 0, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(header[8:], maxFramePayload)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadRawMessage(bytes.NewReader(header))
	runtime.ReadMemStats(&after)
	if err != io.EOF && err != io.ErrUnexpectedEOF {
		t.Fatalf("header then EOF: err = %v, want EOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("header claiming %d B then EOF allocated %d B, want < 1 MiB", maxFramePayload, got)
	}
}

// TestFrameReaderLargeFrameRoundTrip: a frame many read steps long —
// delivered whole or one byte per Read — still decodes, and a reused
// reader then reads the same size with no further allocation.
func TestFrameReaderLargeFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := &Message{Type: MsgActivations, Step: 7, Anchors: []int32{1, 2}, Tensor: tensor.Randn(rng, 1, 4, 1, 64, 160)}
	var frame bytes.Buffer
	if err := WriteMessage(&frame, m); err != nil {
		t.Fatal(err)
	}
	if frame.Len() < 4*frameReadStep {
		t.Fatalf("test frame is %d B, want several read steps", frame.Len())
	}
	for name, r := range map[string]io.Reader{
		"whole":      bytes.NewReader(frame.Bytes()),
		"fragmented": &oneByteReader{data: frame.Bytes()},
	} {
		got, err := ReadMessage(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Step != m.Step || !got.Tensor.SameShape(m.Tensor) || !slices.Equal(got.Tensor.Data(), m.Tensor.Data()) {
			t.Fatalf("%s: large frame did not round-trip", name)
		}
	}
	fr := NewFrameReader(&replayReader{data: frame.Bytes()})
	defer fr.Release()
	if _, err := fr.ReadMessage(); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(10, func() {
		if _, err := fr.ReadMessage(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("warm reader allocates %.1f allocs/op on a large frame, want 0", avg)
	}
}
