package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/compress"
	"repro/internal/tensor"
)

// ---- codec negotiation ---------------------------------------------------------

// TestSessionNegotiatesCodec: a session that asks for each codec in its
// hello must be granted it, train to detach, and (for the lossy codecs)
// move strictly fewer uplink bytes than Raw.
func TestSessionNegotiatesCodec(t *testing.T) {
	bytesIn := make(map[compress.ID]int64)
	for _, id := range compress.IDs() {
		srv, err := NewBSServer(ServerConfig{
			MaxUE: 1, Steps: 8, EvalEvery: 4, ValAnchors: 8,
			Provision: tinySessionEnv,
		})
		if err != nil {
			t.Fatal(err)
		}
		h := tinyHello(0)
		h.Codec = uint8(id)
		cfg, d, _, err := tinySessionEnv(h)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Codec = id
		h.ConfigFP = cfg.Fingerprint()

		ueConn, bsConn := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- srv.Handle(bsConn) }()
		if err := ServeUE(ueConn, h, cfg, d); err != nil {
			t.Fatalf("codec %v: UE: %v", id, err)
		}
		if err := <-done; err != nil {
			t.Fatalf("codec %v: BS: %v", id, err)
		}
		snaps := srv.Sessions()
		if len(snaps) != 1 || snaps[0].State != SessionDetached {
			t.Fatalf("codec %v: session did not detach: %+v", id, snaps)
		}
		if uint8(id) != snaps[0].Hello.Codec {
			t.Fatalf("codec %v: session recorded codec %d", id, snaps[0].Hello.Codec)
		}
		bytesIn[id] = snaps[0].BytesIn
	}
	for _, id := range []compress.ID{compress.CodecFloat16, compress.CodecQuantInt8, compress.CodecTopK} {
		if bytesIn[id] >= bytesIn[compress.CodecRaw] {
			t.Errorf("codec %v moved %d uplink bytes, raw moved %d — no compression on the wire",
				id, bytesIn[id], bytesIn[compress.CodecRaw])
		}
	}
}

// TestJoinSessionRejectsCodecDowngrade: a UE must refuse an ack that
// grants a different codec than it requested.
func TestJoinSessionRejectsCodecDowngrade(t *testing.T) {
	ueConn, bsConn := net.Pipe()
	defer ueConn.Close()
	defer bsConn.Close()
	go func() {
		msg, err := ReadMessage(bsConn)
		if err != nil {
			return
		}
		ack := *msg.Hello
		ack.Codec = uint8(compress.CodecRaw) // ignore the request
		_ = WriteMessage(bsConn, &Message{Type: MsgSessionAck, Hello: &ack})
	}()
	h := Hello{SessionID: "ue-x", Seed: 1, Frames: 100, Pool: 4, Codec: uint8(compress.CodecQuantInt8)}
	if _, err := JoinSession(ueConn, h); err == nil || !strings.Contains(err.Error(), "codec") {
		t.Fatalf("downgraded ack accepted (err = %v)", err)
	}
}

// ---- negative-path handshakes --------------------------------------------------

// handleWithAck runs srv.Handle over a pipe while the client side sends
// raw bytes and then tries to read one diagnostic ack. It returns
// Handle's error and the ack (nil if none arrived).
func handleWithAck(t *testing.T, srv *BSServer, raw []byte) (error, *Message) {
	t.Helper()
	ueConn, bsConn := net.Pipe()
	handleErr := make(chan error, 1)
	go func() { handleErr <- srv.Handle(bsConn) }()

	// Write and read concurrently: the server may refuse after reading
	// only the frame header, leaving the writer mid-frame — net.Pipe has
	// no buffering, so a sequential write-then-read would deadlock
	// against the server's ack write (a real TCP socket would buffer).
	go func() { _, _ = ueConn.Write(raw) }()
	ackCh := make(chan *Message, 1)
	go func() {
		msg, err := ReadMessage(ueConn)
		if err != nil {
			ackCh <- nil
			return
		}
		ackCh <- msg
	}()

	var err error
	select {
	case err = <-handleErr:
	case <-time.After(5 * time.Second):
		t.Fatal("server hung on malformed handshake")
	}
	var ack *Message
	select {
	case ack = <-ackCh:
	case <-time.After(5 * time.Second):
		t.Fatal("client hung waiting for diagnostic ack")
	}
	ueConn.Close()
	return err, ack
}

func negotiationServer(t *testing.T) *BSServer {
	t.Helper()
	srv, err := NewBSServer(ServerConfig{MaxUE: 1, Steps: 1, Provision: tinySessionEnv})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func helloFrame(t *testing.T, h Hello) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Message{Type: MsgSessionHello, Hello: &h}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// restamp rewrites a frame's version byte and fixes the CRC.
func restamp(frame []byte, version byte) []byte {
	out := append([]byte(nil), frame...)
	out[3] = version
	crc := crc32.NewIEEE()
	crc.Write(out[:len(out)-4])
	binary.BigEndian.PutUint32(out[len(out)-4:], crc.Sum32())
	return out
}

// TestServerRefusesNewerFrameVersion: a frame stamped with any protocol
// version but ProtocolVersion — older or newer — must draw a diagnostic
// ack naming that version, not a hang or a bare close.
func TestServerRefusesNewerFrameVersion(t *testing.T) {
	for _, version := range []byte{0, 1, 2, ProtocolVersion + 1} {
		frame := restamp(helloFrame(t, tinyHello(0)), version)
		err, ack := handleWithAck(t, negotiationServer(t), frame)
		if err == nil {
			t.Fatalf("version-%d hello accepted", version)
		}
		if ack == nil || ack.Type != MsgSessionAck || ack.Hello == nil || ack.Hello.Err == "" {
			t.Fatalf("no diagnostic ack for version-%d hello (got %+v)", version, ack)
		}
		if want := fmt.Sprintf("protocol version %d", version); !strings.Contains(ack.Hello.Err, want) {
			t.Fatalf("ack reason %q does not name %q", ack.Hello.Err, want)
		}
	}
}

// TestRefusalReasonCutAtRuneBoundary: a refusal reason embeds the
// UE-chosen session id, so one past maxHelloString bytes must be cut at
// a rune boundary. The reason is `transport: session "` (20 bytes) then
// the id; with 3-byte runes from byte 20 on, byte 256 is inside a rune.
func TestRefusalReasonCutAtRuneBoundary(t *testing.T) {
	h := tinyHello(0)
	h.SessionID = strings.Repeat("€", 80) // 240 bytes
	h.ResumeStep = 1                      // refused: the server has no store
	err, ack := handleWithAck(t, negotiationServer(t), helloFrame(t, h))
	if err == nil {
		t.Fatal("resume against a storeless server accepted")
	}
	if ack == nil || ack.Hello == nil || ack.Hello.Err == "" {
		t.Fatalf("no diagnostic ack (got %+v)", ack)
	}
	if reason := ack.Hello.Err; !utf8.ValidString(reason) || len(reason) > maxHelloString {
		t.Fatalf("ack reason (%d bytes) is not valid UTF-8 of at most %d bytes: %q", len(reason), maxHelloString, reason)
	}
}

// TestServerRefusesUnknownCodec: an unknown codec id in the hello must
// be rejected at join time with the codec named in the ack.
func TestServerRefusesUnknownCodec(t *testing.T) {
	h := tinyHello(0)
	h.Codec = 200
	err, ack := handleWithAck(t, negotiationServer(t), helloFrame(t, h))
	if err == nil || !strings.Contains(err.Error(), "codec") {
		t.Fatalf("unknown codec err = %v", err)
	}
	if ack == nil || ack.Hello == nil || !strings.Contains(ack.Hello.Err, "codec") {
		t.Fatalf("no codec diagnostic in ack (got %+v)", ack)
	}
}

// TestServerRefusesCorruptHello: a hello whose payload fails the CRC
// must be refused with a diagnostic ack.
func TestServerRefusesCorruptHello(t *testing.T) {
	frame := helloFrame(t, tinyHello(0))
	frame[14] ^= 0xFF // corrupt payload without fixing the CRC
	err, ack := handleWithAck(t, negotiationServer(t), frame)
	if err == nil {
		t.Fatal("corrupt hello accepted")
	}
	if ack == nil || ack.Hello == nil || ack.Hello.Err == "" {
		t.Fatalf("no diagnostic ack for corrupt hello (got %+v)", ack)
	}
}

// TestServerRejectsTruncatedHello: a dialer that sends half a hello and
// disappears must terminate the session handler promptly.
func TestServerRejectsTruncatedHello(t *testing.T) {
	frame := helloFrame(t, tinyHello(0))
	srv := negotiationServer(t)
	ueConn, bsConn := net.Pipe()
	handleErr := make(chan error, 1)
	go func() { handleErr <- srv.Handle(bsConn) }()
	if _, err := ueConn.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	ueConn.Close()
	select {
	case err := <-handleErr:
		if err == nil {
			t.Fatal("truncated hello accepted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server hung on truncated hello")
	}
}

// TestFrameRejectsUnknownTensorCodec: a frame naming a codec
// the receiver does not implement must be rejected as a bad frame.
func TestFrameRejectsUnknownTensorCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Message{
		Type: MsgActivations, Step: 1, Tensor: tensor.Randn(rng, 1, 4),
	}); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	// The codec id byte follows the 12-byte header, the 4-byte anchor
	// count and the presence flag.
	frame[12+4+1] = 99
	crc := crc32.NewIEEE()
	crc.Write(frame[:len(frame)-4])
	binary.BigEndian.PutUint32(frame[len(frame)-4:], crc.Sum32())
	if _, err := ReadMessage(bytes.NewReader(frame)); err == nil {
		t.Fatal("unknown tensor codec accepted")
	}
}

// TestCodecRoundTripOnWire: every codec survives WriteMessage →
// ReadMessage with its id intact and its documented loss profile.
func TestCodecRoundTripOnWire(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	want := tensor.Randn(rng, 1, 8, 1, 2, 2)
	for _, id := range compress.IDs() {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, &Message{Type: MsgActivations, Step: 2, Tensor: want, Codec: id}); err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		if got.Codec != id {
			t.Fatalf("codec %v round-tripped as %v", id, got.Codec)
		}
		if id == compress.CodecRaw && tensor.MaxAbsDiff(got.Tensor, want) != 0 {
			t.Fatal("raw codec lossy on the wire")
		}
		if got.Tensor.Size() != want.Size() {
			t.Fatalf("%v: size %d != %d", id, got.Tensor.Size(), want.Size())
		}
	}
}
