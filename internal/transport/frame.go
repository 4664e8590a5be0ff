package transport

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// Zero-copy frame path. FrameReader and FrameWriter bind a connection
// to reusable, grow-only frame buffers drawn from a shared pool, plus
// (on the read side) a decode scratch holding the anchor slice and
// tensor that are refilled message after message. Once a session's
// buffers have grown to its steady-state frame size, reading and
// writing a message performs zero allocations in either direction —
// the property the bench-regression CI step pins.
//
// Ownership rules (DESIGN.md §8): everything a FrameReader returns —
// the Message, its Anchors, its Tensor, raw payload bytes — is owned by
// the reader and valid only until the next Read*/Release call; callers
// that need a value past that point copy it. A FrameWriter's buffer is
// private to it; Release returns the buffers to the shared pool for the
// next session (the per-connection buffers of a finished session are
// how session churn stays allocation-flat).

// frameBufPool recycles frame buffers across sessions.
var frameBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

func getFrameBuf() []byte  { return *frameBufPool.Get().(*[]byte) }
func putFrameBuf(b []byte) { b = b[:0]; frameBufPool.Put(&b) }

// FrameReader reads protocol frames from a stream through a reusable
// per-connection buffer. It is not safe for concurrent use; a session
// has exactly one reader.
type FrameReader struct {
	r   io.Reader
	buf []byte
	sc  decodeScratch
	msg Message
}

// NewFrameReader wraps r with a pooled read buffer.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r, buf: getFrameBuf()}
}

// Release returns the reader's buffer to the shared pool. The reader
// must not be used afterwards.
func (fr *FrameReader) Release() {
	if fr.buf != nil {
		putFrameBuf(fr.buf)
		fr.buf = nil
	}
}

// frameReadStep is the least a frame that outgrows the read buffer
// grows it by per read; see readGrowing.
const frameReadStep = 64 << 10

// grow resizes the read buffer to n bytes, preserving current contents
// (the frame header is read before the body length is known) and
// growing capacity only.
func (fr *FrameReader) grow(n int) []byte {
	if cap(fr.buf) < n {
		nb := make([]byte, n)
		copy(nb, fr.buf)
		fr.buf = nb
	}
	fr.buf = fr.buf[:n]
	return fr.buf
}

// ReadFrame reads and CRC-validates one frame, returning its header and
// payload bytes. The payload aliases the reader's buffer: it is valid
// only until the next ReadFrame.
func (fr *FrameReader) ReadFrame() (FrameHeader, []byte, error) {
	var hdr FrameHeader
	header := fr.grow(12)
	if _, err := io.ReadFull(fr.r, header); err != nil {
		return hdr, nil, err
	}
	if header[0] != frameMagic[0] || header[1] != frameMagic[1] {
		return hdr, nil, fmt.Errorf("%w: bad magic %x", ErrBadFrame, header[:2])
	}
	if header[3] != ProtocolVersion {
		return hdr, nil, fmt.Errorf("%w: protocol version %d, want %d",
			ErrBadFrame, header[3], ProtocolVersion)
	}
	hdr.Type = MsgType(header[2])
	hdr.Step = binary.BigEndian.Uint32(header[4:])
	length := binary.BigEndian.Uint32(header[8:])
	if length > maxFramePayload {
		return hdr, nil, fmt.Errorf("%w: length %d exceeds limit", ErrBadFrame, length)
	}
	// Payload + trailer follow the header in the buffer, so the CRC runs
	// over one contiguous span. A buffer that already fits takes them in
	// one read.
	total := 12 + int(length) + 4
	if cap(fr.buf) >= total {
		if _, err := io.ReadFull(fr.r, fr.grow(total)[12:]); err != nil {
			return hdr, nil, err
		}
	} else if err := fr.readGrowing(total); err != nil {
		return hdr, nil, err
	}
	buf := fr.buf
	body := buf[:12+length]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(buf[12+length:]) {
		return hdr, nil, ErrChecksum
	}
	return hdr, body[12:], nil
}

// readGrowing reads the rest of a frame the buffer cannot hold, growing
// it by at most the bytes already held (at least frameReadStep) per
// read, so memory tracks what the peer actually sent: a header that
// claims a large payload and then stalls or hangs up costs one step,
// not the claimed length.
func (fr *FrameReader) readGrowing(total int) error {
	for have := len(fr.buf); have < total; {
		next := min(total, have+max(have, frameReadStep))
		if _, err := io.ReadFull(fr.r, fr.grow(next)[have:]); err != nil {
			if err == io.EOF && have > 12 {
				err = io.ErrUnexpectedEOF // the frame broke off mid-payload
			}
			return err
		}
		have = next
	}
	return nil
}

// ReadMessage reads, validates and decodes one frame into the reader's
// reusable Message. The message, its anchors and its tensor are owned
// by the reader and valid only until the next read.
func (fr *FrameReader) ReadMessage() (*Message, error) {
	hdr, payload, err := fr.ReadFrame()
	if err != nil {
		return nil, err
	}
	fr.msg = Message{Type: hdr.Type, Step: hdr.Step}
	if err := decodePayload(&fr.msg, payload, &fr.sc); err != nil {
		return nil, err
	}
	return &fr.msg, nil
}

// ReadRawMessage reads one frame from r and returns the decoded message
// together with a private copy of the frame's raw wire bytes (header,
// payload and CRC trailer), suitable for byte-exact relay onto another
// stream. It allocates per call — built for handshake peeking (the
// coordinator routing on a hello before splicing the connection), not
// for the serving hot path.
func ReadRawMessage(r io.Reader) (*Message, []byte, error) {
	fr := NewFrameReader(r)
	defer fr.Release()
	hdr, payload, err := fr.ReadFrame()
	if err != nil {
		return nil, nil, err
	}
	raw := append([]byte(nil), fr.buf...)
	m := &Message{Type: hdr.Type, Step: hdr.Step}
	var sc decodeScratch
	if err := decodePayload(m, payload, &sc); err != nil {
		return nil, nil, err
	}
	return m, raw, nil
}

// FrameWriter writes protocol frames to a stream through a reusable
// per-connection buffer, one Write call per frame. It is not safe for
// concurrent use; a session has exactly one writer.
type FrameWriter struct {
	w   io.Writer
	buf []byte
}

// NewFrameWriter wraps w with a pooled write buffer.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: w, buf: getFrameBuf()}
}

// Release returns the writer's buffer to the shared pool. The writer
// must not be used afterwards.
func (fw *FrameWriter) Release() {
	if fw.buf != nil {
		putFrameBuf(fw.buf)
		fw.buf = nil
	}
}

// WriteMessage encodes one frame into the writer's buffer and writes
// it. version must be ProtocolVersion (see AppendMessage).
func (fw *FrameWriter) WriteMessage(m *Message, version uint8) error {
	buf, err := AppendMessage(fw.buf[:0], m, version)
	if err != nil {
		return err
	}
	_, err = fw.w.Write(buf)
	fw.buf = buf[:0]
	return err
}
