package main

import (
	"bytes"
	"encoding/binary"
	"io"
	"sync"
	"time"

	"repro/internal/transport"
)

// The benchmark sees the program only through its public seams. The
// widest of them is the byte stream: every session is an
// io.ReadWriteCloser, so wrapping it and following the frame boundaries
// gives the UE-side view (how long did my round take) and, on the
// replica side of the coordinator, the service view (how long did the
// replica hold my activations) without a single stamp inside the
// program.

// clock reads nanoseconds since the run's epoch. The epoch is taken
// before any tap exists, so a reading of 0 means "not seen".
type clock struct{ t0 time.Time }

func (c clock) now() int64 { return int64(time.Since(c.t0)) }

// Wire layout of a frame, as transport.AppendMessage writes it:
// magic[2] type[1] version[1] step[4] length[4] payload[length] crc[4].
// TestFrameScannerFollowsWireFormat pins this against the real encoder.
const (
	frameHdrLen     = 12
	frameTrailerLen = 4
)

// frameScanner follows frame boundaries in a byte stream that arrives in
// arbitrary chunks.
type frameScanner struct {
	hdr     [frameHdrLen]byte
	have    int   // header bytes buffered
	left    int   // payload+trailer bytes still to come once the header is complete
	startAt int64 // arrival time of the current frame's first byte
}

// feed advances over p, which arrived at time now, and calls done once
// for every frame whose last byte is in p, with the arrival time of
// that frame's first byte.
func (s *frameScanner) feed(p []byte, now int64, done func(typ transport.MsgType, step uint32, startAt int64)) {
	for len(p) > 0 {
		if s.have < frameHdrLen {
			if s.have == 0 {
				s.startAt = now
			}
			n := copy(s.hdr[s.have:], p)
			s.have += n
			p = p[n:]
			if s.have < frameHdrLen {
				return
			}
			s.left = int(binary.BigEndian.Uint32(s.hdr[8:])) + frameTrailerLen
		}
		n := min(s.left, len(p))
		s.left -= n
		p = p[n:]
		if s.left == 0 {
			s.have = 0
			done(transport.MsgType(s.hdr[2]), binary.BigEndian.Uint32(s.hdr[4:]), s.startAt)
		}
	}
}

// roundRec is one training round as the UE saw it. Every stamp is
// taken at a point the UE's own goroutine reaches by itself — before a
// write, after a read — so each is caused by the one before it. (The
// return of a write is not such a point: on a synchronous pipe it comes
// when the peer has consumed the frame, and the writer learns of it
// only when it is next scheduled, often after the answer is already
// under way.)
type roundRec struct {
	step   uint32
	reqEnd int64 // batch request fully read
	wStart int64 // activation write begins (UE forward done)
	gFirst int64 // first byte of the cut gradient read
	gEnd   int64 // gradient fully read
	bwdEnd int64 // UE asks for the next frame (UE backward done)
}

// ueTap wraps the UE end of one connection (one session incarnation).
// All calls come from the session's single goroutine; the records are
// read only after it has ended.
type ueTap struct {
	inner io.ReadWriteCloser
	clk   clock
	in    frameScanner
	out   frameScanner

	helloStart  int64 // hello write begins
	ackEnd      int64 // ack fully read
	shutdownEnd int64 // clean shutdown fully read

	cur       roundRec
	train     bool // cur answers a batch request: a gradient follows
	awaitRead bool // cur's gradient is in; the next Read ends the backward pass
	rounds    []roundRec
	evalFwdNs int64 // UE forward time spent on evaluation requests
}

func newUETap(inner io.ReadWriteCloser, clk clock, roundsHint int) *ueTap {
	return &ueTap{inner: inner, clk: clk, rounds: make([]roundRec, 0, roundsHint)}
}

func (t *ueTap) Read(p []byte) (int, error) {
	if t.awaitRead {
		t.cur.bwdEnd = t.clk.now()
		t.rounds = append(t.rounds, t.cur)
		t.awaitRead = false
	}
	n, err := t.inner.Read(p)
	if n > 0 {
		now := t.clk.now()
		t.in.feed(p[:n], now, func(typ transport.MsgType, step uint32, startAt int64) {
			switch typ {
			case transport.MsgSessionAck:
				t.ackEnd = now
			case transport.MsgBatchRequest, transport.MsgEvalRequest:
				t.cur = roundRec{step: step, reqEnd: now}
				t.train = typ == transport.MsgBatchRequest
			case transport.MsgCutGradient:
				t.cur.gFirst, t.cur.gEnd = startAt, now
				t.awaitRead = true
			case transport.MsgShutdown:
				t.shutdownEnd = now
			}
		})
	}
	return n, err
}

func (t *ueTap) Write(p []byte) (int, error) {
	now := t.clk.now()
	t.out.feed(p, now, func(typ transport.MsgType, _ uint32, _ int64) {
		switch typ {
		case transport.MsgSessionHello:
			t.helloStart = now
		case transport.MsgActivations:
			t.cur.wStart = now
			if !t.train {
				t.evalFwdNs += now - t.cur.reqEnd
			}
		}
	})
	return t.inner.Write(p)
}

func (t *ueTap) Close() error { return t.inner.Close() }

// svcRec is one round as the replica's connection saw it.
type svcRec struct {
	step    uint32
	handed  int64 // the relay begins handing the activation frame's last chunk to the replica
	gradOut int64 // first byte of the gradient frame leaves the replica
}

// replicaTap wraps the connection coord.Replica.Dial returns, i.e. the
// coordinator's end of the pipe into a replica. Write carries UE→BS
// bytes and Read BS→UE bytes, each on its own relay goroutine, so the
// shared fields sit behind a mutex. Traced runs only.
//
// The activation frame is stamped before the write, not after it
// returns: on a synchronous pipe the write returns when the replica has
// consumed the frame, but the relay goroutine learns of it only when it
// is next scheduled, and on churn's 20 µs rounds the gradient is often
// back by then. A stamp taken before the write always precedes the
// gradient it causes.
type replicaTap struct {
	inner io.ReadWriteCloser
	clk   clock
	reg   *tapRegistry
	up    frameScanner // Write direction
	down  frameScanner // Read direction
	hello []byte       // raw bytes until the hello frame is complete

	mu       sync.Mutex
	lastStep uint32
	handed   int64
	recs     []svcRec
}

// tapRegistry maps a session id to its replica-side taps in dial order,
// which is incarnation order: a session's incarnations are sequential.
type tapRegistry struct {
	mu   sync.Mutex
	taps map[string][]*replicaTap
}

func (r *tapRegistry) add(id string, t *replicaTap) {
	r.mu.Lock()
	if r.taps == nil {
		r.taps = make(map[string][]*replicaTap)
	}
	r.taps[id] = append(r.taps[id], t)
	r.mu.Unlock()
}

func (r *tapRegistry) of(id string) []*replicaTap {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.taps[id]
}

func (t *replicaTap) Write(p []byte) (int, error) {
	if t.hello != nil {
		t.hello = append(t.hello, p...)
	}
	now := t.clk.now()
	t.up.feed(p, now, func(typ transport.MsgType, step uint32, _ int64) {
		switch typ {
		case transport.MsgSessionHello:
			if m, err := transport.ReadMessage(bytes.NewReader(t.hello)); err == nil && m.Hello != nil {
				t.reg.add(m.Hello.SessionID, t)
			}
			t.hello = nil
		case transport.MsgActivations:
			t.mu.Lock()
			t.lastStep, t.handed = step, now
			t.mu.Unlock()
		}
	})
	return t.inner.Write(p)
}

func (t *replicaTap) Read(p []byte) (int, error) {
	n, err := t.inner.Read(p)
	if n > 0 {
		now := t.clk.now()
		t.down.feed(p[:n], now, func(typ transport.MsgType, step uint32, startAt int64) {
			if typ != transport.MsgCutGradient {
				return
			}
			t.mu.Lock()
			if t.lastStep == step {
				t.recs = append(t.recs, svcRec{step: step, handed: t.handed, gradOut: startAt})
			}
			t.mu.Unlock()
		})
	}
	return n, err
}

func (t *replicaTap) Close() error { return t.inner.Close() }

func (t *replicaTap) records() []svcRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recs
}
