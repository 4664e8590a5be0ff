package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// ---- FaultConn unit behaviour --------------------------------------------------

type closableBuffer struct {
	bytes.Buffer
	closed bool
}

func (c *closableBuffer) Close() error { c.closed = true; return nil }

func TestFaultConnWriteBudgetTruncates(t *testing.T) {
	var sink closableBuffer
	fc := NewFaultConn(&sink, -1, 10)
	if n, err := fc.Write(make([]byte, 6)); n != 6 || err != nil {
		t.Fatalf("within budget: n=%d err=%v", n, err)
	}
	// The fatal write delivers only the budget remainder — a truncated
	// frame — then the conn is dead.
	n, err := fc.Write(make([]byte, 6))
	if n != 4 || !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("budget cut: n=%d err=%v", n, err)
	}
	if !fc.Tripped() || !sink.closed {
		t.Fatal("fault did not trip/close")
	}
	if n, err := fc.Write([]byte{1}); n != 0 || !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("post-trip write: n=%d err=%v", n, err)
	}
	if sink.Len() != 10 {
		t.Fatalf("%d bytes reached the wire, want exactly the 10-byte budget", sink.Len())
	}
}

func TestFaultConnUnlimitedBudgetsPassThrough(t *testing.T) {
	var sink closableBuffer
	sink.WriteString("hello")
	fc := NewFaultConn(&sink, -1, -1)
	buf := make([]byte, 5)
	if n, err := fc.Read(buf); n != 5 || err != nil {
		t.Fatalf("read: n=%d err=%v", n, err)
	}
	if fc.Tripped() {
		t.Fatal("unlimited budget tripped")
	}
}

// ---- dropped connection mid-train-round ----------------------------------------

// TestSessionDropMidTrainRoundFreesSlot: a UE whose link dies partway
// through an activations upload must fail its session — truncated frame
// and all — and free the MaxUE slot for the next UE.
func TestSessionDropMidTrainRoundFreesSlot(t *testing.T) {
	prov := cachedProvision()
	srv, err := NewBSServer(ServerConfig{
		MaxUE: 1, Steps: 40, EvalEvery: 10, ValAnchors: 8, Provision: prov,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := tinyHello(0)
	cfg, d, _, err := prov(h)
	if err != nil {
		t.Fatal(err)
	}
	h.ConfigFP = cfg.Fingerprint()

	ueConn, bsConn := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.Handle(bsConn) }()
	// Enough budget for the hello and a few rounds; the cut lands in
	// the middle of a later activations frame.
	fc := NewFaultConn(ueConn, -1, 1200)
	if err := ServeUE(fc, h, cfg, d); err == nil {
		t.Fatal("UE survived its own link dying")
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("server kept a session whose UE died mid-round")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server hung on a dropped connection")
	}
	if live := srv.ActiveSessions(); live != 0 {
		t.Fatalf("%d sessions live after the drop", live)
	}

	// The slot is free: a fresh UE joins and completes.
	h2 := tinyHello(1)
	cfg2, d2, _, err := prov(h2)
	if err != nil {
		t.Fatal(err)
	}
	h2.ConfigFP = cfg2.Fingerprint()
	ueConn2, bsConn2 := net.Pipe()
	done2 := make(chan error, 1)
	go func() { done2 <- srv.Handle(bsConn2) }()
	if err := ServeUE(ueConn2, h2, cfg2, d2); err != nil {
		t.Fatalf("post-drop UE: %v", err)
	}
	if err := <-done2; err != nil {
		t.Fatalf("post-drop session: %v", err)
	}
	snaps := srv.Sessions()
	if len(snaps) != 2 || snaps[0].State != SessionFailed || snaps[1].State != SessionDetached {
		t.Fatalf("lifecycle records after drop + recovery: %+v", snaps)
	}
}

// TestTruncatedFrameAfterNegotiationFailsSession: a hand-crafted half
// frame sent after a successful handshake must fail the session with a
// frame error, never a hang.
func TestTruncatedFrameAfterNegotiationFailsSession(t *testing.T) {
	prov := cachedProvision()
	srv, err := NewBSServer(ServerConfig{
		MaxUE: 1, Steps: 10, EvalEvery: 5, ValAnchors: 8, Provision: prov,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := tinyHello(0)
	cfg, _, _, err := prov(h)
	if err != nil {
		t.Fatal(err)
	}
	h.ConfigFP = cfg.Fingerprint()

	ueConn, bsConn := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.Handle(bsConn) }()
	if _, err := JoinSession(ueConn, h); err != nil {
		t.Fatal(err)
	}
	// Read the first batch request, then answer with half an
	// activations frame and vanish.
	req, err := ReadMessage(ueConn)
	if err != nil {
		t.Fatal(err)
	}
	if req.Type != MsgBatchRequest {
		t.Fatalf("first request %v", req.Type)
	}
	var frame bytes.Buffer
	if err := WriteMessage(&frame, &Message{Type: MsgActivations, Step: req.Step}); err != nil {
		t.Fatal(err)
	}
	half := frame.Bytes()[:frame.Len()/2]
	if _, err := ueConn.Write(half); err != nil {
		t.Fatal(err)
	}
	ueConn.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("server accepted a truncated frame")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server hung on a truncated frame")
	}
	if live := srv.ActiveSessions(); live != 0 {
		t.Fatalf("%d sessions live after truncated frame", live)
	}
}

// TestUESessionRideThroughRepeatedDrops: the reconnect loop survives
// several consecutive link failures within one training run, resuming
// each time, and still detaches cleanly.
func TestUESessionRideThroughRepeatedDrops(t *testing.T) {
	prov := cachedProvision()
	srv, err := NewBSServer(ServerConfig{
		MaxUE: 1, Steps: 20, EvalEvery: 10, ValAnchors: 16,
		Provision: prov, Store: testJournal(t), CheckpointEvery: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := tinyHello(0)
	cfg, d, _, err := prov(h)
	if err != nil {
		t.Fatal(err)
	}
	cut := func(budget int64) func(io.ReadWriteCloser) io.ReadWriteCloser {
		return func(c io.ReadWriteCloser) io.ReadWriteCloser { return NewFaultConn(c, -1, budget) }
	}
	dialer := &pipeDialer{srv: srv, faults: map[int]func(io.ReadWriteCloser) io.ReadWriteCloser{
		0: cut(1500), // dies early in training
		1: cut(1500), // dies again after resuming
	}}
	us := &UESession{
		Hello: h, Cfg: cfg, Data: d,
		Backoff: Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
		sleep:   func(time.Duration) {},
	}
	if err := us.Run(dialer.dial); err != nil {
		t.Fatalf("UESession.Run through repeated drops: %v", err)
	}
	dialer.wait()
	if got := us.Resumes(); got < 2 {
		t.Fatalf("resumed %d times, want ≥ 2", got)
	}
	snaps := srv.Sessions()
	last := snaps[len(snaps)-1]
	if last.State != SessionDetached || last.Steps != 20 {
		t.Fatalf("final incarnation: %+v", last)
	}
}

// TestFaultConnConcurrencySafe shakes reads/writes/closes from multiple
// goroutines for the race detector.
func TestFaultConnConcurrencySafe(t *testing.T) {
	a, b := net.Pipe()
	fc := NewFaultConn(a, 256, 256)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { defer wg.Done(); io.Copy(io.Discard, b) }()
	go func() {
		defer wg.Done()
		buf := make([]byte, 16)
		for {
			if _, err := fc.Write(buf); err != nil {
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		buf := make([]byte, 16)
		for {
			if _, err := fc.Read(buf); err != nil {
				return
			}
		}
	}()
	go func() {
		time.Sleep(time.Millisecond)
		b.Write([]byte(strings.Repeat("x", 512)))
		b.Close()
	}()
	wg.Wait()
	if !fc.Tripped() {
		t.Log("fault conn closed before budgets exhausted (acceptable)")
	}
}
