package transport

import (
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/split"
)

// tinySessionEnv is the test-scale Provision: 8×8 images, short
// sequences, small batches — the multi-UE analogue of tinyDataset /
// tinyConfig.
func tinySessionEnv(h Hello) (split.Config, *dataset.Dataset, *dataset.Split, error) {
	gcfg := dataset.DefaultGenConfig()
	gcfg.NumFrames = int(h.Frames)
	gcfg.Seed = h.Seed
	gcfg.Scene.ImageH, gcfg.Scene.ImageW = 8, 8
	gcfg.Scene.FocalPixels = 5
	d, err := dataset.Generate(gcfg)
	if err != nil {
		return split.Config{}, nil, nil, err
	}
	cfg := tinyConfig(split.Modality(h.Modality), int(h.Pool))
	cfg.Seed = h.Seed
	sp, err := dataset.NewSplit(d, cfg.SeqLen, cfg.HorizonFrames, d.Len()*3/4)
	if err != nil {
		return split.Config{}, nil, nil, err
	}
	return cfg, d, sp, nil
}

func tinyHello(i int) Hello {
	return Hello{
		SessionID: fmt.Sprintf("ue-%d", i),
		Seed:      int64(100 + i),
		Frames:    200,
		Pool:      4,
		Modality:  uint8(split.ImageRF),
	}
}

// runMultiUE trains n UEs against one server over net.Pipe and fails the
// test on any session or UE error.
func runMultiUE(t *testing.T, srv *BSServer, n int) {
	t.Helper()
	runUERange(t, srv, 0, n)
}

// runUERange trains UEs tinyHello(from) … tinyHello(to-1) concurrently.
func runUERange(t *testing.T, srv *BSServer, from, to int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, 2*(to-from))
	for i := from; i < to; i++ {
		h := tinyHello(i)
		cfg, d, _, err := tinySessionEnv(h)
		if err != nil {
			t.Fatal(err)
		}
		h.ConfigFP = cfg.Fingerprint()
		ueConn, bsConn := net.Pipe()
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := srv.Handle(bsConn); err != nil {
				errs <- fmt.Errorf("BS %s: %w", h.SessionID, err)
			}
		}()
		go func() {
			defer wg.Done()
			if err := ServeUE(ueConn, h, cfg, d); err != nil {
				errs <- fmt.Errorf("UE %s: %w", h.SessionID, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func checkConverged(t *testing.T, srv *BSServer, n, steps int) {
	t.Helper()
	snaps := srv.Sessions()
	if len(snaps) != n {
		t.Fatalf("got %d sessions, want %d", len(snaps), n)
	}
	for _, s := range snaps {
		if s.State != SessionDetached {
			t.Errorf("session %s state %v, want detached (err %q)", s.ID, s.State, s.Err)
			continue
		}
		if s.Steps != steps {
			t.Errorf("session %s ran %d steps, want %d", s.ID, s.Steps, steps)
		}
		hist := s.Metrics.ValRMSE.Values
		if len(hist) < 2 {
			t.Errorf("session %s has %d evals, want ≥ 2", s.ID, len(hist))
			continue
		}
		first, last := hist[0], hist[len(hist)-1]
		if last <= 0 || last > 100 {
			t.Errorf("session %s final RMSE %g dB out of range", s.ID, last)
		}
		if last >= first {
			t.Errorf("session %s did not converge: RMSE %g → %g dB", s.ID, first, last)
		}
		if s.BytesIn == 0 || s.BytesOut == 0 {
			t.Errorf("session %s counted no wire traffic (%d in, %d out)", s.ID, s.BytesIn, s.BytesOut)
		}
	}
}

func TestBSServerConcurrentSessions(t *testing.T) {
	srv, err := NewBSServer(ServerConfig{
		MaxUE: 4,
		Steps: 60, EvalEvery: 15, ValAnchors: 24,
		Provision: tinySessionEnv,
	})
	if err != nil {
		t.Fatal(err)
	}
	runMultiUE(t, srv, 3)
	checkConverged(t, srv, 3, 60)
}

// TestBSServerSchedulingInvariance (invariant 5): session isolation
// means the dispatcher may reorder and coalesce rounds in time but must
// never change any session's mathematics — the same four sessions
// served concurrently under a 2 ms window and one at a time give
// identical losses and RMSEs.
func TestBSServerSchedulingInvariance(t *testing.T) {
	const n = 4
	run := func(window time.Duration, serve func(*BSServer)) map[string][2][]float64 {
		srv, err := NewBSServer(ServerConfig{
			MaxUE: n,
			Steps: 20, EvalEvery: 10, ValAnchors: 24,
			Provision:   tinySessionEnv,
			BatchWindow: window,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		serve(srv)
		out := make(map[string][2][]float64)
		for _, s := range srv.Sessions() {
			out[s.ID] = [2][]float64{s.Metrics.Loss.Values, s.Metrics.ValRMSE.Values}
		}
		return out
	}
	together := run(2*time.Millisecond, func(srv *BSServer) { runMultiUE(t, srv, n) })
	alone := run(0, func(srv *BSServer) {
		for i := 0; i < n; i++ {
			runUERange(t, srv, i, i+1)
		}
	})
	if len(together) != n || len(alone) != n {
		t.Fatalf("session counts: %d together, %d alone", len(together), len(alone))
	}
	for id, a := range together {
		b := alone[id]
		if len(a[0]) != 20 || len(a[1]) != 2 {
			t.Fatalf("session %s recorded %d losses, %d evals", id, len(a[0]), len(a[1]))
		}
		if !slices.Equal(a[0], b[0]) {
			t.Fatalf("session %s losses differ: %v vs %v", id, a[0], b[0])
		}
		if !slices.Equal(a[1], b[1]) {
			t.Fatalf("session %s RMSEs differ: %v vs %v", id, a[1], b[1])
		}
	}
}

func TestBSServerOverTCP(t *testing.T) {
	srv, err := NewBSServer(ServerConfig{
		MaxUE: 2,
		Steps: 20, EvalEvery: 10, ValAnchors: 16,
		Provision: tinySessionEnv,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		h := tinyHello(i)
		cfg, d, _, err := tinySessionEnv(h)
		if err != nil {
			t.Fatal(err)
		}
		h.ConfigFP = cfg.Fingerprint()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			if err := ServeUE(conn, h, cfg, d); err != nil {
				t.Errorf("UE %s: %v", h.SessionID, err)
			}
		}()
	}
	wg.Wait()
	ln.Close()
	if err := <-serveErr; err == nil {
		t.Fatal("Serve returned nil after listener close")
	}
	srv.Wait()
	checkConverged(t, srv, 2, 20)
}

func TestBSServerAdmissionControl(t *testing.T) {
	srv, err := NewBSServer(ServerConfig{MaxUE: 2, Provision: tinySessionEnv})
	if err != nil {
		t.Fatal(err)
	}
	st := srv.store
	first, old, err := st.admit(tinyHello(0), ProtocolVersion, nil, 2)
	if err != nil || old != nil {
		t.Fatalf("fresh admit: %v (superseded %v)", err, old)
	}
	// A duplicate id supersedes the live incarnation instead of being
	// refused: the old record is fenced and retired, the slot count is
	// unchanged.
	second, superseded, err := st.admit(tinyHello(0), ProtocolVersion, nil, 2)
	if err != nil || superseded != first {
		t.Fatalf("duplicate admit should supersede: err=%v superseded=%v", err, superseded)
	}
	if second.epoch <= first.epoch {
		t.Fatalf("superseding epoch %d not newer than %d", second.epoch, first.epoch)
	}
	if !first.finished() {
		t.Fatal("superseded session not fenced")
	}
	if _, _, err := st.admit(tinyHello(1), ProtocolVersion, nil, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.admit(tinyHello(2), ProtocolVersion, nil, 2); err == nil || !strings.Contains(err.Error(), "full") {
		t.Fatalf("over-capacity admit: err = %v", err)
	}
	if _, _, err := st.admit(Hello{}, ProtocolVersion, nil, 2); err == nil {
		t.Fatal("empty session id admitted")
	}
	if got := srv.ActiveSessions(); got != 2 {
		t.Fatalf("ActiveSessions = %d, want 2", got)
	}
	// A finished session is evicted from the live map, freeing its slot
	// and its id.
	st.finish(second, SessionDetached, nil)
	if got := srv.ActiveSessions(); got != 1 {
		t.Fatalf("ActiveSessions after detach = %d, want 1", got)
	}
	if _, _, err := st.admit(tinyHello(2), ProtocolVersion, nil, 2); err != nil {
		t.Fatalf("admit after detach: %v", err)
	}
	if _, _, err := st.admit(tinyHello(3), ProtocolVersion, nil, 2); err == nil || !strings.Contains(err.Error(), "full") {
		t.Fatalf("rejoin should respect capacity: err = %v", err)
	}
	// Finished sessions live on only as retained snapshots.
	if n := st.retiredCount(); n != 2 {
		t.Fatalf("retired %d snapshots, want 2 (superseded + detached)", n)
	}
}

func TestBSServerRejectsFingerprintMismatch(t *testing.T) {
	srv, err := NewBSServer(ServerConfig{Provision: tinySessionEnv})
	if err != nil {
		t.Fatal(err)
	}
	h := tinyHello(0)
	h.ConfigFP = 0xDEADBEEF // not the fingerprint tinySessionEnv derives
	ueConn, bsConn := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.Handle(bsConn) }()
	_, joinErr := JoinSession(ueConn, h)
	if joinErr == nil || !strings.Contains(joinErr.Error(), "fingerprint") {
		t.Fatalf("join with wrong fingerprint: err = %v", joinErr)
	}
	if err := <-done; err == nil {
		t.Fatal("server accepted mismatched fingerprint")
	}
	snaps := srv.Sessions()
	if len(snaps) != 1 || snaps[0].State != SessionFailed {
		t.Fatalf("session should be failed, got %+v", snaps)
	}
}

func TestBSServerRejectsNewerHelloVersion(t *testing.T) {
	srv, err := NewBSServer(ServerConfig{Provision: tinySessionEnv})
	if err != nil {
		t.Fatal(err)
	}
	h := tinyHello(0)
	h.Version = ProtocolVersion + 1
	ueConn, bsConn := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.Handle(bsConn) }()
	if err := WriteMessage(ueConn, &Message{Type: MsgSessionHello, Hello: &h}); err != nil {
		t.Fatal(err)
	}
	ack, err := ReadMessage(ueConn)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Type != MsgSessionAck || ack.Hello == nil || ack.Hello.Err == "" {
		t.Fatalf("want rejection ack, got %+v", ack)
	}
	if err := <-done; err == nil {
		t.Fatal("server accepted newer hello version")
	}
}

func TestBSServerRejectsNonHelloFirstMessage(t *testing.T) {
	srv, err := NewBSServer(ServerConfig{Provision: tinySessionEnv})
	if err != nil {
		t.Fatal(err)
	}
	ueConn, bsConn := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.Handle(bsConn) }()
	if err := WriteMessage(ueConn, &Message{Type: MsgActivations, Step: 1}); err != nil {
		t.Fatal(err)
	}
	ack, err := ReadMessage(ueConn)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Hello == nil || ack.Hello.Err == "" {
		t.Fatalf("want rejection ack, got %+v", ack)
	}
	if err := <-done; err == nil {
		t.Fatal("server accepted training message before handshake")
	}
}

func TestBSServerEarlyStopOnTarget(t *testing.T) {
	srv, err := NewBSServer(ServerConfig{
		MaxUE: 1, Steps: 60, EvalEvery: 15, ValAnchors: 24,
		TargetRMSEdB: 100, // any first eval satisfies it
		Provision:    tinySessionEnv,
	})
	if err != nil {
		t.Fatal(err)
	}
	runMultiUE(t, srv, 1)
	snap := srv.Sessions()[0]
	if snap.State != SessionDetached || !snap.Reached {
		t.Fatalf("want early-stopped detached session, got %+v", snap)
	}
	if snap.Steps != 15 {
		t.Fatalf("stopped after %d steps, want 15 (first eval)", snap.Steps)
	}
}

// TestBSServerPerSessionTarget: a UE-announced target overrides the
// server default for that session only.
func TestBSServerPerSessionTarget(t *testing.T) {
	srv, err := NewBSServer(ServerConfig{
		MaxUE: 2, Steps: 60, EvalEvery: 15, ValAnchors: 24,
		TargetRMSEdB: 0.001, // unreachable server default
		Provision:    tinySessionEnv,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		h := tinyHello(i)
		if i == 0 {
			h.TargetRMSEdB = 100 // trivially reached at the first eval
		}
		cfg, d, _, err := tinySessionEnv(h)
		if err != nil {
			t.Fatal(err)
		}
		h.ConfigFP = cfg.Fingerprint()
		ueConn, bsConn := net.Pipe()
		wg.Add(2)
		go func() { defer wg.Done(); _ = srv.Handle(bsConn) }()
		go func() {
			defer wg.Done()
			if err := ServeUE(ueConn, h, cfg, d); err != nil {
				t.Errorf("UE %s: %v", h.SessionID, err)
			}
		}()
	}
	wg.Wait()
	for _, s := range srv.Sessions() {
		switch s.ID {
		case "ue-0":
			if !s.Reached || s.Steps != 15 {
				t.Errorf("ue-0 should stop at first eval: %+v", s)
			}
		case "ue-1":
			if s.Reached || s.Steps != 60 {
				t.Errorf("ue-1 should exhaust its steps: %+v", s)
			}
		}
	}
}
