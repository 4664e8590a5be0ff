package transport

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/compress"
)

// Live-reconfiguration coverage: SetPolicy swaps must bind at each
// field's documented point (session join, round boundary, step
// boundary) and must never install an invalid policy.

func TestSetPolicyValidates(t *testing.T) {
	srv, err := NewBSServer(ServerConfig{
		MaxUE: 2, Steps: 8, EvalEvery: 4, ValAnchors: 8,
		Provision: gatedProvision(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := srv.CurrentPolicy()
	for name, mut := range map[string]func(*Policy){
		"MaxUE zero":            func(p *Policy) { p.MaxUE = 0 },
		"negative IdleTimeout":  func(p *Policy) { p.IdleTimeout = -time.Second },
		"negative BatchWindow":  func(p *Policy) { p.BatchWindow = -time.Millisecond },
		"BatchMax zero":         func(p *Policy) { p.BatchMax = 0 },
		"CheckpointEvery zero":  func(p *Policy) { p.CheckpointEvery = 0 },
		"unknown default codec": func(p *Policy) { p.DefaultCodec = 99 },
	} {
		p := base
		mut(&p)
		if err := srv.SetPolicy(p); err == nil {
			t.Errorf("%s: invalid policy installed", name)
		}
	}
	if srv.CurrentPolicy() != base {
		t.Fatal("rejected policies mutated the current policy")
	}
	// The coalescing window is an ordinary live field, not a boot-time
	// mode: a server booted at window 0 accepts any valid value, and two
	// clone sessions joined after a raise (gated to start together)
	// share rounds.
	for _, w := range []time.Duration{time.Millisecond, 0, batchedWindow} {
		p := base
		p.BatchWindow = w
		if err := srv.SetPolicy(p); err != nil {
			t.Fatalf("server booted at window 0 refused window %v: %v", w, err)
		}
	}
	serveRecorded(t, srv, batchHellos(2, compress.CodecRaw)[:2])
	if srv.SharedRounds() == 0 {
		t.Fatal("clone sessions joined after the live raise shared no round")
	}
}

// TestServerDefaultCodecPolicy: a hello requesting CodecServerDefault
// is granted the policy's current default — and a policy swap rebinds
// the grant for later joins without touching sessions that named a
// codec explicitly.
func TestServerDefaultCodecPolicy(t *testing.T) {
	srv, err := NewBSServer(ServerConfig{
		MaxUE: 1, Steps: 4, EvalEvery: 2, ValAnchors: 8, Provision: tinySessionEnv,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(i int, codec uint8, fp bool) compress.ID {
		t.Helper()
		h := tinyHello(i)
		h.Codec = codec
		cfg, d, _, err := tinySessionEnv(h)
		if err != nil {
			t.Fatal(err)
		}
		if fp {
			cfg.Codec = compress.ID(codec)
			h.ConfigFP = cfg.Fingerprint()
		}
		ueConn, bsConn := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- srv.Handle(bsConn) }()
		if err := ServeUE(ueConn, h, cfg, d); err != nil {
			t.Fatalf("session %d: UE: %v", i, err)
		}
		if err := <-done; err != nil {
			t.Fatalf("session %d: BS: %v", i, err)
		}
		snap, ok := srv.SessionByID(h.SessionID)
		if !ok || snap.State != SessionDetached {
			t.Fatalf("session %d: no detached snapshot (%+v)", i, snap)
		}
		return compress.ID(snap.Hello.Codec)
	}

	if got := run(0, CodecServerDefault, false); got != compress.CodecRaw {
		t.Fatalf("boot default grant = %v, want raw", got)
	}
	p := srv.CurrentPolicy()
	p.DefaultCodec = compress.CodecFloat16
	if err := srv.SetPolicy(p); err != nil {
		t.Fatal(err)
	}
	if got := run(1, CodecServerDefault, false); got != compress.CodecFloat16 {
		t.Fatalf("post-swap default grant = %v, want float16", got)
	}
	if got := run(2, uint8(compress.CodecQuantInt8), true); got != compress.CodecQuantInt8 {
		t.Fatalf("explicit codec overridden to %v", got)
	}
}

// TestPolicyMaxUEBindsAtJoin: lowering MaxUE refuses new admissions
// against the already-admitted population; raising it re-opens them.
// Nothing live is evicted by the swap itself.
func TestPolicyMaxUEBindsAtJoin(t *testing.T) {
	srv, err := NewBSServer(ServerConfig{
		MaxUE: 8, Steps: 4, EvalEvery: 2, ValAnchors: 8, Provision: tinySessionEnv,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Occupy one slot without a connection (the starvation test's trick).
	if _, _, err := srv.store.admit(Hello{SessionID: "occupant"}, ProtocolVersion, nopCloser{}, 8); err != nil {
		t.Fatal(err)
	}
	p := srv.CurrentPolicy()
	p.MaxUE = 1
	if err := srv.SetPolicy(p); err != nil {
		t.Fatal(err)
	}
	if n := srv.ActiveSessions(); n != 1 {
		t.Fatalf("policy swap disturbed live sessions: %d live", n)
	}

	join := func(i int) error {
		h := tinyHello(i)
		cfg, d, _, err := tinySessionEnv(h)
		if err != nil {
			t.Fatal(err)
		}
		h.ConfigFP = cfg.Fingerprint()
		ueConn, bsConn := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- srv.Handle(bsConn) }()
		ueErr := ServeUE(ueConn, h, cfg, d)
		<-done
		return ueErr
	}
	if err := join(0); !errors.Is(err, ErrSessionRejected) || !strings.Contains(err.Error(), "full") {
		t.Fatalf("join under lowered cap: %v, want server-full rejection", err)
	}
	p.MaxUE = 8
	if err := srv.SetPolicy(p); err != nil {
		t.Fatal(err)
	}
	if err := join(1); err != nil {
		t.Fatalf("join after cap restored: %v", err)
	}
}

// TestCheckpointIntervalRebinds: the checkpoint cadence is resolved per
// step boundary, so a swap takes effect for steps already in progress.
func TestCheckpointIntervalRebinds(t *testing.T) {
	srv, err := NewBSServer(ServerConfig{
		MaxUE: 1, CheckpointDir: t.TempDir(), CheckpointEvery: 50, Provision: tinySessionEnv,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess := &session{ver: 3}
	if srv.checkpointDue(sess, 10, false) {
		t.Fatal("step 10 due under interval 50")
	}
	p := srv.CurrentPolicy()
	p.CheckpointEvery = 10
	if err := srv.SetPolicy(p); err != nil {
		t.Fatal(err)
	}
	if !srv.checkpointDue(sess, 10, false) {
		t.Fatal("step 10 not due after rebinding interval to 10")
	}
	if srv.checkpointDue(sess, 15, false) {
		t.Fatal("step 15 due under interval 10")
	}
}

// TestEvictLiveSession: an administrative eviction severs the session
// mid-training, retires it as failed with ErrAdminEvicted as the cause
// (not the incidental I/O error), and frees its MaxUE slot.
func TestEvictLiveSession(t *testing.T) {
	endc := make(chan error, 4)
	srv, err := NewBSServer(ServerConfig{
		MaxUE: 1, Steps: 1_000_000, EvalEvery: 1_000_000, ValAnchors: 8,
		Provision:    tinySessionEnv,
		OnSessionEnd: func(_ SessionSnapshot, cause error) { endc <- cause },
	})
	if err != nil {
		t.Fatal(err)
	}
	h := tinyHello(0)
	cfg, d, _, err := tinySessionEnv(h)
	if err != nil {
		t.Fatal(err)
	}
	h.ConfigFP = cfg.Fingerprint()
	ueConn, bsConn := net.Pipe()
	bsErr := make(chan error, 1)
	ueErr := make(chan error, 1)
	go func() { bsErr <- srv.Handle(bsConn) }()
	go func() { ueErr <- ServeUE(ueConn, h, cfg, d) }()

	deadline := time.Now().Add(10 * time.Second)
	for srv.ActiveSessions() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never joined")
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Evict("no-such-session"); err == nil {
		t.Fatal("evicting an unknown id succeeded")
	}
	if err := srv.Evict(h.SessionID); err != nil {
		t.Fatal(err)
	}
	select {
	case cause := <-endc:
		if !errors.Is(cause, ErrAdminEvicted) {
			t.Fatalf("OnSessionEnd cause = %v, want ErrAdminEvicted", cause)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("OnSessionEnd never fired after eviction")
	}
	if err := <-bsErr; err == nil {
		t.Fatal("evicted session's handler returned nil")
	}
	<-ueErr // severed; exact error does not matter
	snap, ok := srv.SessionByID(h.SessionID)
	if !ok || snap.State != SessionFailed || !errors.Is(snap.Cause(), ErrAdminEvicted) {
		t.Fatalf("post-eviction snapshot: ok %v state %v cause %v", ok, snap.State, snap.Cause())
	}
	if st := srv.Stats(); st.EndedAdmin != 1 || st.LiveSessions != 0 {
		t.Fatalf("stats after eviction: %+v", st)
	}
}
