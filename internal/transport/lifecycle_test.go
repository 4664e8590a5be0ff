package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/split"
	"repro/internal/store"
)

// ---- shared harness ------------------------------------------------------------

// cachedProvision memoises tinySessionEnv per hello identity so churn
// and resume tests do not regenerate the dataset on every (re)join.
// Sessions only ever read the shared dataset, so sharing is safe.
func cachedProvision() Provision {
	type key struct {
		seed   int64
		frames uint32
		pool   uint16
		mod    uint8
	}
	type env struct {
		cfg split.Config
		d   *dataset.Dataset
		sp  *dataset.Split
	}
	var mu sync.Mutex
	cache := map[key]env{}
	return func(h Hello) (split.Config, *dataset.Dataset, *dataset.Split, error) {
		k := key{h.Seed, h.Frames, h.Pool, h.Modality}
		mu.Lock()
		defer mu.Unlock()
		if e, ok := cache[k]; ok {
			return e.cfg, e.d, e.sp, nil
		}
		cfg, d, sp, err := tinySessionEnv(h)
		if err != nil {
			return cfg, d, sp, err
		}
		cache[k] = env{cfg, d, sp}
		return cfg, d, sp, nil
	}
}

// pipeDialer hands a UESession one net.Pipe per dial, spawning
// srv.Handle on the BS side. Dial i is wrapped by faults[i] when set —
// the reconnect fault-injection hook.
type pipeDialer struct {
	srv    *BSServer
	faults map[int]func(io.ReadWriteCloser) io.ReadWriteCloser

	mu    sync.Mutex
	dials int
	wg    sync.WaitGroup
	errs  []error
}

func (p *pipeDialer) dial() (io.ReadWriteCloser, error) {
	ueConn, bsConn := net.Pipe()
	p.mu.Lock()
	i := p.dials
	p.dials++
	p.mu.Unlock()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		if err := p.srv.Handle(bsConn); err != nil {
			p.mu.Lock()
			p.errs = append(p.errs, err)
			p.mu.Unlock()
		}
	}()
	if f := p.faults[i]; f != nil {
		return f(ueConn), nil
	}
	return ueConn, nil
}

func (p *pipeDialer) wait() { p.wg.Wait() }

// ---- bounded session store -----------------------------------------------------

// TestSessionStoreBoundedOverChurn is the regression test for the
// session-map leak: 150 join/finish cycles must leave the live map
// empty and the retention ring at its cap.
func TestSessionStoreBoundedOverChurn(t *testing.T) {
	const retain, cycles = 8, 150
	st := newSessionStore(retain)
	for i := 0; i < cycles; i++ {
		h := tinyHello(i % 5) // rejoin the same handful of ids
		sess, superseded, err := st.admit(h, nil, 4)
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if superseded != nil {
			t.Fatalf("cycle %d: unexpected supersede (old finished each cycle)", i)
		}
		to := SessionDetached
		if i%3 == 0 {
			to = SessionFailed
		}
		st.finish(sess, to, errors.New("churn"))
		if live := st.liveCount(); live != 0 {
			t.Fatalf("cycle %d: %d live sessions after finish", i, live)
		}
	}
	if got := st.retiredCount(); got != retain {
		t.Fatalf("retained %d snapshots, want exactly the cap %d", got, retain)
	}
	if got := st.evictedCount(); got != cycles-retain {
		t.Fatalf("evicted %d snapshots, want %d", got, cycles-retain)
	}
	if n := len(st.snapshots()); n != retain {
		t.Fatalf("snapshots() returned %d, want %d", n, retain)
	}
}

// TestSessionStateMachineFencing: terminal states are final — a fenced
// incarnation's late transitions are no-ops.
func TestSessionStateMachineFencing(t *testing.T) {
	st := newSessionStore(4)
	sess, _, err := st.admit(tinyHello(0), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	sess.setState(SessionTraining)
	st.finish(sess, SessionSuperseded, ErrSuperseded)
	// The dying goroutine of the old epoch now tries to fail and detach.
	st.finish(sess, SessionFailed, errors.New("late failure"))
	sess.setState(SessionTraining)
	snap := sess.snapshot()
	if snap.State != SessionSuperseded || snap.Err != ErrSuperseded.Error() {
		t.Fatalf("fenced session mutated: %+v", snap)
	}
	if got := st.retiredCount(); got != 1 {
		t.Fatalf("retired %d snapshots, want 1 (no double retire)", got)
	}
	// Illegal non-terminal transitions are also rejected.
	if validTransition(SessionJoined, SessionEvaluating) {
		t.Fatal("joined → evaluating should be invalid")
	}
	if validTransition(SessionDetached, SessionTraining) {
		t.Fatal("detached → training should be invalid")
	}
}

// TestMarkResumedSeedsCheckpointRing: a resumed incarnation inherits
// its restore step as its newest checkpoint, so a drain arriving before
// the first fresh checkpoint still reports a resumable shutdown step
// (instead of 0, which would make the UE discard its half).
func TestMarkResumedSeedsCheckpointRing(t *testing.T) {
	st := newSessionStore(4)
	sess, _, err := st.admit(tinyHello(0), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	sess.markResumed(100)
	if got := sess.lastCheckpoint(); got != 100 {
		t.Fatalf("lastCheckpoint after resume = %d, want 100", got)
	}
}

// TestBSServerChurnBounded is the end-to-end leak regression: 100
// join/fail/rejoin cycles against a live server must leave zero live
// sessions and a bounded snapshot history.
func TestBSServerChurnBounded(t *testing.T) {
	const retain, cycles = 8, 100
	prov := cachedProvision()
	srv, err := NewBSServer(ServerConfig{
		MaxUE: 2, Steps: 50, Retain: retain, Provision: prov,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cycles; i++ {
		h := tinyHello(i % 3)
		cfg, _, _, err := prov(h)
		if err != nil {
			t.Fatal(err)
		}
		h.ConfigFP = cfg.Fingerprint()
		ueConn, bsConn := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- srv.Handle(bsConn) }()
		if _, err := JoinSession(ueConn, h); err != nil {
			t.Fatalf("cycle %d: join: %v", i, err)
		}
		ueConn.Close() // die mid-round, as a blocked UE would
		if err := <-done; err == nil {
			t.Fatalf("cycle %d: session survived its UE dying", i)
		}
		if live := srv.ActiveSessions(); live != 0 {
			t.Fatalf("cycle %d: %d sessions still live", i, live)
		}
	}
	if got := len(srv.Sessions()); got != retain {
		t.Fatalf("server retains %d snapshots after %d cycles, want %d", got, cycles, retain)
	}
}

// ---- idle timeout --------------------------------------------------------------

// TestBSServerIdleTimeoutFreesSlot: a UE that joins and then wedges
// mid-protocol must be failed by the idle deadline, freeing its MaxUE
// slot for the next UE.
func TestBSServerIdleTimeoutFreesSlot(t *testing.T) {
	prov := cachedProvision()
	srv, err := NewBSServer(ServerConfig{
		MaxUE: 1, Steps: 10, EvalEvery: 5, ValAnchors: 8,
		IdleTimeout: 150 * time.Millisecond,
		Provision:   prov,
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
	// Wedge: hold the connection open but never read the batch request.
	select {
	case err := <-done:
		if !errors.Is(err, ErrIdleTimeout) {
			t.Fatalf("wedged session failed with %v, want ErrIdleTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("idle timeout never fired")
	}
	ueConn.Close()
	if live := srv.ActiveSessions(); live != 0 {
		t.Fatalf("%d sessions live after idle eviction", live)
	}
	snaps := srv.Sessions()
	if len(snaps) != 1 || snaps[0].State != SessionFailed || !strings.Contains(snaps[0].Err, "idle") {
		t.Fatalf("want failed-idle snapshot, got %+v", snaps)
	}

	// The freed slot admits and completes a fresh session.
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
		t.Fatalf("post-eviction UE: %v", err)
	}
	if err := <-done2; err != nil {
		t.Fatalf("post-eviction session: %v", err)
	}
}

// ---- supersede on rejoin -------------------------------------------------------

// TestBSServerSupersedeOnRejoin: a rejoin whose predecessor connection
// is half-dead must be admitted — the old epoch is fenced and its conn
// closed — instead of being refused while the corpse holds the slot.
func TestBSServerSupersedeOnRejoin(t *testing.T) {
	prov := cachedProvision()
	srv, err := NewBSServer(ServerConfig{
		MaxUE: 1, Steps: 10, EvalEvery: 5, ValAnchors: 8, Provision: prov,
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

	// First incarnation joins, then stops serving without closing.
	oldUE, oldBS := net.Pipe()
	oldDone := make(chan error, 1)
	go func() { oldDone <- srv.Handle(oldBS) }()
	if _, err := JoinSession(oldUE, h); err != nil {
		t.Fatal(err)
	}

	// Second incarnation with the same id trains to completion.
	newUE, newBS := net.Pipe()
	newDone := make(chan error, 1)
	go func() { newDone <- srv.Handle(newBS) }()
	if err := ServeUE(newUE, h, cfg, d); err != nil {
		t.Fatalf("superseding UE: %v", err)
	}
	if err := <-newDone; err != nil {
		t.Fatalf("superseding session: %v", err)
	}
	select {
	case err := <-oldDone:
		if err == nil {
			t.Fatal("fenced incarnation finished cleanly")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fenced incarnation never unblocked — its conn was not closed")
	}

	var states []SessionState
	var epochs []uint32
	for _, s := range srv.Sessions() {
		states = append(states, s.State)
		epochs = append(epochs, s.Epoch)
	}
	if len(states) != 2 || states[0] != SessionSuperseded || states[1] != SessionDetached {
		t.Fatalf("want [superseded detached], got %v", states)
	}
	if epochs[1] <= epochs[0] {
		t.Fatalf("epochs not monotonic: %v", epochs)
	}
}

// TestBSServerSupersedeRace hammers concurrent rejoins of one session id
// under the race detector: every handler must terminate and at most one
// incarnation may stay live.
func TestBSServerSupersedeRace(t *testing.T) {
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

	const rejoins = 8
	var wg sync.WaitGroup
	conns := make([]io.Closer, rejoins)
	for i := 0; i < rejoins; i++ {
		ueConn, bsConn := net.Pipe()
		conns[i] = ueConn
		wg.Add(2)
		go func() {
			defer wg.Done()
			_ = srv.Handle(bsConn)
		}()
		go func() {
			defer wg.Done()
			_, _ = JoinSession(ueConn, h) // losers may see a dead conn
		}()
	}
	for _, c := range conns {
		c.Close()
	}
	wg.Wait()
	if live := srv.ActiveSessions(); live != 0 {
		t.Fatalf("%d sessions live after all conns closed", live)
	}
}

// ---- checkpoint / resume -------------------------------------------------------

// TestPeerCheckpointRestoreEquivalence is the peer-level contract:
// restoring both halves from a mid-run checkpoint and training the
// remaining steps yields bit-identical final train state to the
// uninterrupted run.
func TestPeerCheckpointRestoreEquivalence(t *testing.T) {
	d := tinyDataset(t, 150)
	cfg := tinyConfig(split.ImageRF, 4)
	sp, err := dataset.NewSplit(d, cfg.SeqLen, cfg.HorizonFrames, 100)
	if err != nil {
		t.Fatal(err)
	}
	const ckptAt, steps = 7, 12

	run := func(restoreUE, restoreBS []byte, from, to int) (ueFinal, bsFinal, ueMid, bsMid []byte) {
		ueConn, bsConn := net.Pipe()
		ue, err := NewUEPeer(cfg, d, ueConn)
		if err != nil {
			t.Fatal(err)
		}
		bs, err := NewBSPeer(cfg, d, sp, bsConn)
		if err != nil {
			t.Fatal(err)
		}
		if restoreUE != nil {
			if got, err := ue.RestoreState(bytes.NewReader(restoreUE)); err != nil || got != from {
				t.Fatalf("restore UE: step %d err %v", got, err)
			}
			if got, err := bs.RestoreState(bytes.NewReader(restoreBS)); err != nil || got != from {
				t.Fatalf("restore BS: step %d err %v", got, err)
			}
		}
		var midBuf []byte
		ue.OnCheckpoint = func(step uint32) (err error) {
			midBuf, err = ue.AppendState(midBuf, int(step))
			return err
		}
		serveErr := make(chan error, 1)
		go func() { serveErr <- ue.Serve() }()
		for s := from + 1; s <= to; s++ {
			if _, err := bs.TrainStep(); err != nil {
				t.Fatal(err)
			}
			if s == ckptAt {
				var err error
				if bsMid, err = bs.AppendState(nil, s); err != nil {
					t.Fatal(err)
				}
				if err := WriteMessage(bsConn, &Message{Type: MsgCheckpoint, Step: uint32(s)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := bs.Shutdown(); err != nil {
			t.Fatal(err)
		}
		if err := <-serveErr; err != nil {
			t.Fatal(err)
		}
		ueConn.Close()
		bsConn.Close()
		ueMid = midBuf
		ub, err := ue.AppendState(nil, to)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := bs.AppendState(nil, to)
		if err != nil {
			t.Fatal(err)
		}
		return ub, bb, ueMid, bsMid
	}

	ueFull, bsFull, ueMid, bsMid := run(nil, nil, 0, steps)
	if len(ueMid) == 0 || len(bsMid) == 0 {
		t.Fatal("mid-run checkpoints not captured")
	}
	ueResumed, bsResumed, _, _ := run(ueMid, bsMid, ckptAt, steps)
	if !bytes.Equal(ueFull, ueResumed) {
		t.Fatal("UE half: checkpoint-restore path diverged from uninterrupted run")
	}
	if !bytes.Equal(bsFull, bsResumed) {
		t.Fatal("BS half: checkpoint-restore path diverged from uninterrupted run")
	}
}

// resumeHarnessRun drives one full UESession against a server
// checkpointing into its own journal, optionally cutting the first
// connection's UE-side writes after cutBytes. It returns the session
// handle and the server.
func resumeHarnessRun(t *testing.T, prov Provision, cutBytes int64) (*UESession, *BSServer, *pipeDialer) {
	t.Helper()
	srv, err := NewBSServer(ServerConfig{
		MaxUE: 1, Steps: 20, EvalEvery: 10, ValAnchors: 16,
		Provision: prov, Store: testJournal(t), CheckpointEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := tinyHello(0)
	cfg, d, _, err := prov(h)
	if err != nil {
		t.Fatal(err)
	}
	dialer := &pipeDialer{srv: srv}
	if cutBytes > 0 {
		dialer.faults = map[int]func(io.ReadWriteCloser) io.ReadWriteCloser{
			0: func(c io.ReadWriteCloser) io.ReadWriteCloser { return NewFaultConn(c, -1, cutBytes) },
		}
	}
	us := &UESession{
		Hello: h, Cfg: cfg, Data: d,
		Backoff: Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
		sleep:   func(time.Duration) {},
	}
	if err := us.Run(dialer.dial); err != nil {
		t.Fatalf("UESession.Run: %v", err)
	}
	dialer.wait()
	return us, srv, dialer
}

// TestBSServerResumeMatchesUninterrupted is the acceptance criterion end
// to end: a UE whose connection dies mid-training reconnects, resumes
// from the last checkpoint, and finishes with train state on both
// halves byte-identical to the run that was never interrupted.
func TestBSServerResumeMatchesUninterrupted(t *testing.T) {
	prov := cachedProvision()

	clean, cleanSrv, _ := resumeHarnessRun(t, prov, 0)
	fault, faultSrv, _ := resumeHarnessRun(t, prov, 3500)

	if clean.Resumes() != 0 {
		t.Fatalf("clean run resumed %d times", clean.Resumes())
	}
	if fault.Resumes() == 0 {
		t.Fatal("fault run never resumed — cut landed after training finished?")
	}
	if clean.LastCheckpointStep() != 20 || fault.LastCheckpointStep() != 20 {
		t.Fatalf("final checkpoint steps %d/%d, want 20/20",
			clean.LastCheckpointStep(), fault.LastCheckpointStep())
	}

	// UE halves: the in-memory checkpoints at step 20 must match bit
	// for bit.
	if !bytes.Equal(clean.ckpt, fault.ckpt) {
		t.Fatal("UE half diverged between uninterrupted and resumed runs")
	}
	// BS halves: the step-20 checkpoints must match bit for bit.
	read := func(srv *BSServer) []byte {
		blob, err := srv.Store().GetCheckpoint("ue-0", 20)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	if !bytes.Equal(read(cleanSrv), read(faultSrv)) {
		t.Fatal("BS half diverged between uninterrupted and resumed runs")
	}

	// The resumed incarnation is visible in the lifecycle records.
	snaps := faultSrv.Sessions()
	last := snaps[len(snaps)-1]
	if last.State != SessionDetached || last.ResumedFrom == 0 || last.Metrics.Resumes.Load() != 1 {
		t.Fatalf("resumed incarnation snapshot: %+v", last)
	}
	if len(snaps) < 2 {
		t.Fatalf("want failed + detached incarnations, got %d snapshots", len(snaps))
	}
	if got := cleanSrv.Sessions(); len(got) != 1 || got[0].Steps != 20 {
		t.Fatalf("clean run snapshots: %+v", got)
	}

	// Completed sessions garbage-collect their checkpoints down to the
	// final-step artifact — every incarnation's intermediates included —
	// so the store stays flat over churn.
	for name, srv := range map[string]*BSServer{"clean": cleanSrv, "fault": faultSrv} {
		steps, err := srv.Store().CheckpointSteps("ue-0")
		if err != nil {
			t.Fatal(err)
		}
		if len(steps) != 1 || steps[0] != 20 {
			t.Fatalf("%s run retains checkpoints at steps %v, want only the step-20 artifact", name, steps)
		}
	}
}

// TestUESessionFreshJoinFallbackWhenResumeRejected: a UE whose resume
// token the BS cannot honour (checkpoints lost) retrains from scratch
// instead of dying — resume is best-effort, not load-bearing.
func TestUESessionFreshJoinFallbackWhenResumeRejected(t *testing.T) {
	prov := cachedProvision()
	srv, err := NewBSServer(ServerConfig{
		MaxUE: 1, Steps: 10, EvalEvery: 5, ValAnchors: 8,
		Provision: prov, // no Store: the BS cannot resume anyone
	})
	if err != nil {
		t.Fatal(err)
	}
	h := tinyHello(0)
	cfg, d, _, err := prov(h)
	if err != nil {
		t.Fatal(err)
	}
	us := &UESession{
		Hello: h, Cfg: cfg, Data: d,
		Backoff: Backoff{Base: time.Millisecond},
		sleep:   func(time.Duration) {},
	}
	us.ckpt, us.ckptStep = []byte("stale token from a previous life"), 7
	dialer := &pipeDialer{srv: srv}
	if err := us.Run(dialer.dial); err != nil {
		t.Fatalf("resume-impossible session should retrain, got %v", err)
	}
	dialer.wait()
	if got := us.Resumes(); got != 0 {
		t.Fatalf("fell back to fresh join but counted %d resumes", got)
	}
	snaps := srv.Sessions()
	last := snaps[len(snaps)-1]
	if last.State != SessionDetached || last.Steps != 10 || last.ResumedFrom != 0 {
		t.Fatalf("fallback session snapshot: %+v", last)
	}
}

// TestUESessionKeepsTokenOnUnrelatedRejection: a rejection that is NOT
// flagged resume-specific (here: provisioning failure) must stay fatal
// and must not destroy the UE's checkpoint — only the BS's structured
// flag, never prose in the reason, may trigger the fresh-join fallback.
func TestUESessionKeepsTokenOnUnrelatedRejection(t *testing.T) {
	srv, err := NewBSServer(ServerConfig{
		MaxUE: 1, Store: testJournal(t),
		Provision: func(Hello) (split.Config, *dataset.Dataset, *dataset.Split, error) {
			return split.Config{}, nil, nil, errors.New("provision rig down (checkpoint fingerprint resume)")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	prov := cachedProvision()
	h := tinyHello(0)
	cfg, d, _, err := prov(h)
	if err != nil {
		t.Fatal(err)
	}
	us := &UESession{Hello: h, Cfg: cfg, Data: d, sleep: func(time.Duration) {}}
	us.ckpt, us.ckptStep = []byte("token"), 5
	dialer := &pipeDialer{srv: srv}
	err = us.Run(dialer.dial)
	dialer.wait()
	if !errors.Is(err, ErrSessionRejected) || errors.Is(err, ErrResumeRejected) {
		t.Fatalf("unrelated rejection: err = %v, want plain ErrSessionRejected", err)
	}
	if us.LastCheckpointStep() != 5 {
		t.Fatal("unrelated rejection destroyed the resume token")
	}
	if dialer.dials != 1 {
		t.Fatalf("unrelated rejection redialled %d times", dialer.dials)
	}
}

// TestUESessionPurgesDiskCheckpointOnCompletion: a cleanly completed
// session deletes its on-disk UE checkpoint, so relaunching the same
// command trains a fresh run instead of silently "resuming" at the
// final step and doing nothing.
func TestUESessionPurgesDiskCheckpointOnCompletion(t *testing.T) {
	prov := cachedProvision()
	srv, err := NewBSServer(ServerConfig{
		MaxUE: 1, Steps: 20, EvalEvery: 10, ValAnchors: 16,
		Provision: prov, Store: testJournal(t), CheckpointEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := tinyHello(0)
	cfg, d, _, err := prov(h)
	if err != nil {
		t.Fatal(err)
	}
	ueDir := t.TempDir()
	run := func() {
		t.Helper()
		us := &UESession{Hello: h, Cfg: cfg, Data: d, CheckpointDir: ueDir, sleep: func(time.Duration) {}}
		dialer := &pipeDialer{srv: srv}
		if err := us.Run(dialer.dial); err != nil {
			t.Fatal(err)
		}
		dialer.wait()
		if _, err := os.Stat(us.ckptFile()); !os.IsNotExist(err) {
			t.Fatalf("UE checkpoint survived a completed session: %v", err)
		}
	}
	run()
	run() // the relaunch must train a full fresh run, not resume-and-exit
	snaps := srv.Sessions()
	last := snaps[len(snaps)-1]
	if last.Steps != 20 || last.ResumedFrom != 0 {
		t.Fatalf("relaunched session snapshot: %+v", last)
	}
	if len(snaps) != 2 {
		t.Fatalf("want 2 full incarnations, got %d", len(snaps))
	}
}

// TestBSServerResumeStaleFingerprintRejected: a resume token presented
// with a drifted session configuration must be refused at join time.
func TestBSServerResumeStaleFingerprintRejected(t *testing.T) {
	prov := cachedProvision()
	us, srv, _ := resumeHarnessRun(t, prov, 0)
	step := us.LastCheckpointStep()
	if step == 0 {
		t.Fatal("no checkpoint to resume from")
	}

	// Same session id, same resume step — but the UE was relaunched
	// with a different pooling width, so the derived config drifted.
	h2 := tinyHello(0)
	h2.Pool = 8
	cfg2, _, _, err := prov(h2)
	if err != nil {
		t.Fatal(err)
	}
	h2.ConfigFP = cfg2.Fingerprint()
	h2.ResumeStep = step
	ueConn, bsConn := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.Handle(bsConn) }()
	_, joinErr := JoinSession(ueConn, h2)
	if joinErr == nil || !strings.Contains(joinErr.Error(), "fingerprint") {
		t.Fatalf("stale-config resume: err = %v, want fingerprint rejection", joinErr)
	}
	if !errors.Is(joinErr, ErrSessionRejected) {
		t.Fatalf("stale-config resume should be a deliberate rejection, got %v", joinErr)
	}
	if !errors.Is(joinErr, ErrResumeRejected) {
		t.Fatalf("stale-checkpoint rejection should carry the resume-specific flag, got %v", joinErr)
	}
	if err := <-done; err == nil {
		t.Fatal("server accepted stale-config resume")
	}
	ueConn.Close()
}

// TestBSServerResumeMissingCheckpointRejected: a resume token naming a
// step with no retained checkpoint is refused, as is any resume against
// a server without checkpointing, and a token is bound to the session id
// it was issued to: another session presenting its step is refused.
func TestBSServerResumeMissingCheckpointRejected(t *testing.T) {
	prov := cachedProvision()
	h := tinyHello(0)
	cfg, _, _, err := prov(h)
	if err != nil {
		t.Fatal(err)
	}
	h.ConfigFP = cfg.Fingerprint()
	h.ResumeStep = 40

	join := func(srv *BSServer) error {
		ueConn, bsConn := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- srv.Handle(bsConn) }()
		_, err := JoinSession(ueConn, h)
		<-done
		ueConn.Close()
		return err
	}

	withCkpt, err := NewBSServer(ServerConfig{
		MaxUE: 1, Provision: prov, Store: testJournal(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := join(withCkpt); err == nil || !strings.Contains(err.Error(), "no checkpoint") {
		t.Fatalf("missing checkpoint: err = %v", err)
	}

	without, err := NewBSServer(ServerConfig{MaxUE: 1, Provision: prov})
	if err != nil {
		t.Fatal(err)
	}
	if err := join(without); err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("resume without a store: err = %v", err)
	}

	// Replay across session ids: B's config, and so its fingerprint, is
	// A's, and B presents the step of A's retained checkpoint.
	a, srvA, _ := resumeHarnessRun(t, prov, 0)
	step := a.LastCheckpointStep()
	if step == 0 {
		t.Fatal("no checkpoint to resume from")
	}
	joinAs := func(id string) (*Hello, error) {
		hh := tinyHello(0)
		hh.SessionID = id
		hh.ConfigFP = cfg.Fingerprint()
		hh.ResumeStep = step
		ueConn, bsConn := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- srvA.Handle(bsConn) }()
		ack, err := JoinSession(ueConn, hh)
		ueConn.Close() // an admitted session trains until its UE goes away
		<-done
		return ack, err
	}
	before := srvA.Stats().RestoreErrors
	if _, err := joinAs("ue-replay"); !errors.Is(err, ErrResumeRejected) ||
		!strings.Contains(err.Error(), "no checkpoint") {
		t.Fatalf("replayed token from another session: err = %v", err)
	}
	if got := srvA.Stats().RestoreErrors; got != before+1 {
		t.Fatalf("RestoreErrors = %d after the replay, want %d", got, before+1)
	}
	ack, err := joinAs(a.Hello.SessionID)
	if err != nil {
		t.Fatalf("own token after the replay: %v", err)
	}
	if ack.ResumeStep != step {
		t.Fatalf("own token resumed from step %d, want %d", ack.ResumeStep, step)
	}
	if got := srvA.Stats().RestoreErrors; got != before+1 {
		t.Fatalf("RestoreErrors = %d after the own-token resume, want %d", got, before+1)
	}
}

// ---- drain ---------------------------------------------------------------------

// TestBSServerDrain: Drain stops new admissions, checkpoints live
// sessions at their next step boundary and detaches their UEs cleanly.
func TestBSServerDrain(t *testing.T) {
	prov := cachedProvision()
	srv, err := NewBSServer(ServerConfig{
		MaxUE: 2, Steps: 1 << 30, EvalEvery: 1 << 30, ValAnchors: 8,
		Provision: prov, Store: testJournal(t), CheckpointEvery: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := tinyHello(0)
	cfg, d, _, err := prov(h)
	if err != nil {
		t.Fatal(err)
	}
	dialer := &pipeDialer{srv: srv}
	us := &UESession{Hello: h, Cfg: cfg, Data: d, sleep: func(time.Duration) {}}
	runErr := make(chan error, 1)
	go func() { runErr <- us.Run(dialer.dial) }()

	// Wait for training to actually progress, then drain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		snaps := srv.Sessions()
		if len(snaps) == 1 && snaps[0].Steps >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session never started stepping")
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv.Drain()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("drained UE should detach cleanly, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not detach the session")
	}
	dialer.wait()

	snaps := srv.Sessions()
	if len(snaps) != 1 || snaps[0].State != SessionDetached {
		t.Fatalf("drained session snapshot: %+v", snaps)
	}
	steps := snaps[0].Steps
	if steps <= 0 || steps >= 1<<30 {
		t.Fatalf("drained after %d steps", steps)
	}
	// The drain left a resumable checkpoint at the last completed step
	// on both halves.
	if _, err := srv.Store().GetCheckpoint(h.SessionID, steps); err != nil {
		t.Fatalf("no BS drain checkpoint at step %d: %v", steps, err)
	}
	if got := us.LastCheckpointStep(); got != uint32(steps) {
		t.Fatalf("UE drain checkpoint at %d, want %d", got, steps)
	}
	// New sessions are refused while draining.
	h2 := tinyHello(1)
	cfg2, _, _, err := prov(h2)
	if err != nil {
		t.Fatal(err)
	}
	h2.ConfigFP = cfg2.Fingerprint()
	ueConn, bsConn := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.Handle(bsConn) }()
	if _, err := JoinSession(ueConn, h2); err == nil || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("join while draining: err = %v", err)
	}
	<-done
	ueConn.Close()
}

// TestMemStoreKeepsDrainedCheckpoint: on the mem store a completed
// session's terminal checkpoint leaves with its retire record, while a
// drained session's, which retires as a clean detach too, is resume
// material and stays.
func TestMemStoreKeepsDrainedCheckpoint(t *testing.T) {
	prov := cachedProvision()
	mem := store.NewMem(1)
	// run starts a session on a server of its own over the shared store;
	// the returned wait blocks until both ends are done with it.
	run := func(steps int, h Hello) (srv *BSServer, wait func()) {
		srv, err := NewBSServer(ServerConfig{
			MaxUE: 1, Steps: steps, EvalEvery: 1 << 30, ValAnchors: 8,
			Provision: prov, Store: mem, CheckpointEvery: 1 << 30,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg, d, _, err := prov(h)
		if err != nil {
			t.Fatal(err)
		}
		us := &UESession{Hello: h, Cfg: cfg, Data: d, sleep: func(time.Duration) {}}
		dialer := &pipeDialer{srv: srv}
		done := make(chan error, 1)
		go func() { done <- us.Run(dialer.dial) }()
		return srv, func() {
			t.Helper()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("session did not end")
			}
			dialer.wait()
		}
	}

	_, wait := run(3, tinyHello(1))
	wait()
	if _, err := mem.GetCheckpoint("ue-1", 3); err != nil {
		t.Fatalf("terminal checkpoint of the completed session: %v", err)
	}

	srv, wait := run(1<<30, tinyHello(0))
	steps := 0
	for deadline := time.Now().Add(5 * time.Second); steps < 2; time.Sleep(5 * time.Millisecond) {
		for _, snap := range srv.Sessions() {
			if snap.ID == "ue-0" {
				steps = snap.Steps
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("session never started stepping")
		}
	}
	srv.Drain()
	wait()
	for _, snap := range srv.Sessions() {
		if snap.ID == "ue-0" {
			steps = snap.Steps
		}
	}
	// The drained record pushed the completed one out of the ring of one.
	if _, err := mem.GetCheckpoint("ue-1", 3); !store.IsNotFound(err) {
		t.Fatalf("completed session's checkpoint after its record left the ring: err = %v", err)
	}
	if err := mem.RetireSession(store.SessionRecord{ID: "later", Cause: store.CauseDetached}); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.GetCheckpoint("ue-0", steps); err != nil {
		t.Fatalf("drained session's checkpoint at step %d after its record left the ring: %v", steps, err)
	}
}

// ---- client backoff ------------------------------------------------------------

func TestBackoffSchedule(t *testing.T) {
	b := Backoff{NoJitter: true}.withDefaults()
	if b.Delay(1) != 100*time.Millisecond {
		t.Fatalf("first delay %v", b.Delay(1))
	}
	if b.Delay(2) != 200*time.Millisecond || b.Delay(3) != 400*time.Millisecond {
		t.Fatalf("growth %v %v", b.Delay(2), b.Delay(3))
	}
	if b.Delay(50) != 5*time.Second {
		t.Fatalf("cap %v", b.Delay(50))
	}
}

// TestBackoffFullJitter: without NoJitter each delay is drawn from
// (0, ceiling] — bounded by the deterministic schedule, never zero, and
// not in lockstep across draws (thundering-herd breaker).
func TestBackoffFullJitter(t *testing.T) {
	b := Backoff{}.withDefaults()
	ceil := Backoff{NoJitter: true}.withDefaults()
	distinct := map[time.Duration]bool{}
	for attempt := 1; attempt <= 4; attempt++ {
		max := ceil.Delay(attempt)
		for i := 0; i < 64; i++ {
			d := b.Delay(attempt)
			if d <= 0 || d > max {
				t.Fatalf("attempt %d: jittered delay %v outside (0, %v]", attempt, d, max)
			}
			distinct[d] = true
		}
	}
	if len(distinct) < 8 {
		t.Fatalf("jittered delays suspiciously uniform: %d distinct values", len(distinct))
	}
}

// TestUESessionGivesUpAfterRetries: a dial that always fails must stop
// after the configured retry budget with the last error attached.
func TestUESessionGivesUpAfterRetries(t *testing.T) {
	prov := cachedProvision()
	h := tinyHello(0)
	cfg, d, _, err := prov(h)
	if err != nil {
		t.Fatal(err)
	}
	dials := 0
	us := &UESession{
		Hello: h, Cfg: cfg, Data: d,
		Backoff: Backoff{Base: time.Millisecond, Retries: 3},
		sleep:   func(time.Duration) {},
	}
	err = us.Run(func() (io.ReadWriteCloser, error) {
		dials++
		return nil, errors.New("no route to bs")
	})
	if err == nil || !strings.Contains(err.Error(), "gave up") {
		t.Fatalf("err = %v", err)
	}
	if dials != 4 { // initial attempt + 3 retries
		t.Fatalf("dialled %d times, want 4", dials)
	}
}

// TestUESessionRejectionIsFatal: a deliberate rejection ack must not be
// retried.
func TestUESessionRejectionIsFatal(t *testing.T) {
	prov := cachedProvision()
	srv, err := NewBSServer(ServerConfig{MaxUE: 1, Provision: prov})
	if err != nil {
		t.Fatal(err)
	}
	h := tinyHello(0)
	cfg, d, _, err := prov(h)
	if err != nil {
		t.Fatal(err)
	}
	us := &UESession{Hello: h, Cfg: cfg, Data: d, sleep: func(time.Duration) {}}
	us.Hello.ConfigFP = 0xDEADBEEF // guaranteed mismatch
	dialer := &pipeDialer{srv: srv}
	err = us.Run(dialer.dial)
	if !errors.Is(err, ErrSessionRejected) {
		t.Fatalf("err = %v, want ErrSessionRejected", err)
	}
	dialer.wait()
	if dialer.dials != 1 {
		t.Fatalf("rejected session redialled %d times", dialer.dials)
	}
}
