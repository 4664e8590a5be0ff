package transport

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

// crashBackend builds each Store flavour for the BS-crash drills: open
// creates the store, reopen models the replacement process opening the
// same durable state (nil for mem, whose state lives in the object).
type crashBackend struct {
	name   string
	open   func(t *testing.T, dir string) store.Store
	reopen func(t *testing.T, dir string) store.Store
}

func crashBackends() []crashBackend {
	openJournal := func(t *testing.T, dir string) store.Store {
		t.Helper()
		j, err := store.OpenJournal(filepath.Join(dir, "store.journal"), store.JournalOptions{Retain: 16})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	return []crashBackend{
		{name: "mem", open: func(t *testing.T, string2 string) store.Store { return store.NewMem(16) }},
		{name: "journal", open: openJournal, reopen: openJournal},
	}
}

// testJournal opens a journal store under t.TempDir(), closed when the
// test ends.
func testJournal(t *testing.T) store.Store {
	t.Helper()
	j, err := store.OpenJournal(filepath.Join(t.TempDir(), "store.journal"), store.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// crashPhase runs one complete UESession against a fresh BSServer bound
// to st, seeding the UE with a prior incarnation's resume token when
// prev is non-nil. It returns the session and the server (closed).
func crashPhase(t *testing.T, prov Provision, st store.Store, steps int, prev *UESession) (*UESession, *BSServer) {
	t.Helper()
	srv, err := NewBSServer(ServerConfig{
		MaxUE: 1, Steps: steps, EvalEvery: 10, ValAnchors: 16,
		Provision: prov, Store: st, CheckpointEvery: 5,
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
		Backoff: Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
		sleep:   func(time.Duration) {},
	}
	if prev != nil {
		us.ckpt, us.ckptStep, us.epoch = prev.ckpt, prev.ckptStep, prev.epoch
	}
	dialer := &pipeDialer{srv: srv}
	if err := us.Run(dialer.dial); err != nil {
		t.Fatalf("UESession.Run: %v", err)
	}
	dialer.wait()
	srv.Close()
	return us, srv
}

// TestCrashAdoptionResumeBitIdentical is the cold-start acceptance
// drill on every backend: a UE trains to step 10 against server A,
// server A dies, a fresh server B boots on the same store, adopts the
// retired session it never served live, honours the UE's resume token,
// and the finished run is bit-identical — UE half and BS half — to a
// run that was never interrupted.
func TestCrashAdoptionResumeBitIdentical(t *testing.T) {
	prov := cachedProvision()

	// The uninterrupted reference: 20 straight steps.
	cleanStore := store.NewMem(16)
	clean, _ := crashPhase(t, prov, cleanStore, 20, nil)
	cleanBS, err := cleanStore.GetCheckpoint("ue-0", 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.ckpt) == 0 || clean.ckptStep != 20 {
		t.Fatalf("clean run token at step %d", clean.ckptStep)
	}

	for _, b := range crashBackends() {
		t.Run(b.name, func(t *testing.T) {
			dir := t.TempDir()
			st := b.open(t, dir)

			// Server A serves the first 10 steps, the session detaches
			// cleanly (checkpoint@10 durable, retire record durable), and
			// the process "crashes": for durable backends the handle is
			// closed and the replacement reopens from disk.
			usA, _ := crashPhase(t, prov, st, 10, nil)
			if usA.ckptStep != 10 || usA.epoch != 1 {
				t.Fatalf("phase A token: step %d epoch %d", usA.ckptStep, usA.epoch)
			}
			if b.reopen != nil {
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				st = b.reopen(t, dir)
			}
			defer st.Close()

			// Server B boots on the store and must already know the
			// session before any UE connects.
			srvB, err := NewBSServer(ServerConfig{
				MaxUE: 1, Steps: 20, EvalEvery: 10, ValAnchors: 16,
				Provision: prov, Store: st, CheckpointEvery: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := srvB.Stats().AdoptedSessions; got != 1 {
				t.Fatalf("server B adopted %d sessions, want 1", got)
			}
			adopted, ok := srvB.SessionByID("ue-0")
			if !ok || adopted.State != SessionDetached || adopted.Steps != 10 || adopted.Epoch != 1 {
				t.Fatalf("adopted snapshot: ok=%v %+v", ok, adopted)
			}

			// The UE from the dead server resumes against B — a session B
			// never served live, across a boot epoch.
			usB := &UESession{
				Hello: tinyHello(0), Cfg: clean.Cfg, Data: clean.Data,
				Backoff: Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
				sleep:   func(time.Duration) {},
			}
			usB.ckpt, usB.ckptStep, usB.epoch = usA.ckpt, usA.ckptStep, usA.epoch
			dialer := &pipeDialer{srv: srvB}
			if err := usB.Run(dialer.dial); err != nil {
				t.Fatalf("resume against adopting server: %v", err)
			}
			dialer.wait()
			srvB.Close()

			if usB.Resumes() != 1 {
				t.Fatalf("resumed %d times, want 1", usB.Resumes())
			}
			snaps := srvB.Sessions()
			last := snaps[len(snaps)-1]
			if last.ResumedFrom != 10 || last.Epoch != 2 || last.Steps != 20 {
				t.Fatalf("resumed incarnation: %+v", last)
			}

			// Invariant 7, across the crash: both halves bit-identical to
			// the uninterrupted run.
			if !bytes.Equal(usB.ckpt, clean.ckpt) {
				t.Fatal("UE half diverged from the uninterrupted run")
			}
			gotBS, err := st.GetCheckpoint("ue-0", 20)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotBS, cleanBS) {
				t.Fatal("BS half diverged from the uninterrupted run")
			}
		})
	}
}

// TestCrashResumeTokenCompactedAway: a UE presents a token for a
// checkpoint the journal has since compacted away; the BS refuses the
// resume as resume-specific and the UE retrains fresh instead of dying.
func TestCrashResumeTokenCompactedAway(t *testing.T) {
	prov := cachedProvision()
	dir := t.TempDir()
	j, err := store.OpenJournal(filepath.Join(dir, "store.journal"), store.JournalOptions{Retain: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	usA, _ := crashPhase(t, prov, j, 10, nil)
	if usA.ckptStep != 10 {
		t.Fatalf("phase A token at step %d", usA.ckptStep)
	}
	// Retention policy strikes between the boots: the checkpoint is
	// pruned and compaction rewrites the journal without its bytes.
	if err := j.DeleteCheckpoint("ue-0", 10); err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.GetCheckpoint("ue-0", 10); !store.IsNotFound(err) {
		t.Fatalf("checkpoint still present after compaction: %v", err)
	}

	usB, srvB := crashPhase(t, prov, j, 10, usA)
	if usB.Resumes() != 0 {
		t.Fatalf("resumed %d times from a compacted-away checkpoint", usB.Resumes())
	}
	if st := srvB.Stats(); st.RestoreErrors == 0 {
		t.Fatal("failed restore not counted")
	}
	snaps := srvB.Sessions()
	last := snaps[len(snaps)-1]
	if last.State != SessionDetached || last.Steps != 10 || last.ResumedFrom != 0 {
		t.Fatalf("fallback session snapshot: %+v", last)
	}
}

// TestCrashConcurrentCheckpointEvict hammers the checkpoint write path
// (every step) while the control plane evicts sessions out from under
// it — the -race drill for store writes vs. retirement persistence.
// Evicted UEs reconnect and resume; when the evictor stops, every
// session finishes, and the journal must reopen clean.
func TestCrashConcurrentCheckpointEvict(t *testing.T) {
	prov := cachedProvision()
	dir := t.TempDir()
	j, err := store.OpenJournal(filepath.Join(dir, "store.journal"), store.JournalOptions{Retain: 64})
	if err != nil {
		t.Fatal(err)
	}
	const nUE = 4
	srv, err := NewBSServer(ServerConfig{
		MaxUE: nUE, Steps: 30, EvalEvery: 15, ValAnchors: 8,
		Provision: prov, Store: j, CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var evictors sync.WaitGroup
	evictors.Add(1)
	go func() {
		defer evictors.Done()
		for round := 0; round < 6; round++ {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < nUE; i++ {
				srv.Evict(fmt.Sprintf("ue-%d", i)) // error (not live) is fine
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, nUE)
	for i := 0; i < nUE; i++ {
		h := tinyHello(i)
		cfg, d, _, err := prov(h)
		if err != nil {
			t.Fatal(err)
		}
		us := &UESession{
			Hello: h, Cfg: cfg, Data: d,
			Backoff: Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond, Retries: 20},
			sleep:   func(time.Duration) {},
		}
		dialer := &pipeDialer{srv: srv}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := us.Run(dialer.dial); err != nil {
				errs <- err
			}
			dialer.wait()
		}()
	}
	wg.Wait()
	close(stop)
	evictors.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("UE session under eviction churn: %v", err)
	}
	srv.Close()
	if srv.StoreDegraded() {
		t.Fatal("store degraded under concurrent checkpoint+evict")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := store.OpenJournal(filepath.Join(dir, "store.journal"), store.JournalOptions{Retain: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.Stats(); st.Recoveries != 0 {
		t.Fatalf("journal needed recovery after clean shutdown: %+v", st)
	}
}

// failingStore wraps a Store with checkpoint writes that always fail —
// the disk-full twin of FaultFS, scoped to one method.
type failingStore struct {
	store.Store
	writes int
}

var errDiskFull = errors.New("injected: no space left on device")

func (f *failingStore) PutCheckpoint(id string, step int, blob []byte) error {
	f.writes++
	return errDiskFull
}

// TestCrashStoreDegradedServingContinues: when every checkpoint write
// fails, the server burns its retries once, flips to degraded, and the
// session still trains to completion — checkpointing is availability
// collateral, never a serving dependency.
func TestCrashStoreDegradedServingContinues(t *testing.T) {
	prov := cachedProvision()
	fs := &failingStore{Store: store.NewMem(8)}
	srv, err := NewBSServer(ServerConfig{
		MaxUE: 1, Steps: 10, EvalEvery: 5, ValAnchors: 8,
		Provision: prov, Store: fs, CheckpointEvery: 5,
		StoreRetries: 2, StoreRetryBackoff: time.Millisecond,
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
	dialer := &pipeDialer{srv: srv}
	if err := us.Run(dialer.dial); err != nil {
		t.Fatalf("session under store failure: %v", err)
	}
	dialer.wait()
	srv.Close()

	if !srv.StoreDegraded() {
		t.Fatal("server not degraded after exhausted store retries")
	}
	st := srv.Stats()
	if !st.StoreDegraded || st.StoreWriteErrors == 0 {
		t.Fatalf("stats: %+v", st)
	}
	// The first due checkpoint burns the retry budget exactly once, then
	// checkpointing is disabled — no retry storm on later steps.
	if fs.writes != 3 {
		t.Fatalf("store saw %d write attempts, want 3 (one checkpoint, retried twice)", fs.writes)
	}
	// The UE was never told a checkpoint landed, so it holds no token.
	if us.LastCheckpointStep() != 0 {
		t.Fatalf("UE holds token for step %d after degraded writes", us.LastCheckpointStep())
	}
	snaps := srv.Sessions()
	last := snaps[len(snaps)-1]
	if last.State != SessionDetached || last.Steps != 10 {
		t.Fatalf("session under degraded store: %+v", last)
	}
}
