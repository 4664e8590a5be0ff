package chaos_test

import (
	"errors"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/store"
	"repro/internal/transport"
)

// newJournalReplica builds a chaos replica over a flock'd journal store
// in dir — the durable configuration the fleet soak drills, minus the
// fault injection.
func newJournalReplica(t *testing.T, dir string) (*chaos.Replica, string) {
	t.Helper()
	path := filepath.Join(dir, "bs.journal")
	st, err := store.OpenJournal(path, store.JournalOptions{Retain: 16})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(st store.Store) (*transport.BSServer, error) {
		return transport.NewBSServer(transport.ServerConfig{
			ReplicaID: "bs-chaos", MaxUE: 4, Steps: 8,
			Store: st, Logf: t.Logf,
		})
	}
	rep, err := chaos.New(chaos.Config{
		Make:  mk,
		Store: st,
		Reopen: func() (store.Store, error) {
			return store.OpenForTakeover("journal", path, 16, 2*time.Second)
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep, path
}

// TestKillTakeoverRejoin walks the full crash lifecycle: a healthy
// replica is killed uncontrolled (flock released with the process), a
// coordinator takes its store over and reads the durable state, and the
// rejoin boots a fresh incarnation on the same journal that re-adopts
// the retired sessions.
func TestKillTakeoverRejoin(t *testing.T) {
	rep, _ := newJournalReplica(t, t.TempDir())

	if err := rep.Probe(); err != nil {
		t.Fatalf("healthy probe: %v", err)
	}
	// Durable state the kill must not destroy: a checkpoint blob and a
	// retired-session record, written through the first incarnation's
	// store handle.
	blob := []byte("checkpoint-blob")
	if err := rep.BS().Store().PutCheckpoint("ue-x", 4, blob); err != nil {
		t.Fatal(err)
	}
	if err := rep.BS().Store().RetireSession(store.SessionRecord{
		ID: "ue-done", Cause: store.CauseDetached, Steps: 8,
	}); err != nil {
		t.Fatal(err)
	}

	if err := rep.Rejoin(); err == nil {
		t.Fatal("rejoin of a live replica must fail")
	}

	rep.Kill(false)
	rep.Kill(false) // idempotent
	if rep.Kills() != 1 {
		t.Fatalf("kills = %d, want 1", rep.Kills())
	}
	if err := rep.Probe(); !errors.Is(err, transport.ErrReplicaCrashed) {
		t.Fatalf("probe of killed replica: %v", err)
	}
	if !rep.Crashed() {
		t.Fatal("killed replica not crashed")
	}

	// Takeover: the kill closed the store handle (kernel dropping the
	// dead process's flock), so the reopen must succeed and surface the
	// durable checkpoint.
	st, release, err := rep.TakeoverStore()
	if err != nil {
		t.Fatalf("takeover: %v", err)
	}
	got, err := st.GetCheckpoint("ue-x", 4)
	if err != nil || string(got) != string(blob) {
		t.Fatalf("taken-over checkpoint: %q, %v", got, err)
	}
	release()

	// Rejoin boots a fresh incarnation on the handed-back store handle
	// and adopts the retired session at boot.
	if err := rep.Rejoin(); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if rep.Rejoins() != 1 {
		t.Fatalf("rejoins = %d, want 1", rep.Rejoins())
	}
	if err := rep.Probe(); err != nil {
		t.Fatalf("probe after rejoin: %v", err)
	}
	if n := rep.BS().Stats().AdoptedSessions; n != 1 {
		t.Fatalf("rejoined incarnation adopted %d sessions, want 1", n)
	}
	if _, err := rep.BS().Store().GetCheckpoint("ue-x", 4); err != nil {
		t.Fatalf("checkpoint lost across kill/rejoin: %v", err)
	}
}

// TestTornWriteKill: a kill that tears the in-flight journal write must
// still leave every previously-synced checkpoint readable after the
// takeover reopen (replay truncates the torn tail).
func TestTornWriteKill(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bs.journal")
	ff := store.NewFaultFS(store.OS, 1<<40)
	st, err := store.OpenJournal(path, store.JournalOptions{Retain: 16, FS: ff})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(st store.Store) (*transport.BSServer, error) {
		return transport.NewBSServer(transport.ServerConfig{
			ReplicaID: "bs-torn", MaxUE: 4, Steps: 8, Store: st, Logf: t.Logf,
		})
	}
	rep, err := chaos.New(chaos.Config{
		Make:  mk,
		Store: st,
		Reopen: func() (store.Store, error) {
			// A fresh FaultFS per incarnation: the old one stays tripped,
			// like the page cache of a machine that lost power.
			return store.OpenJournal(path, store.JournalOptions{Retain: 16, FS: store.NewFaultFS(store.OS, 1<<40)})
		},
		Tear: ff.Trip,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	if err := rep.BS().Store().PutCheckpoint("ue-y", 2, []byte("survives")); err != nil {
		t.Fatal(err)
	}
	rep.Kill(true) // torn write on the way down
	st2, release, err := rep.TakeoverStore()
	if err != nil {
		t.Fatalf("takeover after torn kill: %v", err)
	}
	if got, err := st2.GetCheckpoint("ue-y", 2); err != nil || string(got) != "survives" {
		t.Fatalf("synced checkpoint after torn kill: %q, %v", got, err)
	}
	release()
	if err := rep.Rejoin(); err != nil {
		t.Fatalf("rejoin after torn kill: %v", err)
	}
}

// TestStallDelaysProbe: a stalled replica answers probes late — the
// gray/dead signal — but is not dead.
func TestStallDelaysProbe(t *testing.T) {
	rep, _ := newJournalReplica(t, t.TempDir())
	rep.Stall(30 * time.Millisecond)
	start := time.Now()
	if err := rep.Probe(); err != nil {
		t.Fatalf("stalled probe: %v", err)
	}
	if lat := time.Since(start); lat < 20*time.Millisecond {
		t.Fatalf("stalled probe answered in %v, want >= ~30ms", lat)
	}
	if err := rep.Probe(); err != nil {
		t.Fatalf("post-stall probe: %v", err)
	}
}

// TestKillRejoinReleasesDispatcher: a kill closes the dead incarnation's
// server, so kill/rejoin cycles leave none of its dispatcher goroutines
// behind — the count with the sixth incarnation live is the count with
// the first.
func TestKillRejoinReleasesDispatcher(t *testing.T) {
	rep, _ := newJournalReplica(t, t.TempDir())
	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		rep.Kill(false)
		if err := rep.Rejoin(); err != nil {
			t.Fatalf("rejoin %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after 5 kill/rejoin cycles, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
	rep.BS().Close()
}
