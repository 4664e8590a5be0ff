//go:build unix

package store

import (
	"errors"
	"path/filepath"
	"testing"
)

// TestJournalSingleWriterGuard: a second opener of a live journal must
// fail fast with ErrLocked, and the lock must die with Close so a
// successor process (modelled as a later open) adopts normally.
func TestJournalSingleWriterGuard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.journal")
	j, err := OpenJournal(path, JournalOptions{Retain: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, JournalOptions{Retain: 8}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second opener: got %v, want ErrLocked", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path, JournalOptions{Retain: 8})
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	j2.Close()
}

// TestDirSingleWriterGuard: the guard is per store file, not per
// directory. Replicas sharing one checkpoint directory, each with its
// own journal, open side by side; a second opener of either is refused
// with ErrLocked; and closing one lets a successor adopt it while the
// other stays held.
func TestDirSingleWriterGuard(t *testing.T) {
	dir := t.TempDir()
	p0, p1 := filepath.Join(dir, "bs-0.journal"), filepath.Join(dir, "bs-1.journal")
	j0, err := OpenJournal(p0, JournalOptions{Retain: 8})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := OpenJournal(p1, JournalOptions{Retain: 8})
	if err != nil {
		t.Fatalf("second journal in the same directory: %v", err)
	}
	defer j1.Close()
	for _, p := range []string{p0, p1} {
		if _, err := OpenJournal(p, JournalOptions{Retain: 8}); !errors.Is(err, ErrLocked) {
			t.Fatalf("second opener of %s: got %v, want ErrLocked", filepath.Base(p), err)
		}
	}
	if err := j0.Close(); err != nil {
		t.Fatal(err)
	}
	succ, err := OpenJournal(p0, JournalOptions{Retain: 8})
	if err != nil {
		t.Fatalf("successor after close: %v", err)
	}
	succ.Close()
	if _, err := OpenJournal(p1, JournalOptions{Retain: 8}); !errors.Is(err, ErrLocked) {
		t.Fatalf("neighbour journal after the other closed: got %v, want ErrLocked", err)
	}
}

// TestGuardSkippedOnNonLockingFS: an FS without the TryLock capability
// (the fault injector) opens unguarded — and does not block a later
// locking opener, the crash-simulation pattern the fault suite uses.
func TestGuardSkippedOnNonLockingFS(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.journal")
	ff := NewFaultFS(OS, 1<<30)
	j, err := OpenJournal(path, JournalOptions{Retain: 8, FS: ff})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	// The unguarded handle is still "open"; a locking opener of the same
	// path must succeed — FaultFS models a crashed process whose state
	// the replacement adopts.
	j2, err := OpenJournal(path, JournalOptions{Retain: 8})
	if err != nil {
		t.Fatalf("locking opener after unguarded open: %v", err)
	}
	j2.Close()
}
