package store

import (
	"errors"
	"path/filepath"
	"testing"
	"time"
)

// TestTakeoverWaitsForFlockRelease: OpenForTakeover against a journal
// whose writer is still live retries until the holder closes — the
// survivor adopting a dying replica's store races only the kernel's
// flock release, never a lock file.
func TestTakeoverWaitsForFlockRelease(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bs.journal")
	holder, err := OpenJournal(path, JournalOptions{Retain: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.PutCheckpoint("ue-t", 6, []byte("durable")); err != nil {
		t.Fatal(err)
	}

	// Holder still live, no wait budget: exactly one try, ErrLocked.
	if _, err := OpenForTakeover("journal", path, 8, 0); !errors.Is(err, ErrLocked) {
		t.Fatalf("takeover of held journal: %v, want ErrLocked", err)
	}

	// Release the lock mid-retry: the takeover must land within its
	// budget and read the holder's durable state.
	go func() {
		time.Sleep(20 * time.Millisecond)
		holder.Close()
	}()
	st, err := OpenForTakeover("journal", path, 8, 2*time.Second)
	if err != nil {
		t.Fatalf("takeover after release: %v", err)
	}
	defer st.Close()
	if got, err := st.GetCheckpoint("ue-t", 6); err != nil || string(got) != "durable" {
		t.Fatalf("taken-over checkpoint: %q, %v", got, err)
	}
}

// TestTakeoverDir: the per-file dir layout is gone, so a takeover of
// kind "dir" is a structured error that returns at once even with a
// wait budget (only ErrLocked is retried). The checkpoint directory's
// journal is taken over by kind "journal".
func TestTakeoverDir(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.journal")
	holder, err := OpenJournal(path, JournalOptions{Retain: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.PutCheckpoint("ue-d", 2, []byte("dir-durable")); err != nil {
		t.Fatal(err)
	}
	holder.Close()

	start := time.Now()
	st, err := OpenForTakeover("dir", dir, 8, 2*time.Second)
	if err == nil {
		st.Close()
		t.Fatal("takeover of the retired dir kind must fail")
	}
	if errors.Is(err, ErrLocked) {
		t.Fatalf("takeover of the dir kind: %v, want a non-retryable error", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("takeover of the dir kind retried for %v; only ErrLocked is retried", waited)
	}

	st, err = OpenForTakeover("journal", path, 8, time.Second)
	if err != nil {
		t.Fatalf("takeover of the directory's journal: %v", err)
	}
	defer st.Close()
	if got, err := st.GetCheckpoint("ue-d", 2); err != nil || string(got) != "dir-durable" {
		t.Fatalf("taken-over checkpoint: %q, %v", got, err)
	}
}

// TestTakeoverMemImpossible: the mem backend has no durable path, so a
// takeover is a structured error, not a panic or a silent empty store.
func TestTakeoverMemImpossible(t *testing.T) {
	if _, err := OpenForTakeover("mem", "", 8, 0); err == nil {
		t.Fatal("takeover of a mem store must fail")
	}
}
