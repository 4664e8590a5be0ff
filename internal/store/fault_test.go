package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCrashTornWriteSweep is the power-cut drill: a journal is driven
// through a fixed op sequence under a FaultFS whose write budget cuts
// one of the writes short, for every budget from 0 to the full
// sequence. Whatever the journal acknowledged before the fault must be
// recovered intact by a clean reopen of the same file; the torn tail
// must be truncated away, never misparsed.
func TestCrashTornWriteSweep(t *testing.T) {
	type ack struct {
		kind string // "retire" or "ckpt"
		i    int
	}
	// One dry run with an unlimited budget measures the total bytes the
	// sequence writes, so the sweep can step through every cut point.
	drive := func(dir string, budget int64) (acked []ack, path string) {
		path = filepath.Join(dir, "s.journal")
		ff := NewFaultFS(OS, budget)
		j, err := OpenJournal(path, JournalOptions{Retain: 8, FS: ff})
		if err != nil {
			return nil, path // fault during open: nothing acknowledged
		}
		defer j.Close()
		for i := 0; i < 4; i++ {
			if err := j.RetireSession(testRecord(i)); err != nil {
				return acked, path
			}
			acked = append(acked, ack{"retire", i})
			if err := j.PutCheckpoint("ue-0", i, bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
				return acked, path
			}
			acked = append(acked, ack{"ckpt", i})
		}
		return acked, path
	}

	fullDir := t.TempDir()
	fullAcks, fullPath := drive(fullDir, 1<<30)
	if len(fullAcks) != 8 {
		t.Fatalf("dry run acknowledged %d ops, want 8", len(fullAcks))
	}
	fi, err := os.Stat(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	total := fi.Size()

	for budget := int64(0); budget <= total; budget += 7 {
		dir := t.TempDir()
		acked, path := drive(dir, budget)
		// Reopen with the real FS — the process restarting after the cut.
		j, err := OpenJournal(path, JournalOptions{Retain: 8})
		if err != nil {
			t.Fatalf("budget=%d: reopen: %v", budget, err)
		}
		for _, a := range acked {
			switch a.kind {
			case "ckpt":
				blob, err := j.GetCheckpoint("ue-0", a.i)
				if err != nil || !bytes.Equal(blob, bytes.Repeat([]byte{byte(a.i)}, 64)) {
					t.Fatalf("budget=%d: acknowledged checkpoint %d lost: %v", budget, a.i, err)
				}
			case "retire":
				recs, _ := j.RetiredSessions()
				found := false
				for _, r := range recs {
					if r.ID == fmt.Sprintf("ue-%d", a.i) {
						found = true
					}
				}
				if !found {
					t.Fatalf("budget=%d: acknowledged retire %d lost", budget, a.i)
				}
			}
		}
		// And the survivor is writable.
		if err := j.RetireSession(testRecord(50)); err != nil {
			t.Fatalf("budget=%d: append after crash-reopen: %v", budget, err)
		}
		j.Close()
	}
}

// TestFaultFSSemantics pins the injector's contract (the storage twin
// of transport.FaultConn): the budget-exhausting write delivers only
// the remainder, and once tripped every mutating op fails while reads
// keep working.
func TestFaultFSSemantics(t *testing.T) {
	dir := t.TempDir()
	ff := NewFaultFS(OS, 4)
	f, err := ff.OpenFile(filepath.Join(dir, "x"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("abcdefgh"))
	if n != 4 || !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("budget-exhausting write: n=%d err=%v, want 4, ErrInjectedFault", n, err)
	}
	if !ff.Tripped() {
		t.Fatal("not tripped after budget exhaustion")
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrInjectedFault) {
		t.Fatal("write after trip succeeded")
	}
	if err := f.Sync(); !errors.Is(err, ErrInjectedFault) {
		t.Fatal("sync after trip succeeded")
	}
	if err := ff.Rename(filepath.Join(dir, "x"), filepath.Join(dir, "y")); !errors.Is(err, ErrInjectedFault) {
		t.Fatal("rename after trip succeeded")
	}
	if err := ff.SyncDir(dir); !errors.Is(err, ErrInjectedFault) {
		t.Fatal("dir sync after trip succeeded")
	}
	// Reads still deliver what made it to "disk".
	buf := make([]byte, 4)
	if _, err := f.ReadAt(buf, 0); err != nil || !bytes.Equal(buf, []byte("abcd")) {
		t.Fatalf("read after trip: %q, %v", buf, err)
	}
	f.Close()
}

// TestWriteFileAtomicTornWrite: under any write budget, the final path
// holds either the complete old content or the complete new content —
// never a torn intermediate — and a fault leaves no temp litter
// visible as a checkpoint.
func TestWriteFileAtomicTornWrite(t *testing.T) {
	oldContent, newContent := []byte("the old checkpoint"), []byte("the new checkpoint, longer")
	for budget := int64(0); budget <= int64(len(newContent)+8); budget++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "ckpt")
		if err := os.WriteFile(path, oldContent, 0o644); err != nil {
			t.Fatal(err)
		}
		ff := NewFaultFS(OS, budget)
		err := WriteFileAtomicFS(ff, path, func(w io.Writer) error {
			_, err := w.Write(newContent)
			return err
		})
		got, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatalf("budget=%d: final path unreadable: %v", budget, rerr)
		}
		if err == nil {
			if !bytes.Equal(got, newContent) {
				t.Fatalf("budget=%d: success but content %q", budget, got)
			}
		} else if !bytes.Equal(got, oldContent) && !bytes.Equal(got, newContent) {
			t.Fatalf("budget=%d: torn content %q under the final name", budget, got)
		}
	}
}

// TestCrashTornWriteDirBackend is the torn-write sweep for the one
// file-per-session directory left: the UE half's checkpoint directory,
// where each session keeps <SanitizeID(id)>.ue.ckpt, written through
// WriteFileAtomic. Several sessions' files are written under a FaultFS
// whose budget cuts one write short, for every budget up to the whole
// sequence. Every acknowledged file must read back intact, and no file
// may surface under a final name with torn bytes: a first write that
// fails leaves the name absent, never short. Two ids that sanitise
// alike must still land in two files.
func TestCrashTornWriteDirBackend(t *testing.T) {
	blob := bytes.Repeat([]byte{0x5A}, 256)
	ids := []string{"ue-0", "ue/1", "ue_1", "ue 3"}
	total := int64(len(ids) * len(blob))
	for budget := int64(0); budget <= total+32; budget += 32 {
		dir := t.TempDir()
		ff := NewFaultFS(OS, budget)
		var acked []string
		for _, id := range ids {
			path := filepath.Join(dir, SanitizeID(id)+".ue.ckpt")
			err := WriteFileAtomicFS(ff, path, func(w io.Writer) error {
				_, err := w.Write(blob)
				return err
			})
			if err != nil {
				break
			}
			acked = append(acked, path)
		}
		if budget > total && len(acked) != len(ids) {
			t.Fatalf("budget=%d: %d of %d writes acknowledged with budget to spare", budget, len(acked), len(ids))
		}

		for _, p := range acked {
			got, err := os.ReadFile(p)
			if err != nil || !bytes.Equal(got, blob) {
				t.Fatalf("budget=%d: acknowledged checkpoint %s: %v", budget, filepath.Base(p), err)
			}
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		final := 0
		for _, e := range ents {
			if !strings.HasSuffix(e.Name(), ".ue.ckpt") {
				continue // the cut write's temp sibling, never read as a checkpoint
			}
			final++
			got, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil || !bytes.Equal(got, blob) {
				t.Fatalf("budget=%d: torn checkpoint %s surfaced under its final name", budget, e.Name())
			}
		}
		if final < len(acked) {
			t.Fatalf("budget=%d: %d checkpoint files for %d acknowledged writes", budget, final, len(acked))
		}
	}
}
