package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalReplay throws arbitrary bytes at the journal recovery
// path. Whatever the input, OpenJournal must not panic; when it
// accepts the file, a second open of the recovered file must be clean
// (no further recovery — replay-and-truncate is a fixpoint).
func FuzzJournalReplay(f *testing.F) {
	// Seed corpus: a real journal plus structured mutations of it.
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.journal")
	j, err := OpenJournal(path, JournalOptions{Retain: 4})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.RetireSession(testRecord(i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.PutCheckpoint("ue-0", 5, bytes.Repeat([]byte{0xAB}, 100)); err != nil {
		f.Fatal(err)
	}
	if err := j.DeleteCheckpoint("ue-0", 5); err != nil {
		f.Fatal(err)
	}
	j.Close()
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:journalHdrLen])
	f.Add(valid[:len(valid)-3]) // torn tail
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40 // CRC mismatch mid-file
	f.Add(flipped)
	huge := append([]byte(nil), valid...)
	huge = append(huge, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0) // absurd bodyLen
	f.Add(huge)
	f.Add([]byte("GIF89a definitely not a journal"))
	// References, which the mutator cannot forge: a random mutation
	// almost never passes the CRC.
	withRefs, forged := refJournals(f)
	f.Add(withRefs)
	golden, err := os.ReadFile(filepath.Join("testdata", "journal_v2.bin"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, c := range forged {
		f.Add(c.image)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.journal")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(p, JournalOptions{Retain: 4})
		if err != nil {
			return // rejected loudly — fine
		}
		// Accepted: the in-memory state must be coherent enough to use...
		j.RetiredSessions()
		j.Aggregates()
		if err := j.RetireSession(testRecord(7)); err != nil {
			t.Fatalf("append to recovered journal: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("close recovered journal: %v", err)
		}
		// ...and recovery must be a fixpoint.
		j2, err := OpenJournal(p, JournalOptions{Retain: 4})
		if err != nil {
			t.Fatalf("recovered journal rejected on reopen: %v", err)
		}
		if st := j2.Stats(); st.Recoveries != 0 {
			t.Fatalf("recovered journal needed recovery again: %+v", st)
		}
		j2.Close()
	})
}

// refBlob is the blob every checkpoint of refJournals' journal holds.
func refBlob() []byte { return bytes.Repeat([]byte{0x5C, 0xA1}, 32) }

// forgedRef is a journal image that ends in a correctly sealed reference
// naming no blob an earlier record wrote.
type forgedRef struct {
	name  string
	image []byte
	tail  int // bytes from the forged frame on, which replay must cut
}

// refJournals returns a journal written through the API with references
// (across batches, and outliving the record that wrote their blob) and
// copies of it with one forged reference appended: pointing forward at a
// checkpoint written after it, at an offset inside a blob, with a wrong
// length, into the header, and into a retire record's body.
func refJournals(tb testing.TB) (valid []byte, forged []forgedRef) {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "refs.journal")
	j, err := OpenJournal(path, JournalOptions{Retain: 4})
	if err != nil {
		tb.Fatal(err)
	}
	blob := refBlob()
	for _, op := range []func() error{
		func() error { return j.RetireSession(testRecord(0)) },
		func() error { return j.PutCheckpoint("ue-0", 1, blob) },
		func() error { return j.PutCheckpoint("ue-1", 1, blob) },
		func() error { return j.PutCheckpoint("ue-0", 2, blob) },
		func() error { return j.DeleteCheckpoint("ue-0", 1) },
	} {
		if err := op(); err != nil {
			tb.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		tb.Fatal(err)
	}
	if valid, err = os.ReadFile(path); err != nil {
		tb.Fatal(err)
	}
	// Frame 0 is the retire record, frame 1 the checkpoint carrying blob.
	ends, bodies := journalFrames(tb, valid)
	retireBody := int64(journalHdrLen + recHdrLen)
	blobOff := ends[1] - int64(len(blob))
	if !bytes.Equal(valid[blobOff:ends[1]], blob) || bodies[0][0] != recRetire {
		tb.Fatal("reference journal laid out other than expected")
	}
	refFrame := func(off int64, size int) []byte {
		head := appendRefTrailer(checkpointHead(recCheckpointRef, "ue-9", 1), blobRegion{off: off, size: size})
		sealFrame(head, nil)
		return head
	}
	add := func(name string, frames ...[]byte) {
		img := append([]byte(nil), valid...)
		for _, fr := range frames {
			img = append(img, fr...)
		}
		forged = append(forged, forgedRef{name: name, image: img, tail: len(img) - len(valid)})
	}
	// forward: a reference to the blob of the checkpoint that follows it
	// (a reference frame's length does not depend on what it names).
	next := checkpointHead(recCheckpoint, "ue-8", 1)
	sealFrame(next, blob)
	ahead := int64(len(valid) + len(refFrame(0, 0)) + len(next))
	add("forward", refFrame(ahead, len(blob)), next, blob)
	add("inside a blob", refFrame(blobOff+2, len(blob)-2))
	add("wrong length", refFrame(blobOff, len(blob)+1))
	add("header", refFrame(4, 8))
	add("retire body", refFrame(retireBody+3, 16))
	return valid, forged
}

// TestCrashJournalForgedReferences: a correctly sealed reference that
// names no blob an earlier record of the file wrote stops replay at its
// own frame, as any corrupt record does — everything before it
// survives, it and everything after it are cut — and the recovered file
// reopens clean.
func TestCrashJournalForgedReferences(t *testing.T) {
	valid, forged := refJournals(t)
	ends, _ := journalFrames(t, valid)
	for _, c := range forged {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "forged.journal")
			if err := os.WriteFile(path, c.image, 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := OpenJournal(path, JournalOptions{Retain: 4})
			if err != nil {
				t.Fatal(err)
			}
			st := j.Stats()
			if st.RecoveredRecords != int64(len(ends)) || st.Recoveries != 1 || st.TruncatedBytes != int64(c.tail) {
				t.Fatalf("replay of %d valid records and a forged tail of %d bytes: %+v", len(ends), c.tail, st)
			}
			for _, key := range []struct {
				id   string
				step int
			}{{"ue-1", 1}, {"ue-0", 2}} {
				if blob, err := j.GetCheckpoint(key.id, key.step); err != nil || !bytes.Equal(blob, refBlob()) {
					t.Fatalf("%s@%d after the cut: %v", key.id, key.step, err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := OpenJournal(path, JournalOptions{Retain: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if st := r.Stats(); st.Recoveries != 0 || st.RecoveredRecords != int64(len(ends)) {
				t.Fatalf("reopen after the cut: %+v", st)
			}
		})
	}
}
