package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// buildJournal writes a small journal with a known record sequence and
// returns its path plus the per-record "acknowledged prefix" table:
// ends[i] is the file size after record i became durable.
func buildJournal(t *testing.T, dir string) (path string, ends []int64) {
	t.Helper()
	path = filepath.Join(dir, "store.journal")
	j, err := OpenJournal(path, JournalOptions{Retain: 8})
	if err != nil {
		t.Fatal(err)
	}
	note := func() {
		ends = append(ends, j.Stats().JournalBytes)
	}
	for i := 0; i < 3; i++ {
		if err := j.RetireSession(testRecord(i)); err != nil {
			t.Fatal(err)
		}
		note()
	}
	if err := j.PutCheckpoint("ue-0", 5, bytes.Repeat([]byte{0xAB}, 200)); err != nil {
		t.Fatal(err)
	}
	note()
	if err := j.PutCheckpoint("ue-0", 10, bytes.Repeat([]byte{0xCD}, 200)); err != nil {
		t.Fatal(err)
	}
	note()
	if err := j.DeleteCheckpoint("ue-0", 5); err != nil {
		t.Fatal(err)
	}
	note()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path, ends
}

// journalFrames walks a journal image by its length prefixes — without
// the journal's own replay code — and returns every frame's end offset
// and body.
func journalFrames(t testing.TB, whole []byte) (ends []int64, bodies [][]byte) {
	t.Helper()
	off := journalHdrLen
	for off < len(whole) {
		n := int(binary.BigEndian.Uint32(whole[off:]))
		if off+recHdrLen+n > len(whole) {
			t.Fatalf("frame at %d overruns the file", off)
		}
		bodies = append(bodies, whole[off+recHdrLen:off+recHdrLen+n])
		off += recHdrLen + n
		ends = append(ends, int64(off))
	}
	return ends, bodies
}

// buildConcurrentJournal writes a journal from several writers at once,
// so its frames landed in group-commit batches in an order only the
// file records.
func buildConcurrentJournal(t *testing.T, dir string) (path string) {
	t.Helper()
	path = filepath.Join(dir, "store.journal")
	j, err := OpenJournal(path, JournalOptions{Retain: 8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("w-%d", w)
			for s := 1; s <= 3; s++ {
				if err := j.PutCheckpoint(id, s, gcBlob(id, s)); err != nil {
					t.Error(err)
				}
				if s > 1 {
					if err := j.DeleteCheckpoint(id, s-1); err != nil {
						t.Error(err)
					}
				}
			}
			if err := j.RetireSession(testRecord(w)); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// buildSharedJournal writes a journal whose checkpoints share blobs:
// three ids put one blob in one held batch, a fourth puts it in a later
// batch, the owning record is pruned while references to it are live and
// a key is re-put with its own bytes; then the file is compacted and
// written on — a reference into the compacted part, another shared batch
// whose owner is pruned. It returns the file's image just before the
// compaction and at the end, and the blob each id was put with.
func buildSharedJournal(t *testing.T, dir string) (pre, final []byte, blobs map[string][]byte) {
	t.Helper()
	path := filepath.Join(dir, "shared.journal")
	fsys := &hookFS{FS: OS}
	j, err := OpenJournal(path, JournalOptions{Retain: 8, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	shared, other := gcBlob("shared", 1), gcBlob("other", 1)
	blobs = map[string][]byte{"lead": gcBlob("lead", 1)}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	batch := func(blob []byte, ids ...string) {
		gate, leader := holdFlush(j, fsys)
		results := []chan error{leader}
		for _, id := range ids {
			blobs[id] = blob
			results = append(results, queuePut(t, j, id, 1, blob))
		}
		close(gate.release)
		for _, ch := range results {
			must(recv(t, ch, "put"))
		}
	}
	put := func(id string, blob []byte) {
		blobs[id] = blob
		must(j.PutCheckpoint(id, 1, blob))
	}
	batch(shared, "a", "b", "c")
	put("d", shared)
	must(j.DeleteCheckpoint("a", 1))
	put("b", shared)
	must(j.RetireSession(testRecord(1)))
	pre, err = os.ReadFile(path)
	must(err)
	must(j.Compact())
	put("e", shared)
	batch(other, "f", "g")
	must(j.DeleteCheckpoint("f", 1))
	must(j.DeleteCheckpoint("b", 1))
	must(j.Close())
	final, err = os.ReadFile(path)
	must(err)
	if blobCopies(t, pre, shared) != 1 || blobCopies(t, final, shared) != 1 || blobCopies(t, final, other) != 1 {
		t.Fatal("a shared blob is not on file exactly once")
	}
	return pre, final, blobs
}

// TestCrashJournalTruncationSweep is the SIGKILL-equivalent sweep: the
// journal is truncated at EVERY byte offset — every record boundary and
// every mid-record position — and each truncation must recover to
// exactly the records that were fully durable before the cut, then stay
// writable. It runs over a journal written one acknowledged record at a
// time, over one written by concurrent writers in group-commit batches,
// and over journals whose checkpoints share blobs through references;
// the expected state at each cut is rebuilt from the file's own frames,
// in file order.
func TestCrashJournalTruncationSweep(t *testing.T) {
	t.Run("sequential", func(t *testing.T) {
		dir := t.TempDir()
		path, acks := buildJournal(t, dir)
		whole, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Each acknowledgement came exactly at a frame end.
		if ends, _ := journalFrames(t, whole); !reflect.DeepEqual(ends, acks) {
			t.Fatalf("frames end at %v, acknowledgements came at %v", ends, acks)
		}
		sweepTruncations(t, dir, whole)
	})
	t.Run("concurrent", func(t *testing.T) {
		dir := t.TempDir()
		whole, err := os.ReadFile(buildConcurrentJournal(t, dir))
		if err != nil {
			t.Fatal(err)
		}
		sweepTruncations(t, dir, whole)
	})
	t.Run("shared", func(t *testing.T) {
		dir := t.TempDir()
		pre, final, blobs := buildSharedJournal(t, dir)
		for _, whole := range [][]byte{pre, final} {
			// The sweep reads references at face value; here every one
			// is held to the blob its key was put with.
			_, bodies := journalFrames(t, whole)
			refs := 0
			for _, body := range bodies {
				if body[0] != recCheckpointRef {
					continue
				}
				refs++
				r := recReader{b: body[1:]}
				id := r.string16()
				r.u32()
				off, n := int(r.u64()), int(r.u32())
				if off+n > len(whole) || !bytes.Equal(whole[off:off+n], blobs[id]) {
					t.Fatalf("reference of %s names other bytes than its blob", id)
				}
			}
			if refs < 3 {
				t.Fatalf("image holds %d references, want several", refs)
			}
			sweepTruncations(t, dir, whole)
		}
	})
}

func sweepTruncations(t *testing.T, dir string, whole []byte) {
	ends, bodies := journalFrames(t, whole)
	type key struct {
		id   string
		step int
	}
	// live(n) = the checkpoints retrievable after the first n frames,
	// each with the bytes its record (or the blob its reference names)
	// holds; a reference must name a blob before its own frame.
	live := func(n int) (m map[key][]byte, blobs int) {
		m = make(map[key][]byte)
		regions := make(map[key]int)
		for i, body := range bodies[:n] {
			if body[0] != recCheckpoint && body[0] != recPrune && body[0] != recCheckpointRef {
				continue
			}
			r := recReader{b: body[1:]}
			k := key{id: r.string16(), step: int(r.u32())}
			switch body[0] {
			case recCheckpoint:
				m[k] = r.b[r.off:]
				regions[k] = int(ends[i]) - len(m[k])
			case recCheckpointRef:
				off, size := int(r.u64()), int(r.u32())
				if off+size > int(ends[i])-len(body)-recHdrLen {
					t.Fatalf("reference of %s@%d names bytes at or after its own frame", k.id, k.step)
				}
				m[k] = whole[off : off+size]
				regions[k] = off
			default:
				delete(m, k)
				delete(regions, k)
			}
		}
		distinct := make(map[int]bool)
		for _, off := range regions {
			distinct[off] = true
		}
		return m, len(distinct)
	}

	for cut := 0; cut <= len(whole); cut++ {
		cutPath := filepath.Join(dir, "cut.journal")
		if err := os.WriteFile(cutPath, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(cutPath, JournalOptions{Retain: 8})
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		// A cut exactly at an acknowledged boundary (empty file, bare
		// header, or any record end) is a valid journal — no torn tail,
		// no recovery. Every other offset must count one.
		recovered := 0
		boundary := cut == 0 || cut == journalHdrLen
		for _, e := range ends {
			if e <= int64(cut) {
				recovered++
			}
			boundary = boundary || int64(cut) == e
		}
		st := j.Stats()
		if st.RecoveredRecords != int64(recovered) {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, st.RecoveredRecords, recovered)
		}
		if boundary {
			if st.Recoveries != 0 {
				t.Fatalf("cut=%d: boundary cut reported %d recoveries", cut, st.Recoveries)
			}
		} else if st.Recoveries != 1 || st.TruncatedBytes == 0 {
			t.Fatalf("cut=%d: recoveries = %d truncated = %d, want a recovery", cut, st.Recoveries, st.TruncatedBytes)
		}
		// Survivor state matches the durable prefix: every checkpoint it
		// put and did not prune, byte for byte, and nothing else.
		want, blobs := live(recovered)
		if st.LiveCheckpoints != int64(len(want)) || st.LiveBlobs != int64(blobs) {
			t.Fatalf("cut=%d: %d live checkpoints on %d blobs, want %d on %d", cut, st.LiveCheckpoints, st.LiveBlobs, len(want), blobs)
		}
		for k, blob := range want {
			if got, err := j.GetCheckpoint(k.id, k.step); err != nil || !bytes.Equal(got, blob) {
				t.Fatalf("cut=%d: checkpoint %s@%d: %v", cut, k.id, k.step, err)
			}
		}
		// The recovered journal accepts appends and they persist.
		if err := j.RetireSession(testRecord(99)); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2, err := OpenJournal(cutPath, JournalOptions{Retain: 8})
		if err != nil {
			t.Fatalf("cut=%d: second open: %v", cut, err)
		}
		recs, _ := j2.RetiredSessions()
		if len(recs) == 0 || recs[len(recs)-1].ID != "ue-99" {
			t.Fatalf("cut=%d: post-recovery append did not survive reopen", cut)
		}
		if st2 := j2.Stats(); st2.Recoveries != 0 {
			t.Fatalf("cut=%d: clean reopen reported a recovery", cut)
		}
		j2.Close()
		os.Remove(cutPath)
	}
}

// TestJournalCompaction: dead weight (pruned checkpoints, ring
// overflow) is rewritten away, live state survives byte-identically,
// and the compacted file reopens clean.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.journal")
	j, err := OpenJournal(path, JournalOptions{Retain: 4})
	if err != nil {
		t.Fatal(err)
	}
	keep := bytes.Repeat([]byte{0x42}, 300)
	if err := j.PutCheckpoint("ue-keep", 20, keep); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ { // churn: checkpoints written and pruned
		if err := j.PutCheckpoint("ue-churn", i, bytes.Repeat([]byte{byte(i)}, 500)); err != nil {
			t.Fatal(err)
		}
		if err := j.DeleteCheckpoint("ue-churn", i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ { // spills the retain=4 ring
		if err := j.RetireSession(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := j.Stats()
	wantAgg := j.Aggregates()
	wantRecs, _ := j.RetiredSessions()

	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	after := j.Stats()
	if after.Compactions != 1 {
		t.Fatalf("compactions = %d", after.Compactions)
	}
	if after.JournalBytes >= before.JournalBytes {
		t.Fatalf("compaction did not shrink: %d -> %d bytes", before.JournalBytes, after.JournalBytes)
	}
	// Live state intact through the handle swap...
	if blob, err := j.GetCheckpoint("ue-keep", 20); err != nil || !bytes.Equal(blob, keep) {
		t.Fatalf("live checkpoint after compaction: %v", err)
	}
	if agg := j.Aggregates(); agg != wantAgg {
		t.Fatalf("aggregates after compaction = %+v, want %+v", agg, wantAgg)
	}
	// ...still appendable, and everything survives a reopen.
	if err := j.PutCheckpoint("ue-keep", 30, keep); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, err := OpenJournal(path, JournalOptions{Retain: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if st := j2.Stats(); st.Recoveries != 0 {
		t.Fatal("compacted file needed recovery on reopen")
	}
	if blob, err := j2.GetCheckpoint("ue-keep", 20); err != nil || !bytes.Equal(blob, keep) {
		t.Fatalf("checkpoint lost across compaction+reopen: %v", err)
	}
	if blob, err := j2.GetCheckpoint("ue-keep", 30); err != nil || !bytes.Equal(blob, keep) {
		t.Fatalf("post-compaction append lost: %v", err)
	}
	recs, _ := j2.RetiredSessions()
	if len(recs) != len(wantRecs) {
		t.Fatalf("retire ring after compaction: %d records, want %d", len(recs), len(wantRecs))
	}
	if agg := j2.Aggregates(); agg != wantAgg {
		t.Fatalf("aggregates after reopen = %+v, want %+v", agg, wantAgg)
	}
}

// TestJournalAutoCompaction: crossing CompactBytes with mostly dead
// weight triggers compaction without an explicit call; a file whose
// bytes are mostly live does not thrash.
func TestJournalAutoCompaction(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "s.journal"), JournalOptions{
		Retain: 4, CompactBytes: 16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	blob := bytes.Repeat([]byte{7}, 1024)
	for i := 0; i < 64; i++ {
		if err := j.PutCheckpoint("ue-0", i, blob); err != nil {
			t.Fatal(err)
		}
		if err := j.DeleteCheckpoint("ue-0", i); err != nil {
			t.Fatal(err)
		}
	}
	st := j.Stats()
	if st.Compactions == 0 {
		t.Fatal("churn past CompactBytes never compacted")
	}
	if st.JournalBytes > 32<<10 {
		t.Fatalf("journal grew to %d bytes despite compaction", st.JournalBytes)
	}
}

// TestJournalRejectsForeignFile: a file that is not a journal fails
// loudly instead of being silently truncated to nothing.
func TestJournalRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not.journal")
	if err := os.WriteFile(path, []byte("GIF89a definitely not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, JournalOptions{}); err == nil {
		t.Fatal("foreign file opened as a journal")
	}
}

// TestJournalLargeBlobRoundTrip guards the region index math on blobs
// spanning many write sizes.
func TestJournalLargeBlobRoundTrip(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "s.journal"), JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i, size := range []int{0, 1, 4095, 1 << 16} {
		blob := bytes.Repeat([]byte{byte(i + 1)}, size)
		id := fmt.Sprintf("ue-%d", i)
		if err := j.PutCheckpoint(id, i, blob); err != nil {
			t.Fatal(err)
		}
		got, err := j.GetCheckpoint(id, i)
		if err != nil || !bytes.Equal(got, blob) {
			t.Fatalf("blob size %d: %v", size, err)
		}
	}
}
