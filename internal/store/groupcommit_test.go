package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// hookFS wraps an FS for the group-commit tests: openErr can fail an
// OpenFile by name and flags, and sync runs before every File.Sync of
// the journal file — it may block (holding a flush in flight) or return
// an error (failing the batch).
type hookFS struct {
	FS
	openErr func(name string, flag int) error
	sync    func() error
}

func (h *hookFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if h.openErr != nil {
		if err := h.openErr(name, flag); err != nil {
			return nil, err
		}
	}
	f, err := h.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &hookFile{File: f, fs: h}, nil
}

type hookFile struct {
	File
	fs *hookFS
}

func (f *hookFile) Sync() error {
	if f.fs.sync != nil {
		if err := f.fs.sync(); err != nil {
			return err
		}
	}
	return f.File.Sync()
}

// syncGate is a hookFS.sync that holds the first Sync it sees until
// release is closed, and closes entered when that Sync arrives.
type syncGate struct {
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func newSyncGate() *syncGate {
	return &syncGate{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *syncGate) sync() error {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return nil
}

// queued reports how many records are waiting for a leader.
func queued(j *Journal) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.next == nil {
		return 0
	}
	return len(j.next.recs)
}

// waitQueued polls until n records are queued behind the flush in flight.
func waitQueued(t *testing.T, j *Journal, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for queued(j) != n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d records queued", queued(j), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func gcBlob(id string, step int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("%s@%d|", id, step)), 6)
}

// heldBatch opens a journal whose first append after open is held in its
// Sync, queues followers puts behind it, and returns with the flush
// still in flight. leader and followers deliver each appender's result.
func heldBatch(t *testing.T, fsys *hookFS, path string, followers int) (j *Journal, gate *syncGate, leader chan error, results []chan error) {
	t.Helper()
	j, err := OpenJournal(path, JournalOptions{Retain: 8, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	gate, leader = holdFlush(j, fsys)
	for i := 0; i < followers; i++ {
		id := fmt.Sprintf("f-%d", i)
		results = append(results, queuePut(t, j, id, 1, gcBlob(id, 1)))
	}
	return j, gate, leader, results
}

// holdFlush starts a put of lead@1 on j and returns once its flush is
// held in Sync; closing gate.release lets it finish.
func holdFlush(j *Journal, fsys *hookFS) (gate *syncGate, leader chan error) {
	gate = newSyncGate()
	fsys.sync = gate.sync
	leader = make(chan error, 1)
	go func() { leader <- j.PutCheckpoint("lead", 1, gcBlob("lead", 1)) }()
	<-gate.entered
	return gate, leader
}

// queuePut starts a put that queues behind the flush in flight and
// returns once it has joined the queue, so that the next batch holds
// its records in the order queuePut was called.
func queuePut(t *testing.T, j *Journal, id string, step int, blob []byte) chan error {
	t.Helper()
	n := queued(j)
	ch := make(chan error, 1)
	go func() { ch <- j.PutCheckpoint(id, step, blob) }()
	waitQueued(t, j, n+1)
	return ch
}

func recv(t *testing.T, ch chan error, what string) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never returned", what)
		return nil
	}
}

// TestGroupCommitOneSyncPerBatch: records that queue while a Sync is in
// flight are committed together under one Sync, none of them readable
// before it returns.
func TestGroupCommitOneSyncPerBatch(t *testing.T) {
	var syncs int
	var mu sync.Mutex
	fsys := &hookFS{FS: OS}
	j, gate, leader, results := heldBatch(t, fsys, filepath.Join(t.TempDir(), "s.journal"), 5)
	defer j.Close()
	if _, err := j.GetCheckpoint("lead", 1); !IsNotFound(err) {
		t.Fatalf("record readable before its Sync returned: %v", err)
	}
	fsys.sync = func() error { mu.Lock(); syncs++; mu.Unlock(); return nil }
	close(gate.release)
	if err := recv(t, leader, "leader"); err != nil {
		t.Fatal(err)
	}
	for i, ch := range results {
		if err := recv(t, ch, "follower"); err != nil {
			t.Fatalf("follower %d: %v", i, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if syncs != 1 {
		t.Fatalf("5 queued records took %d Syncs, want 1", syncs)
	}
	if st := j.Stats(); st.Records != 6 || st.LiveCheckpoints != 6 {
		t.Fatalf("stats after two batches: %+v", st)
	}
}

// TestGroupCommitBatchFault trips a fault inside a multi-record batch.
// Every appender of that batch gets the error, none of its records is
// indexed, and a reopen yields exactly the acknowledged prefix.
func TestGroupCommitBatchFault(t *testing.T) {
	const followers = 4
	one := frameLen("f-0", len(gcBlob("f-0", 1)))
	lead := frameLen("lead", len(gcBlob("lead", 1)))

	check := func(t *testing.T, j *Journal, path string, leader chan error, results []chan error, want error) {
		t.Helper()
		if err := recv(t, leader, "leader"); err != nil {
			t.Fatalf("first batch (fully written before the fault): %v", err)
		}
		for i, ch := range results {
			if err := recv(t, ch, "follower"); !errors.Is(err, want) {
				t.Fatalf("follower %d: err = %v, want %v", i, err, want)
			}
		}
		for i := 0; i < followers; i++ {
			if _, err := j.GetCheckpoint(fmt.Sprintf("f-%d", i), 1); !IsNotFound(err) {
				t.Fatalf("record %d of the failed batch is indexed: %v", i, err)
			}
		}
		if st := j.Stats(); st.JournalBytes != journalHdrLen+lead || st.Records != 1 {
			t.Fatalf("failed batch moved the journal: %+v", st)
		}
	}
	reopen := func(t *testing.T, path string, wantRecords, wantRecoveries int64) {
		t.Helper()
		r, err := OpenJournal(path, JournalOptions{Retain: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if st := r.Stats(); st.RecoveredRecords != wantRecords || st.Recoveries != wantRecoveries {
			t.Fatalf("reopen after failed batch: %+v", st)
		}
		if blob, err := r.GetCheckpoint("lead", 1); err != nil || !bytes.Equal(blob, gcBlob("lead", 1)) {
			t.Fatalf("acknowledged record lost: %v", err)
		}
	}

	t.Run("torn write", func(t *testing.T) {
		// The byte budget runs out halfway through the batch's second
		// record: a power cut, after which nothing (not even the
		// truncate) reaches the disk.
		path := filepath.Join(t.TempDir(), "s.journal")
		ff := NewFaultFS(OS, journalHdrLen+lead+one+one/2)
		j, gate, leader, results := heldBatch(t, &hookFS{FS: ff}, path, followers)
		close(gate.release)
		check(t, j, path, leader, results, ErrInjectedFault)
		if !ff.Tripped() {
			t.Fatal("budget never tripped")
		}
		j.Close()
		// The restart finds the acknowledged record, the one whole frame
		// of the failed batch that reached the disk before the cut (an
		// unacknowledged record may survive a crash, never the reverse),
		// and a torn frame to cut away.
		reopen(t, path, 2, 1)
	})

	t.Run("failed sync", func(t *testing.T) {
		// A transient Sync error: the batch is cut away again and the
		// journal carries on.
		path := filepath.Join(t.TempDir(), "s.journal")
		fsys := &hookFS{FS: OS}
		j, gate, leader, results := heldBatch(t, fsys, path, followers)
		errSync := errors.New("sync: disk on fire")
		var once sync.Once
		fsys.sync = func() (err error) {
			once.Do(func() { err = errSync })
			return err
		}
		close(gate.release)
		check(t, j, path, leader, results, errSync)
		if fi, err := os.Stat(path); err != nil || fi.Size() != journalHdrLen+lead {
			t.Fatalf("file not back at its pre-batch length: %v", err)
		}
		// Still writable: the retry lands where the failed batch was.
		if err := j.PutCheckpoint("f-0", 1, gcBlob("f-0", 1)); err != nil {
			t.Fatal(err)
		}
		j.Close()
		reopen(t, path, 2, 0)
	})
}

// TestGroupCommitCloseFailsQueued: Close while a flush is in flight
// hands os.ErrClosed to the records still queued behind it — without
// waiting for the flush — waits the flush out, and leaves no appender
// parked.
func TestGroupCommitCloseFailsQueued(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.journal")
	j, gate, leader, results := heldBatch(t, &hookFS{FS: OS}, path, 3)
	closed := make(chan error, 1)
	go func() { closed <- j.Close() }()
	for i, ch := range results {
		if err := recv(t, ch, "queued follower"); !errors.Is(err, os.ErrClosed) {
			t.Fatalf("follower %d: err = %v, want os.ErrClosed", i, err)
		}
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with a flush still in flight", err)
	default:
	}
	close(gate.release)
	if err := recv(t, leader, "leader"); err != nil {
		t.Fatalf("leader's record was synced, yet: %v", err)
	}
	if err := recv(t, closed, "Close"); err != nil {
		t.Fatal(err)
	}
	if err := j.PutCheckpoint("late", 1, nil); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("put after Close: %v", err)
	}
	r, err := OpenJournal(path, JournalOptions{Retain: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.Stats(); st.RecoveredRecords != 1 || st.Recoveries != 0 {
		t.Fatalf("reopen: %+v", st)
	}
}

// TestGroupCommitConcurrentWriters hammers one journal from many
// writers while readers, Stats and Compact run alongside, then checks
// after Close and reopen that every acknowledged checkpoint returns its
// exact bytes, every acknowledged prune stays pruned and every
// acknowledged retire is counted.
func TestGroupCommitConcurrentWriters(t *testing.T) {
	concurrentWriters(t, gcBlob, 16)
}

// TestGroupCommitConcurrentSharedWriters is the same hammer on clones:
// every writer puts the same blob at a step, so references are made in
// batches and across them while owners are pruned, compaction rewrites
// shared regions and readers read them. The two steps left end up on
// one blob each.
func TestGroupCommitConcurrentSharedWriters(t *testing.T) {
	concurrentWriters(t, func(_ string, step int) []byte { return gcBlob("clone", step) }, 2)
}

// concurrentWriters runs the concurrent-writers hammer with blobOf(id,
// step) as the blob each writer puts; the reopened journal must hold
// the surviving checkpoints on liveBlobs blobs.
func concurrentWriters(t *testing.T, blobOf func(id string, step int) []byte, liveBlobs int64) {
	const writers, rounds = 8, 24
	path := filepath.Join(t.TempDir(), "s.journal")
	j, err := OpenJournal(path, JournalOptions{Retain: 4, CompactBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var bg sync.WaitGroup
	background := func(f func()) {
		bg.Add(1)
		go func() {
			defer bg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					f()
				}
			}
		}()
	}
	background(func() {
		for w := 0; w < writers; w++ {
			id := fmt.Sprintf("w-%d", w)
			steps, _ := j.CheckpointSteps(id)
			for _, s := range steps {
				// A step listed may be pruned before the read; one read
				// must be the exact blob.
				if blob, err := j.GetCheckpoint(id, s); err == nil && !bytes.Equal(blob, blobOf(id, s)) {
					t.Errorf("%s@%d read back wrong bytes mid-run", id, s)
				} else if err != nil && !IsNotFound(err) {
					t.Errorf("%s@%d: %v", id, s, err)
				}
			}
		}
	})
	background(func() { j.Stats(); j.Aggregates(); j.Flush() })
	background(func() {
		if err := j.Compact(); err != nil {
			t.Errorf("compact: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	})

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("w-%d", w)
			for s := 1; s <= rounds; s++ {
				if err := j.PutCheckpoint(id, s, blobOf(id, s)); err != nil {
					t.Errorf("put %s@%d: %v", id, s, err)
					return
				}
				if s > 2 { // the server's keep-two pruning
					if err := j.DeleteCheckpoint(id, s-2); err != nil {
						t.Errorf("prune %s@%d: %v", id, s-2, err)
						return
					}
				}
				if s%8 == 0 {
					if err := j.RetireSession(testRecord(w)); err != nil {
						t.Errorf("retire %s: %v", id, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	wantAgg := j.Aggregates()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenJournal(path, JournalOptions{Retain: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.Stats(); st.Recoveries != 0 || st.LiveBlobs != liveBlobs {
		t.Fatalf("cleanly closed journal: %+v, want no recovery and %d live blobs", st, liveBlobs)
	}
	for w := 0; w < writers; w++ {
		id := fmt.Sprintf("w-%d", w)
		steps, _ := r.CheckpointSteps(id)
		if !reflect.DeepEqual(steps, []int{rounds - 1, rounds}) {
			t.Fatalf("%s holds steps %v after reopen, want the last two", id, steps)
		}
		for _, s := range steps {
			if blob, err := r.GetCheckpoint(id, s); err != nil || !bytes.Equal(blob, blobOf(id, s)) {
				t.Fatalf("%s@%d after reopen: %v", id, s, err)
			}
		}
	}
	if agg := r.Aggregates(); agg != wantAgg {
		t.Fatalf("aggregates after reopen = %+v, want %+v", agg, wantAgg)
	}
	if n := wantAgg.Detached + wantAgg.Superseded + wantAgg.Idle + wantAgg.Admin + wantAgg.Failed + wantAgg.Migrated; n != writers*rounds/8 {
		t.Fatalf("%d retires counted, want %d", n, writers*rounds/8)
	}
}

// TestJournalCompactionReopenFailurePoisons: when compaction's rename
// lands but the reopen of the new file fails, the journal must stop
// acknowledging writes — its handle is the old, unlinked inode, and
// anything appended there is gone at the next open.
func TestJournalCompactionReopenFailurePoisons(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.journal")
	errOpen := errors.New("open: too many open files")
	fsys := &hookFS{FS: OS}
	j, err := OpenJournal(path, JournalOptions{Retain: 4, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	keep := gcBlob("keep", 1)
	if err := j.PutCheckpoint("keep", 1, keep); err != nil {
		t.Fatal(err)
	}
	// Fail only the reopen: the plain O_RDWR open of the journal path
	// (the temp sibling is opened by another name, with O_CREATE).
	fsys.openErr = func(name string, flag int) error {
		if name == path && flag&os.O_CREATE == 0 {
			return errOpen
		}
		return nil
	}
	if err := j.Compact(); !errors.Is(err, errOpen) {
		t.Fatalf("compact: err = %v, want the reopen failure", err)
	}
	fsys.openErr = nil
	for what, err := range map[string]error{
		"put":     j.PutCheckpoint("lost", 1, gcBlob("lost", 1)),
		"prune":   j.DeleteCheckpoint("keep", 1),
		"retire":  j.RetireSession(testRecord(1)),
		"compact": j.Compact(),
	} {
		if !errors.Is(err, errOpen) {
			t.Fatalf("%s after the failed reopen: err = %v, want it to wrap the reopen failure", what, err)
		}
	}
	// Reads still work off the old handle; the compacted file on disk
	// holds everything that was acknowledged.
	if blob, err := j.GetCheckpoint("keep", 1); err != nil || !bytes.Equal(blob, keep) {
		t.Fatalf("read after poison: %v", err)
	}
	j.Close()
	r, err := OpenJournal(path, JournalOptions{Retain: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if blob, err := r.GetCheckpoint("keep", 1); err != nil || !bytes.Equal(blob, keep) {
		t.Fatalf("acknowledged checkpoint after reopen: %v", err)
	}
	if st := r.Stats(); st.LiveCheckpoints != 1 || st.Recoveries != 0 {
		t.Fatalf("reopen: %+v", st)
	}
}

// goldenBlob and goldenJournalOps are the exact sequence that produced
// testdata/journal_pr11.bin at the parent commit (PR 11, one fsync per
// record): every record type, a non-ASCII id, an empty blob, a replaced
// key, a retire ring that overflowed, and a compaction in the middle.
func goldenBlob(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

func goldenJournalOps(t *testing.T, j *Journal) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		must(j.RetireSession(testRecord(i)))
	}
	must(j.PutCheckpoint("ue-a", 10, goldenBlob(64, 1)))
	must(j.PutCheckpoint("ue-a", 20, goldenBlob(64, 2)))
	must(j.DeleteCheckpoint("ue-a", 10))
	must(j.PutCheckpoint("ue-β/x", 5, goldenBlob(33, 3)))
	must(j.Compact())
	must(j.PutCheckpoint("ue-β/x", 5, goldenBlob(40, 4)))
	must(j.PutCheckpoint("ue-a", 30, nil))
	must(j.RetireSession(testRecord(5)))
	must(j.DeleteCheckpoint("ue-a", 20))
}

// TestJournalGoldenFormat pins the durable format across the
// group-commit rewrite and the version-2 bump: a journal written by the
// parent commit replays to the same state as the live one, and the same
// operations written today produce the same bytes but for the version
// field (bytes 8–11), which reads 2.
func TestJournalGoldenFormat(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "journal_pr11.bin"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	livePath := filepath.Join(dir, "live.journal")
	live, err := OpenJournal(livePath, JournalOptions{Retain: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	goldenJournalOps(t, live)
	written, err := os.ReadFile(livePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != len(fixture) || !bytes.Equal(written[:8], fixture[:8]) || !bytes.Equal(written[12:], fixture[12:]) {
		t.Fatalf("the same operations now write %d bytes that differ from the parent's %d beyond the version field", len(written), len(fixture))
	}
	if v := binary.BigEndian.Uint32(written[8:]); v != 2 {
		t.Fatalf("today's journal is stamped version %d, want 2", v)
	}

	oldPath := filepath.Join(dir, "old.journal")
	if err := os.WriteFile(oldPath, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := OpenJournal(oldPath, JournalOptions{Retain: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if st := old.Stats(); st.Recoveries != 0 || st.RecoveredRecords != 10 || st.LiveCheckpoints != 2 {
		t.Fatalf("parent-commit journal replayed as %+v", st)
	}
	for _, key := range []struct {
		id   string
		step int
		want []byte
	}{
		{"ue-β/x", 5, goldenBlob(40, 4)},
		{"ue-a", 30, []byte{}},
	} {
		for name, j := range map[string]*Journal{"replayed": old, "live": live} {
			if blob, err := j.GetCheckpoint(key.id, key.step); err != nil || !bytes.Equal(blob, key.want) {
				t.Fatalf("%s %s@%d: %x, %v", name, key.id, key.step, blob, err)
			}
		}
	}
	for _, id := range []string{"ue-a", "ue-β/x"} {
		a, _ := old.CheckpointSteps(id)
		b, _ := live.CheckpointSteps(id)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: replayed steps %v, live steps %v", id, a, b)
		}
	}
	a, _ := old.RetiredSessions()
	b, _ := live.RetiredSessions()
	if !reflect.DeepEqual(a, b) || len(a) != 3 || a[2].ID != "ue-5" {
		t.Fatalf("replayed retire ring %v, live %v", a, b)
	}
	if old.Aggregates() != live.Aggregates() {
		t.Fatalf("replayed aggregates %+v, live %+v", old.Aggregates(), live.Aggregates())
	}
}

// TestJournalPutCheckpointAllocs pins the append path's allocations:
// the blob is never copied, so a put costs its frame head plus the
// batch, whatever the blob's size.
func TestJournalPutCheckpointAllocs(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "s.journal"), JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	blob := make([]byte, 108495)
	step := 0
	if n := testing.AllocsPerRun(20, func() {
		step++
		if err := j.PutCheckpoint("ue-0", step, blob); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Fatalf("PutCheckpoint allocates %.0f times per call, want ≤ 2", n)
	}
}

// goldenSharedOps continues goldenJournalOps with what only format 2
// writes: two ids putting one blob in one batch (held in flight, so the
// batch is deterministic), a third putting it in a later batch, the
// owning record pruned while references to it are live, and a
// compaction that writes the blob once. After it the same again on a
// second blob, so the file keeps an in-batch reference and a pruned
// owner, plus a key re-put with its own bytes and a reference into the
// compacted part.
func goldenSharedOps(t *testing.T, j *Journal, fsys *hookFS) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	batch := func(blob []byte, ids ...string) {
		gate, leader := holdFlush(j, fsys) // lead@1, the same bytes every time
		results := []chan error{leader}
		for _, id := range ids {
			results = append(results, queuePut(t, j, id, 1, blob))
		}
		close(gate.release)
		for _, ch := range results {
			must(recv(t, ch, "put"))
		}
	}
	shared, other := goldenBlob(48, 5), goldenBlob(56, 6)
	batch(shared, "ue-c", "ue-d")
	must(j.PutCheckpoint("ue-e", 1, shared))
	must(j.DeleteCheckpoint("ue-c", 1))
	must(j.Compact())
	batch(other, "ue-f", "ue-g")
	must(j.PutCheckpoint("ue-a", 40, shared))
	must(j.DeleteCheckpoint("ue-f", 1))
	must(j.RetireSession(testRecord(6)))
}

// blobCopies counts the checkpoint records of a journal image that carry
// blob in full.
func blobCopies(t *testing.T, whole, blob []byte) int {
	t.Helper()
	_, bodies := journalFrames(t, whole)
	n := 0
	for _, body := range bodies {
		if body[0] != recCheckpoint {
			continue
		}
		r := recReader{b: body[1:]}
		r.string16()
		r.u32()
		if bytes.Equal(r.b[r.off:], blob) {
			n++
		}
	}
	return n
}

// TestJournalGoldenSharedBlobs pins format 2 byte for byte:
// goldenJournalOps then goldenSharedOps write exactly
// testdata/journal_v2.bin, which holds the shared blob once, and the
// fixture replays to the state the live journal holds.
func TestJournalGoldenSharedBlobs(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "journal_v2.bin"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fsys := &hookFS{FS: OS}
	livePath := filepath.Join(dir, "live.journal")
	live, err := OpenJournal(livePath, JournalOptions{Retain: 3, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	goldenJournalOps(t, live)
	goldenSharedOps(t, live, fsys)
	written, err := os.ReadFile(livePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, fixture) {
		t.Fatalf("the golden operations write %d bytes that differ from the fixture's %d", len(written), len(fixture))
	}
	shared, other := goldenBlob(48, 5), goldenBlob(56, 6)
	for _, blob := range [][]byte{shared, other, gcBlob("lead", 1)} {
		if n := blobCopies(t, fixture, blob); n != 1 {
			t.Fatalf("blob %x is on file %d times, want once", blob[:4], n)
		}
	}

	oldPath := filepath.Join(dir, "old.journal")
	if err := os.WriteFile(oldPath, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := OpenJournal(oldPath, JournalOptions{Retain: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if st := old.Stats(); st.Recoveries != 0 || st.RecoveredRecords != 15 || st.LiveCheckpoints != 7 || st.LiveBlobs != 5 {
		t.Fatalf("fixture replayed as %+v", st)
	}
	for _, key := range []struct {
		id   string
		step int
		want []byte
	}{
		{"ue-β/x", 5, goldenBlob(40, 4)},
		{"ue-a", 30, []byte{}},
		{"ue-a", 40, shared},
		{"ue-d", 1, shared},
		{"ue-e", 1, shared},
		{"ue-g", 1, other},
		{"lead", 1, gcBlob("lead", 1)},
	} {
		for name, j := range map[string]*Journal{"replayed": old, "live": live} {
			if blob, err := j.GetCheckpoint(key.id, key.step); err != nil || !bytes.Equal(blob, key.want) {
				t.Fatalf("%s %s@%d: %x, %v", name, key.id, key.step, blob, err)
			}
		}
	}
	for _, id := range []string{"ue-c", "ue-f"} {
		if _, err := old.GetCheckpoint(id, 1); !IsNotFound(err) {
			t.Fatalf("pruned owner %s@1 replayed: %v", id, err)
		}
	}
	a, _ := old.RetiredSessions()
	b, _ := live.RetiredSessions()
	if !reflect.DeepEqual(a, b) || len(a) != 3 || a[2].ID != "ue-6" {
		t.Fatalf("replayed retire ring %v, live %v", a, b)
	}
	if old.Aggregates() != live.Aggregates() {
		t.Fatalf("replayed aggregates %+v, live %+v", old.Aggregates(), live.Aggregates())
	}
}

// TestJournalGoldenUpgradesV1: a version-1 journal opened and closed by
// today's code differs from the original in its version field alone,
// which now reads 2.
func TestJournalGoldenUpgradesV1(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "journal_pr11.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.BigEndian.Uint32(fixture[8:]); v != 1 {
		t.Fatalf("fixture is version %d, want 1", v)
	}
	path := filepath.Join(t.TempDir(), "v1.journal")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path, JournalOptions{Retain: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), fixture...)
	binary.BigEndian.PutUint32(want[8:], 2)
	if !bytes.Equal(got, want) {
		t.Fatalf("open and close rewrote %d bytes into %d beyond the version field", len(fixture), len(got))
	}
}

// TestJournalGoldenRefusesNewerVersion: a header from a newer format is
// refused loudly and the file is left as it was.
func TestJournalGoldenRefusesNewerVersion(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "journal_v2.bin"))
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(fixture[8:], 3)
	path := filepath.Join(t.TempDir(), "v3.journal")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	if j, err := OpenJournal(path, JournalOptions{}); !errors.Is(err, ErrCorrupt) {
		if err == nil {
			j.Close()
		}
		t.Fatalf("version-3 journal: err = %v, want ErrCorrupt", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, fixture) {
		t.Fatalf("refused journal was modified: %v", err)
	}
}

// TestGroupCommitSharedBlobWrittenOnce: clones putting one blob in one
// batch write it once — the first record carries it, the others
// reference it — under one Sync; a put in a later batch references the
// live copy; every key reads the blob back, before and after a reopen.
func TestGroupCommitSharedBlobWrittenOnce(t *testing.T) {
	const clones = 5
	fsys := &hookFS{FS: OS}
	path := filepath.Join(t.TempDir(), "s.journal")
	j, err := OpenJournal(path, JournalOptions{Retain: 8, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	shared := bytes.Repeat([]byte("clone state|"), 500)
	gate, leader := holdFlush(j, fsys)
	var results []chan error
	for i := 0; i < clones; i++ {
		results = append(results, queuePut(t, j, fmt.Sprintf("c-%d", i), 1, shared))
	}
	var syncs int
	var mu sync.Mutex
	fsys.sync = func() error { mu.Lock(); syncs++; mu.Unlock(); return nil }
	close(gate.release)
	for _, ch := range append(results, leader) {
		if err := recv(t, ch, "put"); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	if syncs != 1 {
		t.Fatalf("%d queued clones took %d Syncs, want 1", clones, syncs)
	}
	mu.Unlock()
	if err := j.PutCheckpoint("c-late", 1, shared); err != nil {
		t.Fatal(err)
	}
	want := journalHdrLen + frameLen("lead", len(gcBlob("lead", 1))) + frameLen("c-0", len(shared)) +
		frameLen("c-late", refTrailerLen)
	for i := 1; i < clones; i++ {
		want += frameLen(fmt.Sprintf("c-%d", i), refTrailerLen)
	}
	if st := j.Stats(); st.JournalBytes != want || st.LiveCheckpoints != clones+2 || st.LiveBlobs != 2 {
		t.Fatalf("stats = %+v, want %d bytes, %d checkpoints on 2 blobs", st, want, clones+2)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := blobCopies(t, whole, shared); n != 1 {
		t.Fatalf("shared blob on file %d times, want once", n)
	}
	ids := []string{"c-late"}
	for i := 0; i < clones; i++ {
		ids = append(ids, fmt.Sprintf("c-%d", i))
	}
	check := func(j *Journal, when string) {
		t.Helper()
		for _, id := range ids {
			if blob, err := j.GetCheckpoint(id, 1); err != nil || !bytes.Equal(blob, shared) {
				t.Fatalf("%s: %s@1: %v", when, id, err)
			}
		}
	}
	check(j, "live")
	j.Close()
	r, err := OpenJournal(path, JournalOptions{Retain: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	check(r, "reopened")
	if st := r.Stats(); st.Recoveries != 0 || st.LiveBlobs != 2 {
		t.Fatalf("reopen: %+v", st)
	}
}

// crcTwin returns a blob of a's length and CRC32-C whose bytes differ
// from a's in its first eight. CRCs of equal-length inputs are affine in
// the input bits, so flipping any set of bits whose CRC deltas XOR to
// zero keeps the CRC; 64 candidate bits in a 32-bit space always hold
// such a set, found by Gaussian elimination.
func crcTwin(t *testing.T, a []byte) []byte {
	t.Helper()
	base := crc32.Checksum(a, crcTable)
	var basis [32]struct {
		delta uint32
		flips uint64
	}
	flipped := make([]byte, len(a))
	for i := 0; i < 64; i++ {
		copy(flipped, a)
		flipped[i/8] ^= 1 << (i % 8)
		delta, flips := crc32.Checksum(flipped, crcTable)^base, uint64(1)<<i
		for delta != 0 {
			hb := 31 - bits.LeadingZeros32(delta)
			if basis[hb].delta == 0 {
				basis[hb].delta, basis[hb].flips = delta, flips
				break
			}
			delta ^= basis[hb].delta
			flips ^= basis[hb].flips
		}
		if delta == 0 {
			twin := append([]byte(nil), a...)
			for k := 0; k < 64; k++ {
				if flips>>k&1 == 1 {
					twin[k/8] ^= 1 << (k % 8)
				}
			}
			return twin
		}
	}
	t.Fatal("no CRC twin among 64 bits")
	return nil
}

// TestGroupCommitCRCTwinsStayApart: two blobs of one length and one
// CRC32-C but different bytes — in one batch, and across batches — are
// each written in full and read back as themselves: an equal CRC never
// makes a reference on its own.
func TestGroupCommitCRCTwinsStayApart(t *testing.T) {
	a := gcBlob("twin", 1)
	b := crcTwin(t, a)
	if bytes.Equal(a, b) || crc32.Checksum(a, crcTable) != crc32.Checksum(b, crcTable) {
		t.Fatal("crcTwin returned no twin")
	}
	fsys := &hookFS{FS: OS}
	path := filepath.Join(t.TempDir(), "s.journal")
	j, err := OpenJournal(path, JournalOptions{Retain: 8, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	gate, leader := holdFlush(j, fsys)
	results := []chan error{leader, queuePut(t, j, "in-a", 1, a), queuePut(t, j, "in-b", 1, b)}
	close(gate.release)
	for _, ch := range results {
		if err := recv(t, ch, "put"); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.PutCheckpoint("out-b", 1, b); err != nil { // meets a's region in the content index
		t.Fatal(err)
	}
	if err := j.PutCheckpoint("out-a", 1, a); err != nil { // a true duplicate: referenced
		t.Fatal(err)
	}
	want := map[string][]byte{"in-a": a, "in-b": b, "out-b": b, "out-a": a}
	check := func(j *Journal, when string) {
		t.Helper()
		for id, blob := range want {
			if got, err := j.GetCheckpoint(id, 1); err != nil || !bytes.Equal(got, blob) {
				t.Fatalf("%s: %s@1 read %x, %v", when, id, got, err)
			}
		}
		if st := j.Stats(); st.LiveBlobs != 4 {
			t.Fatalf("%s: %d live blobs, want lead, a and b twice", when, st.LiveBlobs)
		}
	}
	check(j, "live")
	j.Close()
	r, err := OpenJournal(path, JournalOptions{Retain: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	check(r, "reopened")
}
