package store

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
)

// backend describes one Store implementation for the shared contract
// suite: open builds a fresh store in dir, reopen closes nothing and
// opens the same durable state again (nil for Mem, which has none).
type backend struct {
	name   string
	open   func(t *testing.T, dir string) Store
	reopen func(t *testing.T, dir string) Store
}

func allBackends() []backend {
	openJournal := func(t *testing.T, dir string) Store {
		t.Helper()
		j, err := OpenJournal(filepath.Join(dir, "store.journal"), JournalOptions{Retain: 8})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	return []backend{
		{name: "mem", open: func(t *testing.T, string2 string) Store { return NewMem(8) }},
		{name: "journal", open: openJournal, reopen: openJournal},
	}
}

func testRecord(i int) SessionRecord {
	return SessionRecord{
		ID:          fmt.Sprintf("ue-%d", i),
		Epoch:       uint32(i + 1),
		Version:     3,
		Cause:       EndCause(i % 5),
		Steps:       uint32(10 * i),
		ResumedFrom: uint32(i),
		Evals:       2,
		Reached:     i%2 == 0,
		LastLoss:    0.25 * float64(i),
		LastRMSE:    -3.5,
		Checkpoints: int64(i),
		Resumes:     1,
		BytesIn:     100 * int64(i),
		BytesOut:    60 * int64(i),
		Err:         "",
		Seed:        int64(i),
		Frames:      2400,
		Pool:        40,
		Modality:    1,
		Codec:       2,
	}
}

// TestStoreContract runs every backend through the interface contract:
// checkpoint CRUD, retire ring order and bounds, aggregate folding.
func TestStoreContract(t *testing.T) {
	for _, b := range allBackends() {
		t.Run(b.name, func(t *testing.T) {
			s := b.open(t, t.TempDir())
			defer s.Close()

			if s.Kind() != b.name {
				t.Fatalf("Kind() = %q, want %q", s.Kind(), b.name)
			}

			// Checkpoints: absent key, put/get round trip, overwrite,
			// step listing, delete (including absent = no-op).
			if _, err := s.GetCheckpoint("ue-0", 5); !IsNotFound(err) {
				t.Fatalf("get absent checkpoint: %v, want ErrNotFound", err)
			}
			if err := s.DeleteCheckpoint("ue-0", 5); err != nil {
				t.Fatalf("delete absent checkpoint: %v", err)
			}
			blob5, blob10 := []byte("state at five"), []byte("state at ten")
			for step, blob := range map[int][]byte{5: blob5, 10: blob10} {
				if err := s.PutCheckpoint("ue-0", step, blob); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.PutCheckpoint("ue-0", 5, blob5); err != nil { // overwrite
				t.Fatal(err)
			}
			got, err := s.GetCheckpoint("ue-0", 5)
			if err != nil || !bytes.Equal(got, blob5) {
				t.Fatalf("get ue-0@5 = %q, %v", got, err)
			}
			steps, err := s.CheckpointSteps("ue-0")
			if err != nil || !reflect.DeepEqual(steps, []int{5, 10}) {
				t.Fatalf("steps = %v, %v; want [5 10]", steps, err)
			}
			if err := s.DeleteCheckpoint("ue-0", 5); err != nil {
				t.Fatal(err)
			}
			if _, err := s.GetCheckpoint("ue-0", 5); !IsNotFound(err) {
				t.Fatalf("get deleted checkpoint: %v, want ErrNotFound", err)
			}
			if steps, _ = s.CheckpointSteps("ue-0"); !reflect.DeepEqual(steps, []int{10}) {
				t.Fatalf("steps after delete = %v, want [10]", steps)
			}

			// Retire ring: order preserved, bounded at retain (8), and
			// aggregates monotonic over everything ever retired.
			const n = 12
			for i := 0; i < n; i++ {
				if err := s.RetireSession(testRecord(i)); err != nil {
					t.Fatal(err)
				}
			}
			recs, err := s.RetiredSessions()
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 8 {
				t.Fatalf("retained %d records, want 8", len(recs))
			}
			for i, rec := range recs {
				if want := testRecord(n - 8 + i); !reflect.DeepEqual(rec, want) {
					t.Fatalf("record %d = %+v, want %+v", i, rec, want)
				}
			}
			var want Aggregates
			for i := 0; i < n; i++ {
				want.add(testRecord(i))
			}
			if got := s.Aggregates(); got != want {
				t.Fatalf("aggregates = %+v, want %+v", got, want)
			}

			st := s.Stats()
			if st.Kind != b.name || st.LiveCheckpoints != 1 {
				t.Fatalf("stats = %+v", st)
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil { // idempotent
				t.Fatal(err)
			}

			// One blob under two ids: deleting the id that wrote it first
			// leaves the other's whole, across a reopen and a compaction.
			dir := t.TempDir()
			s = b.open(t, dir)
			shared := bytes.Repeat([]byte("shared state|"), 40)
			for _, id := range []string{"owner", "sharer"} {
				if err := s.PutCheckpoint(id, 1, shared); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.DeleteCheckpoint("owner", 1); err != nil {
				t.Fatal(err)
			}
			if b.reopen != nil {
				s.Close()
				s = b.reopen(t, dir)
			}
			if c, ok := s.(interface{ Compact() error }); ok {
				if err := c.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			if got, err := s.GetCheckpoint("sharer", 1); err != nil || !bytes.Equal(got, shared) {
				t.Fatalf("shared blob after its owner's delete: %v", err)
			}
			if _, err := s.GetCheckpoint("owner", 1); !IsNotFound(err) {
				t.Fatalf("deleted owner: %v, want ErrNotFound", err)
			}
			if st := s.Stats(); st.LiveCheckpoints != 1 || st.LiveBlobs != 1 {
				t.Fatalf("stats after the owner's delete = %+v", st)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStoreReopenPersistence: the durable backends reproduce their full
// state — checkpoints, retire ring, aggregates — in a fresh process
// (modelled as close + reopen).
func TestStoreReopenPersistence(t *testing.T) {
	for _, b := range allBackends() {
		if b.reopen == nil {
			continue
		}
		t.Run(b.name, func(t *testing.T) {
			dir := t.TempDir()
			s := b.open(t, dir)
			blob := []byte("the checkpoint payload")
			if err := s.PutCheckpoint("ue/weird id", 7, blob); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ { // spills the retain=8 ring
				if err := s.RetireSession(testRecord(i)); err != nil {
					t.Fatal(err)
				}
			}
			wantAgg := s.Aggregates()
			wantRecs, _ := s.RetiredSessions()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			r := b.reopen(t, dir)
			defer r.Close()
			got, err := r.GetCheckpoint("ue/weird id", 7)
			if err != nil || !bytes.Equal(got, blob) {
				t.Fatalf("reopened checkpoint = %q, %v", got, err)
			}
			recs, err := r.RetiredSessions()
			if err != nil || !reflect.DeepEqual(recs, wantRecs) {
				t.Fatalf("reopened records = %+v, %v\nwant %+v", recs, err, wantRecs)
			}
			if agg := r.Aggregates(); agg != wantAgg {
				t.Fatalf("reopened aggregates = %+v, want %+v", agg, wantAgg)
			}
		})
	}
}

// TestCheckpointIDs: each backend lists the ids it holds a checkpoint
// for, sorted, whatever else the store holds: an id leaves the list with
// its last pruned step, a retire record adds none, and the journal's list
// survives a reopen (a kill -9 leaves nothing else to route by).
func TestCheckpointIDs(t *testing.T) {
	for _, b := range allBackends() {
		t.Run(b.name, func(t *testing.T) {
			dir := t.TempDir()
			s := b.open(t, dir)
			ids := func(s Store) []string {
				t.Helper()
				got, err := s.CheckpointIDs()
				if err != nil {
					t.Fatal(err)
				}
				return got
			}
			if got := ids(s); len(got) != 0 {
				t.Fatalf("empty store lists %q", got)
			}
			for _, put := range []struct {
				id   string
				step int
			}{{"ue-b", 10}, {"ue-a", 10}, {"ue-b", 20}, {"ue-c", 5}} {
				if err := s.PutCheckpoint(put.id, put.step, []byte(put.id)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.RetireSession(testRecord(0)); err != nil {
				t.Fatal(err)
			}
			if err := s.DeleteCheckpoint("ue-c", 5); err != nil {
				t.Fatal(err)
			}
			if err := s.DeleteCheckpoint("ue-b", 10); err != nil {
				t.Fatal(err)
			}
			want := []string{"ue-a", "ue-b"}
			if got := ids(s); !reflect.DeepEqual(got, want) {
				t.Fatalf("CheckpointIDs = %q, want %q", got, want)
			}
			if b.reopen == nil {
				return
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			r := b.reopen(t, dir)
			defer r.Close()
			if got := ids(r); !reflect.DeepEqual(got, want) {
				t.Fatalf("reopened CheckpointIDs = %q, want %q", got, want)
			}
		})
	}
}

// TestSessionRecordEncodeDecode pins the record wire codec: every field
// round-trips, and a truncated body is rejected as corrupt.
func TestSessionRecordEncodeDecode(t *testing.T) {
	rec := testRecord(3)
	rec.Err = "step 30: connection reset"
	rec.LastLoss, rec.LastRMSE = 0.123456789, -7.25
	b := encodeSession(rec)
	got, err := decodeSession(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("round trip: got %+v, want %+v", got, rec)
	}
	for cut := 0; cut < len(b); cut++ {
		if _, err := decodeSession(b[:cut]); err == nil {
			t.Fatalf("decode accepted a record truncated to %d/%d bytes", cut, len(b))
		}
	}
	if _, err := decodeSession(append(b, 0)); err == nil {
		t.Fatal("decode accepted a record with trailing bytes")
	}

	agg := Aggregates{Detached: 1, Superseded: 2, Idle: 3, Admin: 4, Failed: 5,
		Checkpoints: 6, Resumes: 7, BytesIn: 8, BytesOut: 9}
	agg2, err := decodeAggregates(encodeAggregates(agg))
	if err != nil || agg2 != agg {
		t.Fatalf("aggregates round trip: %+v, %v", agg2, err)
	}
	if _, err := decodeAggregates(encodeAggregates(agg)[:8]); err == nil {
		t.Fatal("decodeAggregates accepted a short body")
	}
}

// TestEndCauseStrings pins the metric label values the control plane
// exports per disposition.
func TestEndCauseStrings(t *testing.T) {
	want := map[EndCause]string{
		CauseDetached:   "detached",
		CauseSuperseded: "superseded",
		CauseIdle:       "idle_timeout",
		CauseAdmin:      "admin_evicted",
		CauseFailed:     "error",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
}

// TestMemBoundsCompletedCheckpoints: Mem lets go of a completed session's
// terminal checkpoint when its retire record leaves the ring, so memory
// follows retain and not the number of sessions ever served; anything a
// later incarnation could resume from stays — the checkpoint of a failed
// or drained session, and that of an id the ring shows was taken up again.
func TestMemBoundsCompletedCheckpoints(t *testing.T) {
	const retain = 8
	m := NewMem(retain)
	finish := func(id string, steps int, cause EndCause, resumable bool) {
		t.Helper()
		if err := m.PutCheckpoint(id, steps, []byte(id)); err != nil {
			t.Fatal(err)
		}
		rec := SessionRecord{ID: id, Epoch: 1, Cause: cause, Steps: uint32(steps), Resumable: resumable}
		if err := m.RetireSession(rec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3*retain; i++ {
		finish(fmt.Sprintf("done-%d", i), 40, CauseDetached, false)
	}
	if live := m.Stats().LiveCheckpoints; live > retain {
		t.Fatalf("%d completed sessions left %d live checkpoints, want at most %d", 3*retain, live, retain)
	}
	if _, err := m.GetCheckpoint(fmt.Sprintf("done-%d", 3*retain-1), 40); err != nil {
		t.Fatalf("terminal checkpoint of a session still in the ring: %v", err)
	}

	// An id that completes, is taken up again and fails: when the old
	// completed record leaves the ring the newer one is still in it, and
	// when that leaves too it is a failure's. Neither blob may go.
	finish("again", 5, CauseDetached, false)
	for i := 0; i < retain-1; i++ {
		finish(fmt.Sprintf("mid-%d", i), 40, CauseDetached, false)
	}
	finish("again", 9, CauseFailed, false)
	finish("drained", 7, CauseDetached, true)
	finish("failed", 7, CauseFailed, false)
	for i := 0; i < 2*retain; i++ {
		finish(fmt.Sprintf("late-%d", i), 40, CauseDetached, false)
	}
	for _, c := range []struct {
		id   string
		step int
	}{{"again", 5}, {"again", 9}, {"drained", 7}, {"failed", 7}} {
		if _, err := m.GetCheckpoint(c.id, c.step); err != nil {
			t.Errorf("resume material %s@%d: %v", c.id, c.step, err)
		}
	}
	if live := m.Stats().LiveCheckpoints; live != retain+4 {
		t.Fatalf("live checkpoints = %d, want the ring's %d and the 4 kept", live, retain+4)
	}
}
