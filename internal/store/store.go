// Package store is the base station's durable state layer: a pluggable
// Store interface covering the three kinds of state a BSServer must not
// lose across a crash — train-state checkpoint blobs, retired-session
// records, and the end-cause/lifetime aggregates the control plane
// exports — with two backends:
//
//   - Mem: the in-process ring the server always had. Nothing survives
//     the process, but a second BSServer handed the same Store value
//     adopts its sessions (the in-process failover primitive, and the
//     test double for the durable backend).
//   - Journal: the one on-disk format — everything in one append-only
//     file of length-prefixed, CRC-checksummed records. Recovery replays
//     the journal and truncates at the first torn or corrupt record; a
//     size-triggered compaction rewrites the live records into a fresh
//     file.
//
// The interface is deliberately blob-oriented: the store knows nothing
// about tensors, protocols or sessions beyond the summary record it is
// asked to keep, so internal/transport depends on store and never the
// reverse. Crash-consistency is proven, not assumed — see the journal
// truncation sweep and the FaultFS torn-write suite, and DESIGN.md §11
// for the record format and recovery semantics.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrNotFound marks a lookup for a checkpoint the store does not hold
// (never written, pruned, or compacted away). Classify with errors.Is.
var ErrNotFound = errors.New("store: not found")

// ErrCorrupt marks a structurally invalid record (bad length, CRC
// mismatch, truncated field). Recovery paths treat it as "stop here".
var ErrCorrupt = errors.New("store: corrupt record")

// IsNotFound reports whether err means "no such checkpoint".
func IsNotFound(err error) bool { return errors.Is(err, ErrNotFound) }

// Store is the durable backend behind a BSServer: checkpoint blobs keyed
// by (session id, step), a bounded ring of retired-session records, and
// monotonic lifetime aggregates. Implementations are safe for concurrent
// use, and none keeps a blob slice past PutCheckpoint's return.
//
// Durability on return, by backend: Journal — every write method,
// deletes included (a prune is a tombstone record under the same fsync
// as any other). Mem — nothing outlives the process. Callers still
// tolerate a stale checkpoint the store lists: resume reads only the
// step its token names, failover adopts every step the store lists, and
// a resumed session's final prune lists the store too — a stale blob is
// dead weight, never a wrong answer.
type Store interface {
	// Kind names the backend: "mem" or "journal".
	Kind() string

	// PutCheckpoint stores one half's train-state blob for (id, step),
	// replacing any previous blob at the same key.
	PutCheckpoint(id string, step int, blob []byte) error

	// GetCheckpoint returns the blob stored for (id, step), or an error
	// wrapping ErrNotFound.
	GetCheckpoint(id string, step int) ([]byte, error)

	// DeleteCheckpoint removes the blob for (id, step). Deleting a key
	// the store does not hold is a no-op, not an error.
	DeleteCheckpoint(id string, step int) error

	// CheckpointSteps lists the steps with a stored checkpoint for id,
	// ascending (empty when none).
	CheckpointSteps(id string) ([]int, error)

	// CheckpointIDs lists the session ids with at least one stored
	// checkpoint, sorted. It is answered from the backend's in-memory
	// index: no file is read.
	CheckpointIDs() ([]string, error)

	// RetireSession appends one terminal session record. The store keeps
	// a bounded ring of the most recent records; older records fold into
	// the aggregates and are no longer listed.
	RetireSession(rec SessionRecord) error

	// RetiredSessions returns the retained retire records, oldest first.
	RetiredSessions() ([]SessionRecord, error)

	// Aggregates returns the lifetime end-cause and counter totals over
	// every record ever retired, including ones evicted from the ring.
	Aggregates() Aggregates

	// Stats reports backend health for the metrics exposition.
	Stats() Stats

	// Flush blocks until previously written state is durable (a no-op on
	// backends that sync every write).
	Flush() error

	// Close releases the backend's resources. Safe to call twice.
	Close() error
}

// EndCause is a retired session's terminal disposition, as classified by
// the serving layer (store-level mirror of the transport sentinel
// errors, so records survive process boundaries without error values).
type EndCause uint8

// Terminal dispositions.
const (
	CauseDetached   EndCause = iota // clean finish (shutdown sent)
	CauseSuperseded                 // fenced off by a newer epoch of the same id
	CauseIdle                       // failed on the per-operation idle timeout
	CauseAdmin                      // evicted via the control plane
	CauseFailed                     // every other error
	CauseMigrated                   // handed over to another replica
)

// String names the cause.
func (c EndCause) String() string {
	switch c {
	case CauseDetached:
		return "detached"
	case CauseSuperseded:
		return "superseded"
	case CauseIdle:
		return "idle_timeout"
	case CauseAdmin:
		return "admin_evicted"
	case CauseFailed:
		return "error"
	case CauseMigrated:
		return "migrated"
	}
	return fmt.Sprintf("EndCause(%d)", uint8(c))
}

// SessionRecord is the durable projection of one retired session
// incarnation: everything the control plane and a cold-started adopter
// need, without the in-memory metric series (which die with the process
// that collected them).
type SessionRecord struct {
	ID          string
	Epoch       uint32
	Version     uint8 // negotiated protocol version
	Cause       EndCause
	Steps       uint32
	ResumedFrom uint32
	Evals       uint32
	Reached     bool
	LastLoss    float64
	LastRMSE    float64
	Checkpoints int64
	Resumes     int64
	BytesIn     int64
	BytesOut    int64
	Err         string

	// Resumable marks a clean detach that is no completion: a drain, which
	// leaves the checkpoint at Steps behind as resume material. It is not
	// part of the durable encoding; only Mem, the one backend that lets
	// go of a completed session's terminal checkpoint, reads it.
	Resumable bool

	// Hello essentials, enough to re-materialize an admin-facing
	// snapshot (seed, environment and negotiated codec).
	Seed     int64
	Frames   uint32
	Pool     uint16
	Modality uint8
	Codec    uint8
}

// Aggregates are the monotonic lifetime totals over retired sessions —
// by terminal disposition, plus the counters that must survive the
// retire ring's evictions.
type Aggregates struct {
	Detached    int64
	Superseded  int64
	Idle        int64
	Admin       int64
	Failed      int64
	Migrated    int64
	Checkpoints int64
	Resumes     int64
	BytesIn     int64
	BytesOut    int64
}

// add folds one retired record into the totals.
func (a *Aggregates) add(rec SessionRecord) {
	switch rec.Cause {
	case CauseDetached:
		a.Detached++
	case CauseSuperseded:
		a.Superseded++
	case CauseIdle:
		a.Idle++
	case CauseAdmin:
		a.Admin++
	case CauseMigrated:
		a.Migrated++
	default:
		a.Failed++
	}
	a.Checkpoints += rec.Checkpoints
	a.Resumes += rec.Resumes
	a.BytesIn += rec.BytesIn
	a.BytesOut += rec.BytesOut
}

// Stats is a backend's contribution to a metrics scrape. Counters are
// monotonic over the store's open lifetime; recovery fields describe the
// replay performed at open.
type Stats struct {
	Kind             string
	JournalBytes     int64 // current journal (or retire-log) file size
	Records          int64 // records appended, including those recovered at open
	LiveCheckpoints  int64 // checkpoint blobs currently retrievable
	LiveBlobs        int64 // distinct blobs behind LiveCheckpoints (journal: stored once each)
	Compactions      int64 // journal compactions performed
	Recoveries       int64 // opens that found and truncated a torn tail
	RecoveredRecords int64 // records successfully replayed at open
	TruncatedBytes   int64 // torn bytes dropped by recovery at open
}

// ---- record wire encoding ------------------------------------------------

// retireRing is the bounded record ring + aggregate base shared by every
// backend: the newest retain records stay listable, older ones fold into
// base so Aggregates stays monotonic forever.
type retireRing struct {
	retain int
	recs   []SessionRecord
	base   Aggregates
}

func newRetireRing(retain int) *retireRing {
	if retain <= 0 {
		retain = 128
	}
	return &retireRing{retain: retain}
}

// push appends rec and returns the records that thereby left the ring.
func (r *retireRing) push(rec SessionRecord) (dropped []SessionRecord) {
	r.recs = append(r.recs, rec)
	if over := len(r.recs) - r.retain; over > 0 {
		dropped = r.recs[:over]
		for _, old := range dropped {
			r.base.add(old)
		}
		r.recs = append([]SessionRecord(nil), r.recs[over:]...)
	}
	return dropped
}

// holds reports whether the ring still lists a record of the given id.
func (r *retireRing) holds(id string) bool {
	for i := range r.recs {
		if r.recs[i].ID == id {
			return true
		}
	}
	return false
}

func (r *retireRing) list() []SessionRecord {
	return append([]SessionRecord(nil), r.recs...)
}

func (r *retireRing) aggregates() Aggregates {
	out := r.base
	for _, rec := range r.recs {
		out.add(rec)
	}
	return out
}

// encodeSession serializes rec for a journal record body.
func encodeSession(rec SessionRecord) []byte {
	var b []byte
	b = appendString16(b, rec.ID)
	b = binary.BigEndian.AppendUint32(b, rec.Epoch)
	b = append(b, rec.Version, byte(rec.Cause), b2u8(rec.Reached), rec.Modality, rec.Codec)
	b = binary.BigEndian.AppendUint32(b, rec.Steps)
	b = binary.BigEndian.AppendUint32(b, rec.ResumedFrom)
	b = binary.BigEndian.AppendUint32(b, rec.Evals)
	b = binary.BigEndian.AppendUint32(b, rec.Frames)
	b = binary.BigEndian.AppendUint16(b, rec.Pool)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(rec.LastLoss))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(rec.LastRMSE))
	for _, v := range []int64{rec.Checkpoints, rec.Resumes, rec.BytesIn, rec.BytesOut, rec.Seed} {
		b = binary.BigEndian.AppendUint64(b, uint64(v))
	}
	b = appendString16(b, rec.Err)
	return b
}

// decodeSession parses a record body written by encodeSession.
func decodeSession(b []byte) (SessionRecord, error) {
	var rec SessionRecord
	r := recReader{b: b}
	rec.ID = r.string16()
	rec.Epoch = r.u32()
	rec.Version = r.u8()
	rec.Cause = EndCause(r.u8())
	rec.Reached = r.u8() != 0
	rec.Modality = r.u8()
	rec.Codec = r.u8()
	rec.Steps = r.u32()
	rec.ResumedFrom = r.u32()
	rec.Evals = r.u32()
	rec.Frames = r.u32()
	rec.Pool = r.u16()
	rec.LastLoss = math.Float64frombits(r.u64())
	rec.LastRMSE = math.Float64frombits(r.u64())
	rec.Checkpoints = int64(r.u64())
	rec.Resumes = int64(r.u64())
	rec.BytesIn = int64(r.u64())
	rec.BytesOut = int64(r.u64())
	rec.Seed = int64(r.u64())
	rec.Err = r.string16()
	if r.err != nil || len(r.b) != r.off {
		return SessionRecord{}, fmt.Errorf("%w: session record", ErrCorrupt)
	}
	return rec, nil
}

// encodeAggregates serializes the consolidated aggregate base record.
func encodeAggregates(a Aggregates) []byte {
	var b []byte
	for _, v := range []int64{
		a.Detached, a.Superseded, a.Idle, a.Admin, a.Failed, a.Migrated,
		a.Checkpoints, a.Resumes, a.BytesIn, a.BytesOut,
	} {
		b = binary.BigEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// decodeAggregates parses a record body written by encodeAggregates.
// The 9-field layout written before the Migrated cause existed is still
// accepted (Migrated reads as 0), so old journals replay cleanly.
func decodeAggregates(b []byte) (Aggregates, error) {
	if len(b) != 9*8 && len(b) != 10*8 {
		return Aggregates{}, fmt.Errorf("%w: aggregate record", ErrCorrupt)
	}
	r := recReader{b: b}
	var a Aggregates
	fields := []*int64{
		&a.Detached, &a.Superseded, &a.Idle, &a.Admin, &a.Failed, &a.Migrated,
		&a.Checkpoints, &a.Resumes, &a.BytesIn, &a.BytesOut,
	}
	if len(b) == 9*8 {
		fields = []*int64{
			&a.Detached, &a.Superseded, &a.Idle, &a.Admin, &a.Failed,
			&a.Checkpoints, &a.Resumes, &a.BytesIn, &a.BytesOut,
		}
	}
	for _, dst := range fields {
		*dst = int64(r.u64())
	}
	return a, r.err
}

// recReader sequentially parses a record body with bounds checking; the
// first short read poisons every later field, so callers check err once.
type recReader struct {
	b   []byte
	off int
	err error
}

func (r *recReader) take(n int) []byte {
	if r.err != nil || r.off+n > len(r.b) {
		if r.err == nil {
			r.err = ErrCorrupt
		}
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *recReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *recReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *recReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *recReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *recReader) string16() string {
	n := int(r.u16())
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

func appendString16(b []byte, s string) []byte {
	if len(s) > 1<<15 {
		s = s[:1<<15]
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func b2u8(v bool) byte {
	if v {
		return 1
	}
	return 0
}
