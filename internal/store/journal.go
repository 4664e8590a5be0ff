package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// The journaled backend: one append-only file holding every kind of
// state as length-prefixed, CRC-checksummed records.
//
//	file   = magic "MMSLJRN1" | u32 version | record...
//	record = u32 bodyLen | u32 crc32c(body) | body
//	body   = u8 recType | payload
//
// Record types:
//
//	recRetire        session retire record (encodeSession)
//	recAggregates    consolidated aggregate base (written by compaction)
//	recCheckpoint    u16 idLen | id | u32 step | blob
//	recPrune         u16 idLen | id | u32 step  (checkpoint tombstone)
//	recCheckpointRef u16 idLen | id | u32 step | u64 blobOff | u32 blobLen
//
// A checkpoint whose bytes the file already holds is written once: a
// later key with the same blob gets a recCheckpointRef naming the
// earlier record's blob region. Replay accepts a reference only if an
// earlier record of the same file wrote exactly that region, so a torn
// tail can never leave a reference without its blob. Regions are
// refcounted; a region leaves the index when its last key does.
//
// Every append is fsynced before it is acknowledged, so an acknowledged
// write survives a SIGKILL. Appends are group-committed: records that
// arrive while a Sync is in flight queue up, and the next leader writes
// them all as adjacent ordinary frames under one Sync (see append).
// Recovery replays the file and truncates at the first torn or corrupt
// record — a crash mid-append loses at most the unacknowledged tail,
// never an acknowledged record. Compaction rewrites the live state
// (current aggregate base, retained retire ring, undeleted checkpoints)
// into a temp sibling and swaps it in with the same fsync-rename-dirsync
// dance as WriteFileAtomic.

var journalMagic = [8]byte{'M', 'M', 'S', 'L', 'J', 'R', 'N', '1'}

const (
	// journalVersion 2 added recCheckpointRef. A version-1 file replays
	// unchanged and has its header rewritten to 2 at open, so that a
	// version-1 reader refuses the file instead of truncating it at the
	// first reference.
	journalVersion = 2
	journalHdrLen  = 8 + 4

	recRetire        byte = 1
	recAggregates    byte = 2
	recCheckpoint    byte = 3
	recPrune         byte = 4
	recCheckpointRef byte = 5

	// refTrailerLen is what a reference adds to a checkpoint head: the
	// u64 offset and u32 length of the blob it names.
	refTrailerLen = 8 + 4

	// maxRecordBody caps a single record body; anything larger in a
	// length prefix is treated as corruption, so a torn length field
	// cannot make recovery attempt a gigabyte allocation.
	maxRecordBody = 1 << 28

	recHdrLen = 4 + 4 // bodyLen + crc
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// JournalOptions tunes OpenJournal.
type JournalOptions struct {
	Retain       int   // retire-ring bound (≤0: 128)
	CompactBytes int64 // file size that arms compaction (≤0: 64 MiB)
	FS           FS    // filesystem seam (nil: OS)
}

// Journal is the single-file crash-consistent backend. Open with
// OpenJournal; the zero value is not usable.
type Journal struct {
	fs           FS
	path         string
	compactBytes int64

	mu     sync.Mutex
	cond   *sync.Cond // on mu: a flush finished, or the queue was failed
	f      File
	lock   io.Closer // single-writer guard (nil on non-locking FS)
	size   int64     // current durable file length (append offset)
	idx    ckptIndex // where every retrievable checkpoint's blob lies
	ring   *retireRing
	st     Stats
	closed bool
	poison error // non-nil: the file handle is unusable, every write fails

	// Group commit (see append): next collects the records waiting for a
	// leader, flushing is set while a leader is writing with mu released.
	next     *batch
	flushing bool
	spare    []pendingRec // a finished batch's record slice, for reuse
	scratch  []byte       // the leader's read-back buffer (see sameBytes)
}

// batch is one group commit: the records one leader writes under one
// Sync. Every appender of a batch shares its outcome.
type batch struct {
	recs []pendingRec
	done bool
	err  error
}

// pendingRec is one queued record. Its frame is head followed by tail;
// tail is the caller's checkpoint blob, borrowed (not copied) until the
// batch completes — the caller is parked in append for exactly that long.
// The flush leader may turn a recCheckpoint into a recCheckpointRef
// (toRef) before writing it.
type pendingRec struct {
	head, tail []byte
	id         string         // recCheckpoint(Ref), recPrune
	step       int            // recCheckpoint(Ref), recPrune
	crc        uint32         // recCheckpoint(Ref): crc32c of the blob
	ref        blobRegion     // recCheckpointRef: the region it names
	sess       *SessionRecord // recRetire
}

// size is the record's on-file footprint.
func (r *pendingRec) size() int64 { return int64(len(r.head) + len(r.tail)) }

// blobRegion locates one checkpoint blob inside the journal file.
type blobRegion struct {
	off  int64 // blob start
	size int   // blob length
}

// ckptIndex maps checkpoint keys to blob regions of the file. Several
// keys may name one region; regions are refcounted and leave the index
// with their last key.
type ckptIndex struct {
	keys    map[string]map[int]blobRegion
	regions map[int64]liveRegion // by blob offset
	content map[contentKey]int64 // a live region's blob offset, by content
	live    int64                // every key's checkpoint head plus every region's blob
}

func newCkptIndex() ckptIndex {
	return ckptIndex{
		keys:    make(map[string]map[int]blobRegion),
		regions: make(map[int64]liveRegion),
		content: make(map[contentKey]int64),
	}
}

// liveRegion is one blob region in the index and the number of
// checkpoint keys naming it.
type liveRegion struct {
	contentKey
	refs int
}

// contentKey is what a duplicate blob is looked up by. Equal keys are a
// candidate only: the bytes are always compared before a reference is
// written.
type contentKey struct {
	crc  uint32 // crc32c of the blob
	size int
}

// OpenJournal opens (creating if absent) the journal at path and replays
// it. A torn tail — from a crash mid-append — is truncated away; the
// error return is reserved for I/O failures and foreign files (bad
// magic), never for recoverable corruption.
func OpenJournal(path string, opts JournalOptions) (*Journal, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = OS
	}
	compact := opts.CompactBytes
	if compact <= 0 {
		compact = 64 << 20
	}
	j := &Journal{
		fs:           fsys,
		path:         path,
		compactBytes: compact,
		idx:          newCkptIndex(),
		ring:         newRetireRing(opts.Retain),
		st:           Stats{Kind: "journal"},
	}
	j.cond = sync.NewCond(&j.mu)
	if dir := filepath.Dir(path); dir != "." {
		if err := fsys.MkdirAll(dir); err != nil {
			return nil, fmt.Errorf("store: journal dir: %w", err)
		}
	}
	// Single-writer guard: fail fast if another live process already
	// owns this journal (flock.go). Taken before anything is touched.
	lock, err := tryLock(fsys, path)
	if err != nil {
		return nil, err
	}
	j.lock = lock
	// A crash mid-compaction can leave a stale temp sibling; it is, by
	// construction, not the authoritative file.
	fsys.Remove(path + ".compact")
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		closeLock(lock)
		return nil, fmt.Errorf("store: open journal: %w", err)
	}
	j.f = f
	if err := j.recover(); err != nil {
		f.Close()
		closeLock(lock)
		return nil, err
	}
	return j, nil
}

// recover replays the journal into the in-memory index, truncating the
// file at the first torn or corrupt record, and upgrades a version-1
// header.
func (j *Journal) recover() error {
	fi, err := j.f.Stat()
	if err != nil {
		return fmt.Errorf("store: stat journal: %w", err)
	}
	size := fi.Size()
	if size == 0 {
		return j.writeHeader()
	}
	hdr := make([]byte, journalHdrLen)
	if _, err := j.f.ReadAt(hdr, 0); err != nil {
		// Shorter than a header: a crash before the header sync landed.
		// Nothing could have been acknowledged — start fresh.
		return j.truncateTo(0, size, true)
	}
	if [8]byte(hdr[:8]) != journalMagic {
		return fmt.Errorf("%w: %s is not a journal (bad magic)", ErrCorrupt, j.path)
	}
	v := binary.BigEndian.Uint32(hdr[8:])
	if v != 1 && v != journalVersion {
		return fmt.Errorf("%w: journal version %d, want %d", ErrCorrupt, v, journalVersion)
	}
	// written holds every checkpoint blob region replayed so far, live or
	// not: the regions a reference may name.
	written := make(map[int64]contentKey)
	valid := int64(journalHdrLen)
	off := valid
	frame := make([]byte, recHdrLen)
	for off+recHdrLen <= size {
		if _, err := j.f.ReadAt(frame, off); err != nil {
			return fmt.Errorf("store: read journal at %d: %w", off, err)
		}
		bodyLen := int64(binary.BigEndian.Uint32(frame))
		wantCRC := binary.BigEndian.Uint32(frame[4:])
		if bodyLen == 0 || bodyLen > maxRecordBody || off+recHdrLen+bodyLen > size {
			break // torn length or truncated body
		}
		body := make([]byte, bodyLen)
		if _, err := j.f.ReadAt(body, off+recHdrLen); err != nil {
			return fmt.Errorf("store: read journal at %d: %w", off, err)
		}
		if crc32.Checksum(body, crcTable) != wantCRC {
			break // torn or bit-rotted body
		}
		if err := j.apply(body, off+recHdrLen, written); err != nil {
			break // structurally valid frame, undecodable body
		}
		off += recHdrLen + bodyLen
		valid = off
		j.st.Records++
		j.st.RecoveredRecords++
	}
	if valid < size {
		if err := j.truncateTo(valid, size, true); err != nil {
			return err
		}
	} else {
		j.size = size
		j.st.JournalBytes = size
	}
	if v != journalVersion {
		return j.writeVersion()
	}
	return nil
}

// truncateTo cuts the file back to valid bytes (rewriting the header
// when everything was lost) and records the recovery.
func (j *Journal) truncateTo(valid, size int64, recovery bool) error {
	if recovery {
		j.st.Recoveries++
		j.st.TruncatedBytes += size - valid
	}
	if valid == 0 {
		if err := j.f.Truncate(0); err != nil {
			return fmt.Errorf("store: truncate journal: %w", err)
		}
		return j.writeHeader()
	}
	if err := j.f.Truncate(valid); err != nil {
		return fmt.Errorf("store: truncate journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("store: sync journal: %w", err)
	}
	j.size = valid
	j.st.JournalBytes = valid
	return nil
}

func (j *Journal) writeHeader() error {
	hdr := make([]byte, journalHdrLen)
	copy(hdr, journalMagic[:])
	binary.BigEndian.PutUint32(hdr[8:], journalVersion)
	if _, err := j.f.WriteAt(hdr, 0); err != nil {
		return fmt.Errorf("store: write journal header: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("store: sync journal header: %w", err)
	}
	j.size = journalHdrLen
	j.st.JournalBytes = j.size
	if dir := filepath.Dir(j.path); dir != "" {
		j.fs.SyncDir(dir)
	}
	return nil
}

// writeVersion stamps today's version over an older one, durably, before
// the journal appends anything an older reader could not parse.
func (j *Journal) writeVersion() error {
	if _, err := j.f.WriteAt(binary.BigEndian.AppendUint32(nil, journalVersion), 8); err != nil {
		return fmt.Errorf("store: write journal version: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("store: sync journal version: %w", err)
	}
	return nil
}

// apply indexes one replayed record body (applyPending is its twin for a
// record just committed, which needs no decoding). bodyOff is the body's
// file offset, locating checkpoint blobs for later reads; written holds
// the blob regions earlier records wrote, and gains this record's.
func (j *Journal) apply(body []byte, bodyOff int64, written map[int64]contentKey) error {
	switch body[0] {
	case recRetire:
		rec, err := decodeSession(body[1:])
		if err != nil {
			return err
		}
		j.ring.push(rec)
	case recAggregates:
		base, err := decodeAggregates(body[1:])
		if err != nil {
			return err
		}
		j.ring.base = base
	case recCheckpoint:
		r := recReader{b: body[1:]}
		id := r.string16()
		step := int(r.u32())
		if r.err != nil {
			return r.err
		}
		blob := r.b[r.off:]
		reg := blobRegion{off: bodyOff + int64(len(body)-len(blob)), size: len(blob)}
		key := contentKey{crc: crc32.Checksum(blob, crcTable), size: len(blob)}
		written[reg.off] = key
		j.idx.put(id, step, reg, key.crc)
	case recCheckpointRef:
		r := recReader{b: body[1:]}
		id := r.string16()
		step := int(r.u32())
		reg := blobRegion{off: int64(r.u64()), size: int(r.u32())}
		if r.err != nil || r.off != len(r.b) {
			return fmt.Errorf("%w: checkpoint reference", ErrCorrupt)
		}
		key, ok := written[reg.off]
		if !ok || key.size != reg.size {
			return fmt.Errorf("%w: reference to %d+%d names no earlier blob", ErrCorrupt, reg.off, reg.size)
		}
		j.idx.put(id, step, reg, key.crc)
	case recPrune:
		r := recReader{b: body[1:]}
		id := r.string16()
		step := int(r.u32())
		if r.err != nil {
			return r.err
		}
		j.idx.drop(id, step)
	default:
		return fmt.Errorf("%w: unknown record type %d", ErrCorrupt, body[0])
	}
	return nil
}

// put points (id, step) at reg, a region holding a blob with the given
// CRC, replacing whatever the key named before.
func (x *ckptIndex) put(id string, step int, reg blobRegion, crc uint32) {
	m := x.keys[id]
	if m == nil {
		m = make(map[int]blobRegion)
		x.keys[id] = m
	}
	// Take the new reference before dropping the old: a key re-put with
	// its own blob names the same region, which must not leave the index
	// in between.
	lr, ok := x.regions[reg.off]
	if !ok {
		lr.contentKey = contentKey{crc: crc, size: reg.size}
		if _, dup := x.content[lr.contentKey]; !dup {
			x.content[lr.contentKey] = reg.off
		}
		x.live += int64(reg.size)
	}
	lr.refs++
	x.regions[reg.off] = lr
	if old, ok := m[step]; ok {
		x.unref(old.off)
	} else {
		x.live += frameLen(id, 0)
	}
	m[step] = reg
}

func (x *ckptIndex) drop(id string, step int) {
	if m := x.keys[id]; m != nil {
		if reg, ok := m[step]; ok {
			x.unref(reg.off)
			x.live -= frameLen(id, 0)
			delete(m, step)
			if len(m) == 0 {
				delete(x.keys, id)
			}
		}
	}
}

// unref drops one key's reference to the region at off; the last one
// takes the region out of the index.
func (x *ckptIndex) unref(off int64) {
	lr := x.regions[off]
	if lr.refs--; lr.refs > 0 {
		x.regions[off] = lr
		return
	}
	delete(x.regions, off)
	if x.content[lr.contentKey] == off {
		delete(x.content, lr.contentKey)
	}
	x.live -= int64(lr.size)
}

// frameLen is the full on-file footprint of a checkpoint record.
func frameLen(id string, blob int) int64 {
	return int64(recHdrLen + 1 + 2 + len(id) + 4 + blob)
}

// newFrame starts a record frame: the length and CRC fields reserved,
// then the type byte and payload. The caller appends whatever else the
// body holds and seals the frame.
func newFrame(typ byte, payload []byte, extraCap int) []byte {
	frame := make([]byte, recHdrLen, recHdrLen+1+len(payload)+extraCap)
	frame = append(frame, typ)
	return append(frame, payload...)
}

// checkpointHead is the frame of a checkpoint, reference or prune record
// up to and including the step — everything but a checkpoint's blob or a
// reference's trailer. Its capacity leaves room for the trailer (toRef).
func checkpointHead(typ byte, id string, step int) []byte {
	head := newFrame(typ, nil, 2+len(id)+4+refTrailerLen)
	head = appendString16(head, id)
	return binary.BigEndian.AppendUint32(head, uint32(step))
}

// appendRefTrailer completes a recCheckpointRef head: the region it names.
func appendRefTrailer(head []byte, reg blobRegion) []byte {
	head = binary.BigEndian.AppendUint64(head, uint64(reg.off))
	return binary.BigEndian.AppendUint32(head, uint32(reg.size))
}

// toRef rewrites a recCheckpoint in place into a recCheckpointRef naming
// reg, which holds the same bytes as its blob, and reseals it.
func (r *pendingRec) toRef(reg blobRegion) {
	r.head[recHdrLen] = recCheckpointRef
	r.head = appendRefTrailer(r.head, reg)
	r.tail = nil
	r.ref = reg
	sealFrame(r.head, nil)
}

// sealFrame fills in the length and CRC of a frame whose body is
// head[recHdrLen:] followed by tail (nil when head holds the whole body).
func sealFrame(head, tail []byte) {
	binary.BigEndian.PutUint32(head, uint32(len(head)-recHdrLen+len(tail)))
	crc := crc32.Update(crc32.Checksum(head[recHdrLen:], crcTable), crcTable, tail)
	binary.BigEndian.PutUint32(head[4:], crc)
}

// writeFrame writes the frame head|tail at off. The blob goes to the
// file straight from the caller's slice.
func writeFrame(f File, off int64, head, tail []byte) error {
	if _, err := f.WriteAt(head, off); err != nil {
		return err
	}
	if len(tail) > 0 {
		if _, err := f.WriteAt(tail, off+int64(len(head))); err != nil {
			return err
		}
	}
	return nil
}

// writable reports why the journal takes no more writes (nil: it does).
func (j *Journal) writable() error {
	if j.closed {
		return os.ErrClosed
	}
	return j.poison
}

// append durably adds one sealed record and returns once the Sync
// covering it has returned. Called with j.mu held; the lock is released
// while waiting or flushing.
//
// Group commit: the record joins the queue. If a flush is in flight the
// appender waits; otherwise it becomes the leader, takes the whole
// queue, and commits it as one batch. The batch is therefore whatever
// queued while the previous Sync ran — there is no commit delay, and a
// lone writer goes straight through.
func (j *Journal) append(rec pendingRec) error {
	b := j.next
	if b == nil {
		b = &batch{recs: j.spare}
		j.spare = nil
		j.next = b
	}
	b.recs = append(b.recs, rec)
	// An unfinished batch with no flush in flight is still j.next: only a
	// leader (who sets flushing until the batch is done) or failQueued
	// (who marks it done) ever takes it.
	for !b.done {
		if j.flushing {
			j.cond.Wait()
			continue
		}
		j.flush(b)
	}
	return b.err
}

// flush commits the queued batch as its leader: frames at consecutive
// offsets, one Sync, and only then — back under j.mu — each record
// applied to the index in file order, so nothing is readable before it
// is durable. A failed write or Sync cuts the file back to its
// pre-batch length and fails every appender in the batch. Called with
// j.mu held; the I/O runs with it released (j.f and j.size stay put
// meanwhile: everything that moves them waits on flushing).
func (j *Journal) flush(b *batch) {
	j.next = nil
	j.flushing = true
	f, base := j.f, j.size
	j.mu.Unlock()

	end := base
	var err error
	for i := range b.recs {
		r := &b.recs[i]
		if r.head[recHdrLen] == recCheckpoint {
			j.dedup(f, b.recs[:i], base, r)
		}
		if err = writeFrame(f, end, r.head, r.tail); err != nil {
			err = fmt.Errorf("store: journal append: %w", err)
			break
		}
		end += r.size()
	}
	if err == nil {
		if err = f.Sync(); err != nil {
			err = fmt.Errorf("store: journal sync: %w", err)
		}
	}
	var truncErr error
	if err != nil {
		truncErr = f.Truncate(base)
	}

	j.mu.Lock()
	if err == nil {
		off := base
		for i := range b.recs {
			j.applyPending(&b.recs[i], off)
			off += b.recs[i].size()
		}
		j.size = end
		j.st.JournalBytes = end
		j.st.Records += int64(len(b.recs))
	} else if truncErr != nil && j.poison == nil {
		// Whole frames of the failed batch may still sit past j.size. A
		// later, shorter batch would leave some of them intact behind it
		// for replay to resurrect, so the file takes no more appends.
		j.poison = fmt.Errorf("store: journal unusable, failed batch not truncated away (%v): %w", truncErr, err)
	}
	clear(b.recs)
	j.spare, b.recs = b.recs[:0], nil
	b.err, b.done = err, true
	j.flushing = false
	j.cond.Broadcast()
}

// dedup turns the checkpoint record r into a reference when the file
// already holds its blob's bytes: in an earlier checkpoint record of the
// same batch (earlier, whose first frame starts at base), or in a live
// region. Equal CRC and length only nominate a candidate; the bytes are
// compared before anything is rewritten. Called by the flush leader with
// j.mu released: nothing changes the index while flushing is set.
func (j *Journal) dedup(f File, earlier []pendingRec, base int64, r *pendingRec) {
	if len(r.tail) <= refTrailerLen {
		return // a reference would be no smaller than the blob
	}
	off := base
	for i := range earlier {
		e := &earlier[i]
		if e.head[recHdrLen] == recCheckpoint && e.crc == r.crc && bytes.Equal(e.tail, r.tail) {
			r.toRef(blobRegion{off: off + int64(len(e.head)), size: len(e.tail)})
			return
		}
		off += e.size()
	}
	if at, ok := j.idx.content[contentKey{crc: r.crc, size: len(r.tail)}]; ok && j.sameBytes(f, at, r.tail) {
		r.toRef(blobRegion{off: at, size: len(r.tail)})
	}
}

// sameBytes reports whether the file holds want at off, reading it back
// through a scratch buffer only the flush leader uses. A failed read
// answers false: the record is then written in full.
func (j *Journal) sameBytes(f File, off int64, want []byte) bool {
	if j.scratch == nil {
		j.scratch = make([]byte, 64<<10)
	}
	for len(want) > 0 {
		got := j.scratch[:min(len(want), len(j.scratch))]
		if _, err := f.ReadAt(got, off); err != nil || !bytes.Equal(got, want[:len(got)]) {
			return false
		}
		want = want[len(got):]
		off += int64(len(got))
	}
	return true
}

// applyPending indexes one just-committed record whose frame starts at
// frameOff.
func (j *Journal) applyPending(r *pendingRec, frameOff int64) {
	switch r.head[recHdrLen] {
	case recRetire:
		j.ring.push(*r.sess)
	case recCheckpoint:
		j.idx.put(r.id, r.step, blobRegion{
			off:  frameOff + int64(len(r.head)),
			size: len(r.tail),
		}, r.crc)
	case recCheckpointRef:
		j.idx.put(r.id, r.step, r.ref, r.crc)
	case recPrune:
		j.idx.drop(r.id, r.step)
	}
}

// failQueued fails every record still waiting for a leader. Called with
// j.mu held; the batch in flight, if any, is not j.next and is untouched.
func (j *Journal) failQueued(err error) {
	if b := j.next; b != nil {
		j.next = nil
		b.recs = nil
		b.err, b.done = err, true
		j.cond.Broadcast()
	}
}

// waitFlush blocks until no flush is in flight. Everything that swaps
// or closes j.f calls it first. Called with j.mu held.
func (j *Journal) waitFlush() {
	for j.flushing {
		j.cond.Wait()
	}
}

// Kind implements Store.
func (j *Journal) Kind() string { return "journal" }

// PutCheckpoint implements Store. The blob is not copied: it is
// checksummed in place and written to the file from the caller's slice —
// or not written at all, when the file already holds the same bytes and
// a reference to them takes its place (see dedup).
func (j *Journal) PutCheckpoint(id string, step int, blob []byte) error {
	head := checkpointHead(recCheckpoint, id, step)
	sealFrame(head, blob)
	crc := crc32.Checksum(blob, crcTable)
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.writable(); err != nil {
		return err
	}
	if err := j.append(pendingRec{head: head, tail: blob, id: id, step: step, crc: crc}); err != nil {
		return err
	}
	j.maybeCompact()
	return nil
}

// GetCheckpoint implements Store.
func (j *Journal) GetCheckpoint(id string, step int) ([]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil, os.ErrClosed
	}
	reg, ok := j.idx.keys[id][step]
	if !ok {
		return nil, fmt.Errorf("store: checkpoint %s@%d: %w", id, step, ErrNotFound)
	}
	blob := make([]byte, reg.size)
	if _, err := j.f.ReadAt(blob, reg.off); err != nil {
		return nil, fmt.Errorf("store: read checkpoint %s@%d: %w", id, step, err)
	}
	return blob, nil
}

// DeleteCheckpoint implements Store.
func (j *Journal) DeleteCheckpoint(id string, step int) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.writable(); err != nil {
		return err
	}
	if _, ok := j.idx.keys[id][step]; !ok {
		return nil
	}
	head := checkpointHead(recPrune, id, step)
	sealFrame(head, nil)
	if err := j.append(pendingRec{head: head, id: id, step: step}); err != nil {
		return err
	}
	j.maybeCompact()
	return nil
}

// CheckpointSteps implements Store.
func (j *Journal) CheckpointSteps(id string) ([]int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	steps := make([]int, 0, len(j.idx.keys[id]))
	for step := range j.idx.keys[id] {
		steps = append(steps, step)
	}
	sort.Ints(steps)
	return steps, nil
}

// RetireSession implements Store.
func (j *Journal) RetireSession(rec SessionRecord) error {
	frame := newFrame(recRetire, encodeSession(rec), 0)
	sealFrame(frame, nil)
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.writable(); err != nil {
		return err
	}
	if err := j.append(pendingRec{head: frame, sess: &rec}); err != nil {
		return err
	}
	j.maybeCompact()
	return nil
}

// RetiredSessions implements Store.
func (j *Journal) RetiredSessions() ([]SessionRecord, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ring.list(), nil
}

// Aggregates implements Store.
func (j *Journal) Aggregates() Aggregates {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ring.aggregates()
}

// Stats implements Store.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.st
	var live int64
	for _, m := range j.idx.keys {
		live += int64(len(m))
	}
	st.LiveCheckpoints = live
	st.LiveBlobs = int64(len(j.idx.regions))
	return st
}

// Flush implements Store. Every acknowledged append is already synced;
// this waits out a flush in flight and syncs once more as the
// interface's durability barrier.
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.waitFlush()
	if j.closed {
		return nil
	}
	return j.f.Sync()
}

// Close implements Store. Records still queued behind a flush in flight
// fail with os.ErrClosed; the flush itself is waited out, and its
// appenders keep their outcome.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	j.failQueued(os.ErrClosed)
	j.waitFlush()
	err := j.f.Close()
	closeLock(j.lock)
	return err
}

// maybeCompact compacts when the file has outgrown CompactBytes and at
// least half of it is dead weight (pruned checkpoints, tombstones,
// retire records fallen off the ring). Live data alone crossing the
// threshold never triggers: compaction would not shrink it. Called with
// j.mu held, after the caller's own append was acknowledged. It skips
// while another batch is being flushed (compaction swaps j.f; the next
// append gets another chance). A compaction failure is deliberately
// swallowed: the triggering append already succeeded durably, and
// either the old journal is still authoritative or compactLocked has
// poisoned the journal so the next write reports it.
func (j *Journal) maybeCompact() {
	if j.size < j.compactBytes || j.flushing || j.writable() != nil {
		return
	}
	liveish := j.idx.live + int64(journalHdrLen)
	if j.size-liveish <= j.size/2 {
		return
	}
	j.compactLocked()
}

// Compact forces a compaction now (ops and tests; the automatic trigger
// is maybeCompact).
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.waitFlush()
	if err := j.writable(); err != nil {
		return err
	}
	return j.compactLocked()
}

// compactLocked rewrites the live state into path+".compact" and swaps
// it in. Called with j.mu held and no flush in flight; records still
// queued are unaffected (they get their offsets when they are flushed).
// On any failure before the rename the old file stays authoritative; a
// failure to reopen after it poisons the journal.
func (j *Journal) compactLocked() error {
	tmpPath := j.path + ".compact"
	tmp, err := j.fs.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		tmp.Close()
		j.fs.Remove(tmpPath)
		return err
	}

	hdr := make([]byte, journalHdrLen)
	copy(hdr, journalMagic[:])
	binary.BigEndian.PutUint32(hdr[8:], journalVersion)
	if _, err := tmp.WriteAt(hdr, 0); err != nil {
		return fail(err)
	}
	off := int64(journalHdrLen)
	records := int64(0)
	writeRec := func(head, tail []byte) error {
		sealFrame(head, tail)
		if err := writeFrame(tmp, off, head, tail); err != nil {
			return err
		}
		off += int64(len(head) + len(tail))
		records++
		return nil
	}

	// Aggregate base first: replaces the folded-away retire records.
	if err := writeRec(newFrame(recAggregates, encodeAggregates(j.ring.base), 0), nil); err != nil {
		return fail(err)
	}
	for _, rec := range j.ring.recs {
		if err := writeRec(newFrame(recRetire, encodeSession(rec), 0), nil); err != nil {
			return fail(err)
		}
	}
	// Checkpoints in a deterministic order, blobs copied through memory,
	// each region once: the first key naming it writes the blob, every
	// later one a reference to where it landed.
	ids := make([]string, 0, len(j.idx.keys))
	for id := range j.idx.keys {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	next := newCkptIndex()
	moved := make(map[int64]blobRegion, len(j.idx.regions)) // old blob offset → new region
	for _, id := range ids {
		steps := make([]int, 0, len(j.idx.keys[id]))
		for step := range j.idx.keys[id] {
			steps = append(steps, step)
		}
		sort.Ints(steps)
		for _, step := range steps {
			old := j.idx.keys[id][step]
			crc := j.idx.regions[old.off].crc
			reg, ok := moved[old.off]
			if ok {
				head := appendRefTrailer(checkpointHead(recCheckpointRef, id, step), reg)
				if err := writeRec(head, nil); err != nil {
					return fail(err)
				}
			} else {
				blob := make([]byte, old.size)
				if _, err := j.f.ReadAt(blob, old.off); err != nil {
					return fail(err)
				}
				head := checkpointHead(recCheckpoint, id, step)
				reg = blobRegion{off: off + int64(len(head)), size: len(blob)}
				if err := writeRec(head, blob); err != nil {
					return fail(err)
				}
				moved[old.off] = reg
			}
			next.put(id, step, reg, crc)
		}
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		j.fs.Remove(tmpPath)
		return err
	}
	if err := j.fs.Rename(tmpPath, j.path); err != nil {
		j.fs.Remove(tmpPath)
		return err
	}
	if dir := filepath.Dir(j.path); dir != "" {
		j.fs.SyncDir(dir)
	}
	// Swap the open handle to the new file.
	nf, err := j.fs.OpenFile(j.path, os.O_RDWR, 0o644)
	if err != nil {
		// The rename landed but the reopen failed: j.f is the old, now
		// unlinked inode, and anything appended to it would be fsynced,
		// acknowledged and gone at the next open. Everything
		// acknowledged so far is in the new file; reads keep working off
		// the old handle and its index, writes fail from here on.
		j.poison = fmt.Errorf("store: journal unusable, reopen after compaction: %w", err)
		j.failQueued(j.poison)
		return j.poison
	}
	j.f.Close()
	j.f = nf
	j.size = off
	j.idx = next
	j.st.JournalBytes = off
	j.st.Records += records
	j.st.Compactions++
	return nil
}
