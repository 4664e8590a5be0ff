package transport

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/metrics"
)

// Session lifecycle. A session is one UE's training run as the base
// station sees it; a session *incarnation* is one connection serving it.
// The store below owns every session record: a bounded live map (one
// entry per unfinished session — the MaxUE accounting), plus a bounded
// retention ring of finished-session snapshots kept for post-mortem
// reporting. Nothing a UE does can grow server memory past
// MaxUE + Retain records: finished sessions are evicted from the live
// map the moment they finish, and the retention ring drops its oldest
// snapshot when full.

// SessionState is a session's position in the lifecycle state machine:
//
//	            ┌──────────► Detached
//	Joined ──► Training ◄─► Evaluating
//	   │          │              │
//	   └──────────┴──────────────┴──► Failed / Superseded
//
// The terminal states (Detached, Failed, Superseded) fence the record:
// no later transition can overwrite them, so a half-dead predecessor
// connection racing a rejoin can never resurrect or re-fail a session
// that was already superseded.
type SessionState int

// Session lifecycle states.
const (
	SessionJoined     SessionState = iota // handshake accepted, not yet stepping
	SessionTraining                       // running distributed SGD steps
	SessionEvaluating                     // mid-validation pass
	SessionDetached                       // finished cleanly (shutdown sent)
	SessionFailed                         // aborted on error
	SessionSuperseded                     // fenced off by a newer epoch of the same session id
)

// String names the state.
func (s SessionState) String() string {
	switch s {
	case SessionJoined:
		return "joined"
	case SessionTraining:
		return "training"
	case SessionEvaluating:
		return "evaluating"
	case SessionDetached:
		return "detached"
	case SessionFailed:
		return "failed"
	case SessionSuperseded:
		return "superseded"
	}
	return fmt.Sprintf("SessionState(%d)", int(s))
}

func (s SessionState) finished() bool {
	return s == SessionDetached || s == SessionFailed || s == SessionSuperseded
}

// validTransition encodes the state machine above.
func validTransition(from, to SessionState) bool {
	if from.finished() {
		return false
	}
	switch to {
	case SessionDetached, SessionFailed, SessionSuperseded:
		return true
	case SessionTraining:
		return from == SessionJoined || from == SessionEvaluating
	case SessionEvaluating:
		return from == SessionTraining
	}
	return false
}

// SessionSnapshot is a point-in-time copy of one session's progress,
// safe to use after the session has moved on.
type SessionSnapshot struct {
	ID          string
	Hello       Hello
	Epoch       uint32 // incarnation number (1 for a fresh join)
	Version     uint8  // negotiated protocol version
	State       SessionState
	Steps       int                     // training steps completed
	ResumedFrom uint32                  // checkpoint step this incarnation resumed from (0: fresh)
	LastLoss    float64                 // most recent mini-batch loss (normalised scale)
	LastRMSE    float64                 // most recent validation RMSE in dB (0 before any eval)
	Evals       int                     // validation passes completed
	Reached     bool                    // hit TargetRMSEdB before exhausting Steps
	BytesIn     int64                   // wire bytes received from the UE
	BytesOut    int64                   // wire bytes sent to the UE
	Err         string                  // non-empty iff the session finished on an error
	Metrics     *metrics.SessionMetrics // deep copy of the full series

	// cause retains the terminal error as a value (Err is its string
	// form) so end-of-session hooks can classify endings with errors.Is;
	// unexported because it is only meaningful on hook-delivered
	// snapshots.
	cause error

	// drained marks a detach that a drain forced before the schedule
	// ended: the last checkpoint is resume material, not a terminal
	// artifact (store.SessionRecord.Resumable).
	drained bool
}

// Cause returns the terminal error this snapshot was retired with (nil
// for a clean detach, and on snapshots not delivered by OnSessionEnd).
func (s SessionSnapshot) Cause() error { return s.cause }

// session is the server-side state of one UE incarnation.
type session struct {
	id     string
	hello  Hello
	epoch  uint32
	ver    uint8     // negotiated protocol version for this incarnation
	closer io.Closer // underlying conn; closed to fence a superseded epoch

	mu        sync.Mutex
	state     SessionState
	steps     int
	resumed   uint32 // step this incarnation resumed from (0 = fresh)
	reached   bool
	drained   bool // a drain cut the schedule short (SessionSnapshot.drained)
	err       error
	met       *metrics.SessionMetrics
	conn      *CountingConn // nil until provisioned
	ckptSteps []int         // steps with a stored checkpoint, oldest first

	// pruneLogged caps checkpoint-prune error logging at one line per
	// session, so a wedged store cannot flood the log at fleet scale.
	pruneLogged bool

	// mig is the pending handover request, if any (migrate.go). The
	// training loop claims it at a step boundary; retireLocked fails it
	// if the session reaches a terminal state first.
	mig *migration
}

// setState applies a non-terminal lifecycle transition; it is a no-op
// if the session has concurrently been fenced into a terminal state.
func (s *session) setState(st SessionState) {
	s.mu.Lock()
	if validTransition(s.state, st) {
		s.state = st
	}
	s.mu.Unlock()
}

func (s *session) setConn(c *CountingConn) {
	s.mu.Lock()
	s.conn = c
	s.mu.Unlock()
}

func (s *session) finished() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state.finished()
}

// terminalCause returns the error the session finished on (nil while
// live or after a clean detach).
func (s *session) terminalCause() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// logPruneErrOnce reports whether this is the session's first prune
// error; callers log only then.
func (s *session) logPruneErrOnce() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pruneLogged {
		return false
	}
	s.pruneLogged = true
	return true
}

// ckptHistory returns the checkpoint steps this incarnation recorded
// and whether it resumed from a predecessor (whose stray files may lie
// outside the recorded ring).
func (s *session) ckptHistory() (steps []int, resumed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.ckptSteps...), s.resumed > 0
}

// markResumed notes that this incarnation restored from a checkpoint.
// The restored step seeds the checkpoint ring — that file exists and is
// this incarnation's fallback, so a drain before the first new
// checkpoint still reports a resumable step (and the ring's pruning
// eventually collects the inherited file like any other).
func (s *session) markResumed(step int) {
	s.mu.Lock()
	s.resumed = uint32(step)
	s.steps = step
	s.ckptSteps = []int{step}
	s.met.RecordStep(step)
	s.met.RecordResume(step)
	s.mu.Unlock()
}

// recordCheckpoint notes an on-disk checkpoint at step and returns the
// steps whose files should be pruned (everything but the newest keep).
func (s *session) recordCheckpoint(step, keep int) (prune []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.met.RecordCheckpoint(step)
	s.ckptSteps = append(s.ckptSteps, step)
	for len(s.ckptSteps) > keep {
		prune = append(prune, s.ckptSteps[0])
		s.ckptSteps = s.ckptSteps[1:]
	}
	return prune
}

// record logs one completed step and reports whether the target RMSE has
// been reached.
func (s *session) record(step int, loss float64, evaled bool, rmse, target float64) bool {
	s.met.RecordStep(step) // lock-free: polled by concurrent reporting
	s.mu.Lock()
	defer s.mu.Unlock()
	s.steps = step
	s.met.Loss.Add(step, loss)
	if evaled {
		s.met.ValRMSE.Add(step, rmse)
		if target > 0 && rmse <= target {
			s.reached = true
		}
	}
	return s.reached
}

func (s *session) snapshot() SessionSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := SessionSnapshot{
		ID:          s.id,
		Hello:       s.hello,
		Epoch:       s.epoch,
		Version:     s.ver,
		State:       s.state,
		Steps:       s.steps,
		ResumedFrom: s.resumed,
		Evals:       s.met.ValRMSE.Len(),
		Reached:     s.reached,
		Metrics:     s.met.Clone(),
		drained:     s.drained,
	}
	if _, v, ok := s.met.Loss.Last(); ok {
		snap.LastLoss = v
	}
	if _, v, ok := s.met.ValRMSE.Last(); ok {
		snap.LastRMSE = v
	}
	if s.conn != nil {
		st := s.conn.Stats()
		snap.BytesIn, snap.BytesOut = st.BytesIn, st.BytesOut
	}
	if s.err != nil {
		snap.Err = s.err.Error()
	}
	return snap
}

// ErrSuperseded is the terminal cause recorded on a session incarnation
// that was fenced off by a newer connection reclaiming its session id.
var ErrSuperseded = errors.New("transport: session superseded by a newer epoch")

// ErrAdminEvicted is the terminal cause recorded on a session killed via
// the control plane (POST /sessions/{id}/evict or BSServer.Evict).
var ErrAdminEvicted = errors.New("transport: session evicted by administrator")

// kill stamps cause as the session's terminal error and severs its
// connection. The session goroutine then fails out of its blocking I/O
// and retires through the normal finish path; because retireLocked
// keeps the first error set, the recorded cause stays ErrAdminEvicted
// rather than the incidental I/O error the severed connection produces.
func (s *session) kill(cause error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = cause
	}
	closer := s.closer
	s.mu.Unlock()
	if closer != nil {
		closer.Close()
	}
}

// sessionStore owns every session record. Locking order: store mutex,
// then session mutex — never the reverse.
type sessionStore struct {
	mu      sync.Mutex
	retain  int
	live    map[string]*session
	order   []string          // live sessions in join order
	retired []SessionSnapshot // finished sessions, oldest first, len ≤ retain
	evicted int64             // snapshots dropped from the full ring

	// Monotonic lifetime totals, accumulated as incarnations retire so
	// they survive the retention ring's evictions. Live sessions'
	// contributions are added at read time (stats), never here.
	ended       endCounts
	totCkpts    int64 // checkpoints written by retired incarnations
	totResumes  int64 // resumes performed by retired incarnations
	totBytesIn  int64 // wire bytes received by retired incarnations
	totBytesOut int64 // wire bytes sent by retired incarnations

	// onEnd, when set, observes every retiring incarnation. It fires
	// after the store mutex is released (a hook that re-entered the
	// store — counting live sessions, say — would otherwise deadlock),
	// with the terminal snapshot and the session's recorded cause.
	onEnd func(SessionSnapshot, error)

	// persist, when set, mirrors every retiring incarnation into the
	// durable store (see store_bridge.go). Like onEnd it fires outside
	// the store mutex, on the retiring goroutine, before onEnd — so an
	// OnSessionEnd hook observes a snapshot that is already durable.
	persist func(SessionSnapshot)
}

func newSessionStore(retain int) *sessionStore {
	return &sessionStore{retain: retain, live: make(map[string]*session)}
}

// admit registers a new incarnation for h if capacity allows. A live
// session with the same id is superseded — fenced into a terminal state
// and retired — rather than blocking the rejoin: the newer connection
// is, by assumption, the UE that lost its old one. The superseded
// incarnation (nil if none) is returned so the caller can close its
// connection. The closer is published with the record so a follow-up
// supersede can always reach this incarnation's connection.
func (st *sessionStore) admit(h Hello, ver uint8, closer io.Closer, maxUE int) (sess, superseded *session, err error) {
	if h.SessionID == "" {
		return nil, nil, errors.New("transport: empty session id")
	}
	st.mu.Lock()
	old := st.live[h.SessionID]
	if old == nil && len(st.live) >= maxUE {
		n := len(st.live)
		st.mu.Unlock()
		return nil, nil, fmt.Errorf("transport: server full (%d/%d UEs)", n, maxUE)
	}
	epoch := h.Epoch
	if old != nil && old.epoch > epoch {
		epoch = old.epoch
	}
	sess = &session{
		id: h.SessionID, hello: h,
		epoch: epoch + 1, ver: ver, closer: closer,
		state: SessionJoined,
		met:   metrics.NewSessionMetrics(h.SessionID),
	}
	var snap SessionSnapshot
	retired := false
	if old != nil {
		snap, retired = st.retireLocked(old, SessionSuperseded, ErrSuperseded)
		superseded = old
	}
	st.live[h.SessionID] = sess
	st.order = append(st.order, h.SessionID)
	st.mu.Unlock()
	if retired {
		if st.persist != nil {
			st.persist(snap)
		}
		if st.onEnd != nil {
			st.onEnd(snap, snap.cause)
		}
	}
	return sess, superseded, nil
}

// finish moves sess into a terminal state, evicts it from the live map
// and retires its snapshot into the bounded ring. It is a no-op when the
// session already finished — the fence that keeps a superseded
// incarnation's dying goroutine from touching its successor's record.
func (st *sessionStore) finish(sess *session, to SessionState, cause error) {
	st.mu.Lock()
	snap, retired := st.retireLocked(sess, to, cause)
	st.mu.Unlock()
	if retired {
		if st.persist != nil {
			st.persist(snap)
		}
		if st.onEnd != nil {
			st.onEnd(snap, snap.cause)
		}
	}
}

// retireLocked is finish with st.mu held. It reports whether this call
// retired the session (false when a prior transition already fenced it)
// and, when it did, the terminal snapshot.
func (st *sessionStore) retireLocked(sess *session, to SessionState, cause error) (SessionSnapshot, bool) {
	sess.mu.Lock()
	if sess.state.finished() || !validTransition(sess.state, to) {
		sess.mu.Unlock()
		return SessionSnapshot{}, false
	}
	sess.state = to
	if sess.err == nil && cause != nil {
		sess.err = cause
	}
	// A handover request the training loop never got to serve fails now:
	// its waiter must not outlive the session it targeted.
	mig := sess.mig
	sess.mig = nil
	sess.mu.Unlock()
	if mig != nil {
		mig.err = fmt.Errorf("transport: session %q ended (%v) before it could migrate", sess.id, to)
		close(mig.done)
	}

	if st.live[sess.id] == sess {
		delete(st.live, sess.id)
		for i, id := range st.order {
			if id == sess.id {
				st.order = append(st.order[:i], st.order[i+1:]...)
				break
			}
		}
	}
	snap := sess.snapshot()
	snap.cause = sess.terminalCause()
	st.retired = append(st.retired, snap)
	if over := len(st.retired) - st.retain; over > 0 {
		st.retired = append([]SessionSnapshot(nil), st.retired[over:]...)
		st.evicted += int64(over)
	}
	st.ended.classify(snap.State, snap.cause)
	if snap.Metrics != nil {
		st.totCkpts += snap.Metrics.Checkpoints.Load()
		st.totResumes += snap.Metrics.Resumes.Load()
	}
	st.totBytesIn += snap.BytesIn
	st.totBytesOut += snap.BytesOut
	return snap, true
}

// endCounts tallies retired incarnations by terminal disposition. The
// classification uses the *effective* cause — the error the snapshot was
// retired with, after retireLocked's keep-first-error merge — so an
// admin eviction counts as admin even though the session goroutine dies
// on the incidental I/O error of its severed connection.
type endCounts struct {
	detached   int64 // clean finish (shutdown sent)
	superseded int64 // fenced off by a newer epoch of the same id
	idle       int64 // failed on the per-operation idle timeout
	admin      int64 // evicted via the control plane
	migrated   int64 // handed over to another replica
	failed     int64 // every other error
}

func (c *endCounts) classify(state SessionState, cause error) {
	switch {
	case errors.Is(cause, ErrAdminEvicted):
		c.admin++
	case errors.Is(cause, ErrSuperseded) || state == SessionSuperseded:
		c.superseded++
	case errors.Is(cause, ErrIdleTimeout):
		c.idle++
	case errors.Is(cause, ErrMigrated):
		c.migrated++
	case cause != nil || state == SessionFailed:
		c.failed++
	default:
		c.detached++
	}
}

// adopt seeds the store from a durable predecessor at boot: retired
// snapshots re-materialized from store records enter the retention ring
// (oldest first), and the monotonic accumulators start from the
// adopted lifetime totals — so a scrape of the fresh process continues
// the counters where the crashed one stopped, with no double counting
// (subsequent retirements add to both the in-memory accumulators and
// the durable aggregates symmetrically).
func (st *sessionStore) adopt(snaps []SessionSnapshot, ended endCounts, ckpts, resumes, bytesIn, bytesOut int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.retired = append(st.retired, snaps...)
	if over := len(st.retired) - st.retain; over > 0 {
		st.retired = append([]SessionSnapshot(nil), st.retired[over:]...)
	}
	st.ended = ended
	st.totCkpts = ckpts
	st.totResumes = resumes
	st.totBytesIn = bytesIn
	st.totBytesOut = bytesOut
}

// findLive returns the live session registered under id, or nil.
func (st *sessionStore) findLive(id string) *session {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.live[id]
}

// liveAll snapshots every live session — the crash path's kill list.
func (st *sessionStore) liveAll() []*session {
	st.mu.Lock()
	defer st.mu.Unlock()
	all := make([]*session, 0, len(st.live))
	for _, sess := range st.live {
		all = append(all, sess)
	}
	return all
}

// snapshotByID returns the freshest snapshot for id: the live session's
// if one is registered, else the most recently retired incarnation's.
func (st *sessionStore) snapshotByID(id string) (SessionSnapshot, bool) {
	st.mu.Lock()
	if sess := st.live[id]; sess != nil {
		st.mu.Unlock()
		return sess.snapshot(), true
	}
	for i := len(st.retired) - 1; i >= 0; i-- {
		if st.retired[i].ID == id {
			snap := st.retired[i]
			st.mu.Unlock()
			return snap, true
		}
	}
	st.mu.Unlock()
	return SessionSnapshot{}, false
}

// storeStats is the store's contribution to a metrics scrape: occupancy
// gauges plus lifetime totals (retired accumulators + live sessions'
// current counters, summed at read time so the totals stay monotonic
// across ring evictions).
type storeStats struct {
	live     int
	retained int
	evicted  int64
	ended    endCounts
	ckpts    int64
	resumes  int64
	bytesIn  int64
	bytesOut int64
}

func (st *sessionStore) stats() storeStats {
	st.mu.Lock()
	s := storeStats{
		live:     len(st.live),
		retained: len(st.retired),
		evicted:  st.evicted,
		ended:    st.ended,
		ckpts:    st.totCkpts,
		resumes:  st.totResumes,
		bytesIn:  st.totBytesIn,
		bytesOut: st.totBytesOut,
	}
	liveSessions := make([]*session, 0, len(st.live))
	for _, sess := range st.live {
		liveSessions = append(liveSessions, sess)
	}
	st.mu.Unlock()
	// Live counters are read outside the store lock (locking order:
	// store, then session — and the atomic ones need no lock at all).
	for _, sess := range liveSessions {
		s.ckpts += sess.met.Checkpoints.Load()
		s.resumes += sess.met.Resumes.Load()
		sess.mu.Lock()
		if sess.conn != nil {
			cs := sess.conn.Stats()
			s.bytesIn += cs.BytesIn
			s.bytesOut += cs.BytesOut
		}
		sess.mu.Unlock()
	}
	return s
}

// snapshots returns the retained finished sessions (oldest first)
// followed by the live ones in join order.
func (st *sessionStore) snapshots() []SessionSnapshot {
	st.mu.Lock()
	out := make([]SessionSnapshot, 0, len(st.retired)+len(st.live))
	out = append(out, st.retired...)
	liveSessions := make([]*session, 0, len(st.order))
	for _, id := range st.order {
		liveSessions = append(liveSessions, st.live[id])
	}
	st.mu.Unlock()
	for _, sess := range liveSessions {
		out = append(out, sess.snapshot())
	}
	return out
}

// liveCount is the number of unfinished sessions — the MaxUE occupancy.
func (st *sessionStore) liveCount() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.live)
}

// retiredCount is the number of finished-session snapshots retained.
func (st *sessionStore) retiredCount() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.retired)
}

// evictedCount is the number of snapshots dropped from the full ring.
func (st *sessionStore) evictedCount() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.evicted
}
