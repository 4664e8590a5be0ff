package transport

import (
	"errors"
	"fmt"
	"time"
)

// Live session handover (DESIGN.md §12). A migration moves one live
// session from this replica to another at a step boundary, reusing the
// two mechanisms invariant 7 already proves sound: the checkpoint is
// the transfer format, and the UE's reconnect-with-resume is the
// switchover. MigrateOut parks a request on the session; the training
// loop serves it at its next step top — write a checkpoint at the last
// completed step (both halves: the store blob and the UE's MsgCheckpoint
// save), hand the blob to the waiter, retire the session with
// ErrMigrated and sever the connection. The UE sees an ordinary drop,
// reconnects with its resume token, and the coordinator routes the
// rejoin to the replica that adopted the blob. Invariant 9 (a
// handed-over session is bit-identical to one served end-to-end on a
// single BS) follows from invariant 7 plus deterministic provisioning.

// ErrMigrated is the terminal cause recorded on a session incarnation
// handed over to another replica. Classify with errors.Is.
var ErrMigrated = errors.New("transport: session migrated to another replica")

// defaultMigrateTimeout bounds how long MigrateOut waits for the
// session to reach a step boundary when the caller passes no budget.
const defaultMigrateTimeout = 30 * time.Second

// MigrationState is the handover payload for one live session: the
// resume token's fields plus the BS-half checkpoint blob exactly as the
// store holds it. It is everything an adopting replica needs to honour
// the UE's reconnect-with-resume.
type MigrationState struct {
	ID       string // session id
	Epoch    uint32 // incarnation fenced by the handover
	Step     uint32 // checkpoint step the UE will resume from (0: fresh rejoin)
	ConfigFP uint64 // config fingerprint, for placement affinity and sanity checks
	Codec    uint8  // negotiated payload codec
	Blob     []byte // BS-half train state at Step (empty when Step == 0)
}

// migration is one pending handover request parked on a live session.
// The training goroutine serves it at a step boundary; retireLocked
// fails it if the session reaches a terminal state first. Exactly one
// of those closes done.
type migration struct {
	done chan struct{}
	st   *MigrationState
	err  error
}

// requestMigration parks a handover request on the session. At most one
// may be in flight per incarnation.
func (s *session) requestMigration() (*migration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state.finished() {
		return nil, fmt.Errorf("transport: session %q already finished", s.id)
	}
	if s.mig != nil {
		return nil, fmt.Errorf("transport: session %q already has a migration in flight", s.id)
	}
	m := &migration{done: make(chan struct{})}
	s.mig = m
	return m, nil
}

// takeMigration claims the pending request (nil if none), clearing it so
// the terminal path cannot double-complete it.
func (s *session) takeMigration() *migration {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.mig
	s.mig = nil
	return m
}

// cancelMigration withdraws m if it is still parked (the waiter timed
// out). A request already claimed by the training loop is served anyway.
func (s *session) cancelMigration(m *migration) {
	s.mu.Lock()
	if s.mig == m {
		s.mig = nil
	}
	s.mu.Unlock()
}

// MigrateOut hands the live session id over: it waits for the session's
// next step boundary, where the training loop checkpoints both halves,
// retires the incarnation with ErrMigrated and severs its connection —
// the UE reconnects with its resume token. The returned state is what
// the destination replica feeds to AdoptSessionState before the rejoin
// arrives. timeout ≤ 0 applies a 30s default; a session that reaches no
// step boundary within it (wedged UE) stays live and unharmed.
func (s *BSServer) MigrateOut(id string, timeout time.Duration) (*MigrationState, error) {
	if s.crashed.Load() {
		return nil, ErrReplicaCrashed
	}
	sess := s.store.findLive(id)
	if sess == nil {
		return nil, fmt.Errorf("transport: no live session %q", id)
	}
	if !s.checkpointEnabled() {
		return nil, fmt.Errorf("transport: session %q cannot migrate: checkpointing unavailable (no store or store degraded)", id)
	}
	m, err := sess.requestMigration()
	if err != nil {
		return nil, err
	}
	if timeout <= 0 {
		timeout = defaultMigrateTimeout
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-m.done:
	case <-timer.C:
		sess.cancelMigration(m)
		// The loop may have claimed the request between the timeout
		// firing and the withdrawal; honour a served handover.
		select {
		case <-m.done:
		default:
			return nil, fmt.Errorf("transport: session %q reached no step boundary within %v", id, timeout)
		}
	}
	if m.err != nil {
		return nil, m.err
	}
	return m.st, nil
}

// migrate serves a claimed handover request at a step boundary (done =
// last completed step) and returns the training loop's terminal error.
func (s *BSServer) migrate(sess *session, peer *BSPeer, m *migration, done int) error {
	fail := func(err error) error {
		m.err = err
		close(m.done)
		s.fail(sess, err)
		return err
	}
	// Make the last completed step durable on both sides. checkpoint()
	// returns nil when a degraded store skipped the write, so the blob is
	// fetched at whatever step actually became durable — which is also
	// the newest step the UE was told to save, so the resume token and
	// the blob always agree.
	if done > 0 && sess.lastCheckpoint() != done {
		if err := s.checkpoint(sess, peer, done); err != nil {
			return fail(fmt.Errorf("transport: session %q migration checkpoint at step %d: %w", sess.id, done, err))
		}
	}
	st := &MigrationState{
		ID:       sess.id,
		Epoch:    sess.epoch,
		ConfigFP: sess.hello.ConfigFP,
		Codec:    sess.hello.Codec,
		Step:     uint32(sess.lastCheckpoint()),
	}
	if st.Step > 0 {
		blob, err := s.bstore.GetCheckpoint(sess.id, int(st.Step))
		if err != nil {
			return fail(fmt.Errorf("transport: session %q migration blob at step %d: %w", sess.id, st.Step, err))
		}
		st.Blob = blob
	}
	m.st = st
	close(m.done)
	s.cfg.Logf("bs-server: session %q epoch %d migrated out at step %d", sess.id, sess.epoch, st.Step)
	s.fail(sess, ErrMigrated)
	return fmt.Errorf("transport: session %q handed over at step %d: %w", sess.id, st.Step, ErrMigrated)
}

// AdoptSessionState installs a migrated-in session's checkpoint into
// this replica's store, so the UE's reconnect-with-resume finds exactly
// the blob its token names. Call before the rejoin is routed here. A
// Step of 0 (the session had no durable progress) installs nothing —
// the rejoin simply retrains from its seed.
func (s *BSServer) AdoptSessionState(st *MigrationState) error {
	if st == nil || st.ID == "" {
		return errors.New("transport: empty migration state")
	}
	if s.crashed.Load() {
		return ErrReplicaCrashed
	}
	if !s.ckptEnabled || s.storeDegraded.Load() {
		return fmt.Errorf("transport: cannot adopt session %q: no usable checkpoint store", st.ID)
	}
	if st.Step == 0 {
		return nil
	}
	if len(st.Blob) == 0 {
		return fmt.Errorf("transport: migration state for %q names step %d but carries no blob", st.ID, st.Step)
	}
	if err := s.storeWrite(fmt.Sprintf("adopt session %q@%d", st.ID, st.Step), func() error {
		return s.bstore.PutCheckpoint(st.ID, int(st.Step), st.Blob)
	}); err != nil {
		return fmt.Errorf("transport: adopt session %q: %w", st.ID, err)
	}
	s.migratedIn.Add(1)
	s.cfg.Logf("bs-server: adopted session %q at step %d (epoch %d)", st.ID, st.Step, st.Epoch)
	return nil
}
