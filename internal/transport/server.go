package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/split"
	"repro/internal/store"
)

// BSServer is the multi-UE base station: one listener, N concurrent
// split-learning sessions. Each accepted connection performs the
// hello/ack handshake, is provisioned its own dataset/config/model from
// the hello parameters, and then runs the ordinary BSPeer training loop
// in a per-session goroutine. Sessions are fully isolated — separate
// seeds, separate model halves, separate optimiser state — so the only
// shared resource is the compute dispatcher (batcher.go) their rounds'
// BS-half compute runs on.
//
// Session records live in a sessionStore (session.go): a bounded live
// map plus a bounded retention ring of finished snapshots, so server
// memory is flat over arbitrary session churn. With a checkpoint
// store configured, sessions periodically persist both halves' train
// state and a dropped UE can reconnect and resume from the last
// checkpoint instead of restarting (see DESIGN.md §7).

// SchedPolicy, SchedAsync and ServerConfig.Sched have one value and no
// effect: sessions always step freely in parallel. They exist only
// because benchmark/harness.go assigns cfg.Sched = SchedAsync and
// benchmark/ could not be edited in the PR that deleted the round-robin
// scheduler; they go with the next benchmark PR.
type SchedPolicy int

const SchedAsync SchedPolicy = 0

// Provision builds the server-side environment for one session from its
// hello. The default, SessionEnv, derives everything deterministically
// from the hello's seed/frames/pool/modality; tests and custom
// deployments substitute their own.
type Provision func(h Hello) (split.Config, *dataset.Dataset, *dataset.Split, error)

// ServerConfig tunes a BSServer.
type ServerConfig struct {
	// ReplicaID is this server's stable identity in a coordinator-fronted
	// fleet, exported as the mmsl_replica_info{id} metric so federated
	// scrapes never collide (empty: "bs-0"). Standalone deployments can
	// ignore it.
	ReplicaID string

	MaxUE        int                              // concurrent session cap (≤0: 8)
	Sched        SchedPolicy                      // ignored (see SchedPolicy)
	Steps        int                              // max training steps per session (≤0: 200)
	EvalEvery    int                              // validate every N steps (≤0: 20)
	ValAnchors   int                              // validation anchors per evaluation (≤0: 64)
	TargetRMSEdB float64                          // stop a session early at this val RMSE (≤0: never)
	Provision    Provision                        // session environment factory (nil: SessionEnv)
	Logf         func(format string, args ...any) // optional progress log

	// IdleTimeout fails a session whose connection stalls this long
	// mid-operation (read or write), freeing its MaxUE slot; ≤0
	// disables the timeout. It binds only while an I/O operation is
	// blocked on the peer, so a session waiting on the compute dispatcher
	// with no request in flight never times out.
	IdleTimeout time.Duration

	// Store, when set, is the durable backend for checkpoints, retired
	// sessions and lifetime aggregates (see internal/store), and enables
	// checkpoint/resume: sessions persist their BS-half train state
	// into it every CheckpointEvery steps (and instruct the UE to
	// persist its half), and a reconnecting UE presenting a resume
	// token restores from the matching checkpoint. Sessions found in it
	// at construction are adopted — re-materialized into the retention
	// ring, their resume tokens honoured by a server that never served
	// them live. Nil means an in-memory mirror with checkpointing
	// disabled. The server never closes the Store; the caller owns it.
	Store store.Store

	// StoreRetries is how many times a failed store write is retried
	// (≤0: 3) with doubling backoff starting at StoreRetryBackoff
	// (≤0: 10ms) before the server degrades: serving continues,
	// checkpointing is disabled for the rest of the process, and the
	// condition is surfaced via Stats and the control plane.
	StoreRetries      int
	StoreRetryBackoff time.Duration

	// CheckpointEvery is the checkpoint interval in training steps
	// (≤0: 50). Only consulted when Store is set.
	CheckpointEvery int

	// Retain bounds the retention ring of finished-session snapshots
	// kept for reporting (≤0: 128). Live sessions are always reported.
	Retain int

	// BatchWindow is how long the compute dispatcher holds a round back
	// to coalesce it with rounds from other sessions, sharing a single
	// batched forward/backward through the model half of provably
	// identical (clone) sessions. Zero (the default) dispatches every
	// round at once, no coalescing wait. It is the boot value of
	// Policy.BatchWindow and can be changed live.
	BatchWindow time.Duration

	// BatchMax caps the rounds coalesced into one dispatch (≤0: 16).
	// A dispatch fires as soon as min(BatchMax, live sessions) rounds
	// are pending, so a full batch never waits out the window.
	BatchMax int

	// OnSessionEnd, when set, is called exactly once per session
	// incarnation as it reaches a terminal state — detached, failed or
	// superseded — with the terminal snapshot and its cause (nil for a
	// clean detach; classify with errors.Is, e.g. ErrIdleTimeout for an
	// idle eviction). The retention ring only keeps the last Retain
	// snapshots, so this hook is how fleet-scale drivers count outcomes
	// without racing the ring. It runs on the retiring session's (or,
	// for a supersede, the admitting session's) goroutine outside the
	// store lock; it may call the server's read-side accessors but must
	// not block for long.
	OnSessionEnd func(snap SessionSnapshot, cause error)
}

func (c *ServerConfig) fillDefaults() {
	if c.ReplicaID == "" {
		c.ReplicaID = "bs-0"
	}
	if c.MaxUE <= 0 {
		c.MaxUE = 8
	}
	if c.Steps <= 0 {
		c.Steps = 200
	}
	if c.EvalEvery <= 0 {
		c.EvalEvery = 20
	}
	if c.ValAnchors <= 0 {
		c.ValAnchors = 64
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 50
	}
	if c.Retain <= 0 {
		c.Retain = 128
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 16
	}
	if c.StoreRetries <= 0 {
		c.StoreRetries = 3
	}
	if c.StoreRetryBackoff <= 0 {
		c.StoreRetryBackoff = 10 * time.Millisecond
	}
	if c.Provision == nil {
		c.Provision = SessionEnv
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// errStoreDegraded marks store writes skipped because an earlier write
// already exhausted its retries and degraded the server.
var errStoreDegraded = fmt.Errorf("transport: store degraded, write skipped")

// ckptKeep is how many checkpoints are kept per session: the
// newest, plus its predecessor to cover a UE that died after the BS
// checkpointed step S but before the UE's own step-S save landed.
const ckptKeep = 2

// BSServer accepts UE connections and trains one split-learning session
// per UE.
type BSServer struct {
	cfg   ServerConfig
	store *sessionStore
	hub   *computeHub // runs every round's BS-half compute (batcher.go)
	lat   latencyRing // per-round serving latency

	// pol is the current runtime policy (see policy.go): the mutable
	// subset of cfg, swapped atomically by SetPolicy and resolved at
	// session join or round boundary, never cached across one.
	pol atomic.Pointer[Policy]

	// bstore is the durable backend (never nil after NewBSServer).
	// ckptEnabled is fixed at construction; storeDegraded flips once,
	// on the first store write that exhausts its retries, and disables
	// checkpointing for the rest of the process while serving
	// continues.
	bstore         store.Store
	ckptEnabled    bool
	adopted        int64
	storeDegraded  atomic.Bool
	storeWriteErrs atomic.Int64
	restoreErrs    atomic.Int64
	migratedIn     atomic.Int64 // sessions adopted via AdoptSessionState

	draining atomic.Bool
	crashed  atomic.Bool
	wg       sync.WaitGroup

	closeOnce sync.Once
}

// NewBSServer builds a server; zero-valued config fields take defaults.
func NewBSServer(cfg ServerConfig) (*BSServer, error) {
	cfg.fillDefaults()
	s := &BSServer{
		cfg:   cfg,
		store: newSessionStore(cfg.Retain),
	}
	boot := cfg.policy()
	s.pol.Store(&boot)
	s.store.onEnd = cfg.OnSessionEnd

	// Durable backend: a given Store enables checkpointing (the caller
	// chose durability); without one an in-memory mirror keeps the store
	// path exercised but leaves checkpointing off (resume tokens
	// refused).
	if cfg.Store != nil {
		s.bstore = cfg.Store
		s.ckptEnabled = true
	} else {
		s.bstore = store.NewMem(cfg.Retain)
	}

	// Cold-start adoption: retired sessions a predecessor left in the
	// store re-materialize into the retention ring, and the lifetime
	// accumulators resume from its aggregates — so this server honours
	// resume tokens for sessions it never served live, and a scrape
	// continues the counters where the crashed process stopped.
	if recs, err := s.bstore.RetiredSessions(); err == nil && len(recs) > 0 {
		snaps := make([]SessionSnapshot, len(recs))
		for i, rec := range recs {
			snaps[i] = snapshotFromRecord(rec)
		}
		agg := s.bstore.Aggregates()
		s.store.adopt(snaps, countsFromAggregates(agg),
			agg.Checkpoints, agg.Resumes, agg.BytesIn, agg.BytesOut)
		s.adopted = int64(len(recs))
		cfg.Logf("bs-server: adopted %d retired sessions from %s store", len(recs), s.bstore.Kind())
	}
	s.store.persist = func(snap SessionSnapshot) {
		s.storeWrite(func() string { return fmt.Sprintf("retire session %q", snap.ID) }, func() error {
			return s.bstore.RetireSession(recordFromSnapshot(snap))
		})
	}

	s.hub = newComputeHub(s.CurrentPolicy, s.store)
	return s, nil
}

// Store exposes the server's durable backend (never nil) — the handle a
// successor process adopts, and what tests inspect.
func (s *BSServer) Store() store.Store { return s.bstore }

// ReplicaID is this server's stable fleet identity (never empty).
func (s *BSServer) ReplicaID() string { return s.cfg.ReplicaID }

// StoreDegraded reports whether a store write has exhausted its retries:
// serving continues but checkpointing is disabled.
func (s *BSServer) StoreDegraded() bool { return s.storeDegraded.Load() }

// storeWrite runs one durable write with the configured capped
// retry/backoff. Exhausting the retries degrades the server — serving
// continues, checkpointing stops, the condition is surfaced in Stats —
// rather than failing sessions: a BS with a sick disk still trains.
// what describes the write for that log line; it is called only then,
// so a successful write formats nothing.
func (s *BSServer) storeWrite(what func() string, op func() error) error {
	if s.crashed.Load() {
		// A killed process writes nothing more: checkpoints and retire
		// records in flight at crash time are simply lost.
		return ErrReplicaCrashed
	}
	if s.storeDegraded.Load() {
		return errStoreDegraded
	}
	var err error
	backoff := s.cfg.StoreRetryBackoff
	for attempt := 0; ; attempt++ {
		if err = op(); err == nil {
			return nil
		}
		if attempt >= s.cfg.StoreRetries {
			break
		}
		time.Sleep(backoff)
		backoff *= 2
	}
	s.storeWriteErrs.Add(1)
	if s.storeDegraded.CompareAndSwap(false, true) {
		s.cfg.Logf("bs-server: %s store degraded (%s failed after %d attempts: %v) — serving continues, checkpointing disabled",
			s.bstore.Kind(), what(), s.cfg.StoreRetries+1, err)
	}
	return err
}

// Close stops the compute dispatcher and flushes the store, leaving it
// open: the caller owns it, and may hand it to a successor. Safe at any
// time and more than once: rounds already submitted to the dispatcher
// finish, and a session still live fails at its next round. A crashed
// server flushes nothing, like the killed process it models.
func (s *BSServer) Close() {
	s.closeOnce.Do(func() {
		s.hub.stop()
		if !s.crashed.Load() {
			if err := s.bstore.Flush(); err != nil {
				s.cfg.Logf("bs-server: store flush: %v", err)
			}
		}
	})
}

// RoundLatency reports the p50/p99 of the most recent serving rounds
// (train steps) across all sessions, and how many rounds were recorded.
func (s *BSServer) RoundLatency() (p50, p99 time.Duration, n int64) {
	return s.lat.percentiles()
}

// SharedRounds counts training rounds served by a clone group's shared
// computation instead of their own.
func (s *BSServer) SharedRounds() int64 { return s.hub.sharedRounds.Load() }

// RetainedSessions reports how many finished-session snapshots the
// retention ring currently holds (≤ ServerConfig.Retain).
func (s *BSServer) RetainedSessions() int { return s.store.retiredCount() }

// Serve accepts connections until the listener fails (closing the
// listener is the shutdown signal) and handles each in its own goroutine.
// It returns the accept error; in-flight sessions keep running — use
// Wait to join them.
func (s *BSServer) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			// A handover is an intentional ending, not a session error.
			if err := s.Handle(conn); err != nil && !IsClosedConn(err) && !errors.Is(err, ErrMigrated) {
				s.cfg.Logf("bs-server: session error: %v", err)
			}
		}()
	}
}

// Wait blocks until every Serve-spawned session has finished.
func (s *BSServer) Wait() { s.wg.Wait() }

// Drain puts the server into graceful shutdown: new sessions are
// refused, and every live session stops at its next step boundary,
// writes a final checkpoint (when checkpointing is enabled) and
// detaches its UE cleanly. Callers close the listener and Wait.
func (s *BSServer) Drain() {
	if s.draining.CompareAndSwap(false, true) {
		s.cfg.Logf("bs-server: draining — refusing new sessions, checkpointing %d live", s.store.liveCount())
	}
}

// Draining reports whether Drain has been called.
func (s *BSServer) Draining() bool { return s.draining.Load() }

// ErrReplicaCrashed is the terminal cause stamped on every session of a
// replica taken down by Crash — the uncontrolled-kill counterpart of
// ErrAdminEvicted.
var ErrReplicaCrashed = errors.New("transport: replica crashed")

// Crash simulates an uncontrolled replica kill (SIGKILL, power loss):
// every live session's connection is severed with no farewell frame, no
// drain checkpoint is taken, and — unlike a graceful Drain — nothing
// further is persisted: retire records for the killed sessions never
// reach the store, exactly as if the process died mid-flight. The
// in-process session records still retire through the normal finish
// path (stamped ErrReplicaCrashed) so tests can observe the carnage,
// but the durable store is left holding only what was already flushed:
// the per-session checkpoints that recovery resurrects from.
func (s *BSServer) Crash() {
	if !s.crashed.CompareAndSwap(false, true) {
		return
	}
	live := s.store.liveAll()
	s.cfg.Logf("bs-server: CRASH — killing %d live sessions uncleanly", len(live))
	for _, sess := range live {
		sess.kill(ErrReplicaCrashed)
	}
}

// Crashed reports whether Crash has been called.
func (s *BSServer) Crashed() bool { return s.crashed.Load() }

// Sessions returns snapshots of the retained finished sessions (oldest
// first, bounded by ServerConfig.Retain) followed by the live ones in
// join order.
func (s *BSServer) Sessions() []SessionSnapshot { return s.store.snapshots() }

// ActiveSessions counts sessions that have joined but not yet finished.
func (s *BSServer) ActiveSessions() int { return s.store.liveCount() }

// SessionByID returns the freshest snapshot for a session id: the live
// incarnation's if one is registered, else the most recently retired
// one's still in the retention ring.
func (s *BSServer) SessionByID(id string) (SessionSnapshot, bool) {
	return s.store.snapshotByID(id)
}

// Evict forcibly terminates the live session registered under id — the
// control plane's targeted kill. The session is stamped with
// ErrAdminEvicted and its connection severed; its goroutine then
// retires it through the normal finish path (OnSessionEnd fires with
// the eviction as cause). Returns an error when no live session holds
// the id.
func (s *BSServer) Evict(id string) error {
	sess := s.store.findLive(id)
	if sess == nil {
		return fmt.Errorf("transport: no live session %q", id)
	}
	s.cfg.Logf("bs-server: session %s: evicted by administrator", id)
	sess.kill(ErrAdminEvicted)
	return nil
}

// RoundLatencyHistogram snapshots the lifetime round-latency
// distribution behind RoundLatency's ring percentiles.
func (s *BSServer) RoundLatencyHistogram() LatencyHistogram {
	return s.lat.snapshotHistogram()
}

// TakeBatchQueuePeak returns the dispatcher queue's high-water mark
// since the previous call and restarts the window — the per-scrape-
// window backlog number the control plane exports.
func (s *BSServer) TakeBatchQueuePeak() int64 { return s.hub.queue.ResetPeak() }

// ServerStats is one consistent-enough read of the server's aggregate
// counters for a metrics scrape. Gauges are instantaneous; the *Total
// fields are monotonic over the process lifetime (retired sessions'
// counters are folded into store accumulators before their snapshots
// can be evicted from the retention ring).
type ServerStats struct {
	Draining bool

	LiveSessions      int   // unfinished sessions (MaxUE occupancy)
	RetainedSnapshots int   // finished-session snapshots held
	SnapshotsEvicted  int64 // snapshots dropped from the full ring

	// Sessions ended, by terminal disposition.
	EndedDetached   int64
	EndedSuperseded int64
	EndedIdle       int64
	EndedAdmin      int64
	EndedMigrated   int64
	EndedFailed     int64

	MigratedIn int64 // sessions adopted from another replica via handover

	Rounds       int64 // training rounds served (latency ring count)
	SharedRounds int64 // rounds served by proven-clone sharing
	QueueDepth   int64 // rounds inside the compute stage right now

	CheckpointsTotal int64 // train-state checkpoints written
	ResumesTotal     int64 // resumes from checkpoint granted
	BytesInTotal     int64 // wire bytes received from UEs
	BytesOutTotal    int64 // wire bytes sent to UEs

	// Durable-store health (see internal/store and DESIGN.md §11).
	StoreKind             string
	StoreDegraded         bool  // a write exhausted its retries; checkpointing disabled
	StoreJournalBytes     int64 // journal (or retire-log) file size
	StoreRecords          int64 // records appended, including replayed at open
	StoreLiveCheckpoints  int64 // checkpoint blobs currently retrievable
	StoreLiveBlobs        int64 // distinct blobs behind them (the journal stores each once)
	StoreCompactions      int64 // journal compactions performed
	StoreRecoveries       int64 // opens that truncated a torn tail
	StoreRecoveredRecords int64 // records successfully replayed at open
	StoreTruncatedBytes   int64 // torn bytes dropped by recovery
	StoreWriteErrors      int64 // store writes that exhausted their retries
	RestoreErrors         int64 // resume-token restores that failed
	AdoptedSessions       int64 // retired sessions adopted from the store at boot
}

// Stats collects the aggregate counters above.
func (s *BSServer) Stats() ServerStats {
	ss := s.store.stats()
	out := ServerStats{
		Draining:          s.draining.Load(),
		LiveSessions:      ss.live,
		RetainedSnapshots: ss.retained,
		SnapshotsEvicted:  ss.evicted,
		EndedDetached:     ss.ended.detached,
		EndedSuperseded:   ss.ended.superseded,
		EndedIdle:         ss.ended.idle,
		EndedAdmin:        ss.ended.admin,
		EndedMigrated:     ss.ended.migrated,
		EndedFailed:       ss.ended.failed,
		MigratedIn:        s.migratedIn.Load(),
		Rounds:            s.lat.n.Load(),
		SharedRounds:      s.hub.sharedRounds.Load(),
		QueueDepth:        s.hub.queue.Load(),
		CheckpointsTotal:  ss.ckpts,
		ResumesTotal:      ss.resumes,
		BytesInTotal:      ss.bytesIn,
		BytesOutTotal:     ss.bytesOut,
	}
	st := s.bstore.Stats()
	out.StoreKind = st.Kind
	out.StoreDegraded = s.storeDegraded.Load()
	out.StoreJournalBytes = st.JournalBytes
	out.StoreRecords = st.Records
	out.StoreLiveCheckpoints = st.LiveCheckpoints
	out.StoreLiveBlobs = st.LiveBlobs
	out.StoreCompactions = st.Compactions
	out.StoreRecoveries = st.Recoveries
	out.StoreRecoveredRecords = st.RecoveredRecords
	out.StoreTruncatedBytes = st.TruncatedBytes
	out.StoreWriteErrors = s.storeWriteErrs.Load()
	out.RestoreErrors = s.restoreErrs.Load()
	out.AdoptedSessions = s.adopted
	return out
}

// Handle runs one complete session incarnation — handshake, optional
// resume, training, evaluation, shutdown — synchronously over an
// established connection. Serve calls it per accepted conn; tests call
// it directly over net.Pipe.
func (s *BSServer) Handle(conn io.ReadWriteCloser) error {
	defer conn.Close()
	if s.crashed.Load() {
		// A dead process neither reads nor acks: sever silently so the
		// dialer sees a transport failure (retryable), never a
		// structured rejection (fatal).
		return ErrReplicaCrashed
	}

	// Count from the first byte so the handshake itself is part of each
	// session's wire accounting; the idle wrapper below the counter
	// frees the slot of a UE that wedges mid-frame. The hello reader's
	// pooled buffer is handed back as soon as the hello is copied out.
	// The idle timeout is policy-resolved here, at session join: each
	// incarnation binds the timeout in force when it connected.
	cc := NewCountingConn(newIdleConn(conn, s.CurrentPolicy().IdleTimeout))
	hr := NewFrameReader(cc)
	msg, err := hr.ReadMessage()
	if err != nil {
		// A structurally broken hello (another frame or hello version,
		// corrupt or truncated payload) still gets a best-effort
		// diagnostic ack so the dialer learns why it was turned away
		// instead of seeing a bare connection reset.
		hr.Release()
		err = fmt.Errorf("transport: server read hello: %w", err)
		s.refuse(cc, Hello{}, err, 0)
		return err
	}
	if msg.Type != MsgSessionHello || msg.Hello == nil {
		hr.Release()
		err := fmt.Errorf("transport: expected SessionHello, got %v", msg.Type)
		s.refuse(cc, Hello{}, err, 0)
		return err
	}
	h := *msg.Hello
	hr.Release()
	if h.Codec == CodecServerDefault {
		// The UE delegated the codec choice: grant the current policy's
		// default, resolved here at join and fixed for the session's
		// lifetime. The rewritten hello flows into provisioning, the
		// fingerprint and the ack, so every later check sees the grant.
		h.Codec = uint8(s.CurrentPolicy().DefaultCodec)
	} else if !compress.ID(h.Codec).Valid() {
		err := fmt.Errorf("transport: unknown codec id %d in hello", h.Codec)
		s.refuse(cc, h, err, 0)
		return err
	}
	if s.draining.Load() {
		err := fmt.Errorf("transport: server draining, not accepting session %q", h.SessionID)
		s.refuse(cc, h, err, 0)
		return err
	}
	if h.ResumeStep > 0 && !s.ckptEnabled {
		err := fmt.Errorf("transport: session %q requests resume but server has no checkpoint store", h.SessionID)
		s.refuse(cc, h, err, HelloFlagResumeRejected)
		return err
	}

	sess, superseded, err := s.store.admit(h, conn, s.CurrentPolicy().MaxUE)
	if err != nil {
		s.refuse(cc, h, err, 0)
		return err
	}
	if superseded != nil {
		// Fence the old epoch: its conn dies now, so its goroutine
		// unblocks and finds its record already retired.
		if superseded.closer != nil {
			_ = superseded.closer.Close()
		}
		s.cfg.Logf("bs-server: session %q epoch %d supersedes epoch %d",
			h.SessionID, sess.epoch, superseded.epoch)
	}
	sess.setConn(cc)
	if s.crashed.Load() {
		// Crash landed between the top-of-Handle check and admission:
		// retire the zombie record and sever without acking, so no
		// session outlives the kill.
		s.fail(sess, ErrReplicaCrashed)
		return ErrReplicaCrashed
	}

	cfg, d, sp, err := s.cfg.Provision(h)
	// The payload codec is a per-session handshake parameter, not a
	// provisioning concern: grant whichever valid codec the UE asked
	// for, before the fingerprint check so both ends hash it alike.
	cfg.Codec = compress.ID(h.Codec)
	if err == nil && h.ConfigFP != 0 && h.ConfigFP != cfg.Fingerprint() {
		err = fmt.Errorf("transport: session %q config fingerprint %x does not match server's %x",
			h.SessionID, h.ConfigFP, cfg.Fingerprint())
	}
	var peer *BSPeer
	if err == nil {
		peer, err = NewBSPeer(cfg, d, sp, cc)
	}
	if err != nil {
		s.fail(sess, err)
		s.refuse(cc, h, err, 0)
		return err
	}
	defer peer.release()
	if h.ResumeStep > 0 {
		// A failure from here on is specific to the resume token — the
		// same hello without it would have joined — so the rejection is
		// flagged: the UE may drop the token and retrain fresh.
		if err := s.restore(sess, peer, int(h.ResumeStep)); err != nil {
			s.fail(sess, err)
			s.refuse(cc, h, err, HelloFlagResumeRejected)
			return err
		}
	}

	// The UE's own stopping criterion wins over the server default; the
	// ack echoes whichever is in force for the session.
	target := s.cfg.TargetRMSEdB
	if h.TargetRMSEdB > 0 {
		target = h.TargetRMSEdB
	}
	ack := Hello{
		SessionID: h.SessionID, Seed: h.Seed,
		Frames: h.Frames, Pool: h.Pool, Modality: h.Modality,
		ConfigFP: cfg.Fingerprint(), TargetRMSEdB: target, Codec: h.Codec,
		Epoch: sess.epoch, ResumeStep: h.ResumeStep,
	}
	if err := WriteMessage(cc, &Message{Type: MsgSessionAck, Hello: &ack}); err != nil {
		err = fmt.Errorf("transport: server write ack: %w", err)
		s.fail(sess, err)
		return err
	}
	if h.ResumeStep > 0 {
		s.cfg.Logf("bs-server: session %q epoch %d resumed from step %d (seed %d, %s codec)",
			h.SessionID, sess.epoch, h.ResumeStep, h.Seed, compress.ID(h.Codec))
	} else {
		s.cfg.Logf("bs-server: session %q joined (seed %d, pool %d, %s, %s codec)",
			h.SessionID, h.Seed, h.Pool, split.Modality(h.Modality), compress.ID(h.Codec))
	}

	return s.train(sess, peer, sp, target, int(h.ResumeStep))
}

// fail finishes a session on an error (no-op if already fenced).
func (s *BSServer) fail(sess *session, err error) {
	s.store.finish(sess, SessionFailed, err)
}

// refuse best-effort sends a rejection ack. A hello whose resume token
// — not the join as such — is the problem is refused with
// HelloFlagResumeRejected, so the UE knows a fresh rejoin can cure it.
func (s *BSServer) refuse(conn io.Writer, h Hello, cause error, flags uint8) {
	_ = WriteRefusal(conn, h.SessionID, cause, flags)
	s.cfg.Logf("bs-server: refused session %q: %v", h.SessionID, cause)
}

// train drives one admitted session to completion, starting after the
// given resume step (0 for a fresh join).
func (s *BSServer) train(sess *session, peer *BSPeer, sp *dataset.Split, target float64, start int) error {
	val := spreadAnchors(sp.Val, s.cfg.ValAnchors)
	sess.setState(SessionTraining)
	done := start // last completed step
	drained := false
	for step := start + 1; step <= s.cfg.Steps; step++ {
		if s.draining.Load() {
			drained = true
			break
		}
		// A parked handover is served here, at the same boundary a drain
		// binds: the last completed step is checkpointed on both halves
		// and the incarnation retired with ErrMigrated (migrate.go).
		if m := sess.takeMigration(); m != nil {
			return s.migrate(sess, peer, m, done)
		}
		t0 := time.Now()
		loss, err := peer.trainStep(s.hub.submit)
		s.lat.record(time.Since(t0))
		var rmse float64
		evalDue := err == nil && (step%s.cfg.EvalEvery == 0 || step == s.cfg.Steps)
		if evalDue {
			sess.setState(SessionEvaluating)
			rmse, err = peer.Evaluate(val)
			sess.setState(SessionTraining)
		}
		if err != nil {
			s.fail(sess, err)
			return fmt.Errorf("transport: session %q step %d: %w", sess.id, step, err)
		}
		done = step
		stop := sess.record(step, loss, evalDue, rmse, target)
		if s.checkpointDue(step, stop) {
			if err := s.checkpoint(sess, peer, step); err != nil {
				s.fail(sess, err)
				return fmt.Errorf("transport: session %q checkpoint at step %d: %w", sess.id, step, err)
			}
		}
		if stop {
			break
		}
	}
	// A drain that interrupted the schedule still leaves a resumable
	// checkpoint at the last completed step, and tells the UE (via the
	// shutdown's step field) to keep its half for a later resume. A
	// session that ran to completion instead garbage-collects everything
	// but its final checkpoint — the terminal model artifact.
	var shutdownStep uint32
	if drained && s.checkpointEnabled() {
		if done > start && sess.lastCheckpoint() != done {
			if err := s.checkpoint(sess, peer, done); err != nil {
				s.fail(sess, err)
				return fmt.Errorf("transport: session %q drain checkpoint: %w", sess.id, err)
			}
		}
		shutdownStep = uint32(sess.lastCheckpoint())
		sess.mu.Lock()
		sess.drained = true
		sess.mu.Unlock()
	}
	if err := peer.ShutdownAt(shutdownStep); err != nil {
		s.fail(sess, err)
		return fmt.Errorf("transport: session %q shutdown: %w", sess.id, err)
	}
	s.store.finish(sess, SessionDetached, nil)
	if !drained && s.checkpointEnabled() {
		s.pruneCheckpoints(sess, done)
	}
	snap := sess.snapshot()
	s.cfg.Logf("bs-server: session %q detached after %d steps (val RMSE %.2f dB)",
		sess.id, snap.Steps, snap.LastRMSE)
	return nil
}

// pruneCheckpoints garbage-collects a completed session's checkpoints
// — every incarnation's intermediates — keeping only the final step's
// as the terminal artifact, so the store stays flat over session
// churn. Failed and drained sessions keep theirs: they are the resume
// material. A never-resumed incarnation knows every checkpoint it
// wrote (its checkpoint ring), so the common case deletes those
// directly; only a resumed incarnation — whose predecessors may have
// left checkpoints outside its ring — asks the store to list the id's
// steps.
func (s *BSServer) pruneCheckpoints(sess *session, final int) {
	steps, resumed := sess.ckptHistory()
	if resumed {
		// Predecessors may have left checkpoints outside this
		// incarnation's ring; ask the store for the full set.
		if all, err := s.bstore.CheckpointSteps(sess.id); err == nil {
			steps = all
		}
	}
	for _, step := range steps {
		if step == final {
			continue
		}
		if err := s.bstore.DeleteCheckpoint(sess.id, step); err != nil && sess.logPruneErrOnce() {
			s.cfg.Logf("bs-server: session %q: pruning checkpoint at step %d: %v (suppressing further prune errors for this session)",
				sess.id, step, err)
		}
	}
}

// checkpointEnabled reports whether sessions checkpoint: the server
// needs a durable store that has not degraded.
func (s *BSServer) checkpointEnabled() bool {
	return s.ckptEnabled && !s.storeDegraded.Load()
}

func (s *BSServer) checkpointDue(step int, last bool) bool {
	if !s.checkpointEnabled() {
		return false
	}
	// The interval is policy-resolved at each step boundary, so a live
	// reconfiguration changes only when future checkpoints land — never
	// their content (invariant 7 holds for any checkpoint schedule).
	return step%s.CurrentPolicy().CheckpointEvery == 0 || last || step == s.cfg.Steps
}

// ckptBufPool holds the grow-only buffers checkpoint serialises into.
var ckptBufPool = sync.Pool{New: func() any { return new([]byte) }}

// checkpoint persists the BS half's train state at step and instructs
// the UE to persist its half. Serialization and connection errors are
// surfaced — they are session-fatal — but a store write that exhausts
// its retries degrades the server instead (serving continues,
// checkpointing stops) and is NOT fatal: the UE is simply never told a
// checkpoint exists, so its resume token keeps naming the last one that
// actually became durable.
func (s *BSServer) checkpoint(sess *session, peer *BSPeer, step int) error {
	// The blob lives in a pooled buffer for the duration of the call (no
	// Store keeps the slice past PutCheckpoint's return), not in a
	// per-session one: ~108 KB × every parked session would be resident.
	bp := ckptBufPool.Get().(*[]byte)
	defer ckptBufPool.Put(bp)
	blob, err := peer.AppendState((*bp)[:0], step)
	if err != nil {
		return err
	}
	*bp = blob
	if err := s.storeWrite(func() string { return fmt.Sprintf("checkpoint %q@%d", sess.id, step) }, func() error {
		return s.bstore.PutCheckpoint(sess.id, step, blob)
	}); err != nil {
		return nil // degraded, not session-fatal
	}
	for _, old := range sess.recordCheckpoint(step, ckptKeep) {
		if err := s.bstore.DeleteCheckpoint(sess.id, old); err != nil && sess.logPruneErrOnce() {
			s.cfg.Logf("bs-server: session %q: pruning checkpoint at step %d: %v (suppressing further prune errors for this session)",
				sess.id, old, err)
		}
	}
	return peer.writeControl(&Message{Type: MsgCheckpoint, Step: uint32(step)})
}

// restore loads the BS-half checkpoint the resume token names into the
// freshly provisioned peer. The checkpoint's stored fingerprint must
// match the session's current one — resuming across a drifted
// configuration is rejected at join time.
func (s *BSServer) restore(sess *session, peer *BSPeer, step int) error {
	blob, err := s.bstore.GetCheckpoint(sess.id, step)
	if err != nil {
		s.restoreErrs.Add(1)
		return fmt.Errorf("transport: session %q has no checkpoint at step %d", sess.id, step)
	}
	got, err := peer.RestoreState(bytes.NewReader(blob))
	if err != nil {
		s.restoreErrs.Add(1)
		return fmt.Errorf("transport: session %q resume from step %d: %w", sess.id, step, err)
	}
	if got != step {
		s.restoreErrs.Add(1)
		return fmt.Errorf("transport: session %q checkpoint holds step %d, token says %d", sess.id, got, step)
	}
	sess.markResumed(step)
	return nil
}

// lastCheckpoint returns the newest stored checkpoint step (0: none).
func (s *session) lastCheckpoint() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ckptSteps) == 0 {
		return 0
	}
	return s.ckptSteps[len(s.ckptSteps)-1]
}

// spreadAnchors subsamples up to n anchors evenly across the whole
// validation period instead of one contiguous window.
func spreadAnchors(val []int, n int) []int {
	if len(val) <= n {
		return val
	}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, val[i*len(val)/n])
	}
	return out
}
