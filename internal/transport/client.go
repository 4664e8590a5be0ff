package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/split"
	"repro/internal/store"
)

// UE-side helpers for joining a BSServer: the BS listens and each UE
// dials in, announces its session parameters with
// a SessionHello, and serves its CNN half once the BS acks. UESession
// adds the fault-tolerant loop on top: auto-reconnect with capped
// exponential backoff, checkpointing of the UE half on the BS's
// MsgCheckpoint instruction, and resume-from-checkpoint on rejoin.

// SessionEnv derives the dataset, configuration and train/val split that
// a hello describes — the deterministic contract shared by a UE and the
// default BSServer provisioner, so both ends reconstruct identical
// environments from the handshake alone (in a real deployment the
// dataset is the shared physical environment).
func SessionEnv(h Hello) (split.Config, *dataset.Dataset, *dataset.Split, error) {
	if h.Frames == 0 || h.Pool == 0 {
		return split.Config{}, nil, nil, fmt.Errorf("transport: hello needs frames and pool (got %d, %d)", h.Frames, h.Pool)
	}
	gen := dataset.DefaultGenConfig()
	gen.NumFrames = int(h.Frames)
	gen.Seed = h.Seed
	d, err := dataset.Generate(gen)
	if err != nil {
		return split.Config{}, nil, nil, err
	}
	cfg := split.DefaultConfig(split.Modality(h.Modality), int(h.Pool))
	cfg.Seed = h.Seed
	cfg.Codec = compress.ID(h.Codec)
	sp, err := dataset.NewSplit(d, cfg.SeqLen, cfg.HorizonFrames, d.Len()*3/4)
	if err != nil {
		return split.Config{}, nil, nil, err
	}
	return cfg, d, sp, nil
}

// ErrSessionRejected marks a hello the BS answered with a rejection ack
// — a deliberate refusal (full server, fingerprint mismatch, missing
// checkpoint), as opposed to a transport failure worth retrying.
var ErrSessionRejected = errors.New("transport: session rejected")

// ErrResumeRejected additionally marks a rejection the BS flagged as
// specific to the resume token (HelloFlagResumeRejected): the same
// hello without the token would have joined, so dropping the
// checkpoint and retraining fresh can cure it.
var ErrResumeRejected = errors.New("transport: resume token rejected")

// JoinSession performs the UE side of the handshake: it sends the hello
// and waits for the ack, returning the BS's echoed session parameters.
// A rejection ack becomes an error wrapping ErrSessionRejected with the
// BS's reason.
func JoinSession(conn io.ReadWriter, h Hello) (*Hello, error) {
	if err := WriteMessage(conn, &Message{Type: MsgSessionHello, Hello: &h}); err != nil {
		return nil, fmt.Errorf("transport: UE write hello: %w", err)
	}
	reply, err := ReadMessage(conn)
	if err != nil {
		return nil, fmt.Errorf("transport: UE read ack: %w", err)
	}
	if reply.Type != MsgSessionAck || reply.Hello == nil {
		return nil, fmt.Errorf("transport: UE expected SessionAck, got %v", reply.Type)
	}
	if reply.Hello.Err != "" {
		if reply.Hello.Flags&HelloFlagResumeRejected != 0 {
			return nil, fmt.Errorf("%w (%w): session %q: %s",
				ErrSessionRejected, ErrResumeRejected, h.SessionID, reply.Hello.Err)
		}
		return nil, fmt.Errorf("%w: session %q: %s", ErrSessionRejected, h.SessionID, reply.Hello.Err)
	}
	if reply.Hello.SessionID != h.SessionID {
		return nil, fmt.Errorf("transport: ack for session %q, want %q", reply.Hello.SessionID, h.SessionID)
	}
	if h.Codec == CodecServerDefault {
		// The UE asked the BS to pick; the ack must carry a concrete
		// grant, whatever the server's current default is.
		if !compress.ID(reply.Hello.Codec).Valid() {
			return nil, fmt.Errorf("transport: BS granted unknown codec id %d for server-default request",
				reply.Hello.Codec)
		}
	} else if reply.Hello.Codec != h.Codec {
		return nil, fmt.Errorf("transport: BS granted codec %v, requested %v",
			compress.ID(reply.Hello.Codec), compress.ID(h.Codec))
	}
	if reply.Hello.ResumeStep != h.ResumeStep {
		return nil, fmt.Errorf("transport: BS granted resume from step %d, requested %d",
			reply.Hello.ResumeStep, h.ResumeStep)
	}
	return reply.Hello, nil
}

// ServeUE joins a session on an established connection and serves the UE
// half until the BS shuts the session down. The config and dataset must
// be the ones the hello describes (SessionEnv derives them); setting
// h.ConfigFP beforehand lets the BS verify that. A hello requesting
// CodecServerDefault adopts the codec the ack grants (and must leave
// ConfigFP zero — the fingerprint covers the codec). For
// reconnect/resume across connection failures, use UESession instead.
func ServeUE(conn io.ReadWriter, h Hello, cfg split.Config, d *dataset.Dataset) error {
	ack, err := JoinSession(conn, h)
	if err != nil {
		return err
	}
	if h.Codec == CodecServerDefault {
		cfg.Codec = compress.ID(ack.Codec)
	}
	ue, err := NewUEPeer(cfg, d, conn)
	if err != nil {
		return err
	}
	return ue.Serve()
}

// Backoff is a capped exponential reconnect schedule with full jitter:
// each wait is drawn uniformly from (0, ceiling] where the ceiling is
// the deterministic capped-exponential value. Jitter is what breaks the
// thundering herd when a replica dies — without it every UE of that
// replica retries at exactly the same instant, forever in lockstep.
type Backoff struct {
	Base    time.Duration // ceiling before the first retry (≤0: 100ms)
	Max     time.Duration // ceiling cap (≤0: 5s)
	Factor  float64       // ceiling growth per consecutive failure (≤1: 2)
	Retries int           // consecutive failures before giving up (≤0: 6)

	// NoJitter disables the random draw and sleeps the full ceiling —
	// for tests that assert exact schedules.
	NoJitter bool
}

func (b Backoff) withDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = 100 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 5 * time.Second
	}
	if b.Factor <= 1 {
		b.Factor = 2
	}
	if b.Retries <= 0 {
		b.Retries = 6
	}
	return b
}

// Delay returns the wait before retry number attempt (1-based): the
// capped-exponential ceiling with full jitter applied unless NoJitter.
func (b Backoff) Delay(attempt int) time.Duration {
	d := b.Base
	for i := 1; i < attempt && d < b.Max; i++ {
		d = time.Duration(float64(d) * b.Factor)
	}
	if d > b.Max {
		d = b.Max
	}
	if b.NoJitter || d <= 1 {
		return d
	}
	return time.Duration(1 + rand.Int63n(int64(d)))
}

// UESession runs the UE half of one split-learning session with
// auto-reconnect and checkpoint/resume: it dials, joins (resuming from
// the last checkpoint when one exists), serves the CNN half, and on a
// connection failure reconnects under the Backoff schedule. It returns
// nil when the BS detaches the session cleanly.
type UESession struct {
	Hello Hello            // session parameters; ConfigFP is filled from Cfg if zero
	Cfg   split.Config     // must be the config the hello describes
	Data  *dataset.Dataset // must be the dataset the hello describes

	// CheckpointDir, when non-empty, persists the UE half's checkpoints
	// to disk so even a killed-and-restarted UE process can resume; when
	// empty, checkpoints are held in memory and survive reconnects only
	// within this process.
	CheckpointDir string

	Backoff Backoff
	Logf    func(format string, args ...any)

	// OnRequest, when set, is installed on every incarnation's UEPeer
	// (see UEPeer.OnRequest): it observes each BS request across
	// reconnects, the hook fleet load generators use for think time.
	OnRequest func(t MsgType, step uint32) error

	// sleep is the retry delay hook (tests shrink it); nil: time.Sleep.
	sleep func(time.Duration)

	mu       sync.Mutex
	ckpt     []byte // latest UE-half train state
	ckptStep uint32
	epoch    uint32
	resumes  int
}

// Resumes reports how many times the session resumed from a checkpoint.
func (s *UESession) Resumes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resumes
}

// LastCheckpointStep reports the newest checkpointed step (0: none).
func (s *UESession) LastCheckpointStep() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ckptStep
}

// CheckpointBytes returns a copy of the latest UE-half checkpoint (nil
// before the first one) — the handle the bit-identity invariants
// compare across resumed, migrated and uninterrupted runs.
func (s *UESession) CheckpointBytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.ckpt...)
}

// ckptFile names the on-disk UE-half checkpoint.
func (s *UESession) ckptFile() string {
	return filepath.Join(s.CheckpointDir, ckptFileName(s.Hello.SessionID, "ue"))
}

// Run drives the session to clean detach, dialling through dial for the
// initial connection and every reconnect. Deliberate rejections
// (ErrSessionRejected) and local configuration errors are fatal;
// transport failures retry under the Backoff schedule, resuming from the
// last checkpoint the BS instructed the UE to take.
func (s *UESession) Run(dial func() (io.ReadWriteCloser, error)) error {
	logf := s.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	sleep := s.sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	bo := s.Backoff.withDefaults()
	if s.Hello.ConfigFP == 0 && s.Hello.Codec != CodecServerDefault {
		// A server-default codec request cannot carry a fingerprint: the
		// fingerprint covers the codec, which only the ack decides.
		s.Hello.ConfigFP = s.Cfg.Fingerprint()
	}
	if s.CheckpointDir != "" {
		s.loadDiskCheckpoint(logf)
	}

	failures := 0
	var lastErr error
	for failures <= bo.Retries {
		if failures > 0 {
			d := bo.Delay(failures)
			logf("ue-session %q: reconnect %d/%d in %v (%v)",
				s.Hello.SessionID, failures, bo.Retries, d, lastErr)
			sleep(d)
		}
		conn, err := dial()
		if err != nil {
			failures++
			lastErr = err
			continue
		}
		before := s.LastCheckpointStep()
		resumeTried := before > 0
		err = s.serveOnce(conn, logf)
		conn.Close()
		switch {
		case err == nil:
			return nil
		case errors.Is(err, ErrSessionRejected):
			// Resume is best-effort: a BS that lost (or refuses) the
			// checkpoint should cost the fleet a retraining, not a
			// manual intervention. Drop the token and rejoin fresh
			// when the BS flagged the rejection as resume-specific;
			// any other rejection is deliberate and fatal.
			if resumeTried && errors.Is(err, ErrResumeRejected) {
				logf("ue-session %q: resume rejected, rejoining fresh (%v)", s.Hello.SessionID, err)
				s.clearCheckpoint()
				failures++
				lastErr = err
				continue
			}
			return err
		}
		if s.LastCheckpointStep() > before {
			// The incarnation made checkpointed progress; a later drop is
			// a fresh outage, not the same one worsening.
			failures = 0
		}
		failures++
		lastErr = err
	}
	return fmt.Errorf("transport: session %q gave up after %d reconnect attempts: %w",
		s.Hello.SessionID, bo.Retries, lastErr)
}

// clearCheckpoint drops the resume token, in memory and on disk.
func (s *UESession) clearCheckpoint() {
	s.mu.Lock()
	s.ckpt, s.ckptStep = nil, 0
	s.mu.Unlock()
	if s.CheckpointDir != "" {
		os.Remove(s.ckptFile())
	}
}

// serveOnce runs one connection: join (with resume token when a
// checkpoint exists), restore, serve until shutdown or failure.
func (s *UESession) serveOnce(conn io.ReadWriteCloser, logf func(string, ...any)) error {
	h := s.Hello
	s.mu.Lock()
	resumeFrom, ckpt, epoch := s.ckptStep, s.ckpt, s.epoch
	s.mu.Unlock()
	if resumeFrom > 0 {
		h.ResumeStep, h.Epoch = resumeFrom, epoch
	}
	ack, err := JoinSession(conn, h)
	if err != nil {
		return err
	}
	cfg := s.Cfg
	if h.Codec == CodecServerDefault {
		// Adopt the granted codec per incarnation: the server's default
		// may change between reconnects, and the UE-half checkpoint is
		// codec-independent, so each incarnation simply speaks whatever
		// this join granted.
		cfg.Codec = compress.ID(ack.Codec)
	}
	ue, err := NewUEPeer(cfg, s.Data, conn)
	if err != nil {
		return err
	}
	if resumeFrom > 0 {
		step, err := ue.RestoreState(bytes.NewReader(ckpt))
		if err != nil {
			return fmt.Errorf("transport: session %q restore UE half: %w", h.SessionID, err)
		}
		if uint32(step) != resumeFrom {
			return fmt.Errorf("transport: session %q UE checkpoint holds step %d, want %d",
				h.SessionID, step, resumeFrom)
		}
		logf("ue-session %q: resumed from step %d (epoch %d)", h.SessionID, step, ack.Epoch)
	}
	ue.OnCheckpoint = func(step uint32) error { return s.saveCheckpoint(ue, step) }
	ue.OnRequest = s.OnRequest
	s.mu.Lock()
	s.epoch = ack.Epoch
	if resumeFrom > 0 {
		s.resumes++
	}
	s.mu.Unlock()
	if err := ue.Serve(); err != nil {
		return err
	}
	// A complete session (shutdown step 0, as opposed to a resumable
	// drain) has no further use for its on-disk checkpoint — leaving it
	// would make a later relaunch of the same session id silently
	// "resume" at the final step and train nothing.
	if ue.ShutdownStep() == 0 && s.CheckpointDir != "" {
		os.Remove(s.ckptFile())
	}
	return nil
}

// saveCheckpoint snapshots the UE half at step into memory and, when
// configured, to disk (atomically, via rename).
func (s *UESession) saveCheckpoint(ue *UEPeer, step uint32) error {
	// A fresh buffer each time — the previous snapshot may still be in a
	// reader's hands — sized by the last one, which is the same length.
	s.mu.Lock()
	size := len(s.ckpt)
	s.mu.Unlock()
	blob, err := ue.AppendState(make([]byte, 0, size), int(step))
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.ckpt, s.ckptStep = blob, step
	s.mu.Unlock()
	if s.CheckpointDir == "" {
		return nil
	}
	return store.WriteFileAtomic(s.ckptFile(), func(w io.Writer) error {
		_, err := w.Write(blob)
		return err
	})
}

// loadDiskCheckpoint primes the in-memory resume state from a previous
// process's on-disk checkpoint, if one exists and still matches the
// session configuration.
func (s *UESession) loadDiskCheckpoint(logf func(string, ...any)) {
	data, err := os.ReadFile(s.ckptFile())
	if err != nil {
		return
	}
	// Probe-restore into a throwaway peer to validate the bytes before
	// committing to a resume token.
	probe, err := NewUEPeer(s.Cfg, s.Data, nil)
	if err != nil {
		return
	}
	step, err := probe.RestoreState(bytes.NewReader(data))
	if err != nil || step <= 0 {
		logf("ue-session %q: ignoring stale on-disk checkpoint: %v", s.Hello.SessionID, err)
		return
	}
	s.mu.Lock()
	s.ckpt, s.ckptStep = data, uint32(step)
	s.mu.Unlock()
	logf("ue-session %q: found on-disk checkpoint at step %d", s.Hello.SessionID, step)
}

// ckptFileName sanitises a UE-chosen session id into a stable file name
// for half's checkpoint.
func ckptFileName(id, half string) string {
	return fmt.Sprintf("%s.%s.ckpt", store.SanitizeID(id), half)
}
