// Package chaos wraps a fleet replica with the failure modes the
// crash-failover machinery must survive: an uncontrolled kill
// (optionally tearing the final store write on the way down, as a power
// cut would), a freeze (probe and dial stall — the gray/dead boundary),
// and a rejoin that boots a fresh server incarnation on the same
// durable store. The wrapper satisfies coord.Replica, so a chaos fleet
// runs byte-identical routing, handover and recovery code to a healthy
// one; only the injected failures differ.
package chaos

import (
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/coord"
	"repro/internal/store"
	"repro/internal/transport"
)

// Config builds a chaos replica.
type Config struct {
	// Make builds one server incarnation on the given store — called at
	// construction and again on every Rejoin, so a rejoined replica
	// runs cold-start adoption exactly like a restarted process.
	Make func(st store.Store) (*transport.BSServer, error)

	// Store is the initial open store backing the first incarnation.
	Store store.Store

	// Reopen reopens the durable store from its medium after a kill
	// (typically store.OpenForTakeover). nil means the store object
	// itself survives the kill in-process (mem backend): Kill leaves it
	// open and Rejoin reuses it.
	Reopen func() (store.Store, error)

	// Tear, when set, is invoked at the instant of an unclean kill —
	// before the store is closed — to corrupt the in-flight write
	// (e.g. store.FaultFS.Trip).
	Tear func()

	// HandlerWG, when set, tracks every Dial's handler goroutine — the
	// fleet soak's leak accounting.
	HandlerWG *sync.WaitGroup

	// Logf receives diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// Replica is a coord.Replica with failure injection. All methods are
// safe for concurrent use; the coordinator keeps routing to it across
// kill/rejoin cycles and observes the transitions only through probes
// and severed connections, like it would a remote process.
type Replica struct {
	cfg  Config
	id   string
	logf func(string, ...any)

	mu         sync.Mutex
	cur        *coord.LocalReplica // current incarnation
	st         store.Store         // open store handle, nil while killed (durable backends)
	killed     bool
	takenOver  bool // store handle currently lent to a coordinator takeover
	stallUntil time.Time

	kills   int
	rejoins int
}

// New builds the first incarnation.
func New(cfg Config) (*Replica, error) {
	if cfg.Make == nil || cfg.Store == nil {
		return nil, errors.New("chaos: Config.Make and Config.Store are required")
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	bs, err := cfg.Make(cfg.Store)
	if err != nil {
		return nil, err
	}
	return &Replica{
		cfg:  cfg,
		id:   bs.ReplicaID(),
		logf: logf,
		cur:  coord.NewLocalReplica(bs),
		st:   cfg.Store,
	}, nil
}

// current returns the live incarnation wrapper.
func (r *Replica) current() *coord.LocalReplica {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur
}

// BS exposes the current incarnation's server (control plane, fleet
// accounting).
func (r *Replica) BS() *transport.BSServer { return r.current().BS() }

// Kill is the uncontrolled replica death: the server crashes (sessions
// severed mid-frame, nothing further persisted), tear corrupts the
// in-flight store write when requested, and for durable backends the
// store handle is closed — the kernel dropping a dead process's flock —
// so a survivor can take the lock over.
func (r *Replica) Kill(tear bool) {
	r.mu.Lock()
	if r.killed {
		r.mu.Unlock()
		return
	}
	r.killed = true
	r.kills++
	cur, st := r.cur, r.st
	if r.cfg.Reopen != nil {
		r.st = nil
	}
	r.mu.Unlock()

	r.logf("chaos: replica %s killed (tear=%v)", r.id, tear)
	cur.BS().Crash()
	if tear && r.cfg.Tear != nil {
		r.cfg.Tear()
	}
	// The dead incarnation's dispatcher workers go with it (a crashed
	// server's Close flushes nothing); Rejoin boots a fresh server.
	cur.BS().Close()
	if r.cfg.Reopen != nil && st != nil {
		st.Close() // kernel releases the flock with the process
	}
}

// Stall freezes the replica for d: probes (and fresh dials) block until
// the stall elapses, so a long-enough stall reads as death to the
// detector and a shorter one as a gray replica.
func (r *Replica) Stall(d time.Duration) {
	r.mu.Lock()
	r.stallUntil = time.Now().Add(d)
	r.mu.Unlock()
	r.logf("chaos: replica %s stalled for %v", r.id, d)
}

// stall blocks while a stall window is open.
func (r *Replica) stall() {
	r.mu.Lock()
	until := r.stallUntil
	r.mu.Unlock()
	if d := time.Until(until); d > 0 {
		time.Sleep(d)
	}
}

// Rejoin boots a fresh server incarnation, reopening the durable store
// (replay truncates any torn tail the kill left) and running cold-start
// adoption — the restarted-process path. The detector then sees healthy
// probes and readmits the replica to placement after its quota.
func (r *Replica) Rejoin() error {
	r.mu.Lock()
	if !r.killed {
		r.mu.Unlock()
		return errors.New("chaos: rejoin of a live replica")
	}
	st := r.st
	r.mu.Unlock()

	if st == nil {
		if r.cfg.Reopen == nil {
			return errors.New("chaos: no store to rejoin on")
		}
		var err error
		st, err = r.cfg.Reopen()
		if err != nil {
			return err
		}
	}
	bs, err := r.cfg.Make(st)
	if err != nil {
		st.Close()
		return err
	}
	r.mu.Lock()
	r.cur = coord.NewLocalReplica(bs)
	r.st = st
	r.killed = false
	r.rejoins++
	r.mu.Unlock()
	r.logf("chaos: replica %s rejoined (%d sessions adopted from store)", r.id, bs.Stats().AdoptedSessions)
	return nil
}

// Kills and Rejoins report the injected-failure counts.
func (r *Replica) Kills() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.kills
}

func (r *Replica) Rejoins() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rejoins
}

// ---- coord.Replica ----------------------------------------------------------

func (r *Replica) ID() string { return r.id }

// Dial connects to the current incarnation; handler goroutines land on
// the configured WaitGroup. A stalled replica accepts late; a killed
// one severs immediately (its Handle refuses without acking).
func (r *Replica) Dial() (io.ReadWriteCloser, error) {
	r.stall()
	bs := r.current().BS()
	ueEnd, bsEnd := net.Pipe()
	if wg := r.cfg.HandlerWG; wg != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = bs.Handle(bsEnd)
		}()
	} else {
		go func() { _ = bs.Handle(bsEnd) }()
	}
	return ueEnd, nil
}

func (r *Replica) Live() int                     { return r.current().Live() }
func (r *Replica) Draining() bool                { return r.current().Draining() }
func (r *Replica) ServesConfigFP(fp uint64) bool { return r.current().ServesConfigFP(fp) }
func (r *Replica) LiveSessions() []string        { return r.current().LiveSessions() }

func (r *Replica) MigrateOut(id string, timeout time.Duration) (*transport.MigrationState, error) {
	return r.current().MigrateOut(id, timeout)
}

func (r *Replica) Adopt(st *transport.MigrationState) error { return r.current().Adopt(st) }

// Probe stalls with the replica and reports the current incarnation's
// liveness, so a frozen replica shows up as probe latency (gray) or
// probe timeout (suspect→dead), and a killed one fails fast.
func (r *Replica) Probe() error {
	r.stall()
	return r.current().Probe()
}

// Crashed lets the coordinator attribute severed relays.
func (r *Replica) Crashed() bool { return r.current().Crashed() }

// TakeoverStore implements coord.RecoverySource. For durable backends
// the killed replica's store is reopened from its medium (waiting out
// the flock release); for in-process stores the surviving object is
// lent out directly. While lent out, Rejoin must wait — release makes
// the handle available again.
func (r *Replica) TakeoverStore() (store.Store, func(), error) {
	r.mu.Lock()
	st, killed := r.st, r.killed
	r.mu.Unlock()
	if !killed {
		// Not a crash (an operator drill against a live replica):
		// recovery reads the live store object.
		return r.current().TakeoverStore()
	}
	if st != nil {
		return st, func() {}, nil // in-process store survives its server
	}
	if r.cfg.Reopen == nil {
		return nil, nil, errors.New("chaos: killed replica has no reopenable store")
	}
	reopened, err := r.cfg.Reopen()
	if err != nil {
		return nil, nil, err
	}
	// Hand the reopened store back to the replica on release so a later
	// Rejoin adopts from the same handle instead of fighting the flock.
	r.mu.Lock()
	r.takenOver = true
	r.mu.Unlock()
	release := func() {
		r.mu.Lock()
		if r.killed && r.st == nil {
			r.st = reopened
			r.takenOver = false
			r.mu.Unlock()
			return
		}
		r.takenOver = false
		r.mu.Unlock()
		reopened.Close()
	}
	return reopened, release, nil
}
