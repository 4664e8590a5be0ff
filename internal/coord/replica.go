package coord

import (
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/store"
	"repro/internal/transport"
)

// Replica is the coordinator's handle on one BS server of the fleet.
// The coordinator only ever routes and orchestrates through this
// interface, so a replica can live in-process (LocalReplica, the fleet
// simulator and single-binary deployments) or behind the wire (an
// adapter dialling the replica's TCP port and admin API) without the
// placement or handover logic noticing.
type Replica interface {
	// ID is the stable replica identity (the mmsl_replica_info{id} label).
	ID() string

	// Dial opens a fresh connection that the replica serves with its
	// normal per-connection handler; the coordinator splices the UE's
	// connection onto it after routing the hello.
	Dial() (io.ReadWriteCloser, error)

	// Live is the replica's unfinished-session count — the load signal
	// placement balances on.
	Live() int

	// Draining reports whether the replica is refusing new joins.
	Draining() bool

	// ServesConfigFP reports whether the replica currently holds a live
	// session with the given config fingerprint — the affinity signal
	// that packs clone-fingerprint sessions onto one replica where the
	// server's clone batching multiplies them.
	ServesConfigFP(fp uint64) bool

	// LiveSessions lists the ids of unfinished sessions, for rebalance
	// candidate selection.
	LiveSessions() []string

	// MigrateOut checkpoints and retires the named live session,
	// returning its portable state (see transport.MigrationState).
	MigrateOut(id string, timeout time.Duration) (*transport.MigrationState, error)

	// Adopt installs migrated session state so a resume hello for that
	// session succeeds here.
	Adopt(st *transport.MigrationState) error

	// Probe is the failure detector's liveness check: it returns nil
	// from a healthy replica and an error from a dead one. A frozen
	// replica simply takes long — the detector times the call and
	// classifies slow-but-alive (gray) separately from dead.
	Probe() error
}

// RecoverySource is the optional capability crash failover needs: after
// a replica is declared dead, TakeoverStore opens (or surfaces) its
// durable store so survivors can adopt the checkpoints it left behind.
// The release func returns the store when recovery is done; it must be
// called exactly once and may be a no-op for in-process stores.
type RecoverySource interface {
	TakeoverStore() (st store.Store, release func(), err error)
}

// LocalReplica adapts an in-process transport.BSServer to the Replica
// interface. Dial hands the server one end of a net.Pipe through the
// same Handle entry point a TCP accept loop would use, so a replica
// behind a coordinator runs byte-identical protocol code to one serving
// a listener directly.
type LocalReplica struct {
	bs       *transport.BSServer
	handlers sync.WaitGroup // Dial's connection handlers
}

// NewLocalReplica wraps an in-process BS server.
func NewLocalReplica(bs *transport.BSServer) *LocalReplica { return &LocalReplica{bs: bs} }

// BS exposes the wrapped server: the control plane reads and
// administers it, and New seeds routes from the sessions it holds.
func (r *LocalReplica) BS() *transport.BSServer { return r.bs }

func (r *LocalReplica) ID() string { return r.bs.ReplicaID() }

func (r *LocalReplica) Dial() (io.ReadWriteCloser, error) {
	ueEnd, bsEnd := net.Pipe()
	r.handlers.Add(1)
	go func() {
		defer r.handlers.Done()
		_ = r.bs.Handle(bsEnd)
	}()
	return ueEnd, nil
}

// Wait blocks until the server has finished every connection Dial
// handed it — the in-process twin of BSServer.Wait, which tracks only
// the connections its own accept loop took.
func (r *LocalReplica) Wait() { r.handlers.Wait() }

func (r *LocalReplica) Live() int      { return r.bs.ActiveSessions() }
func (r *LocalReplica) Draining() bool { return r.bs.Draining() }

func (r *LocalReplica) ServesConfigFP(fp uint64) bool {
	for _, sn := range r.bs.Sessions() {
		if liveState(sn.State) && sn.Hello.ConfigFP == fp {
			return true
		}
	}
	return false
}

func (r *LocalReplica) LiveSessions() []string {
	var ids []string
	for _, sn := range r.bs.Sessions() {
		if liveState(sn.State) {
			ids = append(ids, sn.ID)
		}
	}
	return ids
}

func (r *LocalReplica) MigrateOut(id string, timeout time.Duration) (*transport.MigrationState, error) {
	return r.bs.MigrateOut(id, timeout)
}

func (r *LocalReplica) Adopt(st *transport.MigrationState) error {
	return r.bs.AdoptSessionState(st)
}

// Probe reports process-level liveness: an in-process replica is dead
// exactly when its server has crashed.
func (r *LocalReplica) Probe() error {
	if r.bs.Crashed() {
		return transport.ErrReplicaCrashed
	}
	return nil
}

// Crashed surfaces the wrapped server's crashed flag to the
// coordinator's relay-teardown attribution.
func (r *LocalReplica) Crashed() bool { return r.bs.Crashed() }

// TakeoverStore implements RecoverySource for in-process replicas: the
// store object outlives the crashed server (only the server's writes
// are fenced), so survivors read it directly. The release is a no-op —
// the store's lifecycle belongs to whoever built the server.
func (r *LocalReplica) TakeoverStore() (store.Store, func(), error) {
	st := r.bs.Store()
	if st == nil {
		return nil, nil, errors.New("coord: replica has no checkpoint store to take over")
	}
	return st, func() {}, nil
}

// liveState reports whether a snapshot state is non-terminal.
func liveState(st transport.SessionState) bool {
	switch st {
	case transport.SessionDetached, transport.SessionFailed, transport.SessionSuperseded:
		return false
	}
	return true
}
