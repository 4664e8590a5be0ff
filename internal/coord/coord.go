// Package coord fronts a fleet of BS replicas with a routing
// coordinator: one accept loop that reads each UE's session hello,
// places the session on a replica (sticky per session id, config-
// fingerprint affinity for fresh joins), and then splices the two
// connections byte-for-byte. The coordinator also orchestrates live
// session handover between replicas: it asks the source to retire the
// session at a checkpoint boundary (transport.MigrationState), installs
// the state on the destination, and flips the route — the UE experiences
// an ordinary reconnect-with-resume, so a handed-over session is
// bit-identical to one served end-to-end on a single BS (invariant 9,
// riding entirely on the invariant-7 resume machinery).
package coord

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// ErrAllDraining means no replica accepts new sessions.
var ErrAllDraining = errors.New("coord: all replicas draining")

// ErrReplicaDown marks a connection the coordinator turned away (or a
// relay it tore down) because the session's replica is dead or fenced —
// distinct from policy refusals so failover-window churn is
// attributable in logs and the refused-by-reason counters. The UE is
// severed without a rejection ack on this path: a structured rejection
// is fatal to UESession, but a severed conn is retried under backoff,
// which is exactly what a session waiting out a failover needs.
var ErrReplicaDown = errors.New("coord: replica down")

// handoverWindow bounds the handover latency ring.
const handoverWindow = 1024

// helloTimeout bounds the wait for a connection's session hello, so that
// a client that sends part of one and stalls is refused instead of
// holding a goroutine and a connection forever. Tests shorten it.
var helloTimeout = 10 * time.Second

// Options configures a Coordinator.
type Options struct {
	// Logf receives diagnostics; nil discards them.
	Logf func(format string, args ...any)

	// Policy is the initial placement policy; the zero value means
	// DefaultPolicy.
	Policy Policy

	// Failover tunes crash recovery; zero-valued fields take defaults.
	Failover FailoverConfig
}

// route pins a session id to a replica. Routes are sticky across
// reconnects — the replica holds the session's checkpoints, so a resume
// hello routed anywhere else would be refused — and survive session end
// for the same reason (a retired session's checkpoint outlives it until
// pruned). While a handover is in flight, migrating holds a barrier
// channel; reconnecting UEs for the session park on it until the route
// settles, so the resume lands wherever the checkpoint ends up.
type route struct {
	replica   Replica
	migrating chan struct{}

	// configFP remembers the hello's config fingerprint so crash
	// failover can re-place the session under the same affinity signal
	// the original placement used (the dead replica can no longer be
	// asked).
	configFP uint64
}

// Coordinator routes UE connections onto a replica fleet.
type Coordinator struct {
	replicas []Replica
	logf     func(string, ...any)

	mu     sync.Mutex
	policy Policy
	routes map[string]*route
	fenced map[string]bool // replicas excluded from routing (dead or failing over)

	failover FailoverConfig

	routed      atomic.Int64
	refused     atomic.Int64
	refusedDown atomic.Int64 // refusals/severs attributable to a dead replica
	migrations  atomic.Int64
	migrateFail atomic.Int64
	relayedUp   atomic.Int64 // UE→BS bytes
	relayedDown atomic.Int64 // BS→UE bytes

	failovers        atomic.Int64 // crash failovers run
	recovered        atomic.Int64 // sessions adopted onto survivors
	lostSessions     atomic.Int64 // checkpointed sessions that could not be recovered
	rejoins          atomic.Int64 // fenced replicas readmitted to placement
	recoveriesActive atomic.Int64 // failovers currently in flight

	handoverLat latRing
	detectLat   latRing // first bad probe → death verdict
	recoverLat  latRing // fence → session route settled on survivor

	detMu    sync.Mutex
	detector *Detector

	closed   atomic.Bool
	wg       sync.WaitGroup
	listener net.Listener
}

// New builds a coordinator over the given replicas. Replica ids must be
// unique; at least one replica is required.
func New(replicas []Replica, opts Options) (*Coordinator, error) {
	if len(replicas) == 0 {
		return nil, errors.New("coord: at least one replica required")
	}
	seen := make(map[string]bool, len(replicas))
	for _, r := range replicas {
		if seen[r.ID()] {
			return nil, fmt.Errorf("coord: duplicate replica id %q", r.ID())
		}
		seen[r.ID()] = true
	}
	pol := opts.Policy
	if pol == (Policy{}) {
		pol = DefaultPolicy()
	}
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	routes, err := seedRoutes(replicas)
	if err != nil {
		return nil, err
	}
	return &Coordinator{
		replicas: replicas,
		logf:     logf,
		policy:   pol,
		routes:   routes,
		fenced:   make(map[string]bool),
		failover: opts.Failover.withDefaults(),
	}, nil
}

// seedRoutes gives a restarted fleet its sticky routes. A replica
// restarted on its durable store adopts the sessions that store holds,
// and their checkpoints live nowhere else, so a resuming hello must reach
// that replica rather than wherever placement would put it. A session
// that ended has a retire record; one whose replica was killed mid-train
// has only its checkpoints, and is routed to the replica holding its
// newest one. A migrated-out record is skipped, and so are that
// replica's leftover checkpoints of the session: the destination holds
// the state.
func seedRoutes(replicas []Replica) (map[string]*route, error) {
	routes := make(map[string]*route)
	type held struct {
		replica Replica
		step    int
	}
	newest := make(map[string]held)
	for _, r := range replicas {
		lr, ok := r.(interface{ BS() *transport.BSServer })
		if !ok {
			continue
		}
		migrated := make(map[string]bool)
		for _, sn := range lr.BS().Sessions() {
			if errors.Is(sn.Cause(), transport.ErrMigrated) {
				migrated[sn.ID] = true
			} else {
				routes[sn.ID] = &route{replica: r, configFP: sn.Hello.ConfigFP}
			}
		}
		st := lr.BS().Store()
		ids, err := st.CheckpointIDs()
		if err != nil {
			return nil, fmt.Errorf("coord: list checkpoints on %s: %w", r.ID(), err)
		}
		for _, id := range ids {
			if migrated[id] {
				continue
			}
			steps, err := st.CheckpointSteps(id)
			if err != nil {
				return nil, fmt.Errorf("coord: list checkpoints of %s on %s: %w", id, r.ID(), err)
			}
			if len(steps) > 0 {
				if h, ok := newest[id]; !ok || steps[len(steps)-1] > h.step {
					newest[id] = held{r, steps[len(steps)-1]}
				}
			}
		}
	}
	for id, h := range newest {
		if routes[id] == nil {
			// The hello's fingerprint is learnt when the session resumes.
			routes[id] = &route{replica: h.replica}
		}
	}
	return routes, nil
}

// Replicas returns the fleet in registration order.
func (c *Coordinator) Replicas() []Replica {
	out := make([]Replica, len(c.replicas))
	copy(out, c.replicas)
	return out
}

// ReplicaByID finds a replica by id, or nil.
func (c *Coordinator) ReplicaByID(id string) Replica {
	for _, r := range c.replicas {
		if r.ID() == id {
			return r
		}
	}
	return nil
}

// CurrentPolicy returns the active placement policy.
func (c *Coordinator) CurrentPolicy() Policy {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.policy
}

// SetPolicy atomically installs a new placement policy after
// validation. In-flight placements finish under the snapshot they
// already took.
func (c *Coordinator) SetPolicy(p Policy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	c.policy = p
	c.mu.Unlock()
	return nil
}

// RouteOf reports which replica a session id is currently routed to
// ("" if the coordinator has never placed it).
func (c *Coordinator) RouteOf(id string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rt, ok := c.routes[id]; ok {
		return rt.replica.ID()
	}
	return ""
}

// Serve accepts UE connections until the listener closes.
func (c *Coordinator) Serve(ln net.Listener) error {
	c.listener = ln
	for {
		conn, err := ln.Accept()
		if err != nil {
			if c.closed.Load() {
				return nil
			}
			return err
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			if err := c.HandleConn(conn); err != nil && !transport.IsClosedConn(err) {
				c.logf("coord: connection: %v", err)
			}
		}()
	}
}

// Close stops the accept loop and waits for in-flight connections.
func (c *Coordinator) Close() {
	c.closed.Store(true)
	if c.listener != nil {
		c.listener.Close()
	}
	c.wg.Wait()
}

// HandleConn serves one UE connection: read the hello, place the
// session, splice. The hello's raw wire bytes are relayed verbatim so
// the replica sees exactly what the UE sent (CRC included); every later
// frame in either direction is copied untouched. A hello that cannot be
// read is answered with a diagnostic ack, as the BS answers it, and so
// is one that does not arrive within helloTimeout on a connection that
// takes a read deadline.
func (c *Coordinator) HandleConn(conn io.ReadWriteCloser) error {
	defer conn.Close()

	dl, _ := conn.(interface{ SetReadDeadline(time.Time) error })
	if dl != nil {
		// A connection that refuses the deadline is read without one,
		// as every connection was before.
		_ = dl.SetReadDeadline(time.Now().Add(helloTimeout))
	}
	m, raw, err := transport.ReadRawMessage(conn)
	if dl != nil {
		// Cleared before routing, which may park on a handover barrier,
		// and before the splice, whose reads have no deadline.
		_ = dl.SetReadDeadline(time.Time{})
	}
	if err != nil {
		// Another protocol version, corrupt or truncated: an ack, not a
		// bare close, which the UE would retry as a transport failure.
		c.refused.Add(1)
		err = fmt.Errorf("coord: read hello: %w", err)
		_ = transport.WriteRefusal(conn, "", err, 0)
		return err
	}
	if m.Type != transport.MsgSessionHello || m.Hello == nil {
		c.refused.Add(1)
		err := fmt.Errorf("coord: expected session hello, got %v", m.Type)
		_ = transport.WriteRefusal(conn, "", err, 0)
		return err
	}
	h := *m.Hello

	rep, err := c.route(h)
	if err != nil {
		c.refused.Add(1)
		if errors.Is(err, ErrReplicaDown) {
			// Sever without an ack: a structured rejection is fatal to
			// the UE, but this condition is transient — recovery is
			// moving the session to a survivor, so the UE must retry.
			c.refusedDown.Add(1)
			return fmt.Errorf("coord: place session %q: %w", h.SessionID, err)
		}
		_ = transport.WriteRefusal(conn, h.SessionID, err, 0)
		return fmt.Errorf("coord: place session %q: %w", h.SessionID, err)
	}

	up, err := rep.Dial()
	if err != nil {
		c.refused.Add(1)
		if replicaCrashed(rep) || c.IsFenced(rep.ID()) {
			c.refusedDown.Add(1)
			return fmt.Errorf("coord: dial replica %s: %w (%w)", rep.ID(), ErrReplicaDown, err)
		}
		_ = transport.WriteRefusal(conn, h.SessionID, errors.New("replica unavailable"), 0)
		return fmt.Errorf("coord: dial replica %s: %w", rep.ID(), err)
	}
	defer up.Close()
	if _, err := up.Write(raw); err != nil {
		if replicaCrashed(rep) {
			c.refused.Add(1)
			c.refusedDown.Add(1)
			return fmt.Errorf("coord: relay hello to %s: %w (%w)", rep.ID(), ErrReplicaDown, err)
		}
		return fmt.Errorf("coord: relay hello to %s: %w", rep.ID(), err)
	}
	c.routed.Add(1)

	// Splice. Whichever side finishes first closes both ends so the
	// other copy unblocks: replica shutdown reaches the UE as EOF after
	// the final frames, a dropped UE reaches the replica as a severed
	// conn (its idle/detach handling takes it from there).
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		n, _ := io.Copy(up, conn)
		c.relayedUp.Add(n)
		up.Close()
		conn.Close()
	}()
	n, _ := io.Copy(conn, up)
	c.relayedDown.Add(n)
	conn.Close()
	up.Close()
	wg.Wait()
	if replicaCrashed(rep) {
		// Attribute the teardown: the splice ended because the replica
		// died under it, not because the UE left.
		return fmt.Errorf("coord: relay for session %q severed: %w", h.SessionID, ErrReplicaDown)
	}
	return nil
}

// replicaCrashed reports whether a replica exposes (and asserts) the
// crashed condition — the LocalReplica/chaos capability the relay
// teardown path uses to attribute abrupt conn death.
func replicaCrashed(r Replica) bool {
	cr, ok := r.(interface{ Crashed() bool })
	return ok && cr.Crashed()
}

// route resolves the replica for a hello: sticky for known session ids
// (parking behind any in-flight handover of that session), policy
// placement for new ones. A fresh join whose sticky replica is draining
// is re-placed — its old incarnations will drain off that replica
// anyway, and refusing it would strand the UE in a refusal loop.
func (c *Coordinator) route(h transport.Hello) (Replica, error) {
	var deadline time.Time
	for {
		c.mu.Lock()
		pol := c.policy
		rt := c.routes[h.SessionID]
		if rt != nil && rt.migrating != nil {
			barrier := rt.migrating
			c.mu.Unlock()
			if deadline.IsZero() {
				deadline = time.Now().Add(pol.MigrateTimeout)
			}
			wait := time.NewTimer(time.Until(deadline))
			select {
			case <-barrier:
				wait.Stop()
				continue
			case <-wait.C:
				c.mu.Lock()
				down := c.routes[h.SessionID] != nil && c.fenced[c.routes[h.SessionID].replica.ID()]
				c.mu.Unlock()
				if down {
					return nil, fmt.Errorf("session %q parked behind crash recovery: %w", h.SessionID, ErrReplicaDown)
				}
				return nil, fmt.Errorf("session %q handover still in flight", h.SessionID)
			}
		}
		if rt != nil {
			rep := rt.replica
			if rt.configFP == 0 {
				rt.configFP = h.ConfigFP // a route seeded from checkpoints alone
			}
			if c.fenced[rep.ID()] {
				// Death verdict landed but failover has not barriered
				// this route yet (or recovery abandoned it): sever so
				// the UE retries rather than eating a fatal rejection.
				c.mu.Unlock()
				return nil, fmt.Errorf("session %q routed to fenced replica %s: %w", h.SessionID, rep.ID(), ErrReplicaDown)
			}
			resuming := h.ResumeStep > 0 || h.Epoch > 0
			if resuming || !rep.Draining() {
				c.mu.Unlock()
				return rep, nil
			}
		}
		rep := pol.place(c.eligibleLocked(), h.ConfigFP)
		if rep == nil {
			c.mu.Unlock()
			return nil, ErrAllDraining
		}
		c.routes[h.SessionID] = &route{replica: rep, configFP: h.ConfigFP}
		c.mu.Unlock()
		return rep, nil
	}
}

// eligibleLocked returns the replicas placement may consider: not
// fenced and not visibly crashed. Callers hold c.mu.
func (c *Coordinator) eligibleLocked() []Replica {
	out := make([]Replica, 0, len(c.replicas))
	for _, r := range c.replicas {
		if c.fenced[r.ID()] || replicaCrashed(r) {
			continue
		}
		out = append(out, r)
	}
	return out
}

// Migrate hands the named session over from its current replica to
// dstID. The route is barriered for the duration so a reconnecting UE
// waits for the state to land rather than racing it; on any failure the
// route stays with the source, which still holds the checkpoint, so the
// UE resumes exactly where it would have without the attempt.
func (c *Coordinator) Migrate(id, dstID string) error {
	dst := c.ReplicaByID(dstID)
	if dst == nil {
		return fmt.Errorf("coord: unknown replica %q", dstID)
	}

	c.mu.Lock()
	pol := c.policy
	if c.fenced[dstID] {
		c.mu.Unlock()
		return fmt.Errorf("coord: replica %q is fenced: %w", dstID, ErrReplicaDown)
	}
	rt := c.routes[id]
	if rt == nil {
		c.mu.Unlock()
		return fmt.Errorf("coord: no route for session %q", id)
	}
	// Route fields are read only under c.mu: crash recovery's settle
	// rewrites rt.replica as soon as the lock is released.
	src := rt.replica
	if c.fenced[src.ID()] {
		c.mu.Unlock()
		return fmt.Errorf("coord: session %q is on fenced replica %q (crash failover owns it): %w", id, src.ID(), ErrReplicaDown)
	}
	if rt.migrating != nil {
		c.mu.Unlock()
		return fmt.Errorf("coord: session %q handover already in flight", id)
	}
	if src.ID() == dst.ID() {
		c.mu.Unlock()
		return fmt.Errorf("coord: session %q already on replica %q", id, dstID)
	}
	barrier := make(chan struct{})
	rt.migrating = barrier
	c.mu.Unlock()

	settle := func(to Replica) {
		c.mu.Lock()
		rt.replica = to
		rt.migrating = nil
		c.mu.Unlock()
		close(barrier)
	}

	start := time.Now()
	st, err := src.MigrateOut(id, pol.MigrateTimeout)
	if err != nil {
		settle(src)
		c.migrateFail.Add(1)
		return fmt.Errorf("coord: migrate %q out of %s: %w", id, src.ID(), err)
	}
	if err := dst.Adopt(st); err != nil {
		settle(src)
		c.migrateFail.Add(1)
		return fmt.Errorf("coord: adopt %q on %s: %w", id, dst.ID(), err)
	}
	settle(dst)
	c.migrations.Add(1)
	c.recordHandover(time.Since(start))
	c.logf("coord: session %q handed over %s→%s at step %d", id, src.ID(), dst.ID(), st.Step)
	return nil
}

// Rebalance migrates one live session from the most-loaded replica to
// the least-loaded one when their occupancy differs by at least two
// (moving at a difference of one would just flip the imbalance).
// Returns the moved session and destination id, or "" when the fleet is
// already balanced or no session is movable.
func (c *Coordinator) Rebalance() (sessionID, dstID string, err error) {
	c.mu.Lock()
	candidates := c.eligibleLocked()
	c.mu.Unlock()
	var src, dst Replica
	for _, r := range candidates {
		if r.Draining() {
			continue
		}
		if dst == nil || r.Live() < dst.Live() {
			dst = r
		}
		if src == nil || r.Live() > src.Live() {
			src = r
		}
	}
	if src == nil || dst == nil || src.ID() == dst.ID() || src.Live()-dst.Live() < 2 {
		return "", "", nil
	}
	var lastErr error
	for _, id := range src.LiveSessions() {
		if c.RouteOf(id) != src.ID() {
			continue // placed elsewhere or not via this coordinator
		}
		if err := c.Migrate(id, dst.ID()); err != nil {
			lastErr = err
			continue // e.g. ended mid-selection; try the next candidate
		}
		return id, dst.ID(), nil
	}
	return "", "", lastErr
}

// recordHandover adds one handover latency sample to the ring.
func (c *Coordinator) recordHandover(d time.Duration) { c.handoverLat.add(d) }

// HandoverLatency returns p50/p99 over the recent handover window and
// the number of samples in it.
func (c *Coordinator) HandoverLatency() (p50, p99 time.Duration, n int) {
	return c.handoverLat.quantiles()
}

// DetectionLatency returns p50/p99 of first-bad-probe→death-verdict
// over the recent window — the detection half of MTTR.
func (c *Coordinator) DetectionLatency() (p50, p99 time.Duration, n int) {
	return c.detectLat.quantiles()
}

// RecoveryLatency returns p50/p99 of fence→session-settled-on-survivor
// per recovered session — the recovery half of MTTR.
func (c *Coordinator) RecoveryLatency() (p50, p99 time.Duration, n int) {
	return c.recoverLat.quantiles()
}

// Stats is a point-in-time snapshot of coordinator counters.
type Stats struct {
	Replicas         int
	Fenced           int // replicas currently excluded from placement
	Routes           int
	Routed           int64 // connections spliced onto a replica
	Refused          int64 // connections rejected before splicing
	RefusedDown      int64 // of Refused: severed because the replica was dead/fenced
	Migrations       int64 // completed handovers
	MigrationFails   int64
	RelayedBytesUp   int64 // UE→BS
	RelayedBytesDown int64 // BS→UE

	Failovers         int64 // crash failovers run
	SessionsRecovered int64 // sessions adopted onto survivors
	SessionsLost      int64 // checkpointed sessions recovery could not save
	Rejoins           int64 // fenced replicas readmitted after healthy probes
}

// Stats snapshots the coordinator's counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	routes := len(c.routes)
	fenced := len(c.fenced)
	c.mu.Unlock()
	return Stats{
		Replicas:          len(c.replicas),
		Fenced:            fenced,
		Routes:            routes,
		Routed:            c.routed.Load(),
		Refused:           c.refused.Load(),
		RefusedDown:       c.refusedDown.Load(),
		Migrations:        c.migrations.Load(),
		MigrationFails:    c.migrateFail.Load(),
		RelayedBytesUp:    c.relayedUp.Load(),
		RelayedBytesDown:  c.relayedDown.Load(),
		Failovers:         c.failovers.Load(),
		SessionsRecovered: c.recovered.Load(),
		SessionsLost:      c.lostSessions.Load(),
		Rejoins:           c.rejoins.Load(),
	}
}
