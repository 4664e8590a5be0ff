package fleet

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/coord"
	"repro/internal/store"
	"repro/internal/transport"
)

// Outcome is the terminal record of one UE's session — its final
// incarnation's state and metrics, plus how often it resumed from a
// checkpoint along the way. Loss/RMSE are kept as raw float bits so the
// determinism suite compares exact values, not formatted ones.
type Outcome struct {
	State    string
	Steps    int
	LastLoss uint64
	LastRMSE uint64
	Resumes  int
}

// HandoverReport measures the replica fleet's live-migration drill.
type HandoverReport struct {
	Replicas   int
	Migrations int64 // completed handovers

	// MigratedEnds counts session incarnations retired with the
	// migrated disposition across all replicas — the server-side echo
	// of Migrations.
	MigratedEnds int

	P50Ms float64
	P99Ms float64
}

// FailoverReport measures the chaos drill's crash-failover pipeline —
// MTTR split into detection (first failed probe → death verdict) and
// recovery (fence → session settled on a survivor), plus the session
// ledger.
type FailoverReport struct {
	Kills   int // uncontrolled replica kills injected
	Rejoins int // fresh incarnations booted on the same store

	Failovers         int64 // crash failovers the coordinator ran
	SessionsRecovered int64 // adopted onto survivors from durable checkpoints
	SessionsLost      int64 // checkpointed sessions recovery could not save
	Readmissions      int64 // fenced replicas back in placement after healthy probes

	DetectP50Ms  float64
	DetectP99Ms  float64
	RecoverP50Ms float64
	RecoverP99Ms float64
}

// Report is what a fleet soak observed: the health the soak tests
// assert on.
type Report struct {
	// Rounds counts training rounds served across the fleet.
	Rounds int64

	// SharedRatio is the fraction of rounds served by a clone group's
	// shared computation — ≈0 expected under mixed fingerprints, which
	// is the point: the fleet is the anti-clone load.
	SharedRatio float64

	// Lifecycle outcome counters, accumulated over every session
	// incarnation by the server's end-of-session hook.
	Completed  int
	Drops      int
	Evictions  int
	Supersedes int
	Resumes    int

	// DriverErrors counts UE drivers that ended on an error their churn
	// script did not call for — always 0 in a healthy soak.
	DriverErrors int

	// LeakedSessions is the number of sessions still live after every
	// driver and handler finished — always 0 in a healthy soak.
	LeakedSessions    int
	RetainedSnapshots int

	// Handover is present when the soak ran a replica fleet
	// (Spec.Replicas > 1).
	Handover *HandoverReport

	// Failover is present when the soak ran the chaos drill
	// (Spec.Chaos).
	Failover *FailoverReport

	// Final maps session id → its last incarnation's outcome: the
	// per-UE ground truth the determinism suite compares across runs
	// and worker counts.
	Final map[string]Outcome
}

// Run executes one fleet soak: it materialises the spec's environment,
// starts the in-process BS fleet (one server, or Replicas servers
// behind a coordinator), drives every profile's state machine to its
// end, and reports. logf (optional) receives coarse progress.
func Run(spec Spec, logf func(format string, args ...any)) (*Report, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	env, err := NewEnv(spec)
	if err != nil {
		return nil, err
	}
	spec = env.Spec

	ckptDir := ""
	if spec.Checkpoint && spec.Replicas == 1 {
		ckptDir, err = os.MkdirTemp("", "mmsl-fleet-ckpt-*")
		if err != nil {
			return nil, fmt.Errorf("fleet: checkpoint dir: %w", err)
		}
		defer os.RemoveAll(ckptDir)
	}

	rep := &Report{Final: make(map[string]Outcome, spec.UEs)}
	churning := 0
	for _, p := range env.Profiles {
		if p.Churn != ChurnSteady {
			churning++
		}
	}

	migratedEnds := 0
	var mu sync.Mutex
	onEnd := func(snap transport.SessionSnapshot, cause error) {
		mu.Lock()
		defer mu.Unlock()
		switch snap.State {
		case transport.SessionDetached:
			rep.Completed++
		case transport.SessionSuperseded:
			rep.Supersedes++
		case transport.SessionFailed:
			switch {
			case errors.Is(cause, transport.ErrIdleTimeout):
				rep.Evictions++
			case errors.Is(cause, transport.ErrMigrated):
				// A handover, not a failure: the UE resumes on the
				// destination replica, whose terminal snapshot follows.
				migratedEnds++
			default:
				rep.Drops++
			}
		}
		out := Outcome{
			State:    snap.State.String(),
			Steps:    snap.Steps,
			LastLoss: math.Float64bits(snap.LastLoss),
			LastRMSE: math.Float64bits(snap.LastRMSE),
		}
		// Resumes accumulate across the UE's incarnations; everything
		// else is overwritten, so Final keeps the last incarnation.
		out.Resumes = rep.Final[snap.ID].Resumes
		if snap.ResumedFrom > 0 {
			rep.Resumes++
			out.Resumes++
		}
		rep.Final[snap.ID] = out
	}

	if spec.Chaos && spec.Replicas <= 1 {
		return nil, errors.New("fleet: chaos drill needs Replicas > 1 (no survivor to fail over to)")
	}

	var handlers, drivers sync.WaitGroup
	mkCfg := func(i int) transport.ServerConfig {
		return transport.ServerConfig{
			ReplicaID:       fmt.Sprintf("bs-%d", i),
			MaxUE:           spec.UEs,
			Steps:           spec.Steps,
			EvalEvery:       1 << 30, // one final eval per session
			ValAnchors:      8,
			Provision:       env.Provision(),
			IdleTimeout:     idleTimeout,
			BatchWindow:     batchWindow,
			BatchMax:        batchMax,
			Retain:          retain,
			CheckpointDir:   ckptDir,
			CheckpointEvery: 1,
			OnSessionEnd:    onEnd,
		}
	}

	servers := make([]*transport.BSServer, spec.Replicas)
	var chaosReps []*chaos.Replica
	if spec.Chaos {
		// Chaos replicas live on durable journal stores behind a
		// fault-injecting filesystem: a kill tears the in-flight write,
		// survivors adopt from the reopened journal, and the rejoined
		// incarnation cold-start-adopts whatever replay salvages.
		chaosDir, err := os.MkdirTemp("", "mmsl-fleet-chaos-*")
		if err != nil {
			return nil, fmt.Errorf("fleet: chaos store dir: %w", err)
		}
		defer os.RemoveAll(chaosDir)
		chaosReps = make([]*chaos.Replica, spec.Replicas)
		for i := range chaosReps {
			cs := &chaosStore{path: filepath.Join(chaosDir, fmt.Sprintf("bs-%d.journal", i))}
			st, err := cs.open()
			if err != nil {
				return nil, fmt.Errorf("fleet: chaos store %d: %w", i, err)
			}
			cr, err := chaos.New(chaos.Config{
				Make: func(st store.Store) (*transport.BSServer, error) {
					cfg := mkCfg(i)
					cfg.Store = st
					return transport.NewBSServer(cfg)
				},
				Store:     st,
				Reopen:    cs.open,
				Tear:      cs.trip,
				HandlerWG: &handlers,
				Logf:      logf,
			})
			if err != nil {
				st.Close()
				return nil, fmt.Errorf("fleet: chaos replica %d: %w", i, err)
			}
			chaosReps[i] = cr
			servers[i] = cr.BS()
			if spec.OnServer != nil {
				spec.OnServer(cr.BS())
			}
		}
	} else {
		for i := range servers {
			cfg := mkCfg(i)
			if spec.Replicas > 1 {
				// Handover rides on checkpoints, so every replica gets its
				// own in-memory store; the blobs never touch disk.
				cfg.Store = store.NewMem(retain)
			}
			srv, err := transport.NewBSServer(cfg)
			if err != nil {
				return nil, fmt.Errorf("fleet: server %d: %w", i, err)
			}
			servers[i] = srv
			if spec.OnServer != nil {
				spec.OnServer(srv)
			}
		}
	}
	// currentServers resolves the live incarnations: a chaos replica that
	// was killed and rejoined runs a fresh server object, so accounting
	// must not read the stale one it booted with.
	currentServers := func() []*transport.BSServer {
		if chaosReps == nil {
			return servers
		}
		out := make([]*transport.BSServer, len(chaosReps))
		for i, cr := range chaosReps {
			out[i] = cr.BS()
		}
		return out
	}

	// handle serves the BS end of one UE incarnation's pipe.
	handle := servers[0].Handle
	var co *coord.Coordinator
	if spec.Replicas > 1 {
		replicas := make([]coord.Replica, spec.Replicas)
		for i := range replicas {
			if spec.Chaos {
				replicas[i] = chaosReps[i]
			} else {
				replicas[i] = &trackedReplica{
					LocalReplica: coord.NewLocalReplica(servers[i]),
					bs:           servers[i],
					wg:           &handlers,
				}
			}
		}
		opts := coord.Options{}
		if spec.Chaos {
			// A soak round is sub-millisecond; scale recovery's retry
			// schedule to the load it races rather than the deploy-scale
			// defaults.
			opts.Failover = coord.FailoverConfig{
				RecoverParallel: 4,
				RetryLimit:      4,
				RetryBackoff:    transport.Backoff{Base: 2 * time.Millisecond, Max: 25 * time.Millisecond},
			}
		}
		co, err = coord.New(replicas, opts)
		if err != nil {
			return nil, fmt.Errorf("fleet: coordinator: %w", err)
		}
		if spec.Chaos {
			// Soak-speed probing: a kill is detected in a few intervals;
			// the generous timeout keeps scheduler hiccups under -race
			// from minting false death verdicts.
			det := co.StartDetector(coord.DetectorConfig{
				Interval:    3 * time.Millisecond,
				Timeout:     50 * time.Millisecond,
				FailAfter:   3,
				RejoinAfter: 2,
			})
			defer det.Stop()
		}
		handle = co.HandleConn
	}

	logf("fleet: %d UEs (%d churning), %d scene classes, %d steps/UE, %d replicas",
		spec.UEs, churning, spec.SceneClasses, spec.Steps, spec.Replicas)

	for i := range env.Profiles {
		dr := newDriver(env, env.Profiles[i], handle, &handlers)
		drivers.Add(1)
		go func() {
			defer drivers.Done()
			if err := dr.run(); err != nil {
				mu.Lock()
				rep.DriverErrors++
				n := rep.DriverErrors
				mu.Unlock()
				if n <= 5 {
					logf("fleet: UE %s (%s): %v", dr.p.SessionID, dr.p.Churn, err)
				}
			}
		}()
	}

	stopDrill := make(chan struct{})
	var drillDone sync.WaitGroup
	if co != nil {
		drillDone.Add(1)
		go func() {
			defer drillDone.Done()
			handoverDrill(co, env, spec.RebalanceEvery, stopDrill)
		}()
	}
	if spec.Chaos {
		drillDone.Add(1)
		go func() {
			defer drillDone.Done()
			chaosDrill(co, chaosReps, spec.ChaosInterval, stopDrill, logf)
		}()
	}

	settled := make(chan struct{})
	go func() {
		drivers.Wait()
		handlers.Wait()
		close(settled)
	}()
	select {
	case <-settled:
	case <-time.After(wallLimit):
		close(stopDrill)
		live := 0
		for _, srv := range currentServers() {
			live += srv.ActiveSessions()
		}
		return nil, fmt.Errorf("fleet: soak wedged: %d/%d sessions still live after %v",
			live, spec.UEs, wallLimit)
	}
	close(stopDrill)
	drillDone.Wait()
	if spec.Chaos {
		// Quiesce the failure machinery before accounting: stop the probe
		// loops (idempotent with the deferred Stop) and wait out any
		// failover a last-moment verdict launched.
		if d := co.Detector(); d != nil {
			d.Stop()
		}
		for t0 := time.Now(); co.RecoveriesActive() > 0 && time.Since(t0) < 5*time.Second; {
			time.Sleep(time.Millisecond)
		}
	}

	// From here on read the live incarnations (identical to servers in a
	// chaos-free soak). Counters that died with a killed incarnation —
	// its rounds, its ring samples — are gone, like a real crashed
	// process's; the chaos report measures recovery, not throughput.
	servers = currentServers()

	var sharedRounds int64
	for _, srv := range servers {
		_, _, rounds := srv.RoundLatency()
		rep.Rounds += rounds
		sharedRounds += srv.SharedRounds()
		rep.LeakedSessions += srv.ActiveSessions()
		rep.RetainedSnapshots += srv.RetainedSessions()
	}
	if rep.Rounds > 0 {
		rep.SharedRatio = float64(sharedRounds) / float64(rep.Rounds)
	}
	if co != nil {
		st := co.Stats()
		p50, p99, _ := co.HandoverLatency()
		rep.Handover = &HandoverReport{
			Replicas:     spec.Replicas,
			Migrations:   st.Migrations,
			MigratedEnds: migratedEnds,
			P50Ms:        float64(p50) / float64(time.Millisecond),
			P99Ms:        float64(p99) / float64(time.Millisecond),
		}
		if spec.Chaos {
			dp50, dp99, _ := co.DetectionLatency()
			rp50, rp99, _ := co.RecoveryLatency()
			fo := &FailoverReport{
				Failovers:         st.Failovers,
				SessionsRecovered: st.SessionsRecovered,
				SessionsLost:      st.SessionsLost,
				Readmissions:      st.Rejoins,
				DetectP50Ms:       float64(dp50) / float64(time.Millisecond),
				DetectP99Ms:       float64(dp99) / float64(time.Millisecond),
				RecoverP50Ms:      float64(rp50) / float64(time.Millisecond),
				RecoverP99Ms:      float64(rp99) / float64(time.Millisecond),
			}
			for _, cr := range chaosReps {
				fo.Kills += cr.Kills()
				fo.Rejoins += cr.Rejoins()
			}
			rep.Failover = fo
		}
	}
	for _, srv := range servers {
		srv.Close()
	}

	logf("fleet: %d rounds, shared %.3f, completed %d, drops %d, evictions %d, supersedes %d, resumes %d",
		rep.Rounds, rep.SharedRatio,
		rep.Completed, rep.Drops, rep.Evictions, rep.Supersedes, rep.Resumes)
	if rep.Handover != nil {
		logf("fleet: handover drill: %d migrations, p50 %.2fms p99 %.2fms",
			rep.Handover.Migrations, rep.Handover.P50Ms, rep.Handover.P99Ms)
	}
	if rep.Failover != nil {
		logf("fleet: chaos drill: %d kills, %d rejoins, %d failovers: %d recovered, %d lost; detect p50 %.2fms p99 %.2fms, recover p50 %.2fms p99 %.2fms",
			rep.Failover.Kills, rep.Failover.Rejoins, rep.Failover.Failovers,
			rep.Failover.SessionsRecovered, rep.Failover.SessionsLost,
			rep.Failover.DetectP50Ms, rep.Failover.DetectP99Ms,
			rep.Failover.RecoverP50Ms, rep.Failover.RecoverP99Ms)
	}
	return rep, nil
}

// trackedReplica is a LocalReplica whose Dial registers the Handle
// goroutine on the soak's handlers WaitGroup, so "every handler
// finished" covers the replica side of every spliced connection and the
// leak check never races a retiring session.
type trackedReplica struct {
	*coord.LocalReplica
	bs *transport.BSServer
	wg *sync.WaitGroup
}

func (r *trackedReplica) Dial() (io.ReadWriteCloser, error) {
	ueEnd, bsEnd := net.Pipe()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		_ = r.bs.Handle(bsEnd)
	}()
	return ueEnd, nil
}

// chaosStore owns one replica's durable journal path. Every open —
// boot, coordinator takeover after a kill, rejoin — builds a fresh
// fault-injecting filesystem over the same file, because a FaultFS
// stays tripped forever once its budget dies with an incarnation.
// trip corrupts whatever write is in flight on the current one.
type chaosStore struct {
	path string

	mu  sync.Mutex
	cur *store.FaultFS
}

func (cs *chaosStore) open() (store.Store, error) {
	ff := store.NewFaultFS(store.OS, 1<<40)
	st, err := store.OpenJournal(cs.path, store.JournalOptions{Retain: retain, FS: ff})
	if err != nil {
		return nil, err
	}
	cs.mu.Lock()
	cs.cur = ff
	cs.mu.Unlock()
	return st, nil
}

func (cs *chaosStore) trip() {
	cs.mu.Lock()
	ff := cs.cur
	cs.mu.Unlock()
	if ff != nil {
		ff.Trip()
	}
}

// chaosDrill injects failures for the whole soak: round-robin over the
// replicas it kills one uncontrolled (tearing its in-flight store
// write), waits for the detector's verdict and the coordinator's crash
// failover to settle, rejoins the replica as a fresh incarnation on the
// same journal, and waits for the detector to readmit it — so every
// cycle starts from a fully-fenced-free fleet and at most one replica
// is ever down. Every fourth action is a freeze instead: a stall long
// enough to read as gray but short of the probe timeout, exercising the
// slow-replica verdict without a failover.
func chaosDrill(co *coord.Coordinator, reps []*chaos.Replica, every time.Duration, stop <-chan struct{}, logf func(string, ...any)) {
	pause := func(d time.Duration) bool {
		select {
		case <-stop:
			return false
		case <-time.After(d):
			return true
		}
	}
	// until polls cond to true, giving up on stop or after limit.
	until := func(limit time.Duration, cond func() bool) bool {
		deadline := time.Now().Add(limit)
		for {
			if cond() {
				return true
			}
			if time.Now().After(deadline) {
				return false
			}
			if !pause(time.Millisecond) {
				return false
			}
		}
	}
	kills := 0
	for cycle := 0; ; cycle++ {
		if !pause(every) {
			return
		}
		if cycle%4 == 3 {
			// Gray drill: freeze past the gray threshold (Timeout/2 of
			// the soak detector's 50ms) but short of the timeout.
			reps[cycle%len(reps)].Stall(30 * time.Millisecond)
			continue
		}
		// Kills rotate on their own counter so every replica takes its
		// turn dying even when the gray cadence aligns with fleet size.
		victim := reps[kills%len(reps)]
		kills++
		prevFailovers := co.Stats().Failovers
		victim.Kill(true)
		if !until(10*time.Second, func() bool {
			return co.Stats().Failovers > prevFailovers && co.RecoveriesActive() == 0
		}) {
			select {
			case <-stop: // soak over before the verdict; leave it down
				return
			default:
				logf("fleet: chaos drill: failover of %s did not settle; rejoining anyway", victim.ID())
			}
		}
		if err := victim.Rejoin(); err != nil {
			logf("fleet: chaos drill: rejoin %s: %v", victim.ID(), err)
			return
		}
		// Readmission quota is a handful of fast probes; don't kill the
		// next replica until the fleet is whole again.
		until(10*time.Second, func() bool { return !co.IsFenced(victim.ID()) })
	}
}

// handoverDrill keeps live migration happening for the whole soak: each
// tick it walks the replicas round-robin for a live migration-eligible
// session and hands it to the least-loaded other replica — a rebalance
// when the fleet is skewed, a forced handover when it is not, so
// handover traffic is sustained either way. Eligible means steady or
// flapping image-bearing UEs: the reconnect-capable drivers. (The
// coordinator's Rebalance would also pick RF-only or wedged sessions,
// whose soak drivers by design never redial — migrating those just ends
// them, which measures nothing.) Failed attempts are expected under
// churn — the chosen session can end between selection and the
// checkpoint boundary — and are counted by the coordinator, not fatal.
func handoverDrill(co *coord.Coordinator, env *Env, every time.Duration, stop <-chan struct{}) {
	eligible := make(map[string]bool, len(env.Profiles))
	for _, p := range env.Profiles {
		if (p.Churn == ChurnSteady || p.Churn == ChurnFlapping) && env.Config(p).Modality.UsesImages() {
			eligible[p.SessionID] = true
		}
	}
	replicas := co.Replicas()
	tick := time.NewTicker(every)
	defer tick.Stop()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		for k := 0; k < len(replicas); k++ {
			src := replicas[(i+k)%len(replicas)]
			var cand string
			for _, id := range src.LiveSessions() {
				if eligible[id] && co.RouteOf(id) == src.ID() {
					cand = id
					break
				}
			}
			if cand == "" {
				continue
			}
			var dst coord.Replica
			for _, r := range replicas {
				if r.ID() == src.ID() || r.Draining() {
					continue
				}
				if dst == nil || r.Live() < dst.Live() {
					dst = r
				}
			}
			if dst == nil {
				return
			}
			_ = co.Migrate(cand, dst.ID()) // races are counted by the coordinator
			break
		}
	}
}
