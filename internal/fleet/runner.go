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
	State    string `json:"state"`
	Steps    int    `json:"steps"`
	LastLoss uint64 `json:"last_loss_bits"`
	LastRMSE uint64 `json:"last_rmse_bits"`
	Resumes  int    `json:"resumes"`
}

// HandoverReport measures the replica fleet's live-migration drill. It
// lands as the `handover` section under `fleet` in BENCH.json.
type HandoverReport struct {
	Replicas   int   `json:"replicas"`
	Migrations int64 `json:"migrations"` // completed handovers
	Failed     int64 `json:"failed"`     // attempts lost to races (session ended mid-selection)

	// MigratedEnds counts session incarnations retired with the
	// migrated disposition across all replicas — the server-side echo
	// of Migrations.
	MigratedEnds int `json:"migrated_incarnations"`

	P50Ms float64 `json:"latency_p50_ms"`
	P99Ms float64 `json:"latency_p99_ms"`
}

// FailoverReport measures the chaos drill's crash-failover pipeline —
// MTTR split into detection (first failed probe → death verdict) and
// recovery (fence → session settled on a survivor), plus the session
// ledger. It lands as the `failover` section under `fleet` in
// BENCH.json; the CI gate fails the build on lost sessions, zero
// recoveries, or degenerate MTTR.
type FailoverReport struct {
	Replicas int `json:"replicas"`
	Kills    int `json:"kills"`   // uncontrolled replica kills injected
	Rejoins  int `json:"rejoins"` // fresh incarnations booted on the same store

	Failovers         int64 `json:"failovers"`          // crash failovers the coordinator ran
	SessionsRecovered int64 `json:"sessions_recovered"` // adopted onto survivors from durable checkpoints
	SessionsLost      int64 `json:"sessions_lost"`      // checkpointed sessions recovery could not save
	Readmissions      int64 `json:"readmissions"`       // fenced replicas back in placement after healthy probes
	RefusedDown       int64 `json:"refused_replica_down"`

	DetectP50Ms  float64 `json:"detect_p50_ms"`
	DetectP99Ms  float64 `json:"detect_p99_ms"`
	RecoverP50Ms float64 `json:"recover_p50_ms"`
	RecoverP99Ms float64 `json:"recover_p99_ms"`
}

// Report is what a fleet soak measures. It lands as the `fleet` section
// of BENCH.json.
type Report struct {
	UEs          int     `json:"ues"`
	StepsPerUE   int     `json:"steps_per_ue"`
	SceneClasses int     `json:"scene_classes"`
	ChurnUEs     int     `json:"churn_ues"`
	ElapsedSec   float64 `json:"elapsed_sec"`

	// Rounds counts training rounds served; StepsPerSec is the
	// aggregate serving throughput over the whole soak.
	Rounds      int64   `json:"rounds"`
	StepsPerSec float64 `json:"agg_steps_per_sec"`
	P50Ms       float64 `json:"round_p50_ms"`
	P99Ms       float64 `json:"round_p99_ms"`

	// SharedRatio is the fraction of rounds served by a clone group's
	// shared computation — ≈0 expected under mixed fingerprints, which
	// is the point: the fleet is the anti-clone load.
	SharedRounds int64   `json:"shared_rounds"`
	SharedRatio  float64 `json:"shared_ratio"`

	// Lifecycle outcome counters, accumulated over every session
	// incarnation by the server's end-of-session hook.
	Completed  int `json:"completed"`
	Drops      int `json:"drops"`
	Evictions  int `json:"evictions"`
	Supersedes int `json:"supersedes"`
	Resumes    int `json:"resumes"`

	// DriverErrors counts UE drivers that ended on an error their churn
	// script did not call for — always 0 in a healthy soak.
	DriverErrors int `json:"driver_errors"`

	// LeakedSessions is the number of sessions still live after every
	// driver and handler finished — always 0 in a healthy soak.
	LeakedSessions    int     `json:"leaked_sessions"`
	RetainedSnapshots int     `json:"retained_snapshots"`
	EvictedSnapshots  int64   `json:"evicted_snapshots"`
	QueuePeak         int64   `json:"batch_queue_peak"`
	PeakRSSMB         float64 `json:"peak_rss_mb"`

	// Handover is present when the soak ran a replica fleet
	// (Spec.Replicas > 1).
	Handover *HandoverReport `json:"handover,omitempty"`

	// Failover is present when the soak ran the chaos drill
	// (Spec.Chaos).
	Failover *FailoverReport `json:"failover,omitempty"`

	// Final maps session id → its last incarnation's outcome: the
	// per-UE ground truth the determinism suite compares across runs
	// and worker counts. Excluded from BENCH.json.
	Final map[string]Outcome `json:"-"`
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

	rep := &Report{
		UEs:          spec.UEs,
		StepsPerUE:   spec.Steps,
		SceneClasses: spec.SceneClasses,
		Final:        make(map[string]Outcome, spec.UEs),
	}
	for _, p := range env.Profiles {
		if p.Churn != ChurnSteady {
			rep.ChurnUEs++
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
			IdleTimeout:     spec.IdleTimeout,
			BatchWindow:     spec.BatchWindow,
			BatchMax:        spec.BatchMax,
			Retain:          spec.Retain,
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
			cs := &chaosStore{
				path:   filepath.Join(chaosDir, fmt.Sprintf("bs-%d.journal", i)),
				retain: spec.Retain,
			}
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
				cfg.Store = store.NewMem(spec.Retain)
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
		if spec.OnCoordinator != nil {
			spec.OnCoordinator(co)
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
		spec.UEs, rep.ChurnUEs, spec.SceneClasses, spec.Steps, spec.Replicas)

	start := time.Now()
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
	case <-time.After(spec.WallLimit):
		close(stopDrill)
		live := 0
		for _, srv := range currentServers() {
			live += srv.ActiveSessions()
		}
		return nil, fmt.Errorf("fleet: soak wedged: %d/%d sessions still live after %v",
			live, spec.UEs, spec.WallLimit)
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
	rep.ElapsedSec = time.Since(start).Seconds()

	// From here on read the live incarnations (identical to servers in a
	// chaos-free soak). Counters that died with a killed incarnation —
	// its rounds, its ring samples — are gone, like a real crashed
	// process's; the chaos report measures recovery, not throughput.
	servers = currentServers()

	for _, srv := range servers {
		rep.SharedRounds += srv.SharedRounds()
		rep.LeakedSessions += srv.ActiveSessions()
		rep.RetainedSnapshots += srv.RetainedSessions()
		rep.EvictedSnapshots += srv.EvictedSnapshots()
		if _, peak := srv.BatchQueueDepth(); peak > rep.QueuePeak {
			rep.QueuePeak = peak
		}
	}
	if spec.Replicas == 1 {
		p50, p99, rounds := servers[0].RoundLatency()
		rep.Rounds = rounds
		rep.P50Ms = float64(p50) / float64(time.Millisecond)
		rep.P99Ms = float64(p99) / float64(time.Millisecond)
	} else {
		// Per-replica rings cannot be merged exactly; fold the lifetime
		// histograms instead and read the percentiles off the buckets.
		var merged transport.LatencyHistogram
		for _, srv := range servers {
			h := srv.RoundLatencyHistogram()
			if merged.Counts == nil {
				merged = h
			} else {
				for i := range h.Counts {
					merged.Counts[i] += h.Counts[i]
				}
				merged.Sum += h.Sum
				merged.Count += h.Count
			}
		}
		rep.Rounds = merged.Count
		rep.P50Ms = float64(histQuantile(merged, 0.50)) / float64(time.Millisecond)
		rep.P99Ms = float64(histQuantile(merged, 0.99)) / float64(time.Millisecond)
	}
	if rep.ElapsedSec > 0 {
		rep.StepsPerSec = float64(rep.Rounds) / rep.ElapsedSec
	}
	if rep.Rounds > 0 {
		rep.SharedRatio = float64(rep.SharedRounds) / float64(rep.Rounds)
	}
	if co != nil {
		st := co.Stats()
		p50, p99, _ := co.HandoverLatency()
		rep.Handover = &HandoverReport{
			Replicas:     spec.Replicas,
			Migrations:   st.Migrations,
			Failed:       st.MigrationFails,
			MigratedEnds: migratedEnds,
			P50Ms:        float64(p50) / float64(time.Millisecond),
			P99Ms:        float64(p99) / float64(time.Millisecond),
		}
		if spec.Chaos {
			dp50, dp99, _ := co.DetectionLatency()
			rp50, rp99, _ := co.RecoveryLatency()
			fo := &FailoverReport{
				Replicas:          spec.Replicas,
				Failovers:         st.Failovers,
				SessionsRecovered: st.SessionsRecovered,
				SessionsLost:      st.SessionsLost,
				Readmissions:      st.Rejoins,
				RefusedDown:       st.RefusedDown,
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
	rep.PeakRSSMB = peakRSSMB()

	logf("fleet: %d rounds in %.1fs (%.0f steps/s), shared %.3f, completed %d, drops %d, evictions %d, supersedes %d, resumes %d",
		rep.Rounds, rep.ElapsedSec, rep.StepsPerSec, rep.SharedRatio,
		rep.Completed, rep.Drops, rep.Evictions, rep.Supersedes, rep.Resumes)
	if rep.Handover != nil {
		logf("fleet: handover drill: %d migrations (%d failed attempts), p50 %.2fms p99 %.2fms",
			rep.Handover.Migrations, rep.Handover.Failed, rep.Handover.P50Ms, rep.Handover.P99Ms)
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
	path   string
	retain int

	mu  sync.Mutex
	cur *store.FaultFS
}

func (cs *chaosStore) open() (store.Store, error) {
	ff := store.NewFaultFS(store.OS, 1<<40)
	st, err := store.OpenJournal(cs.path, store.JournalOptions{Retain: cs.retain, FS: ff})
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

// histQuantile reads a quantile off a merged lifetime histogram: the
// upper bound of the bucket where the cumulative count crosses q.
func histQuantile(h transport.LatencyHistogram, q float64) time.Duration {
	if h.Count == 0 {
		return 0
	}
	target := int64(q * float64(h.Count))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, n := range h.Counts {
		cum += n
		if cum >= target {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			break
		}
	}
	// Overflow bucket: report the mean of what we know exceeds the
	// largest bound.
	return h.Sum / time.Duration(h.Count)
}
