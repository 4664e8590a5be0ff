package coord_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/store"
	"repro/internal/transport"
)

// Crash-failover tests: invariant 10 (a session recovered from an
// uncontrolled replica kill resumes on a survivor bit-identical to a
// run interrupted at that checkpoint, zero incarnations lost) plus the
// race windows the detector/failover pipeline must survive — death
// mid-handover, death mid-checkpoint, and a second death during the
// recovery itself. All of them run under -race in CI.

// crashBackoff gives a UE enough reconnect budget to ride out the
// window between the kill and the settled failover, during which every
// dial is severed without an ack.
var crashBackoff = transport.Backoff{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond, Retries: 60}

// TestFailoverCrashRecovery: kill a replica serving live checkpointed
// sessions, run crash failover, and require every victim to resume on
// a survivor and complete — zero lost incarnations, zero leaks.
func TestFailoverCrashRecovery(t *testing.T) {
	prov := tinyProvision()
	co, servers := testFleet(t, 3, 40, prov)

	var wg sync.WaitGroup
	const ues = 6
	sessions := make([]*transport.UESession, ues)
	for i := range sessions {
		h, cfg, d := tinyHello(prov, fmt.Sprintf("ue-%d", i), int64(300+i))
		us := &transport.UESession{Hello: h, Cfg: cfg, Data: d, Backoff: crashBackoff}
		// Pace the run so it is still live when the kill lands.
		us.OnRequest = func(mt transport.MsgType, _ uint32) error {
			if mt == transport.MsgBatchRequest {
				time.Sleep(500 * time.Microsecond)
			}
			return nil
		}
		sessions[i] = us
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := us.Run(coordDial(co, &wg)); err != nil {
				panic(fmt.Sprintf("UESession %q: %v", h.SessionID, err))
			}
		}()
	}

	// Every session live and past its first durable checkpoint
	// (CheckpointEvery is 5 in testFleet).
	waitFor(t, "all sessions checkpointed", func() bool {
		for i := 0; i < ues; i++ {
			id := fmt.Sprintf("ue-%d", i)
			src := co.RouteOf(id)
			if src == "" {
				return false
			}
			sn, ok := co.ReplicaByID(src).(*coord.LocalReplica).BS().SessionByID(id)
			if !ok || sn.Steps < 6 {
				return false
			}
		}
		return true
	})

	victimID := co.RouteOf("ue-0")
	var victims []string
	for i := 0; i < ues; i++ {
		if id := fmt.Sprintf("ue-%d", i); co.RouteOf(id) == victimID {
			victims = append(victims, id)
		}
	}
	var victimSrv *transport.BSServer
	for _, srv := range servers {
		if srv.ReplicaID() == victimID {
			victimSrv = srv
		}
	}

	victimSrv.Crash() // uncontrolled: sessions severed mid-frame
	res, err := co.FailReplica(victimID)
	if err != nil {
		t.Fatalf("FailReplica: %v", err)
	}
	if res.Sessions != len(victims) || res.Recovered != len(victims) || res.Lost != 0 || res.Fresh != 0 {
		t.Fatalf("failover result for %d victims: %+v", len(victims), res)
	}
	wg.Wait()

	// Every victim resumed on a survivor and completed there.
	for _, id := range victims {
		dst := co.RouteOf(id)
		if dst == "" || dst == victimID {
			t.Fatalf("victim %q routed to %q after failover", id, dst)
		}
		if co.IsFenced(dst) {
			t.Fatalf("victim %q routed to fenced replica %q", id, dst)
		}
		sn := waitDetached(t, co.ReplicaByID(dst).(*coord.LocalReplica).BS(), id)
		if sn.Steps != 40 || sn.ResumedFrom == 0 {
			t.Fatalf("recovered session %q on %s: %+v", id, dst, sn)
		}
	}
	for i, us := range sessions {
		routed := co.RouteOf(fmt.Sprintf("ue-%d", i))
		if routed != victimID && us.Resumes() == 0 && contains(victims, fmt.Sprintf("ue-%d", i)) {
			t.Fatalf("victim ue-%d never resumed", i)
		}
	}
	for _, srv := range servers {
		srv := srv
		waitFor(t, srv.ReplicaID()+" to settle", func() bool { return srv.ActiveSessions() == 0 })
	}

	st := co.Stats()
	if st.Failovers != 1 || st.SessionsRecovered != int64(len(victims)) || st.SessionsLost != 0 {
		t.Fatalf("coordinator stats after failover: %+v", st)
	}
	if p50, p99, n := co.RecoveryLatency(); n != len(victims) || p50 <= 0 || p99 < p50 {
		t.Fatalf("recovery latency: p50=%v p99=%v n=%d", p50, p99, n)
	}
	if !co.IsFenced(victimID) {
		t.Fatal("dead replica not fenced after failover")
	}
	co.Unfence(victimID)
	if co.Stats().Rejoins != 1 {
		t.Fatalf("unfence not counted: %+v", co.Stats())
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// TestFailoverBitIdentityMatrix is invariant 10 across every store
// backend: kill the serving replica uncontrolled mid-training, fail
// over, and the recovered run's UE half, BS store blob and final
// metric bits must equal a solo run's exactly.
func TestFailoverBitIdentityMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("2-cell crash matrix in -short")
	}
	prov := tinyProvision()
	for _, backend := range invariantBackends {
		t.Run(backend.name, func(t *testing.T) {
			failoverBitIdentityCell(t, prov, backend.open)
		})
	}
}

func failoverBitIdentityCell(t *testing.T, prov transport.Provision, open func(*testing.T) store.Store) {
	const steps = 30
	newServer := func(id string, st store.Store) *transport.BSServer {
		srv, err := transport.NewBSServer(transport.ServerConfig{
			ReplicaID: id,
			MaxUE:     2, Steps: steps, EvalEvery: 1 << 30, ValAnchors: 8,
			Provision: prov, CheckpointEvery: 2,
			Store: st,
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}

	// Reference: the same session served end-to-end on one BS.
	soloStore := open(t)
	defer soloStore.Close()
	solo := newServer("solo", soloStore)
	_, soloUE := invariantHello(prov, "ue-inv", 0)
	if err := soloUE.Run(func() (io.ReadWriteCloser, error) {
		ueEnd, bsEnd := net.Pipe()
		go func() { _ = solo.Handle(bsEnd) }()
		return ueEnd, nil
	}); err != nil {
		t.Fatalf("solo run: %v", err)
	}
	soloSnap := waitDetached(t, solo, "ue-inv")
	soloBS, err := soloStore.GetCheckpoint("ue-inv", steps)
	if err != nil {
		t.Fatalf("solo BS checkpoint: %v", err)
	}

	// Crash path: two replicas on the same backend kind; the serving one
	// is killed uncontrolled past a checkpoint and failover moves the
	// session to the survivor, where it finishes.
	stA, stB := open(t), open(t)
	defer stA.Close()
	defer stB.Close()
	srvA, srvB := newServer("bs-a", stA), newServer("bs-b", stB)
	co, err := coord.New([]coord.Replica{
		coord.NewLocalReplica(srvA), coord.NewLocalReplica(srvB),
	}, coord.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	_, crashUE := invariantHello(prov, "ue-inv", 0)
	crashUE.Backoff = crashBackoff
	crashUE.OnRequest = func(mt transport.MsgType, _ uint32) error {
		if mt == transport.MsgBatchRequest {
			time.Sleep(500 * time.Microsecond)
		}
		return nil
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := crashUE.Run(coordDial(co, &wg)); err != nil {
			panic(fmt.Sprintf("crashed-run UESession: %v", err))
		}
	}()

	waitFor(t, "session past a checkpoint", func() bool {
		src := co.RouteOf("ue-inv")
		if src == "" {
			return false
		}
		sn, ok := co.ReplicaByID(src).(*coord.LocalReplica).BS().SessionByID("ue-inv")
		return ok && sn.Steps >= 4
	})
	src := co.RouteOf("ue-inv")
	co.ReplicaByID(src).(*coord.LocalReplica).BS().Crash()
	res, err := co.FailReplica(src)
	if err != nil {
		t.Fatalf("FailReplica: %v", err)
	}
	if res.Recovered != 1 || res.Lost != 0 {
		t.Fatalf("failover result: %+v", res)
	}
	wg.Wait()

	if crashUE.Resumes() == 0 {
		t.Fatal("recovered session never resumed")
	}
	dst := co.RouteOf("ue-inv")
	if dst == "" || dst == src {
		t.Fatalf("session routed to %q after failover of %q", dst, src)
	}
	dstSrv := co.ReplicaByID(dst).(*coord.LocalReplica).BS()
	crashSnap := waitDetached(t, dstSrv, "ue-inv")
	if crashSnap.Steps != steps || crashSnap.ResumedFrom == 0 {
		t.Fatalf("survivor snapshot: %+v", crashSnap)
	}
	dstStore := stB
	if dst == "bs-a" {
		dstStore = stA
	}
	crashBS, err := dstStore.GetCheckpoint("ue-inv", steps)
	if err != nil {
		t.Fatalf("survivor BS checkpoint: %v", err)
	}

	// Invariant 10: both halves bit-identical to the uninterrupted run.
	if !bytes.Equal(soloUE.CheckpointBytes(), crashUE.CheckpointBytes()) {
		t.Error("UE half diverged between solo and crash-recovered runs")
	}
	if !bytes.Equal(soloBS, crashBS) {
		t.Error("BS half diverged between solo and crash-recovered runs")
	}
	if math.Float64bits(soloSnap.LastLoss) != math.Float64bits(crashSnap.LastLoss) ||
		math.Float64bits(soloSnap.LastRMSE) != math.Float64bits(crashSnap.LastRMSE) {
		t.Errorf("final metrics diverged: solo loss=%x rmse=%x, recovered loss=%x rmse=%x",
			math.Float64bits(soloSnap.LastLoss), math.Float64bits(soloSnap.LastRMSE),
			math.Float64bits(crashSnap.LastLoss), math.Float64bits(crashSnap.LastRMSE))
	}
}

// TestFailoverMidMigrateOut: the replica dies while a planned handover
// is checkpointing the session out of it. The handover fails against
// the dead source, the failover barriers wait it out, and the session
// still lands whole on a survivor — nothing lost either way the race
// resolves.
func TestFailoverMidMigrateOut(t *testing.T) {
	prov := tinyProvision()
	co, servers := testFleet(t, 2, 60, prov)

	var wg sync.WaitGroup
	h, cfg, d := tinyHello(prov, "ue-race", 31)
	us := &transport.UESession{Hello: h, Cfg: cfg, Data: d, Backoff: crashBackoff}
	us.OnRequest = func(mt transport.MsgType, _ uint32) error {
		if mt == transport.MsgBatchRequest {
			time.Sleep(500 * time.Microsecond)
		}
		return nil
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := us.Run(coordDial(co, &wg)); err != nil {
			panic(fmt.Sprintf("UESession ue-race: %v", err))
		}
	}()

	waitFor(t, "session checkpointed", func() bool {
		src := co.RouteOf("ue-race")
		if src == "" {
			return false
		}
		sn, ok := co.ReplicaByID(src).(*coord.LocalReplica).BS().SessionByID("ue-race")
		return ok && sn.Steps >= 6
	})
	src := co.RouteOf("ue-race")
	dst := "bs-1"
	if src == dst {
		dst = "bs-0"
	}

	// Fire the handover and kill the source while it is in flight. The
	// interleaving is genuinely racy — that is the point: whichever side
	// wins, the session must survive.
	migDone := make(chan error, 1)
	go func() { migDone <- co.Migrate("ue-race", dst) }()
	time.Sleep(time.Millisecond)
	var srcSrv *transport.BSServer
	for _, srv := range servers {
		if srv.ReplicaID() == src {
			srcSrv = srv
		}
	}
	srcSrv.Crash()
	if _, err := co.FailReplica(src); err != nil {
		t.Fatalf("FailReplica: %v", err)
	}
	migErr := <-migDone
	t.Logf("mid-migrate race: migrate=%v", migErr)

	wg.Wait()
	sn := waitDetached(t, co.ReplicaByID(dst).(*coord.LocalReplica).BS(), "ue-race")
	if sn.Steps != 60 {
		t.Fatalf("session after mid-migrate crash: %+v", sn)
	}
	for _, srv := range servers {
		srv := srv
		waitFor(t, srv.ReplicaID()+" to settle", func() bool { return srv.ActiveSessions() == 0 })
	}
	st := co.Stats()
	if st.SessionsLost != 0 {
		t.Fatalf("sessions lost in mid-migrate crash: %+v", st)
	}
	if st.Failovers != 1 {
		t.Fatalf("failovers after mid-migrate crash: %+v", st)
	}
}

// hookStore observes checkpoint writes so a test can inject a crash at
// an exact durability boundary.
type hookStore struct {
	store.Store
	mu    sync.Mutex
	puts  int
	onPut func(n int)
}

func (h *hookStore) PutCheckpoint(id string, step int, blob []byte) error {
	err := h.Store.PutCheckpoint(id, step, blob)
	h.mu.Lock()
	h.puts++
	n := h.puts
	f := h.onPut
	h.mu.Unlock()
	if err == nil && f != nil {
		f(n)
	}
	return err
}

// TestFailoverMidCheckpoint: the replica dies in the instant after a
// checkpoint write lands, before the UE necessarily learns about it.
// The store retains the newest checkpoint and its predecessor, so the
// UE's possibly-lagging resume token still resolves on the survivor
// and the session completes from its previous durable checkpooint.
func TestFailoverMidCheckpoint(t *testing.T) {
	prov := tinyProvision()
	const steps = 40

	servers := make([]*transport.BSServer, 2)
	replicas := make([]coord.Replica, 2)
	var once sync.Once
	crashed := make(chan string, 1)
	for i := range servers {
		i := i
		hs := &hookStore{Store: store.NewMem(64)}
		srv, err := transport.NewBSServer(transport.ServerConfig{
			ReplicaID: fmt.Sprintf("bs-%d", i),
			MaxUE:     8, Steps: steps, EvalEvery: 1 << 30, ValAnchors: 8,
			Provision: prov, CheckpointEvery: 5,
			Store: hs,
		})
		if err != nil {
			t.Fatal(err)
		}
		// After the second durable checkpoint (steps 5 and 10 on disk),
		// kill the server from under the session — asynchronously, the
		// way a power cut would interleave with the write path.
		hs.onPut = func(n int) {
			if n >= 2 {
				once.Do(func() {
					go func() {
						srv.Crash()
						crashed <- srv.ReplicaID()
					}()
				})
			}
		}
		servers[i] = srv
		replicas[i] = coord.NewLocalReplica(srv)
	}
	co, err := coord.New(replicas, coord.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	h, cfg, d := tinyHello(prov, "ue-ckpt", 53)
	us := &transport.UESession{Hello: h, Cfg: cfg, Data: d, Backoff: crashBackoff}
	us.OnRequest = func(mt transport.MsgType, _ uint32) error {
		if mt == transport.MsgBatchRequest {
			time.Sleep(500 * time.Microsecond)
		}
		return nil
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := us.Run(coordDial(co, &wg)); err != nil {
			panic(fmt.Sprintf("UESession ue-ckpt: %v", err))
		}
	}()

	src := <-crashed
	res, err := co.FailReplica(src)
	if err != nil {
		t.Fatalf("FailReplica: %v", err)
	}
	if res.Recovered != 1 || res.Lost != 0 {
		t.Fatalf("failover result: %+v", res)
	}
	wg.Wait()

	if us.Resumes() == 0 {
		t.Fatal("session never resumed after mid-checkpoint crash")
	}
	dst := co.RouteOf("ue-ckpt")
	if dst == "" || dst == src {
		t.Fatalf("session routed to %q after failover of %q", dst, src)
	}
	sn := waitDetached(t, co.ReplicaByID(dst).(*coord.LocalReplica).BS(), "ue-ckpt")
	if sn.Steps != steps || sn.ResumedFrom == 0 {
		t.Fatalf("survivor snapshot: %+v", sn)
	}
	if st := co.Stats(); st.SessionsLost != 0 || st.SessionsRecovered != 1 {
		t.Fatalf("stats after mid-checkpoint crash: %+v", st)
	}
}

// adoptCrasher wraps a replica so the first adoption attempted anywhere
// in the fleet kills the adopter — the double-failure scenario: a
// survivor dies in the middle of taking over the dead replica's
// sessions, and recovery must retry onto the remaining survivor.
type adoptCrasher struct {
	*coord.LocalReplica
	gate *atomic.Bool
}

func (a *adoptCrasher) Adopt(st *transport.MigrationState) error {
	if a.gate.CompareAndSwap(false, true) {
		a.BS().Crash()
	}
	return a.LocalReplica.Adopt(st)
}

// TestFailoverDoubleFailure: the survivor picked to adopt the victim's
// session crashes during the adoption. The per-session retry skips the
// now-dead adopter and lands the session on the remaining survivor —
// still zero lost incarnations.
func TestFailoverDoubleFailure(t *testing.T) {
	prov := tinyProvision()
	const steps = 40

	var gate atomic.Bool
	servers := make([]*transport.BSServer, 3)
	replicas := make([]coord.Replica, 3)
	for i := range servers {
		srv, err := transport.NewBSServer(transport.ServerConfig{
			ReplicaID: fmt.Sprintf("bs-%d", i),
			MaxUE:     8, Steps: steps, EvalEvery: 1 << 30, ValAnchors: 8,
			Provision: prov, CheckpointEvery: 5,
			Store: store.NewMem(64),
		})
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
		replicas[i] = &adoptCrasher{LocalReplica: coord.NewLocalReplica(srv), gate: &gate}
	}
	co, err := coord.New(replicas, coord.Options{
		Logf: t.Logf,
		// Tight retry backoff: the test exercises the skip-failed-survivor
		// path, not the wait.
		Failover: coord.FailoverConfig{RetryLimit: 4, RetryBackoff: transport.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	h, cfg, d := tinyHello(prov, "ue-dbl", 67)
	us := &transport.UESession{Hello: h, Cfg: cfg, Data: d, Backoff: crashBackoff}
	us.OnRequest = func(mt transport.MsgType, _ uint32) error {
		if mt == transport.MsgBatchRequest {
			time.Sleep(500 * time.Microsecond)
		}
		return nil
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := us.Run(coordDial(co, &wg)); err != nil {
			panic(fmt.Sprintf("UESession ue-dbl: %v", err))
		}
	}()

	waitFor(t, "session checkpointed", func() bool {
		src := co.RouteOf("ue-dbl")
		if src == "" {
			return false
		}
		for _, srv := range servers {
			if srv.ReplicaID() == src {
				sn, ok := srv.SessionByID("ue-dbl")
				return ok && sn.Steps >= 6
			}
		}
		return false
	})
	src := co.RouteOf("ue-dbl")
	for _, srv := range servers {
		if srv.ReplicaID() == src {
			srv.Crash()
		}
	}
	res, err := co.FailReplica(src)
	if err != nil {
		t.Fatalf("FailReplica: %v", err)
	}
	if !gate.Load() {
		t.Fatal("double-failure gate never fired: no adoption was attempted")
	}
	if res.Recovered != 1 || res.Lost != 0 {
		t.Fatalf("failover result after double failure: %+v", res)
	}
	wg.Wait()

	// The session must have landed on the one replica that neither
	// crashed as the victim nor crashed as the adopter.
	dst := co.RouteOf("ue-dbl")
	if dst == "" || dst == src {
		t.Fatalf("session routed to %q after double failure of %q", dst, src)
	}
	var dstSrv *transport.BSServer
	for _, srv := range servers {
		if srv.ReplicaID() == dst {
			dstSrv = srv
		}
	}
	if dstSrv.Crashed() {
		t.Fatalf("session settled on crashed replica %q", dst)
	}
	sn := waitDetached(t, dstSrv, "ue-dbl")
	if sn.Steps != steps || sn.ResumedFrom == 0 {
		t.Fatalf("final snapshot after double failure: %+v", sn)
	}
	if st := co.Stats(); st.SessionsLost != 0 || st.SessionsRecovered != 1 {
		t.Fatalf("stats after double failure: %+v", st)
	}
}

// fakeReplica is a detector test double: probe behaviour is scripted,
// everything else is inert.
type fakeReplica struct {
	id    string
	mu    sync.Mutex
	err   error
	delay time.Duration
}

func (f *fakeReplica) setProbe(err error, delay time.Duration) {
	f.mu.Lock()
	f.err, f.delay = err, delay
	f.mu.Unlock()
}

func (f *fakeReplica) ID() string                            { return f.id }
func (f *fakeReplica) Dial() (io.ReadWriteCloser, error)     { return nil, errors.New("fake: no dial") }
func (f *fakeReplica) Live() int                             { return 0 }
func (f *fakeReplica) Draining() bool                        { return false }
func (f *fakeReplica) ServesConfigFP(uint64) bool            { return false }
func (f *fakeReplica) LiveSessions() []string                { return nil }
func (f *fakeReplica) Adopt(*transport.MigrationState) error { return nil }
func (f *fakeReplica) MigrateOut(string, time.Duration) (*transport.MigrationState, error) {
	return nil, errors.New("fake: no migrate")
}
func (f *fakeReplica) Probe() error {
	f.mu.Lock()
	err, delay := f.err, f.delay
	f.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	return err
}

// TestDetectorVerdictAndRejoin walks one replica through the full state
// machine: healthy → suspect → dead (verdict fires once, failover
// fences) → rejoining → healthy (fence lifted after the quota).
func TestDetectorVerdictAndRejoin(t *testing.T) {
	f1 := &fakeReplica{id: "f1"}
	f2 := &fakeReplica{id: "f2"}
	co, err := coord.New([]coord.Replica{f1, f2}, coord.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	det := co.StartDetector(coord.DetectorConfig{
		Interval: 2 * time.Millisecond, Timeout: 20 * time.Millisecond,
		FailAfter: 3, RejoinAfter: 2,
	})
	defer det.Stop()

	waitFor(t, "both replicas probed healthy", func() bool {
		h := det.Health()
		return h["f1"] == coord.HealthHealthy && h["f2"] == coord.HealthHealthy
	})

	f1.setProbe(errors.New("injected probe failure"), 0)
	waitFor(t, "death verdict and fence", func() bool {
		return det.Health()["f1"] == coord.HealthDead && co.IsFenced("f1")
	})
	// The verdict fires exactly once per bad run: the probes keep
	// failing, but no second failover starts.
	time.Sleep(20 * time.Millisecond)
	if st := co.Stats(); st.Failovers != 1 {
		t.Fatalf("death verdict fired %d failovers, want 1", st.Failovers)
	}
	if p50, p99, n := co.DetectionLatency(); n != 1 || p50 <= 0 || p99 < p50 {
		t.Fatalf("detection latency: p50=%v p99=%v n=%d", p50, p99, n)
	}
	if h := det.Health()["f2"]; h != coord.HealthHealthy {
		t.Fatalf("healthy replica misclassified: %v", h)
	}

	// Probes recover: the fenced replica accumulates its quota and is
	// readmitted to placement.
	f1.setProbe(nil, 0)
	waitFor(t, "rejoin lifts the fence", func() bool { return !co.IsFenced("f1") })
	waitFor(t, "rejoined replica healthy", func() bool {
		return det.Health()["f1"] == coord.HealthHealthy
	})
	if st := co.Stats(); st.Rejoins != 1 {
		t.Fatalf("rejoin not counted: %+v", st)
	}
}

// TestDetectorGray: a replica that answers probes slowly — past the
// gray threshold but inside the timeout — is classified gray, not
// suspect or dead, and no failover runs.
func TestDetectorGray(t *testing.T) {
	f1 := &fakeReplica{id: "f1"}
	co, err := coord.New([]coord.Replica{f1}, coord.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	det := co.StartDetector(coord.DetectorConfig{
		Interval: 2 * time.Millisecond, Timeout: 60 * time.Millisecond,
		GrayAfter: 5 * time.Millisecond, FailAfter: 3,
	})
	defer det.Stop()

	f1.setProbe(nil, 10*time.Millisecond) // slow but alive
	waitFor(t, "gray classification", func() bool {
		return det.Health()["f1"] == coord.HealthGray
	})
	if lat := det.ProbeLatency("f1"); lat < 10*time.Millisecond {
		t.Fatalf("probe latency %v, want >= the injected 10ms stall", lat)
	}
	if st := co.Stats(); st.Failovers != 0 {
		t.Fatalf("gray replica triggered failover: %+v", st)
	}
	if co.IsFenced("f1") {
		t.Fatal("gray replica fenced")
	}

	f1.setProbe(nil, 0)
	waitFor(t, "recovery to healthy", func() bool {
		return det.Health()["f1"] == coord.HealthHealthy
	})
}
