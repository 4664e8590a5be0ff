package coord_test

import (
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/coord"
	"repro/internal/transport"
)

// Handover-under-churn drills (run race-enabled in CI): live migration
// racing the other lifecycle machinery — a draining replica, a flapping
// UE cutting its own uplink, a policy swap through the control plane —
// must never leak a session, whichever side of each race wins.

// assertNoLeaks waits for every replica's live count to drain to zero:
// the handler goroutines retire sessions slightly after the UE side
// returns, and a count that never settles is a leak.
func assertNoLeaks(t *testing.T, servers []*transport.BSServer) {
	t.Helper()
	for _, srv := range servers {
		srv := srv
		waitFor(t, srv.ReplicaID()+" to settle", func() bool { return srv.ActiveSessions() == 0 })
	}
}

// migrateLoop bounces the session between the two replicas until stop
// closes, ignoring the benign failures (session mid-migration, ended,
// or already settled elsewhere) the coordinator counts for us.
func migrateLoop(co *coord.Coordinator, id string, stop <-chan struct{}) {
	dst := []string{"bs-0", "bs-1"}
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		case <-time.After(2 * time.Millisecond):
		}
		_ = co.Migrate(id, dst[i%2])
	}
}

// TestHandoverDuringDrain: migration racing a graceful drain of the
// source replica. Whichever wins at the step boundary — the checkpoint-
// and-detach of the drain or the checkpoint-and-handover of the
// migration — the UE ends cleanly and nothing leaks.
func TestHandoverDuringDrain(t *testing.T) {
	prov := tinyProvision()
	co, servers := testFleet(t, 2, 4000, prov)

	var wg sync.WaitGroup
	h, cfg, d := tinyHello(prov, "ue-drain", 21)
	us := &transport.UESession{
		Hello: h, Cfg: cfg, Data: d,
		Backoff: transport.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
	}
	done := make(chan error, 1)
	go func() { done <- us.Run(coordDial(co, &wg)) }()

	waitFor(t, "session live", func() bool {
		src := co.RouteOf("ue-drain")
		if src == "" {
			return false
		}
		sn, ok := co.ReplicaByID(src).(*coord.LocalReplica).BS().SessionByID("ue-drain")
		return ok && sn.Steps >= 4
	})
	src := co.RouteOf("ue-drain")
	dst := "bs-1"
	if src == dst {
		dst = "bs-0"
	}
	srcSrv := co.ReplicaByID(src).(*coord.LocalReplica).BS()

	// Fire the drain and the migration together, from both sides.
	var race sync.WaitGroup
	race.Add(2)
	go func() { defer race.Done(); srcSrv.Drain() }()
	migErr := make(chan error, 1)
	go func() { defer race.Done(); migErr <- co.Migrate("ue-drain", dst) }()
	race.Wait()

	// The UE must end cleanly either way: detached early by the drain,
	// or resumed on the destination (which is not draining) and run to
	// completion there.
	if err := <-done; err != nil {
		t.Fatalf("UESession under drain/migrate race: %v", err)
	}
	if err := <-migErr; err != nil && !strings.Contains(err.Error(), "ue-drain") {
		t.Fatalf("unexpected migrate error shape: %v", err)
	}
	wg.Wait()
	assertNoLeaks(t, servers)
	st := co.Stats()
	if st.Migrations+st.MigrationFails == 0 {
		t.Fatalf("migration neither succeeded nor failed: %+v", st)
	}
}

// TestHandoverDuringFlapping: a UE that keeps cutting its own uplink
// (FaultConn) while a migration loop bounces its session between
// replicas. Every incarnation ends as a failed-read, a handover or a
// resume; the session still finishes and nothing leaks.
func TestHandoverDuringFlapping(t *testing.T) {
	prov := tinyProvision()
	co, servers := testFleet(t, 2, 60, prov)

	var wg sync.WaitGroup
	h, cfg, d := tinyHello(prov, "ue-flap", 23)
	base := coordDial(co, &wg)
	var cuts atomic.Int64
	us := &transport.UESession{
		Hello: h, Cfg: cfg, Data: d,
		Backoff: transport.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Retries: 64},
		OnRequest: func(mt transport.MsgType, _ uint32) error {
			if mt == transport.MsgBatchRequest {
				time.Sleep(200 * time.Microsecond)
			}
			return nil
		},
	}
	dial := func() (io.ReadWriteCloser, error) {
		conn, err := base()
		if err != nil {
			return nil, err
		}
		if n := cuts.Add(1); n <= 3 {
			// Growing budgets: each incarnation gets further before the
			// cut, the last ones run clean.
			return transport.NewFaultConn(conn, -1, 6<<10<<n), nil
		}
		return conn, nil
	}

	stop := make(chan struct{})
	var drill sync.WaitGroup
	drill.Add(1)
	go func() { defer drill.Done(); migrateLoop(co, "ue-flap", stop) }()

	if err := us.Run(dial); err != nil {
		t.Fatalf("flapping UESession under migration: %v", err)
	}
	close(stop)
	drill.Wait()
	wg.Wait()

	if cuts.Load() < 2 {
		t.Fatalf("UE never flapped (%d incarnations)", cuts.Load())
	}
	assertNoLeaks(t, servers)
	waitFor(t, "detached session at step 60", func() bool {
		for _, srv := range servers {
			if sn, ok := srv.SessionByID("ue-flap"); ok && sn.State == transport.SessionDetached && sn.Steps == 60 {
				return true
			}
		}
		return false
	})
}

// TestHandoverDuringPolicySwap: sessions join and migrate while PUT
// /config on the coordinator's control plane swaps the placement policy
// back and forth. Placement decisions race the swap harmlessly; every
// session completes and nothing leaks.
func TestHandoverDuringPolicySwap(t *testing.T) {
	prov := tinyProvision()
	co, servers := testFleet(t, 2, 40, prov)
	ctl := control.New(co, control.Options{})

	stop := make(chan struct{})
	var swap sync.WaitGroup
	swap.Add(1)
	go func() {
		defer swap.Done()
		bodies := []string{
			`{"strategy":"least-loaded","migrate_timeout":"10s"}`,
			`{"strategy":"affinity"}`,
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			req := httptest.NewRequest("PUT", "/config", strings.NewReader(bodies[i%2]))
			rec := httptest.NewRecorder()
			ctl.Handler().ServeHTTP(rec, req)
			if rec.Code != 200 {
				t.Errorf("PUT /config: %d %s", rec.Code, rec.Body.String())
				return
			}
		}
	}()

	var wg sync.WaitGroup
	sessions := make([]*transport.UESession, 6)
	for i := range sessions {
		h, cfg, d := tinyHello(prov, fmt.Sprintf("ue-swap-%d", i), int64(30+i%2)) // two fingerprint groups
		us := &transport.UESession{
			Hello: h, Cfg: cfg, Data: d,
			Backoff: transport.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
			OnRequest: func(mt transport.MsgType, _ uint32) error {
				if mt == transport.MsgBatchRequest {
					time.Sleep(100 * time.Microsecond)
				}
				return nil
			},
		}
		sessions[i] = us
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := us.Run(coordDial(co, &wg)); err != nil {
				t.Errorf("UESession %q under policy swap: %v", us.Hello.SessionID, err)
			}
		}()
	}

	drillStop := make(chan struct{})
	var drill sync.WaitGroup
	drill.Add(1)
	go func() { defer drill.Done(); migrateLoop(co, "ue-swap-0", drillStop) }()

	wg.Wait()
	close(drillStop)
	close(stop)
	drill.Wait()
	swap.Wait()

	assertNoLeaks(t, servers)
	waitFor(t, "all 6 sessions detached at full step count", func() bool {
		total := 0
		for _, srv := range servers {
			for _, sn := range srv.Sessions() {
				if sn.State == transport.SessionDetached && sn.Steps == 40 {
					total++
				}
			}
		}
		return total == 6
	})
	if err := co.SetPolicy(coord.DefaultPolicy()); err != nil {
		t.Fatal(err)
	}
}
