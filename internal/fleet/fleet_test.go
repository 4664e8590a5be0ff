package fleet

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/coord"
	"repro/internal/split"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Profile generation must be byte-identical across calls: the entire
// profile set is a pure function of (Seed, index).
func TestProfilesByteIdentical(t *testing.T) {
	spec := Spec{UEs: 128, Seed: 42, ChurnFraction: 0.5}
	a, err := json.Marshal(spec.Profiles())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(spec.Profiles())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two Profiles() calls for one spec differ")
	}
	if c, _ := json.Marshal(Spec{UEs: 128, Seed: 43, ChurnFraction: 0.5}.Profiles()); bytes.Equal(a, c) {
		t.Fatal("different master seeds produced identical profile sets")
	}
}

// Profile i depends on (Seed, SceneClasses, i) alone, so resizing the
// fleet at a fixed class count preserves the prefix: the first N
// profiles of a larger fleet are the smaller fleet, byte for byte.
func TestProfilesStableUnderResize(t *testing.T) {
	small := Spec{UEs: 32, Seed: 7, ChurnFraction: 0.3, SceneClasses: 16}.Profiles()
	big := Spec{UEs: 96, Seed: 7, ChurnFraction: 0.3, SceneClasses: 16}.Profiles()
	for i := range small {
		a, _ := json.Marshal(small[i])
		b, _ := json.Marshal(big[i])
		if !bytes.Equal(a, b) {
			t.Fatalf("profile %d changed when the fleet grew:\n%s\nvs\n%s", i, a, b)
		}
	}
}

// A moderately sized fleet must actually be heterogeneous: every
// modality, pooling width and churn behaviour represented, plus
// stragglers and clear-vs-blocked links.
func TestProfileVariety(t *testing.T) {
	profiles := Spec{UEs: 256, Seed: 3, ChurnFraction: 0.5}.Profiles()
	mods := map[split.Modality]int{}
	pools := map[int]int{}
	churns := map[Churn]int{}
	heavy, blocked := 0, 0
	for _, p := range profiles {
		mods[p.Modality]++
		pools[p.Pool]++
		churns[p.Churn]++
		if p.HeavyTail {
			heavy++
		}
		if p.BlockageDB > 10 {
			blocked++
		}
		if !p.Modality.UsesImages() && p.Churn != ChurnSteady {
			t.Fatalf("profile %d: RF-only UE with churn %v", p.Index, p.Churn)
		}
	}
	for _, m := range []split.Modality{split.RFOnly, split.ImageOnly, split.ImageRF} {
		if mods[m] == 0 {
			t.Errorf("no UE with modality %v", m)
		}
	}
	for _, w := range []int{2, 4, 8} {
		if pools[w] == 0 {
			t.Errorf("no UE with pool width %d", w)
		}
	}
	for c := ChurnSteady; c < numChurn; c++ {
		if churns[c] == 0 {
			t.Errorf("no UE with churn %v", c)
		}
	}
	if heavy == 0 || blocked == 0 {
		t.Errorf("no straggler (%d) or no blocked link (%d) in %d UEs", heavy, blocked, len(profiles))
	}
}

func miniSpec() Spec {
	return Spec{
		UEs: 10, Seed: 42, Steps: 4,
		SceneClasses: 3, Frames: 120,
		ChurnFraction: 0.5,
		Checkpoint:    true,
	}
}

func checkHealthy(t *testing.T, rep *Report, ues int) {
	t.Helper()
	if rep.DriverErrors != 0 {
		t.Errorf("%d driver errors", rep.DriverErrors)
	}
	if rep.LeakedSessions != 0 {
		t.Errorf("%d sessions leaked", rep.LeakedSessions)
	}
	if len(rep.Final) != ues {
		t.Errorf("%d final outcomes, want %d", len(rep.Final), ues)
	}
	if rep.Rounds == 0 {
		t.Error("no rounds served")
	}
}

// The fleet extension of invariants 6–8: one spec produces identical
// per-UE final outcomes — states, step counts, exact loss/RMSE bits —
// across runs and across tensor worker counts, churn included.
func TestFleetDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet soak in -short")
	}
	run := func() *Report {
		rep, err := Run(miniSpec(), nil)
		if err != nil {
			t.Fatal(err)
		}
		checkHealthy(t, rep, 10)
		return rep
	}
	ref := run()
	again := run()
	compareFinal(t, "rerun", ref.Final, again.Final)

	old := tensor.Workers()
	defer tensor.SetWorkers(old)
	tensor.SetWorkers(3)
	wide := run()
	tensor.SetWorkers(1)
	narrow := run()
	compareFinal(t, "3 workers", ref.Final, wide.Final)
	compareFinal(t, "1 worker", ref.Final, narrow.Final)
}

func compareFinal(t *testing.T, label string, want, got map[string]Outcome) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d outcomes vs %d", label, len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Errorf("%s: UE %s missing", label, id)
			continue
		}
		if g != w {
			t.Errorf("%s: UE %s diverged:\n got %+v\nwant %+v", label, id, g, w)
		}
	}
}

// TestChurnSoak64 is the CI churn soak (run race-enabled by the fleet
// CI job): 64 heterogeneous UEs with aggressive churn, asserting the
// session store ends empty — zero leaks, no wedged deadlines — and that
// every churn path actually fired. A control-plane scraper hammers
// /metrics, /sessions and /healthz throughout, so the race detector
// covers every counter the exposition reads against the full churn
// load, and each scrape must stay format-valid.
func TestChurnSoak64(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet soak in -short")
	}
	stopScrape := make(chan struct{})
	scrapeDone := make(chan struct{})
	spec := Spec{
		UEs: 64, Seed: 7, Steps: 5,
		SceneClasses: 8, Frames: 120,
		ChurnFraction: 0.6,
		Checkpoint:    true,
		OnServer: func(srv *transport.BSServer) {
			// The scraper reaches the replica through a coordinator of its
			// own, as the daemon's admin plane does; this one routes no
			// traffic, the soak's UEs dial the replica directly.
			co, err := coord.New([]coord.Replica{coord.NewLocalReplica(srv)}, coord.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ctl := control.New(co, control.Options{})
			go func() {
				defer close(scrapeDone)
				for {
					select {
					case <-stopScrape:
						return
					default:
					}
					for _, path := range []string{"/metrics", "/sessions", "/healthz", "/config"} {
						rec := httptest.NewRecorder()
						ctl.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
						if rec.Code != 200 {
							t.Errorf("scrape %s: %d", path, rec.Code)
							return
						}
						if path == "/metrics" {
							if err := control.ValidateExposition(rec.Body.Bytes()); err != nil {
								t.Errorf("mid-soak scrape invalid: %v", err)
								return
							}
						}
					}
				}
			}()
		},
	}
	rep, err := Run(spec, t.Logf)
	close(stopScrape)
	<-scrapeDone
	if err != nil {
		t.Fatal(err)
	}
	checkHealthy(t, rep, 64)
	if rep.Completed == 0 {
		t.Error("no session completed")
	}
	if rep.Evictions == 0 {
		t.Error("no idle UE was evicted")
	}
	if rep.Supersedes == 0 {
		t.Error("no session was superseded")
	}
	if rep.Drops == 0 {
		t.Error("no mid-round drop failed a session")
	}
	if rep.Resumes == 0 {
		t.Error("no flapping UE resumed from a checkpoint")
	}
	if rep.RetainedSnapshots > 128 {
		t.Errorf("retention ring overran: %d snapshots", rep.RetainedSnapshots)
	}
	// Mixed fingerprints: cross-session sharing must find ~nothing.
	if rep.SharedRatio > 0.05 {
		t.Errorf("shared ratio %.3f under mixed fingerprints, want ≈0", rep.SharedRatio)
	}
}

// TestChaosSoak64 is the CI chaos soak (run race-enabled by the fleet
// CI job): 64 heterogeneous churning UEs over 4 replicas while the
// chaos drill kills replicas uncontrolled — tearing the in-flight
// store write on the way down — and rejoins them as fresh incarnations
// on the same journal. Healthy means the soak drains with zero driver
// errors and zero leaked sessions, crash failover actually ran (kills,
// recoveries and readmissions all nonzero) and no checkpointed session
// was lost: invariant 10's ledger under real churn.
func TestChaosSoak64(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet soak in -short")
	}
	spec := Spec{
		UEs: 64, Seed: 23, Steps: 30,
		SceneClasses: 8, Frames: 120,
		ChurnFraction: 0.4,
		Replicas:      4,
		Chaos:         true,
		ChaosInterval: 60 * time.Millisecond,
	}
	rep, err := Run(spec, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	checkHealthy(t, rep, 64)
	fo := rep.Failover
	if fo == nil {
		t.Fatal("chaos soak produced no failover report")
	}
	if fo.Kills == 0 || fo.Rejoins == 0 {
		t.Fatalf("chaos drill idle: %d kills, %d rejoins", fo.Kills, fo.Rejoins)
	}
	if fo.Failovers == 0 {
		t.Error("no crash failover ran")
	}
	if fo.SessionsRecovered == 0 {
		t.Error("no session was recovered onto a survivor")
	}
	if fo.SessionsLost != 0 {
		t.Errorf("%d checkpointed sessions lost in failover", fo.SessionsLost)
	}
	if fo.Readmissions == 0 {
		t.Error("no killed replica was readmitted after rejoin")
	}
	if fo.DetectP50Ms <= 0 || fo.DetectP99Ms < fo.DetectP50Ms {
		t.Errorf("degenerate detection latency: p50 %.3fms p99 %.3fms", fo.DetectP50Ms, fo.DetectP99Ms)
	}
	if fo.RecoverP50Ms <= 0 || fo.RecoverP99Ms < fo.RecoverP50Ms {
		t.Errorf("degenerate recovery latency: p50 %.3fms p99 %.3fms", fo.RecoverP50Ms, fo.RecoverP99Ms)
	}
	if rep.Resumes == 0 {
		t.Error("no UE resumed from a checkpoint after failover")
	}
}

// TestReplicaFleetHandover is the sharded soak: UEs behind a
// coordinator over 4 replicas with the handover drill live-migrating
// sessions throughout. Healthy means zero driver errors and zero leaked
// sessions fleet-wide, with the drill having actually moved sessions —
// every migrated UE reconnecting and resuming on its new replica.
func TestReplicaFleetHandover(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet soak in -short")
	}
	spec := Spec{
		UEs: 16, Seed: 11, Steps: 40,
		SceneClasses: 4, Frames: 120,
		ChurnFraction:  0.3,
		Replicas:       4,
		RebalanceEvery: 2 * time.Millisecond,
	}
	rep, err := Run(spec, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	checkHealthy(t, rep, 16)
	if rep.Handover == nil {
		t.Fatal("replica fleet produced no handover report")
	}
	h := rep.Handover
	if h.Replicas != 4 {
		t.Errorf("handover report names %d replicas, want 4", h.Replicas)
	}
	if h.Migrations == 0 {
		t.Fatal("handover drill completed no migration")
	}
	if h.MigratedEnds < int(h.Migrations) {
		t.Errorf("%d migrated incarnations for %d handovers", h.MigratedEnds, h.Migrations)
	}
	if h.P50Ms <= 0 || h.P99Ms < h.P50Ms {
		t.Errorf("degenerate handover latency: p50 %.3fms p99 %.3fms", h.P50Ms, h.P99Ms)
	}
	// A handed-over UE reconnects with a resume token — except one
	// migrated before its first checkpoint, which fresh-joins the
	// destination — so resumes track migrations closely but not exactly.
	if rep.Resumes == 0 {
		t.Error("no migrated UE resumed on its destination replica")
	}
	if rep.Completed == 0 {
		t.Error("no session completed")
	}
}
