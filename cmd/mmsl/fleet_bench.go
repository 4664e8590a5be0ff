package main

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"strings"
	"time"

	"repro/internal/control"
	"repro/internal/coord"
	"repro/internal/fleet"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// The heterogeneous fleet soak (`mmsl bench -fleet`): where the
// repository benchmark's clone workloads measure the friendliest load
// (replayed clones), `-fleet` drives the honest one — live UE halves with mixed scenes, modalities, codecs,
// pooling widths, per-UE channel quality and churn — and reports the
// numbers a deployed BS would be judged on: aggregate steps/sec, round
// latency percentiles, shared-round ratio (≈0 under mixed
// fingerprints), lifecycle counters and peak RSS. `-fleet-soak` scales
// the same run to 10k concurrent sessions.

func runFleetBench(ues, steps int, churn float64, seed int64, replicas int, chaos bool, adminAddr string, jsonOut bool, out, check string) error {
	spec := fleet.Spec{
		UEs: ues, Seed: seed, Steps: steps,
		ChurnFraction: churn,
		Checkpoint:    true,
		Replicas:      replicas,
		Chaos:         chaos,
		WallLimit:     30 * time.Minute,
	}
	if chaos && replicas <= 1 {
		return fmt.Errorf("bench: -chaos needs -replicas > 1 (no survivor to fail over to)")
	}
	// -admin mounts the control plane on the soak's in-process server for
	// the run's duration, so a scraper (or a curious operator) can watch
	// /metrics and /sessions while the churn load is live. In a replica
	// fleet the coordinator's control plane serves instead: its /metrics
	// federates every replica under a replica label.
	var admin *http.Server
	if adminAddr != "" {
		serveAdmin := func(h http.Handler) {
			admin = &http.Server{Addr: adminAddr, Handler: h}
			fmt.Printf("fleet soak: control plane on http://%s/\n", adminAddr)
			go func() {
				if err := admin.ListenAndServe(); err != nil && err != http.ErrServerClosed {
					log.Printf("bench: control plane: %v", err)
				}
			}()
		}
		if replicas > 1 {
			spec.OnCoordinator = func(co *coord.Coordinator) {
				serveAdmin(control.NewCoord(co, control.Options{Logf: log.Printf, Pprof: true}).Handler())
			}
		} else {
			spec.OnServer = func(srv *transport.BSServer) {
				serveAdmin(control.New(srv, control.Options{Logf: log.Printf, Pprof: true}).Handler())
			}
		}
	}
	rep, err := fleet.Run(spec, func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	})
	if admin != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		admin.Shutdown(ctx)
		cancel()
	}
	if err != nil {
		return err
	}
	printFleetReport(rep)
	if jsonOut {
		brep := loadReport(out)
		if brep == nil {
			brep = &benchReport{
				Schema: "mmsl-bench/v1", CPUs: runtime.NumCPU(),
				GoMaxProcs: runtime.GOMAXPROCS(0), TensorWorkers: tensor.Workers(),
				Baseline: pr2Baseline,
			}
		}
		brep.Fleet = rep
		if err := writeReport(brep, out); err != nil {
			return err
		}
	}
	if check != "" {
		return checkFleetReport(rep, check)
	}
	return nil
}

func printFleetReport(rep *fleet.Report) {
	fmt.Printf("fleet soak: %d UEs (%d churning) × %d steps, %d scene classes\n",
		rep.UEs, rep.ChurnUEs, rep.StepsPerUE, rep.SceneClasses)
	fmt.Printf("  %-22s %12.1f\n", "agg steps/sec", rep.StepsPerSec)
	fmt.Printf("  %-22s %12d\n", "rounds", rep.Rounds)
	fmt.Printf("  %-22s %12.2f\n", "round p50 ms", rep.P50Ms)
	fmt.Printf("  %-22s %12.2f\n", "round p99 ms", rep.P99Ms)
	fmt.Printf("  %-22s %12.4f  (%d rounds)\n", "shared ratio", rep.SharedRatio, rep.SharedRounds)
	fmt.Printf("  %-22s %12d\n", "completed", rep.Completed)
	fmt.Printf("  %-22s %12d\n", "drops", rep.Drops)
	fmt.Printf("  %-22s %12d\n", "evictions", rep.Evictions)
	fmt.Printf("  %-22s %12d\n", "supersedes", rep.Supersedes)
	fmt.Printf("  %-22s %12d\n", "resumes", rep.Resumes)
	fmt.Printf("  %-22s %12d\n", "leaked sessions", rep.LeakedSessions)
	fmt.Printf("  %-22s %12d (peak)\n", "batch queue depth", rep.QueuePeak)
	fmt.Printf("  %-22s %12.1f\n", "peak RSS MB", rep.PeakRSSMB)
	fmt.Printf("  %-22s %12.1f\n", "elapsed sec", rep.ElapsedSec)
	if h := rep.Handover; h != nil {
		fmt.Printf("fleet handover drill: %d replicas\n", h.Replicas)
		fmt.Printf("  %-22s %12d\n", "handovers", h.Migrations)
		fmt.Printf("  %-22s %12d\n", "failed attempts", h.Failed)
		fmt.Printf("  %-22s %12d\n", "migrated incarnations", h.MigratedEnds)
		fmt.Printf("  %-22s %12.2f\n", "handover p50 ms", h.P50Ms)
		fmt.Printf("  %-22s %12.2f\n", "handover p99 ms", h.P99Ms)
	}
	if fo := rep.Failover; fo != nil {
		fmt.Printf("fleet chaos drill: %d replicas\n", fo.Replicas)
		fmt.Printf("  %-22s %12d\n", "kills", fo.Kills)
		fmt.Printf("  %-22s %12d\n", "rejoins", fo.Rejoins)
		fmt.Printf("  %-22s %12d\n", "failovers", fo.Failovers)
		fmt.Printf("  %-22s %12d\n", "sessions recovered", fo.SessionsRecovered)
		fmt.Printf("  %-22s %12d\n", "sessions lost", fo.SessionsLost)
		fmt.Printf("  %-22s %12d\n", "readmissions", fo.Readmissions)
		fmt.Printf("  %-22s %12.2f\n", "detect p50 ms", fo.DetectP50Ms)
		fmt.Printf("  %-22s %12.2f\n", "detect p99 ms", fo.DetectP99Ms)
		fmt.Printf("  %-22s %12.2f\n", "recover p50 ms", fo.RecoverP50Ms)
		fmt.Printf("  %-22s %12.2f\n", "recover p99 ms", fo.RecoverP99Ms)
	}
}

// checkFleetReport is the fleet regression gate: the run just measured
// must be healthy — nothing leaked, no unexpected driver ending, real
// work done, and no accidental clone sharing — and the committed
// baseline must carry a fleet section to compare against.
func checkFleetReport(rep *fleet.Report, baselinePath string) error {
	base := loadReport(baselinePath)
	if base == nil {
		return fmt.Errorf("bench: -check: cannot read baseline %s", baselinePath)
	}
	if base.Fleet == nil {
		return fmt.Errorf("bench: -check: baseline %s has no fleet section (run `mmsl bench -fleet -json` and commit it)", baselinePath)
	}
	var failures []string
	if rep.LeakedSessions != 0 {
		failures = append(failures, fmt.Sprintf("%d sessions leaked", rep.LeakedSessions))
	}
	if rep.DriverErrors != 0 {
		failures = append(failures, fmt.Sprintf("%d UE drivers ended on unexpected errors", rep.DriverErrors))
	}
	if rep.Rounds == 0 {
		failures = append(failures, "no rounds served")
	}
	if rep.SharedRatio > 0.05 {
		failures = append(failures, fmt.Sprintf("shared ratio %.4f under mixed fingerprints, want ≈0", rep.SharedRatio))
	}
	// Replica-fleet runs additionally gate on the handover drill: live
	// migration must actually have happened and produced latency numbers.
	// Failed attempts are reported, not gated — under churn the chosen
	// session can legitimately end before its checkpoint boundary.
	if rep.Handover != nil {
		h := rep.Handover
		if h.Migrations == 0 {
			failures = append(failures, "handover drill completed no migration")
		}
		if h.MigratedEnds < int(h.Migrations) {
			failures = append(failures, fmt.Sprintf("%d migrated incarnations for %d handovers", h.MigratedEnds, h.Migrations))
		}
		if h.Migrations > 0 && (h.P50Ms <= 0 || h.P99Ms < h.P50Ms) {
			failures = append(failures, fmt.Sprintf("degenerate handover latency: p50 %.3fms p99 %.3fms", h.P50Ms, h.P99Ms))
		}
	}
	// Chaos runs gate the crash-failover pipeline end to end: kills must
	// have happened, every checkpointed session must have been recovered
	// (zero lost incarnations), killed replicas must have rejoined, and
	// the MTTR split must be real numbers, not zeros or inversions.
	if rep.Failover != nil {
		fo := rep.Failover
		if base.Fleet.Failover == nil {
			failures = append(failures, fmt.Sprintf("baseline %s has no failover section (run `mmsl bench -fleet -replicas 4 -chaos -json` and commit it)", baselinePath))
		}
		if fo.Kills == 0 || fo.Rejoins == 0 {
			failures = append(failures, fmt.Sprintf("chaos drill idle: %d kills, %d rejoins", fo.Kills, fo.Rejoins))
		}
		if fo.Failovers == 0 {
			failures = append(failures, "no crash failover ran")
		}
		if fo.SessionsRecovered == 0 {
			failures = append(failures, "no session recovered onto a survivor")
		}
		if fo.SessionsLost != 0 {
			failures = append(failures, fmt.Sprintf("%d checkpointed sessions lost in failover", fo.SessionsLost))
		}
		if fo.Failovers > 0 && (fo.DetectP50Ms <= 0 || fo.DetectP99Ms < fo.DetectP50Ms) {
			failures = append(failures, fmt.Sprintf("degenerate detection latency: p50 %.3fms p99 %.3fms", fo.DetectP50Ms, fo.DetectP99Ms))
		}
		if fo.SessionsRecovered > 0 && (fo.RecoverP50Ms <= 0 || fo.RecoverP99Ms < fo.RecoverP50Ms) {
			failures = append(failures, fmt.Sprintf("degenerate recovery latency: p50 %.3fms p99 %.3fms", fo.RecoverP50Ms, fo.RecoverP99Ms))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench: fleet regression:\n  %s", strings.Join(failures, "\n  "))
	}
	if h := rep.Handover; h != nil {
		fmt.Printf("bench: handover gate passed (%d replicas, %d handovers, p50 %.2fms p99 %.2fms, 0 driver errors)\n",
			h.Replicas, h.Migrations, h.P50Ms, h.P99Ms)
	}
	if fo := rep.Failover; fo != nil {
		fmt.Printf("bench: failover gate passed (%d kills, %d failovers, %d recovered, 0 lost, detect p50 %.2fms, recover p50 %.2fms)\n",
			fo.Kills, fo.Failovers, fo.SessionsRecovered, fo.DetectP50Ms, fo.RecoverP50Ms)
	}
	fmt.Printf("bench: fleet gate passed (%d UEs, %d rounds, 0 leaks, shared %.4f)\n",
		rep.UEs, rep.Rounds, rep.SharedRatio)
	return nil
}
