// Command mmsl-coord runs the coordinator of a sharded BS fleet: one
// UE-facing listener fronting -replicas in-process base stations.
// Joining UEs are routed by hello — resumes stick to the replica that
// holds their checkpoint, fresh sessions are placed by config-
// fingerprint affinity (packing clone-fingerprint sessions where the
// server's batching multiplies them) or pure least-loaded, selectable
// live via PUT /config on the admin plane. Live sessions migrate
// between replicas at checkpoint boundaries (POST
// /sessions/{id}/migrate?to=..., POST /rebalance); the UE sees an
// ordinary reconnect-with-resume.
//
//	mmsl-coord -listen :9930 -replicas 4 -admin localhost:6061
//	mmsl-ue -connect localhost:9930 -session ue1 -seed 1
//
// The admin /metrics federates every replica's full exposition under a
// replica label plus the coordinator's own routing and handover series.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/control"
	"repro/internal/coord"
	"repro/internal/store"
	"repro/internal/tensor"
	"repro/internal/transport"
)

func main() {
	listen := flag.String("listen", ":9930", "UE-facing address the coordinator accepts sessions on")
	adminAddr := flag.String("admin", "", "serve the fleet control plane on this address: federated /metrics, /replicas, migrate/rebalance admin, live /config (empty = off)")
	replicas := flag.Int("replicas", 2, "in-process BS replicas behind the coordinator")
	maxUE := flag.Int("max-ue", 8, "concurrent session cap per replica")
	steps := flag.Int("steps", 200, "distributed SGD steps per session")
	evalEvery := flag.Int("eval-every", 40, "validate every N steps")
	valAnchors := flag.Int("val-anchors", 128, "validation anchors per evaluation")
	target := flag.Float64("target", 0, "stop a session early at this val RMSE in dB (0 = never)")
	idleTimeout := flag.Duration("idle-timeout", 30*time.Second, "fail a session whose connection stalls this long mid-operation (0 = never)")
	ckptEvery := flag.Int("checkpoint-every", 50, "checkpoint interval in training steps (handover rides on checkpoints, so replicas always checkpoint — to per-replica in-memory stores)")
	retain := flag.Int("retain", 128, "finished-session snapshots kept per replica")
	batchWindow := flag.Duration("batch-window", 0, "per-replica cross-session compute batching window (0 = no coalescing wait)")
	batchMax := flag.Int("batch-max", 16, "max rounds coalesced into one compute dispatch")
	strategy := flag.String("strategy", coord.PlaceAffinity, "placement strategy for fresh sessions (affinity or least-loaded)")
	migrateTimeout := flag.Duration("migrate-timeout", 30*time.Second, "deadline for a session to reach its checkpoint boundary during handover")
	probeInterval := flag.Duration("probe-interval", 500*time.Millisecond, "failure-detector probe period per replica (0 = no detector)")
	probeTimeout := flag.Duration("probe-timeout", 0, "per-probe deadline counted as a failure when overrun (0 = 2× probe interval)")
	failAfter := flag.Int("fail-after", 3, "consecutive failed probes before the death verdict triggers crash failover")
	recoverParallel := flag.Int("recover-parallel", 4, "concurrent session adoptions during crash failover (stampede cap)")
	workers := flag.Int("workers", 0, "tensor worker-pool size for parallel kernels (0 = min(GOMAXPROCS, 8))")
	flag.Parse()
	if *workers != 0 {
		tensor.SetWorkers(*workers)
	}

	if *replicas < 1 {
		log.Fatal("mmsl-coord: -replicas must be at least 1")
	}

	members := make([]coord.Replica, *replicas)
	servers := make([]*transport.BSServer, *replicas)
	for i := range members {
		srv, err := transport.NewBSServer(transport.ServerConfig{
			ReplicaID: fmt.Sprintf("bs-%d", i),
			MaxUE:     *maxUE, Steps: *steps,
			EvalEvery: *evalEvery, ValAnchors: *valAnchors,
			TargetRMSEdB: *target, IdleTimeout: *idleTimeout,
			CheckpointEvery: *ckptEvery, Retain: *retain,
			BatchWindow: *batchWindow, BatchMax: *batchMax,
			Store: store.NewMem(*retain),
			Logf:  log.Printf,
		})
		if err != nil {
			log.Fatalf("mmsl-coord: replica %d: %v", i, err)
		}
		servers[i] = srv
		members[i] = coord.NewLocalReplica(srv)
	}
	co, err := coord.New(members, coord.Options{
		Logf:     log.Printf,
		Policy:   coord.Policy{Strategy: *strategy, MigrateTimeout: *migrateTimeout},
		Failover: coord.FailoverConfig{RecoverParallel: *recoverParallel},
	})
	if err != nil {
		log.Fatalf("mmsl-coord: %v", err)
	}
	if *probeInterval > 0 {
		// Heartbeat every replica; a death verdict fences the replica and
		// fails its sessions over to survivors from the durable store.
		det := co.StartDetector(coord.DetectorConfig{
			Interval:  *probeInterval,
			Timeout:   *probeTimeout,
			FailAfter: *failAfter,
		})
		defer det.Stop()
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("mmsl-coord: listen: %v", err)
	}
	defer ln.Close()
	fmt.Printf("mmsl-coord: %d replicas × %d UEs on %s (%s placement)\n",
		*replicas, *maxUE, ln.Addr(), *strategy)

	if *adminAddr != "" {
		ctl := control.NewCoord(co, control.Options{Logf: log.Printf, Pprof: true})
		go func() {
			log.Printf("mmsl-coord: control plane on http://%s/ (federated metrics, replicas, migrate, config)", *adminAddr)
			log.Printf("mmsl-coord: control plane server: %v", http.ListenAndServe(*adminAddr, ctl.Handler()))
		}()
	}

	// SIGTERM/SIGINT → fleet-wide graceful drain: every replica stops
	// accepting, checkpoints its live sessions at their next step
	// boundary and detaches the UEs cleanly.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
	go func() {
		sig := <-sigs
		log.Printf("mmsl-coord: %v — draining fleet", sig)
		for _, srv := range servers {
			srv.Drain()
		}
		ln.Close()
	}()

	draining := func() bool {
		for _, srv := range servers {
			if !srv.Draining() {
				return false
			}
		}
		return true
	}
	if err := co.Serve(ln); err != nil && !draining() {
		log.Printf("mmsl-coord: accept loop ended: %v", err)
	}
	for _, srv := range servers {
		srv.Wait()
	}
	co.Close()
	st := co.Stats()
	fmt.Printf("mmsl-coord: routed %d connections, %d handovers (%d failed), relayed %d/%d bytes up/down\n",
		st.Routed, st.Migrations, st.MigrationFails, st.RelayedBytesUp, st.RelayedBytesDown)
	for _, srv := range servers {
		srv.Close()
		for _, s := range srv.Sessions() {
			// A migrated-out incarnation retires through the failure path
			// (its conn is severed), but it is a handover, not an error.
			state := s.State.String()
			if errors.Is(s.Cause(), transport.ErrMigrated) {
				state = "migrated"
			}
			fmt.Printf("%-10s %-11s  epoch %d  %-10s  steps %5d  resumed %d  val RMSE %5.2f dB\n",
				srv.ReplicaID(), s.ID, s.Epoch, state, s.Steps, s.ResumedFrom, s.LastRMSE)
		}
	}
}
