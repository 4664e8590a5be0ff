// Command mmsl-bs runs the base-station half of the split network: it
// owns the received-power measurements and labels, the LSTM layers, and
// the training loop.
//
// A coordinator accepts UEs on -listen and fronts -replicas in-process
// BS servers, named bs-0 … bs-<N-1>. Each UE opens its own session with
// the hello/ack handshake; sessions get independent datasets, model
// halves and optimiser state derived from the seed each UE announces,
// each negotiates its own cut-layer payload codec, and all train in
// parallel, up to -max-ue per replica. The paper's 1:1 topology is the
// default single replica with one UE; with no flags the two daemons
// pair up on localhost:9920.
//
//	mmsl-bs -listen :9920 -max-ue 8 -steps 200
//	mmsl-ue -connect localhost:9920 -session ue1 -seed 1
//	mmsl-ue -connect localhost:9920 -session ue2 -seed 2
//
// With more replicas, joining UEs are routed by hello: resumes stick to
// the replica that holds their checkpoint, and fresh sessions are placed
// by config-fingerprint affinity (packing clone-fingerprint sessions
// where batching multiplies them) or least-loaded (-strategy). Live
// sessions migrate between replicas at checkpoint boundaries (POST
// /sessions/{id}/migrate?to=..., POST /rebalance on -admin), and a
// failure detector fails a dead replica's sessions over to survivors;
// the UE sees an ordinary reconnect-with-resume.
//
//	mmsl-bs -listen :9920 -replicas 4 -admin localhost:6061
//
// Lifecycle: -idle-timeout fails a UE that wedges mid-protocol so it
// cannot hold a -max-ue slot forever. Every replica checkpoints its
// sessions every -checkpoint-every steps, to memory by default; with
// -checkpoint-dir, replica i keeps them in one crash-consistent journal
// at <checkpoint-dir>/bs-<i>.journal, and a daemon restarted on the same
// directory resumes each UE from its journaled step. SIGTERM/SIGINT (or
// POST /drain on -admin) drains gracefully — every replica stops
// accepting, checkpoints each live session at its next step boundary
// and detaches the UEs cleanly — and the daemon prints the final
// per-session report.
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
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/control"
	"repro/internal/coord"
	"repro/internal/store"
	"repro/internal/tensor"
	"repro/internal/transport"
)

func main() {
	listen := flag.String("listen", ":9920", "address to accept UE sessions on")
	adminAddr := flag.String("admin", "", "serve the control plane on this address: /metrics, session and replica admin, live /config, /debug/pprof/ (e.g. localhost:6060; empty = off)")
	replicas := flag.Int("replicas", 1, "in-process BS replicas behind the coordinator")
	maxUE := flag.Int("max-ue", 8, "concurrent session cap per replica")
	steps := flag.Int("steps", 200, "distributed SGD steps per session")
	evalEvery := flag.Int("eval-every", 40, "validate every N steps")
	valAnchors := flag.Int("val-anchors", 128, "validation anchors per evaluation")
	target := flag.Float64("target", 0, "stop a session early at this val RMSE in dB (0 = never)")
	idleTimeout := flag.Duration("idle-timeout", 30*time.Second, "fail a session whose connection stalls this long mid-operation (0 = never)")
	ckptDir := flag.String("checkpoint-dir", "", "directory holding each replica's checkpoint journal bs-<i>.journal, so a restart resumes its UEs (empty = checkpoints in memory only)")
	ckptEvery := flag.Int("checkpoint-every", 50, "checkpoint interval in training steps")
	journalCompact := flag.Int64("journal-compact-bytes", 64<<20, "journal size that arms compaction")
	retain := flag.Int("retain", 128, "finished-session snapshots kept per replica for reporting")
	batchWindow := flag.Duration("batch-window", 0, "cross-session compute batching: rounds arriving within this window coalesce into one dispatch (0 = no coalescing wait; results are bit-identical for any value)")
	batchMax := flag.Int("batch-max", 16, "max rounds coalesced into one compute dispatch")
	strategy := flag.String("strategy", coord.PlaceAffinity, "placement strategy for fresh sessions (affinity or least-loaded)")
	migrateTimeout := flag.Duration("migrate-timeout", 30*time.Second, "deadline for a session to reach its checkpoint boundary during handover")
	probeInterval := flag.Duration("probe-interval", 500*time.Millisecond, "failure-detector probe period per replica (0 = no detector; there is none with one replica)")
	probeTimeout := flag.Duration("probe-timeout", 0, "per-probe deadline counted as a failure when overrun (0 = 2× probe interval)")
	failAfter := flag.Int("fail-after", 3, "consecutive failed probes before the death verdict triggers crash failover")
	recoverParallel := flag.Int("recover-parallel", 4, "concurrent session adoptions during crash failover (stampede cap)")
	workers := flag.Int("workers", 0, "tensor worker-pool size for parallel kernels (0 = min(GOMAXPROCS, 8); results are identical for any value)")
	flag.Parse()
	if *workers != 0 {
		tensor.SetWorkers(*workers)
	}

	d, err := newDaemon(options{
		replicas: *replicas,
		server: transport.ServerConfig{
			MaxUE: *maxUE, Steps: *steps, EvalEvery: *evalEvery, ValAnchors: *valAnchors,
			TargetRMSEdB: *target, IdleTimeout: *idleTimeout,
			CheckpointEvery: *ckptEvery, Retain: *retain,
			BatchWindow: *batchWindow, BatchMax: *batchMax,
			Logf: log.Printf,
		},
		checkpointDir: *ckptDir,
		compactBytes:  *journalCompact,
		policy:        coord.Policy{Strategy: *strategy, MigrateTimeout: *migrateTimeout},
		failover:      coord.FailoverConfig{RecoverParallel: *recoverParallel},
		detector:      coord.DetectorConfig{Interval: *probeInterval, Timeout: *probeTimeout, FailAfter: *failAfter},
	})
	if err != nil {
		log.Fatalf("mmsl-bs: %v", err)
	}
	serve(d, *listen, *adminAddr)
}

// options is everything newDaemon builds from: the flags, minus the
// addresses.
type options struct {
	replicas int

	// server is every replica's configuration; newDaemon fills in
	// ReplicaID and Store.
	server transport.ServerConfig

	checkpointDir string // "": each replica checkpoints to memory
	compactBytes  int64  // journal size that arms compaction

	policy   coord.Policy
	failover coord.FailoverConfig
	detector coord.DetectorConfig // Interval 0: no detector
}

// daemon is the serving side: the coordinator, the replicas behind it,
// their stores and the failure detector.
type daemon struct {
	co       *coord.Coordinator
	replicas []*coord.LocalReplica
	stores   []store.Store
	det      *coord.Detector
}

// newDaemon builds the replicas on their stores and the coordinator in
// front of them. Replicas restarted on a checkpoint directory adopt what
// their journals hold, and the coordinator routes those sessions' resumes
// back to them.
func newDaemon(o options) (*daemon, error) {
	if o.replicas < 1 {
		return nil, errors.New("-replicas must be at least 1")
	}
	if o.checkpointDir != "" {
		if err := os.MkdirAll(o.checkpointDir, 0o755); err != nil {
			return nil, err
		}
	}
	d := &daemon{}
	members := make([]coord.Replica, o.replicas)
	for i := range members {
		id := fmt.Sprintf("bs-%d", i)
		st, err := openStore(o, id)
		if err != nil {
			d.close()
			return nil, err
		}
		d.stores = append(d.stores, st)
		cfg := o.server
		cfg.ReplicaID, cfg.Store = id, st
		srv, err := transport.NewBSServer(cfg)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("replica %s: %w", id, err)
		}
		rep := coord.NewLocalReplica(srv)
		d.replicas = append(d.replicas, rep)
		members[i] = rep
	}
	co, err := coord.New(members, coord.Options{Logf: o.server.Logf, Policy: o.policy, Failover: o.failover})
	if err != nil {
		d.close()
		return nil, err
	}
	d.co = co
	// Failover needs a survivor to fail over to; with a single replica,
	// one slow run of probes would only fence the only BS.
	if o.replicas > 1 && o.detector.Interval > 0 {
		d.det = co.StartDetector(o.detector)
	}
	return d, nil
}

// openStore opens replica id's store: its journal under the checkpoint
// directory, or memory when there is none. Handover and failover ride on
// checkpoints, so a replica always has one.
func openStore(o options, id string) (store.Store, error) {
	if o.checkpointDir == "" {
		return store.NewMem(o.server.Retain), nil
	}
	j, err := store.OpenJournal(filepath.Join(o.checkpointDir, id+".journal"), store.JournalOptions{
		Retain:       o.server.Retain,
		CompactBytes: o.compactBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("replica %s: open journal: %w", id, err)
	}
	if st := j.Stats(); st.Recoveries > 0 {
		log.Printf("mmsl-bs: %s journal recovery: replayed %d records, truncated %d torn bytes",
			id, st.RecoveredRecords, st.TruncatedBytes)
	}
	return j, nil
}

// drain starts the graceful drain on every replica.
func (d *daemon) drain() {
	for _, rep := range d.replicas {
		rep.BS().Drain()
	}
}

func (d *daemon) draining() bool {
	for _, rep := range d.replicas {
		if !rep.Draining() {
			return false
		}
	}
	return true
}

// close waits for every connection in flight, then stops the detector,
// the coordinator and the replicas, and closes the stores last.
func (d *daemon) close() {
	if d.det != nil {
		d.det.Stop()
	}
	if d.co != nil {
		d.co.Close()
	}
	for _, rep := range d.replicas {
		rep.Wait()
		rep.BS().Close()
	}
	for _, st := range d.stores {
		if err := st.Close(); err != nil {
			log.Printf("mmsl-bs: store close: %v", err)
		}
	}
}

// serve runs the daemon until the listener dies or a drain — SIGTERM,
// SIGINT or POST /drain — closes it, then reports every session.
func serve(d *daemon, addr, adminAddr string) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		d.close()
		log.Fatalf("mmsl-bs: listen: %v", err)
	}
	defer ln.Close()
	fmt.Printf("mmsl-bs: %d replica(s) × %d UEs on %s (%s placement)\n",
		len(d.replicas), d.replicas[0].BS().CurrentPolicy().MaxUE, ln.Addr(), d.co.CurrentPolicy().Strategy)

	// Both drain paths run the same sequence: every replica stops
	// accepting, checkpoints its live sessions at their next step
	// boundary and detaches the UEs cleanly; then the listener closes.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
	go func() {
		sig := <-sigs
		log.Printf("mmsl-bs: %v — draining", sig)
		d.drain()
		ln.Close()
	}()
	if adminAddr != "" {
		ctl := control.New(d.co, control.Options{Logf: log.Printf, OnDrain: func() { ln.Close() }})
		go func() {
			log.Printf("mmsl-bs: control plane on http://%s/ (metrics, sessions, replicas, config, pprof)", adminAddr)
			log.Printf("mmsl-bs: control plane server: %v", http.ListenAndServe(adminAddr, ctl.Handler()))
		}()
	}

	if err := d.co.Serve(ln); err != nil && !d.draining() {
		log.Printf("mmsl-bs: accept loop ended: %v", err)
	}
	d.close()
	report(d)
}

// report prints the final per-session table — the metric flush of a
// graceful shutdown — and each replica's serving-round latency.
func report(d *daemon) {
	st := d.co.Stats()
	fmt.Printf("mmsl-bs: routed %d connections, %d handovers (%d failed), relayed %d/%d bytes up/down\n",
		st.Routed, st.Migrations, st.MigrationFails, st.RelayedBytesUp, st.RelayedBytesDown)
	fmt.Println("\nreplica  session      epoch  state       steps  resumed  ckpts  val RMSE   wire in/out")
	for _, rep := range d.replicas {
		for _, s := range rep.BS().Sessions() {
			// A migrated-out incarnation retires through the failure path
			// (its conn is severed), but it is a handover, not an error.
			state := s.State.String()
			if errors.Is(s.Cause(), transport.ErrMigrated) {
				state = "migrated"
			}
			fmt.Printf("%-7s  %-11s  %5d  %-10s  %5d  %7d  %5d  %5.2f dB  %d/%d B\n",
				rep.ID(), s.ID, s.Epoch, state, s.Steps, s.ResumedFrom, s.Metrics.Checkpoints.Load(),
				s.LastRMSE, s.BytesIn, s.BytesOut)
		}
	}
	for _, rep := range d.replicas {
		if p50, p99, n := rep.BS().RoundLatency(); n > 0 {
			fmt.Printf("serving rounds on %s: %d, p50 %v, p99 %v\n", rep.ID(), n, p50, p99)
		}
	}
}
