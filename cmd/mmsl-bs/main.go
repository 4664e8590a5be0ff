// Command mmsl-bs runs the base-station half of the split network: it
// owns the received-power measurements and labels, the LSTM layers, and
// the training loop.
//
// It listens on -listen and accepts up to -max-ue concurrent UEs, each
// opening its own session with the hello/ack handshake. Sessions get
// independent datasets, model halves and optimiser state derived from
// the seed each UE announces, each negotiates its own cut-layer payload
// codec, and all train in parallel. The paper's 1:1 topology is this
// server with one UE (-max-ue 1); with no flags the two daemons pair up
// on localhost:9920.
//
//	mmsl-bs -listen :9920 -max-ue 8 -steps 200
//	mmsl-ue -connect localhost:9920 -session ue1 -seed 1
//	mmsl-ue -connect localhost:9920 -session ue2 -seed 2
//
// Lifecycle hardening: -idle-timeout evicts a UE that wedges
// mid-protocol so it cannot hold a -max-ue slot forever;
// -checkpoint-dir/-checkpoint-every enable periodic train-state
// checkpoints and reconnect-with-resume, kept in one crash-consistent
// journal at <checkpoint-dir>/store.journal; SIGTERM/SIGINT drains
// gracefully — the server stops accepting, checkpoints every live
// session at its next step boundary, detaches the UEs cleanly and
// prints the final per-session metrics.
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
	"repro/internal/store"
	"repro/internal/tensor"
	"repro/internal/transport"
)

func main() {
	listen := flag.String("listen", ":9920", "address to accept UE sessions on")
	maxUE := flag.Int("max-ue", 8, "concurrent session cap")
	steps := flag.Int("steps", 200, "distributed SGD steps per session")
	evalEvery := flag.Int("eval-every", 40, "validate every N steps")
	valAnchors := flag.Int("val-anchors", 128, "validation anchors per evaluation")
	target := flag.Float64("target", 0, "stop a session early at this val RMSE in dB (0 = never)")
	idleTimeout := flag.Duration("idle-timeout", 30*time.Second, "fail a session whose connection stalls this long mid-operation (0 = never)")
	ckptDir := flag.String("checkpoint-dir", "", "directory holding the checkpoint journal store.journal (empty = checkpoint/resume disabled unless -store mem)")
	ckptEvery := flag.Int("checkpoint-every", 50, "checkpoint interval in training steps")
	storeKind := flag.String("store", "", "store backend: mem or journal (single crash-consistent append log under -checkpoint-dir); empty = journal when -checkpoint-dir is set, else mem with checkpointing off")
	journalCompact := flag.Int64("journal-compact-bytes", 64<<20, "journal size that arms compaction")
	retain := flag.Int("retain", 128, "finished-session snapshots kept for reporting")
	workers := flag.Int("workers", 0, "tensor worker-pool size for parallel kernels (0 = min(GOMAXPROCS, 8); results are identical for any value)")
	batchWindow := flag.Duration("batch-window", 0, "cross-session compute batching: rounds arriving within this window coalesce into one dispatch (0 = no coalescing wait; results are bit-identical for any value)")
	batchMax := flag.Int("batch-max", 16, "max rounds coalesced into one compute dispatch")
	replicaID := flag.String("replica-id", "", "stable replica identity in a coordinated fleet (the mmsl_replica_info{id} label and mmsl-coord member name; empty = bs-0)")
	adminAddr := flag.String("admin", "", "serve the control plane on this address: /metrics, session admin, live /config, /debug/pprof/ (e.g. localhost:6060; empty = off)")
	flag.Parse()
	if *workers != 0 {
		tensor.SetWorkers(*workers)
	}

	serve(*listen, *adminAddr, transport.ServerConfig{
		ReplicaID: *replicaID,
		MaxUE:     *maxUE, Steps: *steps, EvalEvery: *evalEvery, ValAnchors: *valAnchors,
		TargetRMSEdB: *target, IdleTimeout: *idleTimeout,
		CheckpointEvery: *ckptEvery, Retain: *retain,
		BatchWindow: *batchWindow, BatchMax: *batchMax,
	}, *storeKind, *ckptDir, *journalCompact)
}

// serveAdmin starts the control plane on addr (no-op when empty).
// onDrain runs after BSServer.Drain on POST /drain; the daemon passes
// the listener closer so the endpoint is observably the SIGTERM path.
func serveAdmin(addr string, srv *transport.BSServer, onDrain func()) {
	if addr == "" {
		return
	}
	ctl := control.New(srv, control.Options{Logf: log.Printf, Pprof: true, OnDrain: onDrain})
	go func() {
		log.Printf("mmsl-bs: control plane on http://%s/ (metrics, sessions, config, pprof)", addr)
		log.Printf("mmsl-bs: control plane server: %v", http.ListenAndServe(addr, ctl.Handler()))
	}()
}

// openStore builds the store the -store flag names. The empty kind means
// the journal when -checkpoint-dir is set, else no store (the server's
// in-memory mirror with checkpointing off). The journal is the single
// file store.journal under -checkpoint-dir.
func openStore(kind, ckptDir string, retain int, compactBytes int64) store.Store {
	if kind == "" && ckptDir != "" {
		kind = "journal"
	}
	switch kind {
	case "":
		return nil
	case "mem":
		return store.NewMem(retain)
	case "journal":
		if ckptDir == "" {
			log.Fatal("mmsl-bs: -store journal requires -checkpoint-dir")
		}
		j, err := store.OpenJournal(filepath.Join(ckptDir, "store.journal"), store.JournalOptions{
			Retain:       retain,
			CompactBytes: compactBytes,
		})
		if err != nil {
			log.Fatalf("mmsl-bs: open journal store: %v", err)
		}
		if st := j.Stats(); st.Recoveries > 0 {
			log.Printf("mmsl-bs: journal recovery: replayed %d records, truncated %d torn bytes",
				st.RecoveredRecords, st.TruncatedBytes)
		}
		return j
	}
	log.Fatalf("mmsl-bs: unknown -store %q (want mem or journal)", kind)
	return nil
}

// serve runs the base station until the listener dies or a termination
// signal triggers the graceful drain.
func serve(addr, adminAddr string, cfg transport.ServerConfig, storeKind, ckptDir string, journalCompact int64) {
	cfg.Logf = log.Printf
	cfg.Store = openStore(storeKind, ckptDir, cfg.Retain, journalCompact)
	srv, err := transport.NewBSServer(cfg)
	if err != nil {
		log.Fatalf("mmsl-bs: %v", err)
	}
	if cfg.Store != nil {
		// The server does not close its store.
		defer func() {
			if err := cfg.Store.Close(); err != nil {
				log.Printf("mmsl-bs: store close: %v", err)
			}
		}()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("mmsl-bs: listen: %v", err)
	}
	defer ln.Close()
	fmt.Printf("mmsl-bs: serving up to %d UEs on %s (%d steps/session)\n",
		cfg.MaxUE, ln.Addr(), cfg.Steps)

	// SIGTERM/SIGINT → graceful drain: stop accepting, checkpoint every
	// live session at its next step boundary, detach the UEs cleanly.
	// POST /drain on the admin address runs the identical sequence.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
	go func() {
		sig := <-sigs
		log.Printf("mmsl-bs: %v — draining", sig)
		srv.Drain()
		ln.Close()
	}()
	serveAdmin(adminAddr, srv, func() { ln.Close() })

	if err := srv.Serve(ln); err != nil && !srv.Draining() {
		log.Printf("mmsl-bs: accept loop ended: %v", err)
	}
	srv.Wait()
	srv.Close()
	flushSessionMetrics(srv)
	if p50, p99, n := srv.RoundLatency(); n > 0 {
		fmt.Printf("serving rounds: %d, p50 %v, p99 %v\n", n, p50, p99)
	}
}

// flushSessionMetrics prints the final per-session report — the metric
// flush of a graceful shutdown.
func flushSessionMetrics(srv *transport.BSServer) {
	snaps := srv.Sessions()
	if len(snaps) == 0 {
		return
	}
	fmt.Println("\nsession      epoch  state       steps  resumed  ckpts  val RMSE   wire in/out")
	for _, s := range snaps {
		// A migrated-out incarnation retires through the failure path
		// (its conn is severed), but it is a handover, not an error.
		state := s.State.String()
		if errors.Is(s.Cause(), transport.ErrMigrated) {
			state = "migrated"
		}
		fmt.Printf("%-11s  %5d  %-10s  %5d  %7d  %5d  %5.2f dB  %d/%d B\n",
			s.ID, s.Epoch, state, s.Steps, s.ResumedFrom, s.Metrics.Checkpoints.Load(),
			s.LastRMSE, s.BytesIn, s.BytesOut)
	}
}
