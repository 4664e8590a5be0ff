package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/split"
	"repro/internal/transport"
)

// testOptions mirrors the daemon's flag defaults at a size a test can
// train: 40 steps, a checkpoint every 10, journals under dir.
func testOptions(t *testing.T, replicas int, dir string) options {
	return options{
		replicas: replicas,
		server: transport.ServerConfig{
			MaxUE: 4, Steps: 40, EvalEvery: 20, ValAnchors: 16,
			IdleTimeout: 30 * time.Second, CheckpointEvery: 10,
			Logf: t.Logf,
		},
		checkpointDir: dir,
		compactBytes:  64 << 20,
		policy:        coord.DefaultPolicy(),
		detector:      coord.DetectorConfig{Interval: 500 * time.Millisecond},
	}
}

// TestRestartResumesFromJournal serves two UEs partway through training,
// cuts both connections, closes the whole daemon and rebuilds it on the
// same checkpoint directory: each UE must resume at its journaled step
// on the replica that served it. At two replicas the UEs sit on
// different replicas, and the rebuilt coordinator must route each
// resume back to the replica whose journal holds its checkpoint.
func TestRestartResumesFromJournal(t *testing.T) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("replicas=%d", n), func(t *testing.T) { testRestartResumes(t, n, false) })
	}
}

// TestRestartAfterCrashResumesFromJournal is the same drill with the
// daemon killed instead of the links cut: every replica crashes with
// both sessions mid-train, as under a kill -9, so no session writes a
// retire record and the journals hold only checkpoints. The rebuilt
// coordinator must route each resume by those checkpoints alone.
func TestRestartAfterCrashResumesFromJournal(t *testing.T) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("replicas=%d", n), func(t *testing.T) { testRestartResumes(t, n, true) })
	}
}

// testRestartResumes runs the restart drill; crash kills every replica
// where the links would be cut.
func testRestartResumes(t *testing.T, replicas int, crash bool) {
	dir := t.TempDir()
	d, err := newDaemon(testOptions(t, replicas, dir))
	if err != nil {
		t.Fatal(err)
	}
	var current atomic.Pointer[coord.Coordinator]
	current.Store(d.co)
	restarted := make(chan struct{})
	cuts := make(chan struct{}, 2)
	crashed := make(chan struct{})

	const cutAt = 25 // after the step-20 checkpoint
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	ues := make([]*transport.UESession, 2)
	for i := range ues {
		h := transport.Hello{
			SessionID: fmt.Sprintf("ue-%d", i), Seed: int64(1 + i),
			Frames: 200, Pool: 4, Modality: uint8(split.ImageRF),
		}
		cfg, data, _, err := transport.SessionEnv(h)
		if err != nil {
			t.Fatal(err)
		}
		var cut atomic.Bool
		us := &transport.UESession{
			Hello: h, Cfg: cfg, Data: data,
			Backoff: transport.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
			OnRequest: func(mt transport.MsgType, step uint32) error {
				if mt == transport.MsgBatchRequest && step == cutAt && cut.CompareAndSwap(false, true) {
					cuts <- struct{}{}
					if crash {
						<-crashed // the request dies with its replica
						return nil
					}
					return errors.New("link cut")
				}
				return nil
			},
		}
		ues[i] = us
		dials := 0
		dial := func() (io.ReadWriteCloser, error) {
			// The redial after the cut waits for the rebuilt daemon.
			if dials++; dials > 1 {
				<-restarted
			}
			ueEnd, coEnd := net.Pipe()
			co := current.Load()
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = co.HandleConn(coEnd)
			}()
			return ueEnd, nil
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- us.Run(dial)
		}()
		// Let UE 0 take its slot before UE 1 joins, so that least-loaded
		// placement puts UE 1 on the other replica.
		waitUntil(t, fmt.Sprintf("ue-%d live", i), func() bool {
			rep := d.co.ReplicaByID(d.co.RouteOf(h.SessionID))
			if rep == nil {
				return false
			}
			for _, id := range rep.LiveSessions() {
				if id == h.SessionID {
					return true
				}
			}
			return false
		})
	}
	routes := []string{d.co.RouteOf("ue-0"), d.co.RouteOf("ue-1")}
	if replicas > 1 && routes[0] == routes[1] {
		t.Fatalf("both UEs placed on %s", routes[0])
	}
	for range ues {
		<-cuts
	}
	if crash {
		for _, rep := range d.replicas {
			rep.BS().Crash()
		}
		close(crashed)
	}
	d.close()
	tokens := []uint32{ues[0].LastCheckpointStep(), ues[1].LastCheckpointStep()}
	for i, step := range tokens {
		if step != 20 {
			t.Fatalf("ue-%d holds a token for step %d at the cut, want 20", i, step)
		}
	}

	d, err = newDaemon(testOptions(t, replicas, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	for i, want := range routes {
		if got := d.co.RouteOf(fmt.Sprintf("ue-%d", i)); got != want {
			t.Fatalf("rebuilt daemon routes ue-%d to %q, want %q (where its journal is)", i, got, want)
		}
	}
	current.Store(d.co)
	close(restarted)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "every session retired", func() bool {
		for _, rep := range d.replicas {
			if rep.Live() > 0 {
				return false
			}
		}
		return true
	})

	for i, us := range ues {
		id := fmt.Sprintf("ue-%d", i)
		if us.Resumes() != 1 {
			t.Fatalf("%s resumed %d times, want 1", id, us.Resumes())
		}
		srv := d.co.ReplicaByID(routes[i]).(*coord.LocalReplica).BS()
		sn, ok := srv.SessionByID(id)
		if !ok {
			t.Fatalf("%s unknown to %s after the restart", id, routes[i])
		}
		if sn.State != transport.SessionDetached || sn.Steps != 40 || sn.ResumedFrom != tokens[i] {
			t.Fatalf("%s on %s: %s after %d steps, resumed from %d; want detached after 40, resumed from %d",
				id, routes[i], sn.State, sn.Steps, sn.ResumedFrom, tokens[i])
		}
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
