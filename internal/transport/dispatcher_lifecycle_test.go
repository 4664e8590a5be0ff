package transport

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// Every BSServer owns dispatcher goroutines, so its lifecycle is part of
// the contract: Close returns them whenever it is called, and a session
// that loses the race with Close fails instead of parking.

// waitGoroutines polls until the goroutine count is back at base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDispatcherLifecycle(t *testing.T) {
	t.Run("boot, session, close", func(t *testing.T) {
		base := runtime.NumGoroutine()
		for i := 0; i < 10; i++ {
			srv, err := NewBSServer(ServerConfig{
				MaxUE: 1, Steps: 4, EvalEvery: 2, ValAnchors: 8,
				Provision: tinySessionEnv,
			})
			if err != nil {
				t.Fatal(err)
			}
			runMultiUE(t, srv, 1)
			srv.Close()
			srv.Close() // idempotent
		}
		waitGoroutines(t, base)
	})

	// Close while rounds are in flight: Handle-entered sessions are in
	// no WaitGroup the server could wait on, so Close must not need to.
	t.Run("close with rounds in flight", func(t *testing.T) {
		const n = 4
		base := runtime.NumGoroutine()
		srv, err := NewBSServer(ServerConfig{
			MaxUE: n, Steps: 1 << 20, EvalEvery: 1 << 20, ValAnchors: 8,
			Provision:   tinySessionEnv,
			BatchWindow: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			h := tinyHello(i)
			cfg, d, _, err := tinySessionEnv(h)
			if err != nil {
				t.Fatal(err)
			}
			ueConn, bsConn := net.Pipe()
			wg.Add(2)
			go func() {
				defer wg.Done()
				if err := srv.Handle(bsConn); err == nil {
					t.Errorf("session %s outlived Close without an error", h.SessionID)
				}
			}()
			go func() {
				defer wg.Done()
				_ = ServeUE(ueConn, h, cfg, d) // severed by the failing session
			}()
		}
		for _, _, rounds := srv.RoundLatency(); rounds < 8*n; _, _, rounds = srv.RoundLatency() {
			time.Sleep(time.Millisecond)
		}
		srv.Close()
		returned := make(chan struct{})
		go func() { wg.Wait(); close(returned) }()
		select {
		case <-returned:
		case <-time.After(5 * time.Second):
			t.Fatal("sessions still parked 5 s after Close")
		}
		if live := srv.ActiveSessions(); live != 0 {
			t.Fatalf("%d sessions live after Close", live)
		}
		waitGoroutines(t, base)
	})
}
