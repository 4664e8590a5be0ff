package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/split"
)

// Starvation guard for the coalescing dispatcher: a continuous burst of
// unshareable (unique-fingerprint) rounds must not delay a shareable
// group past the batch window. The dispatcher arms its window timer
// only when pending goes non-empty and every flush drains *all* pending
// groups, so no arrival pattern can push an already-pending round out
// indefinitely — this test pins that bound.

type nopCloser struct{}

func (nopCloser) Close() error { return nil }

// starvationPeer builds one RF-only BSPeer (no images: compute takes
// nil pooled input, so rounds can be driven without a UE connection).
func starvationPeer(t *testing.T, seed int64) *BSPeer {
	t.Helper()
	h := Hello{Seed: seed, Frames: 200, Pool: 4, Modality: uint8(split.RFOnly)}
	cfg, d, sp, err := tinySessionEnv(h)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewBSPeer(cfg, d, sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// submitRound submits one compute round for the peer on its own
// goroutine; the returned channel yields submit's error once the round
// has been answered.
func submitRound(h *computeHub, p *BSPeer) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, _, err := h.submit(p, p.nextAnchors(), nil)
		done <- err
	}()
	return done
}

func TestBatcherMixedFingerprintNoStarvation(t *testing.T) {
	const (
		window   = 25 * time.Millisecond
		batchMax = 4
		flooders = 6
	)
	store := newSessionStore(16)
	// Fake-admit enough live sessions that the early-dispatch target
	// stays at BatchMax: a non-full pending set must wait for the
	// window, the regime where a starvation bug would bite.
	for i := 0; i < 2*batchMax; i++ {
		if _, _, err := store.admit(Hello{SessionID: fmt.Sprintf("fake-%d", i)}, nopCloser{}, 64); err != nil {
			t.Fatal(err)
		}
	}
	pol := func() Policy { return Policy{BatchWindow: window, BatchMax: batchMax} }
	hub := newComputeHub(pol, store)
	defer hub.stop()

	// Clone pair: same seed, same fingerprint, both trained 0 steps.
	cloneA := starvationPeer(t, 7)
	cloneB := starvationPeer(t, 7)
	if cloneA.fp != cloneB.fp {
		t.Fatal("clone peers disagree on fingerprint")
	}

	// Round 1, quiet hub: the pair must coalesce within one window and
	// share the computation.
	ta, tb := submitRound(hub, cloneA), submitRound(hub, cloneB)
	if errA, errB := <-ta, <-tb; errA != nil || errB != nil {
		t.Fatalf("clone round failed: %v / %v", errA, errB)
	}
	if hub.sharedRounds.Load() == 0 {
		t.Fatal("quiet-hub clone pair was not served by shared computation")
	}

	// Flood: unique-fingerprint peers submit back-to-back rounds. None
	// of them can ever share, and none of them may hold the clone
	// pair's next round hostage.
	stop := make(chan struct{})
	var flood sync.WaitGroup
	for i := 0; i < flooders; i++ {
		p := starvationPeer(t, int64(100+i))
		flood.Add(1)
		go func() {
			defer flood.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				hub.submit(p, p.nextAnchors(), nil)
			}
		}()
	}

	start := time.Now()
	ta, tb = submitRound(hub, cloneA), submitRound(hub, cloneB)
	errA, errB := <-ta, <-tb
	elapsed := time.Since(start)
	close(stop)
	flood.Wait()

	if errA != nil || errB != nil {
		t.Fatalf("clone round under flood failed: %v / %v", errA, errB)
	}
	// The bound is deliberately loose (compute time, race-detector
	// overhead), but far below anything resembling starvation.
	if limit := 20 * window; elapsed > limit {
		t.Fatalf("shareable pair waited %v under mixed-fingerprint flood (limit %v)", elapsed, limit)
	}
	if cur := hub.queue.Load(); cur != 0 {
		t.Fatalf("queue gauge %d after drain, want 0", cur)
	}
}
