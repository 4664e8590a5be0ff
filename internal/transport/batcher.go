package transport

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/split"
	"repro/internal/tensor"
)

// The compute dispatcher: the one place a BSServer differs from a bare
// BSPeer. Every training round is BSPeer.trainStep (peer.go) — draw
// anchors, request activations, compute, send the cut gradient — on the
// session's own goroutine, which therefore also decodes the activation
// payload and encodes the gradient reply: a 2 KB one-pixel payload
// decoded there overlaps other sessions' compute exactly as a stage pool
// would, without two channel round trips per round. What a server
// session hands over is only the compute: submit passes (anchors,
// pooled) to the dispatcher and waits for (loss, cut). Compute workers
// bound the number of concurrently computing rounds at GOMAXPROCS
// instead of the session count. Per-session ordering is structural: the
// lock-step protocol admits at most one in-flight round per session.
//
// The dispatcher is where cross-session micro-batching happens. It
// coalesces rounds arriving within Policy.BatchWindow (or until
// min(BatchMax, live sessions) rounds are pending — a full batch never
// waits out the window; a zero window dispatches every round at once)
// and groups them by model-state key. Sessions in one group whose
// parameters and round inputs are *proven* bit-identical (compared,
// never assumed) execute as one forward/backward through the group
// representative's model half; the resulting loss, parameter gradients
// and cut-layer gradient rows are then scattered to every member, each
// of which applies its own optimiser. Because the shared computation is
// exactly the computation each member would have run solo, every
// member's update — and every byte it sends back to its UE — is
// bit-identical to a bare peer computing inline (the invariant-8 suite
// pins this). Sessions that fail the equality guard simply compute solo
// within the batch, so correctness never depends on the grouping
// heuristic.

// batchKey is the grouping hint for coalesced rounds: sessions sharing
// a config fingerprint (which covers seed, geometry, codec and
// hyper-parameters) and a trained-step count are *candidate* clones.
// The key admits false positives — a custom Provision can hand
// same-fingerprint sessions different datasets — which is why group
// members are additionally verified bitwise before any sharing.
type batchKey struct {
	fp      uint64
	trained int
}

// roundTask carries one session round's compute through the dispatcher.
// Each peer owns exactly one, reused round after round.
type roundTask struct {
	peer *BSPeer

	anchors []int32
	pooled  *tensor.Tensor
	key     batchKey
	shared  bool // scratch for runGroup's partition
	loss    float64
	cut     *tensor.Tensor

	done chan struct{} // capacity 1; one signal per submission
}

// errHubClosed fails a round submitted after its server was closed.
var errHubClosed = errors.New("transport: server closed")

// computeHub owns the dispatcher and compute workers of one BSServer.
type computeHub struct {
	// pol resolves the server's current Policy; the dispatcher reads the
	// coalescing window and batch cap through it at every decision point
	// (arming the window timer, sizing the early-dispatch target), so a
	// PUT /config swap takes effect at the next round boundary without
	// touching rounds already pending. It never affects computed values:
	// the window only decides *when* rounds coalesce, and invariant 8
	// pins batched results bit-identical to solo for any grouping.
	pol   func() Policy
	store *sessionStore // live-count hint for early dispatch

	// Buffered so a burst of submissions does not park session goroutines
	// behind the dispatcher; the size is not load-bearing (MaxUE bounds
	// the rounds in flight).
	computeq chan *roundTask
	execq    chan []*roundTask

	// mu guards closed. inflight counts submitters between their closed
	// check and their send, so stop can close computeq once none is left;
	// everything sent before that is still dispatched and answered.
	// workers tracks the dispatcher and compute goroutines.
	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup
	workers  sync.WaitGroup

	// sharedRounds counts rounds served by a clone group's shared
	// computation instead of their own — the dedup win reported as
	// transport.shared_ratio.
	sharedRounds atomic.Int64

	// queue tracks the rounds inside the dispatcher — submitted and not
	// yet answered, whether coalescing or executing in a group. Its peak
	// is the backlog number the control plane exports
	// (BSServer.TakeBatchQueuePeak).
	queue metrics.Gauge
}

// newComputeHub starts one compute worker per proc plus the coalescing
// dispatcher.
func newComputeHub(pol func() Policy, store *sessionStore) *computeHub {
	procs := runtime.GOMAXPROCS(0)
	h := &computeHub{
		pol:      pol,
		store:    store,
		computeq: make(chan *roundTask, 64),
		execq:    make(chan []*roundTask, 64),
	}
	h.workers.Add(procs + 1)
	for i := 0; i < procs; i++ {
		go h.computeWorker()
	}
	go h.dispatch()
	return h
}

// stop shuts the dispatcher down and returns once its goroutines have
// exited. Safe at any time: rounds already submitted are computed and
// answered, later ones fail with errHubClosed. Called once per hub
// (BSServer.Close guards it).
func (h *computeHub) stop() {
	h.mu.Lock()
	h.closed = true
	h.mu.Unlock()
	h.inflight.Wait()
	close(h.computeq)
	h.workers.Wait()
}

// submit is the server's compute function for BSPeer.trainStep: it
// queues the round's compute for the dispatcher and waits for the
// result on the session's goroutine.
func (h *computeHub) submit(peer *BSPeer, anchors []int32, pooled *tensor.Tensor) (float64, *tensor.Tensor, error) {
	t := peer.task
	if t == nil {
		t = &roundTask{peer: peer, done: make(chan struct{}, 1)}
		peer.task = t
	}
	t.anchors, t.pooled, t.cut = anchors, pooled, nil
	t.key = batchKey{fp: peer.fp, trained: peer.trained}

	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return 0, nil, errHubClosed
	}
	h.inflight.Add(1)
	h.mu.Unlock()
	h.queue.Add(1)
	h.computeq <- t
	h.inflight.Done()
	<-t.done
	h.queue.Add(-1)
	return t.loss, t.cut, nil
}

// dispatch coalesces compute submissions into batches: a batch fires
// when min(BatchMax, live sessions) rounds are pending or when the
// window since the first pending round expires, whichever is first. The
// window is also the resynchronisation mechanism — a session whose
// round finished late rejoins its clone group as long as its skew stays
// under the window.
func (h *computeHub) dispatch() {
	defer h.workers.Done()
	defer close(h.execq)
	var pending []*roundTask
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	armed := false
	disarm := func() {
		if armed && !timer.Stop() {
			<-timer.C
		}
		armed = false
	}
	flush := func() {
		for len(pending) > 0 {
			key := pending[0].key
			group := make([]*roundTask, 0, len(pending))
			rest := pending[:0]
			for _, t := range pending {
				if t.key == key {
					group = append(group, t)
				} else {
					rest = append(rest, t)
				}
			}
			pending = rest
			h.execq <- group
		}
		pending = nil
	}
	for {
		select {
		case t, ok := <-h.computeq:
			if !ok { // stopped: answer what was already submitted
				disarm()
				flush()
				return
			}
			pending = append(pending, t)
			// The window and batch cap are policy-resolved per round, so
			// a live reconfiguration binds from the next arrival on. A
			// zero window dispatches every round at once (no coalescing
			// wait).
			p := h.pol()
			target := p.BatchMax
			if live := h.store.liveCount(); live < target {
				target = live
			}
			if target < 1 {
				target = 1
			}
			if len(pending) >= target || p.BatchWindow <= 0 {
				disarm()
				flush()
			} else if !armed {
				timer.Reset(p.BatchWindow)
				armed = true
			}
		case <-timer.C:
			armed = false
			flush()
		}
	}
}

func (h *computeHub) computeWorker() {
	defer h.workers.Done()
	for g := range h.execq {
		h.runGroup(g)
	}
}

// runGroup executes one coalesced batch of same-key rounds: the
// representative's model half runs the batched forward/backward once,
// and the result is scattered to every member whose parameters and
// inputs are bit-identical to the representative's. The equality guard
// runs *before* the representative's optimiser update mutates its
// parameters; members that fail it compute solo. A shared member is
// counted before its done is sent, so a caller that saw its round
// complete never reads a stale SharedRounds.
func (h *computeHub) runGroup(g []*roundTask) {
	rep := g[0]
	for _, t := range g[1:] {
		t.shared = slices.Equal(rep.anchors, t.anchors) &&
			tensorBitsEqual(rep.pooled, t.pooled) &&
			split.ParamsBitsEqual(rep.peer.Model.Params(), t.peer.Model.Params())
	}
	rep.loss, rep.cut = rep.peer.computeStep(rep.anchors, rep.pooled)
	for _, t := range g[1:] {
		if t.shared && shareStep(rep, t) {
			h.sharedRounds.Add(1)
		} else {
			t.loss, t.cut = t.peer.computeStep(t.anchors, t.pooled)
		}
		t.done <- struct{}{}
	}
	rep.done <- struct{}{}
}

// shareStep applies the representative's already-computed round to a
// verified clone member: the member re-derives its own fused input and
// targets (covering its private dataset and normaliser) and, only if
// they too are bit-identical to the representative's, takes the shared
// gradients — copied into its own parameters — and steps its own
// optimiser. Reports false when the member must compute solo after all.
func shareStep(rep, t *roundTask) bool {
	peer := t.peer
	peer.arena.Reset()
	fused := peer.fuse(t.anchors, t.pooled)
	targets := peer.targets(t.anchors)
	if !tensorBitsEqual(fused, rep.peer.lastFused) || !tensorBitsEqual(targets, rep.peer.lastTargets) {
		return false
	}
	if !split.CopyGrads(peer.Model.Params(), rep.peer.Model.Params()) {
		return false
	}
	peer.adam.Step()
	peer.trained++
	peer.lastFused, peer.lastTargets = fused, targets
	t.loss = rep.loss
	t.cut = nil
	if rep.cut != nil {
		c := peer.arena.GetUninit(rep.cut.Shape()...)
		copy(c.Data(), rep.cut.Data())
		t.cut = c
	}
	return true
}

// tensorBitsEqual reports Float64bits equality of two tensors (both nil
// counts as equal). NaNs compare by bit pattern, so an equality here is
// exactly "the same computation would see the same input".
func tensorBitsEqual(a, b *tensor.Tensor) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if !a.SameShape(b) {
		return false
	}
	return split.BitsEqual(a.Data(), b.Data())
}
