package transport

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/split"
	"repro/internal/tensor"
)

// Invariant 8: the dispatcher is mathematically invisible. N sessions
// served concurrently by one BSServer — coalesced under a window, or
// dispatched at once under window 0 — produce byte-identical wire
// traffic in both directions (hence Float64bits-identical activations
// and gradients) and bit-identical final UE model halves, compared to
// the same sessions each driven by a bare BSPeer computing inline.

// recordConn tees both directions of a connection into buffers.
type recordConn struct {
	inner io.ReadWriteCloser
	mu    sync.Mutex
	in    bytes.Buffer // bytes read (BS→UE when wrapping the UE side)
	out   bytes.Buffer // bytes written (UE→BS)
}

func (c *recordConn) Read(p []byte) (int, error) {
	n, err := c.inner.Read(p)
	c.mu.Lock()
	c.in.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

func (c *recordConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.out.Write(p)
	c.mu.Unlock()
	return c.inner.Write(p)
}

func (c *recordConn) Close() error { return c.inner.Close() }

func (c *recordConn) streams() (in, out []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.in.Bytes()...), append([]byte(nil), c.out.Bytes()...)
}

// sessionRun is the observable outcome of one UE's session: both wire
// streams and the final UE-half parameters.
type sessionRun struct {
	in, out []byte
	params  []*tensor.Tensor
}

// gatedProvision wraps tinySessionEnv so no session is provisioned until
// n handshakes are in flight — the batched run's sessions start their
// rounds together, exercising the coalescing path deterministically.
func gatedProvision(n int) Provision {
	gate := make(chan struct{})
	var joined atomic.Int32
	return func(h Hello) (split.Config, *dataset.Dataset, *dataset.Split, error) {
		if joined.Add(1) == int32(n) {
			close(gate)
		}
		<-gate
		return tinySessionEnv(h)
	}
}

// batchedWindow is long enough that gated clone rounds always coalesce.
const batchedWindow = 200 * time.Millisecond

// runBatchedSessions serves the hellos concurrently through one server
// under the given coalescing window and returns each session's run,
// keyed by session id.
func runBatchedSessions(t *testing.T, hellos []Hello, steps int, window time.Duration) (map[string]sessionRun, *BSServer) {
	t.Helper()
	srv, err := NewBSServer(ServerConfig{
		MaxUE: len(hellos),
		Steps: steps, EvalEvery: steps / 2, ValAnchors: 8,
		Provision:   gatedProvision(len(hellos)),
		BatchWindow: window, BatchMax: len(hellos),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	return serveRecorded(t, srv, hellos), srv
}

// serveRecorded serves the hellos concurrently on srv over net.Pipe and
// returns each session's recorded run, keyed by session id.
func serveRecorded(t *testing.T, srv *BSServer, hellos []Hello) map[string]sessionRun {
	t.Helper()
	runs := make(map[string]sessionRun, len(hellos))
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(hellos))
	for _, h := range hellos {
		h := h
		cfg, d, _, err := tinySessionEnv(h)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Codec = compress.ID(h.Codec)
		h.ConfigFP = cfg.Fingerprint()
		ueConn, bsConn := net.Pipe()
		rec := &recordConn{inner: ueConn}
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := srv.Handle(bsConn); err != nil {
				errs <- fmt.Errorf("BS %s: %w", h.SessionID, err)
			}
		}()
		go func() {
			defer wg.Done()
			run, err := serveRecordedUE(rec, h, cfg, d)
			if err != nil {
				errs <- fmt.Errorf("UE %s: %w", h.SessionID, err)
				return
			}
			mu.Lock()
			runs[h.SessionID] = run
			mu.Unlock()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	return runs
}

// runSoloSession is the reference execution, with no BSServer and no
// dispatcher code on the BS side: soloBS answers the hello with the ack
// a server would send and then drives a bare BSPeer on the server's
// schedule.
func runSoloSession(t *testing.T, h Hello, steps int) sessionRun {
	t.Helper()
	cfg, d, sp, err := tinySessionEnv(h)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Codec = compress.ID(h.Codec)
	h.ConfigFP = cfg.Fingerprint()
	ueConn, bsConn := net.Pipe()
	rec := &recordConn{inner: ueConn}
	done := make(chan error, 1)
	go func() { done <- soloBS(bsConn, cfg, d, sp, steps) }()
	run, err := serveRecordedUE(rec, h, cfg, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return run
}

// soloBS is the BS end of the reference: the first-incarnation ack of a
// server with no target and no checkpoint store, then steps inline
// TrainSteps with an evaluation over 8 spread validation anchors every
// steps/2, then the completed-session shutdown.
func soloBS(conn net.Conn, cfg split.Config, d *dataset.Dataset, sp *dataset.Split, steps int) error {
	defer conn.Close()
	msg, err := ReadMessage(conn)
	if err != nil {
		return err
	}
	if msg.Type != MsgSessionHello || msg.Hello == nil {
		return fmt.Errorf("solo BS: expected SessionHello, got %v", msg.Type)
	}
	h := *msg.Hello
	ack := Hello{
		Version: h.Version, SessionID: h.SessionID, Seed: h.Seed,
		Frames: h.Frames, Pool: h.Pool, Modality: h.Modality,
		ConfigFP: cfg.Fingerprint(), Codec: h.Codec, Epoch: 1,
	}
	if err := WriteMessage(conn, &Message{Type: MsgSessionAck, Hello: &ack}); err != nil {
		return err
	}
	peer, err := NewBSPeer(cfg, d, sp, conn)
	if err != nil {
		return err
	}
	defer peer.release()
	val := spreadAnchors(sp.Val, 8)
	for step := 1; step <= steps; step++ {
		if _, err := peer.TrainStep(); err != nil {
			return err
		}
		if step%(steps/2) == 0 || step == steps {
			if _, err := peer.Evaluate(val); err != nil {
				return err
			}
		}
	}
	return peer.Shutdown()
}

// serveRecordedUE joins and serves one UE over a recording connection,
// returning the streams and a deep copy of the final UE parameters.
func serveRecordedUE(rec *recordConn, h Hello, cfg split.Config, d *dataset.Dataset) (sessionRun, error) {
	if _, err := JoinSession(rec, h); err != nil {
		return sessionRun{}, err
	}
	ue, err := NewUEPeer(cfg, d, rec)
	if err != nil {
		return sessionRun{}, err
	}
	if err := ue.Serve(); err != nil {
		return sessionRun{}, err
	}
	var run sessionRun
	run.in, run.out = rec.streams()
	for _, p := range ue.Model.Params() {
		run.params = append(run.params, p.Value.Clone())
	}
	return run, nil
}

func equalRuns(t *testing.T, id string, got, want sessionRun) {
	t.Helper()
	if !bytes.Equal(got.out, want.out) {
		t.Errorf("session %s: UE→BS stream differs (batched %d B vs solo %d B)",
			id, len(got.out), len(want.out))
	}
	if !bytes.Equal(got.in, want.in) {
		t.Errorf("session %s: BS→UE stream differs (batched %d B vs solo %d B)",
			id, len(got.in), len(want.in))
	}
	if len(got.params) != len(want.params) {
		t.Fatalf("session %s: %d params vs %d", id, len(got.params), len(want.params))
	}
	for i := range got.params {
		a, b := got.params[i].Data(), want.params[i].Data()
		for j := range a {
			if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
				t.Errorf("session %s: param %d element %d differs: %x vs %x",
					id, i, j, math.Float64bits(a[j]), math.Float64bits(b[j]))
				return
			}
		}
	}
}

// batchHellos builds n same-seed clone hellos plus one odd-seed session.
func batchHellos(n int, codec compress.ID) []Hello {
	hellos := make([]Hello, 0, n+1)
	for i := 0; i < n; i++ {
		h := Hello{
			SessionID: fmt.Sprintf("clone-%d", i),
			Seed:      7, Frames: 200, Pool: 4,
			Modality: uint8(split.ImageRF),
			Codec:    uint8(codec),
		}
		hellos = append(hellos, h)
	}
	hellos = append(hellos, Hello{
		SessionID: "odd",
		Seed:      31, Frames: 200, Pool: 4,
		Modality: uint8(split.ImageRF),
		Codec:    uint8(codec),
	})
	return hellos
}

func TestBatchedMatchesSoloBitIdentical(t *testing.T) {
	const steps = 12
	for _, codec := range []compress.ID{
		compress.CodecRaw, compress.CodecFloat16, compress.CodecQuantInt8, compress.CodecTopK,
	} {
		t.Run(codec.String(), func(t *testing.T) {
			hellos := batchHellos(3, codec)
			batched, srv := runBatchedSessions(t, hellos, steps, batchedWindow)
			if shared := srv.SharedRounds(); shared == 0 {
				t.Error("no rounds were served by shared computation — batching never engaged")
			}
			// Window 0: the same concurrent sessions, every round
			// dispatched at once.
			unbatched, _ := runBatchedSessions(t, hellos, steps, 0)
			// Solo references: one per distinct seed is enough for the
			// clones, but run every session to also cover the odd one.
			for _, h := range hellos {
				solo := runSoloSession(t, h, steps)
				equalRuns(t, h.SessionID, batched[h.SessionID], solo)
				equalRuns(t, h.SessionID+" (window 0)", unbatched[h.SessionID], solo)
			}
		})
	}
}

// TestBatchedMatchesSoloAcrossWorkers re-runs the raw-codec identity
// check under a different tensor worker-pool size: the shared GEMM must
// be bit-stable against kernel parallelism too.
func TestBatchedMatchesSoloAcrossWorkers(t *testing.T) {
	old := tensor.Workers()
	defer tensor.SetWorkers(old)
	const steps = 8
	hellos := batchHellos(2, compress.CodecRaw)

	tensor.SetWorkers(3)
	batched, srv := runBatchedSessions(t, hellos, steps, batchedWindow)
	if srv.SharedRounds() == 0 {
		t.Error("batching never engaged")
	}
	unbatched, _ := runBatchedSessions(t, hellos, steps, 0)
	tensor.SetWorkers(1)
	for _, h := range hellos {
		solo := runSoloSession(t, h, steps)
		equalRuns(t, h.SessionID, batched[h.SessionID], solo)
		equalRuns(t, h.SessionID+" (window 0)", unbatched[h.SessionID], solo)
	}
}

// TestBatcherLatencyRecorded pins the serving-latency instrumentation.
func TestBatcherLatencyRecorded(t *testing.T) {
	hellos := batchHellos(2, compress.CodecRaw)
	_, srv := runBatchedSessions(t, hellos, 6, batchedWindow)
	p50, p99, n := srv.RoundLatency()
	if n == 0 || p50 <= 0 || p99 < p50 {
		t.Fatalf("round latency p50=%v p99=%v n=%d", p50, p99, n)
	}
}
