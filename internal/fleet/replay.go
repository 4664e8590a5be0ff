package fleet

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/split"
	"repro/internal/transport"
)

// Replay load generation — the clone end of the load spectrum, driven by
// the repository benchmark's clone workloads (benchmark/). One real UE
// session is recorded per seed, and each benchmark UE answers the
// server's requests with the recorded activation frames verbatim:
// because the server's request sequence is deterministic per seed, the
// replayed bytes are exactly what a live UE would have sent, and the
// UE side costs a frame read plus a memcpy-sized write. The fleet
// drivers (driver.go) are the opposite end — full live UE halves.

// MemoProvision memoises transport.SessionEnv per seed so N same-seed
// sessions provision one shared (read-only) dataset instead of N copies
// and the benchmark clock never includes dataset synthesis.
func MemoProvision() transport.Provision {
	type env struct {
		cfg split.Config
		d   *dataset.Dataset
		sp  *dataset.Split
		err error
	}
	var mu sync.Mutex
	cache := map[int64]*env{}
	return func(h transport.Hello) (split.Config, *dataset.Dataset, *dataset.Split, error) {
		mu.Lock()
		defer mu.Unlock()
		e, ok := cache[h.Seed]
		if !ok {
			e = &env{}
			e.cfg, e.d, e.sp, e.err = transport.SessionEnv(h)
			cache[h.Seed] = e
		}
		return e.cfg, e.d, e.sp, e.err
	}
}

// GateProvision delays every provision until n handshakes are in
// flight, so all benchmark sessions start their rounds together.
func GateProvision(n int, inner transport.Provision) transport.Provision {
	gate := make(chan struct{})
	var joined atomic.Int32
	return func(h transport.Hello) (split.Config, *dataset.Dataset, *dataset.Split, error) {
		if joined.Add(1) == int32(n) {
			close(gate)
		}
		<-gate
		return inner(h)
	}
}

// frameTap records every Write as one frame (the frame path issues
// exactly one Write per frame).
type frameTap struct {
	inner  io.ReadWriter
	frames [][]byte
}

func (t *frameTap) Read(p []byte) (int, error) { return t.inner.Read(p) }

func (t *frameTap) Write(p []byte) (int, error) {
	t.frames = append(t.frames, append([]byte(nil), p...))
	return t.inner.Write(p)
}

// RecordTrajectory runs one real UE session against a one-UE server and
// captures the UE→BS activation frames in order.
func RecordTrajectory(prov transport.Provision, h transport.Hello, steps int) ([][]byte, error) {
	srv, err := transport.NewBSServer(transport.ServerConfig{
		MaxUE: 1, Steps: steps,
		EvalEvery: 1 << 30, ValAnchors: 16, Provision: prov,
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	cfg, d, _, err := prov(h)
	if err != nil {
		return nil, err
	}
	h.ConfigFP = cfg.Fingerprint()
	ueConn, bsConn := net.Pipe()
	defer ueConn.Close()
	done := make(chan error, 1)
	go func() { done <- srv.Handle(bsConn) }()
	if _, err := transport.JoinSession(ueConn, h); err != nil {
		return nil, err
	}
	tap := &frameTap{inner: ueConn}
	ue, err := transport.NewUEPeer(cfg, d, tap)
	if err != nil {
		return nil, err
	}
	if err := ue.Serve(); err != nil {
		return nil, err
	}
	if err := <-done; err != nil {
		return nil, err
	}
	return tap.frames, nil
}

// ReplayUE serves one benchmark session: join, then answer every
// forward-pass request with the next recorded activation frame.
func ReplayUE(conn io.ReadWriteCloser, h transport.Hello, frames [][]byte) error {
	defer conn.Close()
	if _, err := transport.JoinSession(conn, h); err != nil {
		return err
	}
	fr := transport.NewFrameReader(conn)
	defer fr.Release()
	next := 0
	for {
		hdr, _, err := fr.ReadFrame()
		if err != nil {
			return err
		}
		switch hdr.Type {
		case transport.MsgShutdown:
			return nil
		case transport.MsgBatchRequest, transport.MsgEvalRequest:
			if next >= len(frames) {
				return fmt.Errorf("fleet: replay exhausted after %d frames", next)
			}
			if _, err := conn.Write(frames[next]); err != nil {
				return err
			}
			next++
		case transport.MsgCutGradient, transport.MsgCheckpoint:
			// absorbed: the recording already accounted for the model
			// trajectory these induce on a live UE.
		default:
			return fmt.Errorf("fleet: replay UE got unexpected %v", hdr.Type)
		}
	}
}
