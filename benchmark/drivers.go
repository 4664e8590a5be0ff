package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/dataset"
	"repro/internal/split"
	"repro/internal/transport"
)

// ueSession is one UE's session as its load generator saw it. The
// driver's goroutine fills it; it is read after that goroutine ends.
type ueSession struct {
	id   string
	slot int      // position in the unit: the same slot of another unit is the same UE again
	taps []*ueTap // one per connection, in dial order
	err  error
	move *moveAttempt // the handover this session asked for (churn only)
}

// moveAttempt is one coordinator handover as the load generator timed
// it.
type moveAttempt struct {
	start, end int64
	err        error
	done       chan struct{}
}

// connect dials the fleet and taps the UE end.
func (f *testbed) connect(s *ueSession, roundsHint int) *ueTap {
	t := newUETap(f.dial(), f.clk, roundsHint)
	s.taps = append(s.taps, t)
	return t
}

// reconnectBackoff is the UE's redial schedule after a handover severs
// its connection. Jitter is off: a random wait of up to a millisecond
// inside a 25 ms session would be measured as session-latency noise,
// and with two concurrent UEs there is no herd to break.
var reconnectBackoff = transport.Backoff{
	Base: 200 * time.Microsecond, Max: 5 * time.Millisecond, Retries: 50, NoJitter: true,
}

// runLive drives a real UE half (transport.UESession) to clean detach.
func (f *testbed) runLive(s *ueSession, h transport.Hello, cfg split.Config, d *dataset.Dataset, steps int,
	onRequest func(transport.MsgType, uint32) error) {
	us := &transport.UESession{Hello: h, Cfg: cfg, Data: d, Backoff: reconnectBackoff, OnRequest: onRequest}
	s.err = us.Run(func() (io.ReadWriteCloser, error) { return f.connect(s, steps), nil })
	if s.move != nil {
		<-s.move.done
	}
}

// runReplay answers every request with the next recorded activation
// frame. It is fleet.ReplayUE run over a tapped connection, so a clone
// costs the load generator a frame read and a memcpy-sized write while
// its rounds are still stamped at the UE side. Eight live UE halves on
// two cores would measure the load generator's conv kernels instead of
// the serving path.
func (f *testbed) runReplay(s *ueSession, h transport.Hello, frames [][]byte) {
	conn := f.connect(s, len(frames))
	defer conn.Close()
	s.err = func() error {
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
					return fmt.Errorf("replay exhausted after %d frames", next)
				}
				if _, err := conn.Write(frames[next]); err != nil {
					return err
				}
				next++
			case transport.MsgCutGradient, transport.MsgCheckpoint:
			default:
				return fmt.Errorf("replay UE got unexpected %v", hdr.Type)
			}
		}
	}()
}

// runRFOnly keeps an RF-only session joined until the BS shuts it down.
// Such a session trains entirely on the BS; transport.UESession refuses
// it ("needs no UE peer"), which the sizing probe counted as 489 failed
// sessions that had not failed.
func (f *testbed) runRFOnly(s *ueSession, h transport.Hello) {
	conn := f.connect(s, 0)
	defer conn.Close()
	s.err = func() error {
		if _, err := transport.JoinSession(conn, h); err != nil {
			return err
		}
		fr := transport.NewFrameReader(conn)
		defer fr.Release()
		for {
			hdr, _, err := fr.ReadFrame()
			if err != nil {
				return err
			}
			switch hdr.Type {
			case transport.MsgShutdown:
				return nil
			case transport.MsgCheckpoint:
			default:
				return fmt.Errorf("RF-only UE got unexpected %v", hdr.Type)
			}
		}
	}()
}

// migrateOnce returns a request hook that asks the coordinator, once,
// to hand the session over to the other replica when the UE sees the
// batch request of the given step. The trigger is a count, never the
// wall clock, so every session is handed over in every run; where in
// the following steps the handover lands is the program's business. The
// UE holds its answer until the helper goroutine is running and about
// to call Migrate: a helper that is scheduled 15 ms late would otherwise
// find a 17 ms session already finished (2 handovers in 30000 did).
func (f *testbed) migrateOnce(s *ueSession, atStep uint32) func(transport.MsgType, uint32) error {
	fired := false
	return func(t transport.MsgType, step uint32) error {
		if fired || t != transport.MsgBatchRequest || step < atStep {
			return nil
		}
		fired = true
		m := &moveAttempt{done: make(chan struct{})}
		s.move = m
		running := make(chan struct{})
		go func() {
			defer close(m.done)
			dst := ""
			src := f.co.RouteOf(s.id)
			for _, r := range f.co.Replicas() {
				if r.ID() != src {
					dst = r.ID()
					break
				}
			}
			m.start = f.clk.now()
			close(running)
			m.err = f.co.Migrate(s.id, dst)
			m.end = f.clk.now()
		}()
		<-running
		return nil
	}
}
