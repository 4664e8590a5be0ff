package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/coord"
	"repro/internal/transport"
)

// metric is one reported number. n is the number of samples behind a
// timing (0 for counts and ratios).
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

// phase is one measured run of a workload: units driven back to back
// until the time is up, with everything the load generator observed.
type phase struct {
	b        *bench
	units    int
	sessions []*ueSession
	wallNs   int64
	cpu      time.Duration
	mallocs  uint64
	gcPause  time.Duration
	totals   serverTotals
	coord    coord.Stats

	sessionsRun, sessionsOK int // OK: detached cleanly after every step
	movesAsked, movesFailed int // handovers (churn)
	rmseSum                 float64
	problems                []string // failed output checks (first few, in words)
}

// attempted and failed are the result line's operation counts: a
// session that did not end detached fails, and so does a handover.
func (ph *phase) attempted() int { return ph.sessionsRun + ph.movesAsked }
func (ph *phase) failed() int    { return ph.sessionsRun - ph.sessionsOK + ph.movesFailed }

const maxProblems = 8

func (ph *phase) problem(format string, args ...any) {
	if len(ph.problems) < maxProblems {
		ph.problems = append(ph.problems, fmt.Sprintf(format, args...))
	}
}

// runPhase drives whole units until the next one would overshoot the
// requested time by more than half its length, checking every session's
// outcome as it goes.
func runPhase(b *bench, seconds float64) (*phase, error) {
	ph := &phase{b: b}
	ref := make([]transport.SessionSnapshot, b.slots) // unit 0, by slot
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := b.f.clk.now()
	for {
		sessions, err := b.unit(ph.units)
		if err != nil {
			return nil, fmt.Errorf("unit %d: %w", ph.units, err)
		}
		b.f.settle(sessions)
		ph.wallNs = b.f.clk.now() - start
		ph.check(sessions, ref)
		ph.sessions = append(ph.sessions, sessions...)
		ph.units++
		mean := float64(ph.wallNs) / float64(ph.units)
		if float64(ph.wallNs)+mean/2 >= seconds*1e9 {
			break
		}
	}
	ph.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	ph.mallocs = ms1.Mallocs - ms0.Mallocs
	ph.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	ph.totals = b.f.totals()
	if b.f.co != nil {
		ph.coord = b.f.co.Stats()
	}
	return ph, nil
}

// check runs the output checks on one unit: every session detached
// cleanly after exactly the configured steps, the clones of a wave agree
// with each other, and every slot ends in the same bits as it did in
// unit 0. On churn the handover lands at a different step in every
// unit, and the bits must match all the same.
func (ph *phase) check(sessions []*ueSession, ref []transport.SessionSnapshot) {
	for _, s := range sessions {
		ph.sessionsRun++
		ok := true
		snap, have := ph.b.f.ends.of(s.id)
		switch {
		case s.err != nil:
			ok = false
			ph.problem("session %s: driver: %v", s.id, s.err)
		case !have:
			ok = false
			ph.problem("session %s: no terminal snapshot", s.id)
		case snap.State != transport.SessionDetached || snap.Steps != ph.b.steps:
			ok = false
			ph.problem("session %s: ended %v after %d of %d steps (%s)", s.id, snap.State, snap.Steps, ph.b.steps, snap.Err)
		case len(s.taps) == 0 || s.taps[len(s.taps)-1].shutdownEnd == 0:
			ok = false
			ph.problem("session %s: UE never read a clean shutdown", s.id)
		}
		if s.move != nil {
			ph.movesAsked++
			if s.move.err != nil {
				ph.movesFailed++
				ph.problem("session %s: handover: %v", s.id, s.move.err)
			}
		}
		if !ok {
			continue
		}
		ph.sessionsOK++
		ph.rmseSum += snap.LastRMSE
		if ph.units == 0 {
			ref[s.slot] = snap
		}
		want := ref[s.slot]
		if ph.b.clones {
			want = ref[0]
		}
		if want.ID == "" {
			continue // the reference session itself failed and was reported
		}
		if !bitsEqual(snap.LastLoss, want.LastLoss) || !bitsEqual(snap.LastRMSE, want.LastRMSE) {
			ph.problem("session %s: final loss/RMSE %x/%x differ from %s's %x/%x", s.id,
				snap.LastLoss, snap.LastRMSE, want.ID, want.LastLoss, want.LastRMSE)
		}
	}
}

// finalRMSE is the mean final validation RMSE over the sessions.
func (ph *phase) finalRMSE() float64 { return ph.rmseSum / float64(ph.sessionsOK) }

// steps is the number of training steps the phase completed.
func (ph *phase) steps() int { return ph.sessionsOK * ph.b.steps }

func (ph *phase) stepsPerSec() float64 { return float64(ph.steps()) / (float64(ph.wallNs) / 1e9) }

func (ph *phase) wireBytesPerStep() float64 {
	return float64(ph.totals.bytesIn+ph.totals.bytesOut) / float64(ph.steps())
}

// finalBits is unit 0's final loss and RMSE by slot, for comparing two
// phases of the same seed (every later unit was already checked
// against unit 0).
func (ph *phase) finalBits() [][2]float64 {
	out := make([][2]float64, ph.b.slots)
	for _, s := range ph.sessions[:min(len(ph.sessions), ph.b.slots)] {
		if snap, ok := ph.b.f.ends.of(s.id); ok {
			out[s.slot] = [2]float64{snap.LastLoss, snap.LastRMSE}
		}
	}
	return out
}

// ueSide flattens what the UE-side taps saw into sample slices.
type ueSide struct {
	roundMs   []float64 // activation write begins → first gradient byte
	sessionMs []float64 // hello sent → clean shutdown read
	joinMs    []float64 // hello sent → ack read, first connection
	fwdMs     []float64 // request read → activation write begins
	bwdMs     []float64 // gradient read → next read
	busyNs    int64     // UE compute, all sessions
	liveNs    int64     // session wall, all sessions
	gapMs     []float64 // last gradient before a sever → first request after the resume
}

func (ph *phase) ueSide() ueSide {
	var u ueSide
	for _, s := range ph.sessions {
		if len(s.taps) == 0 {
			continue
		}
		first, last := s.taps[0], s.taps[len(s.taps)-1]
		if first.helloStart != 0 && first.ackEnd != 0 {
			u.joinMs = append(u.joinMs, float64(first.ackEnd-first.helloStart)/1e6)
		}
		if first.helloStart != 0 && last.shutdownEnd != 0 {
			u.sessionMs = append(u.sessionMs, float64(last.shutdownEnd-first.helloStart)/1e6)
			u.liveNs += last.shutdownEnd - first.helloStart
		}
		var lastGrad int64
		for _, t := range s.taps {
			u.busyNs += t.evalFwdNs
			if lastGrad != 0 && len(t.rounds) > 0 {
				u.gapMs = append(u.gapMs, float64(t.rounds[0].reqEnd-lastGrad)/1e6)
			}
			for _, r := range t.rounds {
				u.roundMs = append(u.roundMs, float64(r.gFirst-r.wStart)/1e6)
				u.fwdMs = append(u.fwdMs, float64(r.wStart-r.reqEnd)/1e6)
				u.bwdMs = append(u.bwdMs, float64(r.bwdEnd-r.gEnd)/1e6)
				u.busyNs += (r.wStart - r.reqEnd) + (r.bwdEnd - r.gEnd)
				lastGrad = r.gEnd
			}
		}
	}
	return u
}

// endToEnd computes the end-to-end metrics of an untraced phase. info
// holds the four of the issue's eleven that are printed but kept out of
// the result line, because the builder's contract wants every
// end-to-end metric non-zero, on every workload, and steady from seed to
// seed (see README).
func endToEnd(ph *phase, setupS float64) (ms, info []metric, err error) {
	u := ph.ueSide()
	round, session, join := sortedCopy(u.roundMs), sortedCopy(u.sessionMs), sortedCopy(u.joinMs)
	if len(round) == 0 || len(session) == 0 || len(join) == 0 {
		return nil, nil, fmt.Errorf("no session completed a round")
	}
	ms = []metric{
		{"setup_s", "s", setupS, 0},
		{"steps_per_s", "1/s", ph.stepsPerSec(), ph.steps()},
		{"round_p50_ms", "ms", median(round), len(round)},
		{"session_p50_ms", "ms", median(session), len(session)},
		{"cpu_ms_per_step", "ms", float64(ph.cpu) / 1e6 / float64(ph.steps()), ph.steps()},
		{"wire_bytes_per_step", "B", ph.wireBytesPerStep(), 0},
		{"peak_rss_mb", "MB", peakRSSMB(), 0},
	}
	info = []metric{
		{"round_p95_ms", "ms", supported(round, 0.95), len(round)},
		{"join_p50_ms", "ms", median(join), len(join)},
		{"final_rmse_db", "dB", ph.finalRMSE(), ph.sessionsOK},
		{"failed_share", "ratio", float64(ph.failed()) / float64(ph.attempted()), ph.attempted()},
	}
	return ms, info, nil
}
