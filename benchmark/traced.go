package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// A traced invocation splits its time: a quarter for an untraced
// reference phase, three quarters for the traced phase (the per-layer
// percentiles need the samples), and on top a budget per layer drill.
const (
	refShare     = 0.25
	drillDivisor = 64 // one drill's budget is seconds/64
)

// runTraced is the per-layer run: the workload once untraced and once
// with the benchmark's wrappers recording, the comparison of the two,
// the trace file, and the layer drills.
func runTraced(o options, w *workloadDef, sz sizes, clk clock) (*report, error) {
	b, err := w.setup(o.seed, sz, clk, false)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	ref, err := runPhase(b, o.seconds*refShare)
	if err != nil {
		b.f.close()
		return nil, err
	}
	refBits, refRate, refWire := ref.finalBits(), ref.stepsPerSec(), ref.wireBytesPerStep()
	b.f.close()

	if b, err = w.setup(o.seed, sz, clk, true); err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer b.f.close()
	ph, err := runPhase(b, o.seconds*(1-refShare))
	if err != nil {
		return nil, err
	}

	// Tracing must be invisible in the outputs: the same seed ends in the
	// same bits with the wrappers in the path, and on the fixed-trajectory
	// workloads moves exactly the same bytes per step. (On churn the
	// handover lands on a different step each run, and a landing between
	// two checkpoints costs one extra checkpoint message.)
	for slot, got := range ph.finalBits() {
		if want := refBits[slot]; !bitsEqual(got[0], want[0]) || !bitsEqual(got[1], want[1]) {
			ph.problem("slot %d: traced run ends in loss/RMSE %x/%x, untraced in %x/%x", slot, got[0], got[1], want[0], want[1])
		}
	}
	if w.fixedWire && ph.wireBytesPerStep() != refWire {
		ph.problem("wire bytes per step: traced %v, untraced %v", ph.wireBytesPerStep(), refWire)
	}

	spans, ls := buildSpans(ph)
	out := o.traceOut
	if out == "" {
		out = filepath.Join(".bench_build", "trace-"+w.name+".jsonl")
	}
	if err := spans.writeJSONL(out); err != nil {
		return nil, fmt.Errorf("trace file: %w", err)
	}
	fmt.Printf("trace: %d spans in %s\n", len(spans.spans), out)
	printSelfTimes(spans, ph.wallNs)

	budget := time.Duration(o.seconds / drillDivisor * float64(time.Second))
	dm, err := runDrills(budget, o.seed, sz)
	if err != nil {
		return nil, err
	}
	ms := append(dm, tracedMetrics(ph, ls, refRate)...)

	// The result line counts both phases' sessions and failed checks.
	ph.problems = append(ref.problems, ph.problems...)
	ph.sessionsRun += ref.sessionsRun
	ph.sessionsOK += ref.sessionsOK
	ph.movesAsked += ref.movesAsked
	ph.movesFailed += ref.movesFailed
	for _, m := range ms {
		if (m.name == "transport.frame_enc_allocs" || m.name == "transport.frame_dec_allocs") && m.value != 0 {
			ph.problem("%s = %v, the frame path must not allocate", m.name, m.value)
		}
		if m.name == "coord.failover_lost" && m.value != 0 {
			ph.problem("failover drill lost %v sessions", m.value)
		}
	}
	return &report{metrics: ms, ph: ph}, nil
}

// supported returns the p-quantile of xs, or 0 when the samples cannot
// support it (see percentile). 0 is also what a layer that is not on a
// workload's path reports.
func supported(xs []float64, p float64) float64 {
	if v, ok := percentile(sortedCopy(xs), p); ok {
		return v
	}
	return 0
}

// tracedMetrics are the per-layer numbers that come out of the traced
// phase rather than out of a drill.
func tracedMetrics(ph *phase, ls layerSamples, refRate float64) []metric {
	u := ph.ueSide()
	wall := float64(ph.wallNs) / 1e9
	steps := float64(ph.steps())
	t := ph.totals
	var moveMs []float64
	for _, s := range ph.sessions {
		if s.move != nil && s.move.err == nil {
			moveMs = append(moveMs, float64(s.move.end-s.move.start)/1e6)
		}
	}
	maxRound := 0.0
	for _, r := range u.roundMs {
		maxRound = max(maxRound, r)
	}
	putBusy := float64(unionLength(ls.puts)) / 1e9
	share := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return []metric{
		{"split.final_rmse_db", "dB", ph.finalRMSE(), ph.sessionsOK},

		{"transport.shared_ratio", "ratio", share(float64(t.shared), float64(t.rounds)), int(t.rounds)},
		{"transport.queue_peak", "count", float64(t.queuePeak), 0},
		{"transport.rounds", "count", float64(t.rounds), 0},
		{"transport.checkpoints", "count", float64(t.checkpoints), 0},
		{"transport.bytes_in", "B", float64(t.bytesIn), 0},
		{"transport.bytes_out", "B", float64(t.bytesOut), 0},
		{"transport.migrate_out_ms", "ms", medianOf(ls.migrateOutMs), len(ls.migrateOutMs)},
		{"transport.adopt_ms", "ms", medianOf(ls.adoptMs), len(ls.adoptMs)},

		{"serve.round_p90_ms", "ms", supported(u.roundMs, 0.90), len(u.roundMs)},
		{"serve.round_p95_ms", "ms", supported(u.roundMs, 0.95), len(u.roundMs)},
		{"serve.round_p99_ms", "ms", supported(u.roundMs, 0.99), len(u.roundMs)},
		{"serve.round_max_ms", "ms", maxRound, len(u.roundMs)},
		{"serve.bs_service_p50_ms", "ms", medianOf(ls.bsServiceMs), len(ls.bsServiceMs)},
		{"serve.ue_fwd_p50_ms", "ms", medianOf(u.fwdMs), len(u.fwdMs)},
		{"serve.ue_bwd_p50_ms", "ms", medianOf(u.bwdMs), len(u.bwdMs)},
		{"serve.ue_busy_share", "ratio", share(float64(u.busyNs), float64(u.liveNs)), 0},
		{"serve.join_p50_ms", "ms", medianOf(u.joinMs), len(u.joinMs)},

		{"store.put_count", "count", float64(len(ls.puts)), 0},
		{"store.put_busy_s", "s", putBusy, len(ls.puts)},
		{"store.put_share", "ratio", putBusy / wall, 0},
		{"store.journal_bytes", "B", float64(t.journalBytes), 0},
		{"store.compactions", "count", float64(t.compactions), 0},

		{"coord.relay_rtt_p50_us", "us", medianOf(ls.relayRttUs), len(ls.relayRttUs)},
		{"coord.relay_bytes_up", "B", float64(ph.coord.RelayedBytesUp), 0},
		{"coord.relay_bytes_down", "B", float64(ph.coord.RelayedBytesDown), 0},
		{"coord.migrate_p50_ms", "ms", medianOf(moveMs), len(moveMs)},
		{"coord.migrate_p99_ms", "ms", supported(moveMs, 0.99), len(moveMs)},
		{"coord.migrate_failed", "count", float64(ph.movesFailed), 0},
		{"coord.resume_gap_p50_ms", "ms", medianOf(u.gapMs), len(u.gapMs)},

		{"proc.allocs_per_step", "count", float64(ph.mallocs) / steps, 0},
		{"proc.gc_pause_ms", "ms", float64(ph.gcPause) / 1e6, 0},
		{"proc.cpu_util", "ratio", ph.cpu.Seconds() / wall / float64(runtime.GOMAXPROCS(0)), 0},

		{"trace_overhead", "ratio", ph.stepsPerSec() / refRate, 0},
	}
}

// printSelfTimes prints where the traced phase's time went, by span
// name: total, self (total minus what child spans cover) and self as a
// share of the phase's wall time. Shares add up to more than one when
// sessions run side by side.
func printSelfTimes(spans *spanLog, wallNs int64) {
	fmt.Printf("%-14s %10s %14s %14s %10s\n", "span", "count", "total ms", "self ms", "self/wall")
	for _, lt := range selfTimes(spans.spans) {
		fmt.Printf("%-14s %10d %14.2f %14.2f %10.3f\n", lt.Name, lt.Count,
			float64(lt.Total)/1e6, float64(lt.Self)/1e6, float64(lt.Self)/float64(wallNs))
	}
}
