package transport

import (
	"sort"
	"sync/atomic"
	"time"
)

// Round-latency measurement for the serving path. Two views over the
// same lock-free record call: a fixed-size ring of the most recent
// samples behind the p50/p99 the benchmarks report, and cumulative
// histogram buckets for the control plane's Prometheus exposition —
// percentiles describe the recent past, the histogram the whole
// process lifetime, and a scraper can derive windowed quantiles by
// differencing successive scrapes.

// latBounds are the histogram bucket upper bounds. They span the
// regimes the committed benchmarks actually produce: sub-ms coalesced
// clone rounds out to the
// multi-second compute-queue waits of a 10k-session overload soak
// (p50 2.7s). Kept sorted; the +Inf bucket is implicit.
var latBounds = [...]time.Duration{
	500 * time.Microsecond,
	time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
	2500 * time.Millisecond,
	5 * time.Second,
	10 * time.Second,
}

// latencyRing records per-round serving latencies with lock-free writes
// — the measurement behind the saturation benchmark's p50/p99 columns
// and the control plane's mmsl_round_latency_seconds histogram. The
// serving hot path performs three atomic stores and one bounded linear
// scan per record, and no allocation.
type latencyRing struct {
	n   atomic.Int64
	buf [4096]atomic.Int64

	hist [len(latBounds) + 1]atomic.Int64 // per-bucket counts; last = +Inf
	sum  atomic.Int64                     // total recorded latency, ns
}

func (r *latencyRing) record(d time.Duration) {
	i := r.n.Add(1) - 1
	r.buf[i&4095].Store(int64(d))
	b := 0
	for b < len(latBounds) && d > latBounds[b] {
		b++
	}
	r.hist[b].Add(1)
	r.sum.Add(int64(d))
}

// percentiles returns the p50/p99 over the retained (most recent)
// rounds and the total number of rounds recorded.
func (r *latencyRing) percentiles() (p50, p99 time.Duration, n int64) {
	n = r.n.Load()
	k := n
	if k > int64(len(r.buf)) {
		k = int64(len(r.buf))
	}
	if k == 0 {
		return 0, 0, 0
	}
	s := make([]int64, k)
	for i := range s {
		s[i] = r.buf[i].Load()
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	p50 = time.Duration(s[(k-1)*50/100])
	p99 = time.Duration(s[(k-1)*99/100])
	return p50, p99, n
}

// LatencyHistogram is a snapshot of the round-latency distribution over
// the server's lifetime, in ascending per-bucket (not cumulative) form.
// Counts has one entry per Bounds entry plus a final overflow (+Inf)
// bucket. Count is the total number of rounds and Sum their total
// latency — Counts always sums to Count.
type LatencyHistogram struct {
	Bounds []time.Duration
	Counts []int64
	Sum    time.Duration
	Count  int64
}

// snapshotHistogram copies the histogram counters. Concurrent records
// land in whichever snapshot observes them; the per-snapshot totals are
// internally consistent because Count is derived from the bucket copy.
func (r *latencyRing) snapshotHistogram() LatencyHistogram {
	h := LatencyHistogram{
		Bounds: latBounds[:],
		Counts: make([]int64, len(latBounds)+1),
		Sum:    time.Duration(r.sum.Load()),
	}
	for i := range h.Counts {
		c := r.hist[i].Load()
		h.Counts[i] = c
		h.Count += c
	}
	return h
}
