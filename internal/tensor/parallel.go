package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Deterministic parallelism: hot operations decompose their work into a
// FIXED number of shards (NumShards) with a fixed index-stride assignment
// and reduce partial results in shard order. The number of OS workers that
// executes the shards is a pure throughput knob — shard contents and
// reduction order never depend on it — so results are bit-identical to the
// single-worker run regardless of GOMAXPROCS, SetWorkers or scheduling, a
// property the split-learning equivalence tests rely on.

// NumShards is the fixed shard count of every ParallelFor: what a caller
// sizes per-shard scratch by.
const NumShards = 8

// maxWorkers caps the goroutines a single operation fans out to. It is
// min(GOMAXPROCS, NumShards) by default and adjustable via SetWorkers.
var maxWorkers atomic.Int32

func init() { maxWorkers.Store(int32(defaultWorkers())) }

func defaultWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n > NumShards {
		n = NumShards
	}
	if n < 1 {
		n = 1
	}
	return n
}

// SetWorkers sets the worker-pool size for parallel tensor operations and
// returns the effective value. Values are clamped to [1, NumShards]; n <= 0
// restores the default min(GOMAXPROCS, NumShards). Changing the worker
// count never changes results: work stays sharded the same way and partial
// results reduce in shard order.
func SetWorkers(n int) int {
	if n <= 0 {
		n = defaultWorkers()
	}
	if n > NumShards {
		n = NumShards
	}
	maxWorkers.Store(int32(n))
	return n
}

// Workers returns the current worker-pool size.
func Workers() int { return int(maxWorkers.Load()) }

// minParallelFLOPs is the approximate floating-point work below which
// goroutine fan-out costs more than it saves. The old implementation
// gated on task *count* (n >= 16), which left typical training batches
// (8–12 images, each tens of kFLOPs) fully serial; gating on total cost
// lets small batches of expensive tasks parallelise while keeping tiny
// element-wise calls serial.
const minParallelFLOPs = 1 << 15

// ParallelFor runs f(shard, NumShards) for every shard in [0, NumShards).
// The callee iterates `for i := shard; i < n; i += NumShards`. n is the
// task count and flopsPerTask the approximate per-task cost; together they
// decide whether the shards run on the worker pool or inline on the
// caller's goroutine. Either way every shard executes exactly once, so
// outputs (including shard-ordered reductions) are identical.
//
// The fan-out is what a hot operation still allocates in steady state:
// the WaitGroup and one closure per worker, w + 1 heap objects for w ≥ 2
// workers and none for one (DESIGN.md §6 has the per-operation totals).
func ParallelFor(n, flopsPerTask int, f func(shard, stride int)) {
	w := min(Workers(), n)
	if w <= 1 || n*flopsPerTask < minParallelFLOPs {
		for s := 0; s < NumShards; s++ {
			f(s, NumShards)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for wk := 0; wk < w; wk++ {
		go func() {
			defer wg.Done()
			for s := wk; s < NumShards; s += w {
				f(s, NumShards)
			}
		}()
	}
	wg.Wait()
}
