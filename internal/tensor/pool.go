package tensor

import (
	"fmt"
	"math/bits"
	"sync"
)

// Size-bucketed []float64 pool. Buffers are pooled by power-of-two
// capacity class so a small request is served by a buffer of at most 2×
// the asked-for length; steady-state training therefore recycles the same
// few buffers instead of churning the GC with multi-megabyte allocations
// every step. A large request gets a buffer of exactly its size: the
// model-sized buffers that sessions hand back and take up again (a UE
// half's 3.3 MB image stack, the four layer buffers of that size under
// max pooling) repeat their sizes exactly, and rounding those up to a
// power of two costs a quarter of their footprint.

const (
	minPoolClass = 6       // smallest pooled capacity: 1<<6 = 64 floats
	largeSlice   = 1 << 16 // requests from here up are allocated at their exact size
)

var slicePools [64 - minPoolClass]sync.Pool

// getSlice returns a length-n slice with UNSPECIFIED contents, drawn from
// the pool when a buffer of the right class is available.
func getSlice(n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n >= largeSlice {
		// putSlice files a buffer under floor(log2 cap), so this class
		// holds capacities on both sides of n.
		pool := &slicePools[bits.Len(uint(n))-1-minPoolClass]
		if v := pool.Get(); v != nil {
			if s := v.([]float64); cap(s) >= n {
				return s[:n]
			}
			pool.Put(v)
		}
		return make([]float64, n)
	}
	c := max(bits.Len(uint(n-1)), minPoolClass) // ceil(log2 n)
	if v := slicePools[c-minPoolClass].Get(); v != nil {
		return v.([]float64)[:n]
	}
	return make([]float64, 1<<c)[:n]
}

// getSliceZeroed returns a length-n zero-filled slice from the pool.
func getSliceZeroed(n int) []float64 {
	s := getSlice(n)
	for i := range s {
		s[i] = 0
	}
	return s
}

// putSlice returns a buffer obtained from getSlice to its pool. The caller
// must not use the slice afterwards.
func putSlice(s []float64) {
	if cap(s) < 1<<minPoolClass {
		return
	}
	c := bits.Len(uint(cap(s))) - 1 // floor(log2 cap): the class it serves
	full := s[:cap(s)]
	slicePools[c-minPoolClass].Put(full)
}

// maskPool recycles the sign masks of the fused conv→ReLU→pool kernel
// (convpool.go): one bool per convolution output, the only full-resolution
// state a UE half keeps between forward and backward. A session's mask
// repeats the size of the last session's, so one unclassed pool serves.
var maskPool sync.Pool

// GetMask returns a length-n mask with UNSPECIFIED contents, a pooled one
// when that is long enough.
func GetMask(n int) []bool {
	if v := maskPool.Get(); v != nil {
		if m := v.([]bool); cap(m) >= n {
			return m[:n]
		}
		maskPool.Put(v)
	}
	return make([]bool, n)
}

// PutMask returns a mask obtained from GetMask to the pool. The caller
// must not use it afterwards.
func PutMask(m []bool) {
	if cap(m) > 0 {
		maskPool.Put(m[:cap(m)])
	}
}

// Arena is a step-scoped tensor allocator: Get hands out tensors backed by
// pooled buffers, Reset recycles every tensor handed out since the last
// Reset. A training step that allocates the same scratch shapes each
// iteration reaches a steady state where Get returns the identical tensors
// (header and backing array) every step — zero allocations.
//
// Ownership contract: the arena owner (e.g. split.Model for its batch
// buffers) calls Reset at a point where no tensor from the previous cycle
// is live; tensors obtained from Get must not outlive the next Reset.
// An Arena is not safe for concurrent use; give each goroutine its own.
type Arena struct {
	inUse []*Tensor
	free  []*Tensor
}

// Get returns a zero-filled tensor of the given shape from the arena.
func (a *Arena) Get(shape ...int) *Tensor {
	t := a.GetUninit(shape...)
	t.Zero()
	return t
}

// GetUninit returns a tensor of the given shape with UNSPECIFIED contents;
// use it when every element is about to be overwritten.
func (a *Arena) GetUninit(shape ...int) *Tensor {
	n := checkShape(shape)
	for i, t := range a.free {
		if shapeEqual(t.shape, shape) {
			last := len(a.free) - 1
			a.free[i] = a.free[last]
			a.free = a.free[:last]
			a.inUse = append(a.inUse, t)
			return t
		}
	}
	t := &Tensor{
		shape:   append([]int(nil), shape...),
		strides: computeStrides(shape),
		data:    getSlice(n),
	}
	a.inUse = append(a.inUse, t)
	return t
}

// Reset recycles every tensor handed out since the previous Reset. The
// backing buffers stay arena-resident so the next cycle's Get calls are
// allocation-free when shapes repeat.
func (a *Arena) Reset() {
	a.free = append(a.free, a.inUse...)
	a.inUse = a.inUse[:0]
}

// Release returns every arena buffer to the shared pool. The arena is
// reusable afterwards (it simply starts empty again).
func (a *Arena) Release() {
	a.Reset()
	for _, t := range a.free {
		putSlice(t.data)
		t.data = nil
	}
	a.free = a.free[:0]
}

func shapeEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// EnsureShape returns t when it already has exactly the given shape,
// re-headers t's backing storage when its capacity suffices, and
// draws a tensor from the shared pool otherwise. Contents are UNSPECIFIED
// unless the returned tensor is t itself; callers are expected to
// overwrite (or Zero) it. It is the building block layers use to keep
// per-instance scratch across training steps; Release hands such scratch
// back to the pool when its owner retires.
func EnsureShape(t *Tensor, shape ...int) *Tensor {
	n := checkShape(shape)
	var data []float64
	switch {
	case t == nil || cap(t.data) < n:
		data = getSlice(n)
	case shapeEqual(t.shape, shape):
		return t
	default:
		data = t.data[:n]
	}
	return &Tensor{
		shape:   append([]int(nil), shape...),
		strides: computeStrides(shape),
		data:    data,
	}
}

// Release returns the storage of every non-nil *t to the shared pool and
// sets the pointers to nil: how a layer gives up scratch it got from
// EnsureShape. Nothing may still use the tensors (nor another header over
// the same storage) afterwards.
func Release(ts ...**Tensor) {
	for _, t := range ts {
		if *t != nil {
			putSlice((*t).data)
			*t = nil
		}
	}
}

// mustRank panics unless t has the given rank.
func mustRank(t *Tensor, rank int, op string) {
	if t.Rank() != rank {
		panic(fmt.Sprintf("tensor: %s requires rank-%d tensor, got shape %v", op, rank, t.shape))
	}
}
