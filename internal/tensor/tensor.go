// Package tensor implements dense, row-major, float64 n-dimensional
// tensors together with the arithmetic, linear-algebra and convolution
// primitives required by the neural-network layers in internal/nn.
//
// The package is deliberately small and allocation-conscious rather than
// general: shapes are static once a tensor is created, broadcasting is not
// supported (callers expand explicitly), and all hot loops operate on the
// flat backing slice. Every operation that has a gradient in internal/nn
// has its forward primitive here; the backward passes live with the layers.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Tensor is a dense, row-major n-dimensional array of float64.
// The zero value is not usable; construct tensors with New, Zeros, Full,
// FromSlice or the random initialisers.
type Tensor struct {
	shape   []int
	strides []int
	data    []float64
}

// New returns a zero-filled tensor with the given shape.
// It panics if any dimension is non-positive.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{
		shape:   append([]int(nil), shape...),
		strides: computeStrides(shape),
		data:    make([]float64, n),
	}
}

// Full returns a tensor of the given shape with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Ones returns a tensor of the given shape filled with 1.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// FromSlice wraps the given data in a tensor with the given shape.
// The slice is used directly (not copied); it panics if len(data) does not
// match the shape volume.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice data length %d != shape volume %d", len(data), n))
	}
	return &Tensor{
		shape:   append([]int(nil), shape...),
		strides: computeStrides(shape),
		data:    data,
	}
}

// Randn returns a tensor with elements drawn i.i.d. from N(0, stddev²)
// using the provided source.
func Randn(rng *rand.Rand, stddev float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = rng.NormFloat64() * stddev
	}
	return t
}

// RandUniform returns a tensor with elements drawn i.i.d. from U[lo, hi).
func RandUniform(rng *rand.Rand, lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = lo + rng.Float64()*(hi-lo)
	}
	return t
}

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			// Copy the shape for the panic message: handing the slice to
			// Sprintf directly would leak every caller's shape argument to
			// the heap, costing the zero-alloc serving paths one
			// allocation per call on the non-panicking path too.
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v",
				d, append([]int(nil), shape...)))
		}
		n *= d
	}
	return n
}

func computeStrides(shape []int) []int {
	strides := make([]int, len(shape))
	acc := 1
	for i := len(shape) - 1; i >= 0; i-- {
		strides[i] = acc
		acc *= shape[i]
	}
	return strides
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the flat row-major backing slice. Mutating it mutates the
// tensor; this is the intended fast path for layer implementations.
func (t *Tensor) Data() []float64 { return t.data }

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.flatIndex(idx)] }

// Set assigns v to the element at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.flatIndex(idx)] = v }

func (t *Tensor) flatIndex(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d != tensor rank %d", len(idx), len(t.shape)))
	}
	flat := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range [0,%d) in dim %d", x, t.shape[i], i))
		}
		flat += x * t.strides[i]
	}
	return flat
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// CopyFrom copies src's data into t. Shapes must have equal volume.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.data) != len(src.data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %d != %d", len(t.data), len(src.data)))
	}
	copy(t.data, src.data)
}

// Reshape returns a tensor sharing t's data with a new shape of equal
// volume. It panics on volume mismatch.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: reshape volume %d != %d", n, len(t.data)))
	}
	return &Tensor{
		shape:   append([]int(nil), shape...),
		strides: computeStrides(shape),
		data:    t.data,
	}
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// ---- element-wise arithmetic ------------------------------------------------

func (t *Tensor) mustSameShape(o *Tensor, op string) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, t.shape, o.shape))
	}
}

// AddInPlace adds o to t element-wise and returns t.
func (t *Tensor) AddInPlace(o *Tensor) *Tensor {
	t.mustSameShape(o, "AddInPlace")
	for i, v := range o.data {
		t.data[i] += v
	}
	return t
}

// SubInPlace subtracts o from t element-wise and returns t.
func (t *Tensor) SubInPlace(o *Tensor) *Tensor {
	t.mustSameShape(o, "SubInPlace")
	for i, v := range o.data {
		t.data[i] -= v
	}
	return t
}

// MulInPlace multiplies t by o element-wise and returns t.
func (t *Tensor) MulInPlace(o *Tensor) *Tensor {
	t.mustSameShape(o, "MulInPlace")
	for i, v := range o.data {
		t.data[i] *= v
	}
	return t
}

// ScaleInPlace multiplies every element by s and returns t.
func (t *Tensor) ScaleInPlace(s float64) *Tensor {
	for i := range t.data {
		t.data[i] *= s
	}
	return t
}

// AddScaledInPlace adds s*o to t element-wise and returns t (axpy).
func (t *Tensor) AddScaledInPlace(o *Tensor, s float64) *Tensor {
	t.mustSameShape(o, "AddScaledInPlace")
	for i, v := range o.data {
		t.data[i] += s * v
	}
	return t
}

// Add returns t + o as a new tensor.
func Add(t, o *Tensor) *Tensor { return t.Clone().AddInPlace(o) }

// Sub returns t - o as a new tensor.
func Sub(t, o *Tensor) *Tensor { return t.Clone().SubInPlace(o) }

// Mul returns the element-wise product t ⊙ o as a new tensor.
func Mul(t, o *Tensor) *Tensor { return t.Clone().MulInPlace(o) }

// Scale returns s*t as a new tensor.
func Scale(t *Tensor, s float64) *Tensor { return t.Clone().ScaleInPlace(s) }

// Apply returns a new tensor with f applied to every element.
func Apply(t *Tensor, f func(float64) float64) *Tensor {
	c := New(t.shape...)
	for i, v := range t.data {
		c.data[i] = f(v)
	}
	return c
}

// ---- reductions --------------------------------------------------------------

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 { return t.Sum() / float64(len(t.data)) }

// Max returns the maximum element.
func (t *Tensor) Max() float64 {
	m := math.Inf(-1)
	for _, v := range t.data {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element.
func (t *Tensor) Min() float64 {
	m := math.Inf(1)
	for _, v := range t.data {
		if v < m {
			m = v
		}
	}
	return m
}

// Dot returns the inner product of t and o viewed as flat vectors.
func Dot(t, o *Tensor) float64 {
	t.mustSameShape(o, "Dot")
	s := 0.0
	for i, v := range t.data {
		s += v * o.data[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of t viewed as a flat vector.
func (t *Tensor) Norm2() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbsDiff returns max_i |t_i - o_i|; useful in tests.
func MaxAbsDiff(t, o *Tensor) float64 {
	t.mustSameShape(o, "MaxAbsDiff")
	m := 0.0
	for i, v := range t.data {
		d := math.Abs(v - o.data[i])
		if d > m {
			m = d
		}
	}
	return m
}

// ---- formatting --------------------------------------------------------------

// String renders small tensors fully and large ones as a summary.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if len(t.data) <= 16 {
		fmt.Fprintf(&b, "%v", t.data)
	} else {
		fmt.Fprintf(&b, "[%g %g %g ... %g] (%d elems)",
			t.data[0], t.data[1], t.data[2], t.data[len(t.data)-1], len(t.data))
	}
	return b.String()
}
