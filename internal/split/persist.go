package split

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// Model checkpointing. The format stores the configuration fingerprint
// (so a checkpoint cannot be loaded into an incompatible architecture)
// followed by every parameter tensor at full precision, UE first then BS
// — the same order Params() yields.
//
//	magic "MMSLCKPT" | uint32 version | fingerprint | uint32 count |
//	count × (uint16 nameLen | name | tensor@Depth64)

var ckptMagic = [8]byte{'M', 'M', 'S', 'L', 'C', 'K', 'P', 'T'}

const ckptVersion = 1

// ErrCheckpoint is returned for structurally invalid or incompatible
// checkpoints.
var ErrCheckpoint = errors.New("split: bad checkpoint")

// fingerprint captures the architecture-determining fields of a Config.
// Words 6, 7 and 8 are literal 0s where the recurrent core (the LSTM was
// 0), wire quantisation (off was 0) and the pooling operator (average
// pooling was 0) used to be recorded, so checkpoints written before their
// removal keep loading.
func (c Config) fingerprint() []uint32 {
	return []uint32{
		uint32(c.Modality), uint32(c.PoolH), uint32(c.PoolW),
		uint32(c.SeqLen), uint32(c.HiddenSize), uint32(c.KernelSize),
		0, 0, 0,
	}
}

// SaveCheckpoint writes the model's parameters to w.
func SaveCheckpoint(w io.Writer, m *Model) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(ckptMagic[:]); err != nil {
		return err
	}
	var hdr []byte
	hdr = binary.BigEndian.AppendUint32(hdr, ckptVersion)
	fp := m.Cfg.fingerprint()
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(fp)))
	for _, v := range fp {
		hdr = binary.BigEndian.AppendUint32(hdr, v)
	}
	params := m.Params()
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(params)))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	for _, p := range params {
		name := []byte(p.Name)
		if len(name) > 1<<15 {
			return fmt.Errorf("%w: parameter name too long", ErrCheckpoint)
		}
		var rec []byte
		rec = binary.BigEndian.AppendUint16(rec, uint16(len(name)))
		rec = append(rec, name...)
		if _, err := bw.Write(rec); err != nil {
			return err
		}
		if err := tensor.Encode(bw, p.Value, tensor.Depth64); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadCheckpoint restores parameters saved by SaveCheckpoint into m.
// The model must have been built with an architecture-compatible Config.
func LoadCheckpoint(r io.Reader, m *Model) error {
	params := m.Params()
	c := newCkptReader(r, params)
	defer c.release()
	magic, err := c.next(len(ckptMagic))
	if err != nil {
		return err
	}
	if [8]byte(magic) != ckptMagic {
		return fmt.Errorf("%w: bad magic", ErrCheckpoint)
	}
	version, err := c.u32()
	if err != nil {
		return err
	}
	if version != ckptVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrCheckpoint, version)
	}
	fpLen, err := c.u32()
	if err != nil {
		return err
	}
	want := m.Cfg.fingerprint()
	if int(fpLen) != len(want) {
		return fmt.Errorf("%w: fingerprint length %d != %d", ErrCheckpoint, fpLen, len(want))
	}
	for i, w := range want {
		got, err := c.u32()
		if err != nil {
			return err
		}
		if got != w {
			return fmt.Errorf("%w: architecture mismatch at field %d (%d != %d)",
				ErrCheckpoint, i, got, w)
		}
	}
	count, err := c.u32()
	if err != nil {
		return err
	}
	if int(count) != len(params) {
		return fmt.Errorf("%w: %d parameters in file, model has %d", ErrCheckpoint, count, len(params))
	}
	for i, p := range params {
		t, err := c.param(i, p)
		if err != nil {
			return err
		}
		p.Value.CopyFrom(t)
	}
	return nil
}

// SaveCheckpointFile writes a checkpoint to a path.
func SaveCheckpointFile(path string, m *Model) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := SaveCheckpoint(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadCheckpointFile reads a checkpoint from a path.
func LoadCheckpointFile(path string, m *Model) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return LoadCheckpoint(bufio.NewReader(f), m)
}

// ---- session train state -------------------------------------------------
//
// A train-state checkpoint is the resumable snapshot of ONE half of a
// split session: its parameter values, its Adam moment estimates and
// bias-correction clock, and the training step the snapshot was taken
// at. The multi-UE transport writes one per half at each checkpoint
// interval, so a dropped session can resume mid-training with state
// bit-identical to the moment of the checkpoint.
//
//	magic "MMSLSES1" | fingerprint(8) | half(1) | step(4) | adamT(4) |
//	count(4) | count × (nameLen(2) name | value@Depth64 | m@Depth64 | v@Depth64)
//
// The fingerprint is Config.Fingerprint() — the full session fingerprint
// including seed and codec, not just the architecture fields — so a
// checkpoint can never be resumed into a session whose configuration
// drifted in any way that changes the mathematics.

var sessMagic = [8]byte{'M', 'M', 'S', 'L', 'S', 'E', 'S', '1'}

// Halves of the split session, as tagged in train-state checkpoints.
const (
	HalfUE byte = 'U'
	HalfBS byte = 'B'
)

// AppendTrainState appends a resumable snapshot of one session half to
// buf and returns the extended slice. Into a buffer that already has the
// capacity (a reused one) it allocates nothing.
func AppendTrainState(buf []byte, fp uint64, half byte, step int, params []*nn.Param, adam *opt.Adam) ([]byte, error) {
	if step < 0 {
		return nil, fmt.Errorf("%w: negative step %d", ErrCheckpoint, step)
	}
	buf = append(buf, sessMagic[:]...)
	buf = binary.BigEndian.AppendUint64(buf, fp)
	buf = append(buf, half)
	buf = binary.BigEndian.AppendUint32(buf, uint32(step))
	buf = binary.BigEndian.AppendUint32(buf, uint32(adam.StepCount()))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(params)))
	for i, p := range params {
		if len(p.Name) > 1<<15 {
			return nil, fmt.Errorf("%w: parameter name too long", ErrCheckpoint)
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(p.Name)))
		buf = append(buf, p.Name...)
		var err error
		if buf, err = tensor.Append(buf, p.Value, tensor.Depth64); err != nil {
			return nil, err
		}
		m, v := adam.Moments(i)
		buf = tensor.AppendVector(buf, m)
		buf = tensor.AppendVector(buf, v)
	}
	return buf, nil
}

// SaveTrainState writes the AppendTrainState snapshot to w. A
// bytes.Buffer — what callers hand in — is appended to in place.
func SaveTrainState(w io.Writer, fp uint64, half byte, step int, params []*nn.Param, adam *opt.Adam) error {
	var buf []byte
	if bb, ok := w.(*bytes.Buffer); ok {
		buf = bb.AvailableBuffer()
	}
	buf, err := AppendTrainState(buf, fp, half, step, params, adam)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// LoadTrainState restores a snapshot saved by SaveTrainState into the
// given parameters and optimiser, returning the step it was taken at.
// The caller's fingerprint must match the one stored — a mismatch means
// the session configuration drifted since the checkpoint (stale config).
func LoadTrainState(r io.Reader, fp uint64, half byte, params []*nn.Param, adam *opt.Adam) (int, error) {
	c := newCkptReader(r, params)
	defer c.release()
	hdr, err := c.next(len(sessMagic) + 8 + 1 + 4 + 4 + 4)
	if err != nil {
		return 0, err
	}
	if [8]byte(hdr) != sessMagic {
		return 0, fmt.Errorf("%w: bad train-state magic", ErrCheckpoint)
	}
	hdr = hdr[len(sessMagic):]
	gotFP := binary.BigEndian.Uint64(hdr)
	if gotFP != fp {
		return 0, fmt.Errorf("%w: stale config fingerprint %x, session is %x",
			ErrCheckpoint, gotFP, fp)
	}
	if hdr[8] != half {
		return 0, fmt.Errorf("%w: checkpoint holds half %q, want %q",
			ErrCheckpoint, hdr[8], half)
	}
	step := int(binary.BigEndian.Uint32(hdr[9:]))
	adamT := int(binary.BigEndian.Uint32(hdr[13:]))
	count := int(binary.BigEndian.Uint32(hdr[17:]))
	if count != len(params) {
		return 0, fmt.Errorf("%w: %d parameters in checkpoint, model has %d",
			ErrCheckpoint, count, len(params))
	}
	for i, p := range params {
		t, err := c.param(i, p)
		if err != nil {
			return 0, err
		}
		p.Value.CopyFrom(t)
		m, v := adam.Moments(i)
		for _, mom := range [][]float64{m, v} {
			mt, err := c.tensor(p.Name, 1, len(mom))
			if err != nil {
				return 0, err
			}
			copy(mom, mt.Data())
		}
	}
	adam.SetStepCount(adamT)
	return step, nil
}

// ckptReader reads the fields of a checkpoint stream through one reused
// byte buffer. Every tensor is decoded by tensor.DecodeBytes into one
// reused scratch tensor, so a tensor whose shape does not match the
// model's is refused before anything is copied into a live parameter.
type ckptReader struct {
	r       io.Reader
	buf     []byte
	scratch *tensor.Tensor
}

// newCkptReader sizes the buffer and the scratch tensor for the largest
// of params, so that neither grows while the stream is read.
func newCkptReader(r io.Reader, params []*nn.Param) *ckptReader {
	size, enc := 0, 0
	for _, p := range params {
		size = max(size, p.Value.Size())
		enc = max(enc, tensor.EncodedSize(p.Value, tensor.Depth64))
	}
	c := &ckptReader{r: r, buf: make([]byte, 0, enc)}
	if size > 0 {
		c.scratch = tensor.EnsureShape(nil, size)
	}
	return c
}

// release hands the scratch tensor back to the shared pool.
func (c *ckptReader) release() { tensor.Release(&c.scratch) }

// next returns the stream's next n bytes, valid until the following call.
func (c *ckptReader) next(n int) ([]byte, error) {
	c.buf = slices.Grow(c.buf[:0], n)[:n]
	if _, err := io.ReadFull(c.r, c.buf); err != nil {
		return nil, err
	}
	return c.buf, nil
}

func (c *ckptReader) u32() (uint32, error) {
	b, err := c.next(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

// param reads parameter i's name and value, which must be p's name and
// shape.
func (c *ckptReader) param(i int, p *nn.Param) (*tensor.Tensor, error) {
	b, err := c.next(2)
	if err != nil {
		return nil, err
	}
	if b, err = c.next(int(binary.BigEndian.Uint16(b))); err != nil {
		return nil, err
	}
	if string(b) != p.Name {
		return nil, fmt.Errorf("%w: parameter %d is %q in file, %q in model",
			ErrCheckpoint, i, b, p.Name)
	}
	t, err := c.tensor(p.Name, p.Value.Rank(), p.Value.Size())
	if err != nil {
		return nil, err
	}
	if !t.SameShape(p.Value) {
		return nil, fmt.Errorf("%w: parameter %q shape %v != %v",
			ErrCheckpoint, p.Name, t.Shape(), p.Value.Shape())
	}
	return t, nil
}

// tensor reads the next tensor, which must be a Depth64 encoding of the
// given rank and size, into the scratch tensor.
func (c *ckptReader) tensor(name string, rank, size int) (*tensor.Tensor, error) {
	b, err := c.next(2 + 4*rank + 8*size)
	if err != nil {
		return nil, err
	}
	t, rest, err := tensor.DecodeBytes(c.scratch, b)
	if err != nil {
		return nil, fmt.Errorf("%w: %q: %w", ErrCheckpoint, name, err)
	}
	c.scratch = t
	if len(rest) != 0 || t.Rank() != rank || t.Size() != size {
		return nil, fmt.Errorf("%w: %q is not a float64 tensor of rank %d and %d elements",
			ErrCheckpoint, name, rank, size)
	}
	return t, nil
}

// ParamsEqual reports whether two models' parameters are bit-identical;
// a test and tooling helper.
func ParamsEqual(a, b *Model) bool {
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		if !pa[i].Value.SameShape(pb[i].Value) {
			return false
		}
		if tensor.MaxAbsDiff(pa[i].Value, pb[i].Value) != 0 {
			return false
		}
	}
	return true
}
