package split

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

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
func (c Config) fingerprint() []uint32 {
	quant := uint32(0)
	if c.QuantizeWire {
		quant = 1
	}
	return []uint32{
		uint32(c.Modality), uint32(c.PoolH), uint32(c.PoolW),
		uint32(c.SeqLen), uint32(c.HiddenSize), uint32(c.KernelSize),
		uint32(c.RNN), quant, uint32(c.Pooling),
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
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return err
	}
	if magic != ckptMagic {
		return fmt.Errorf("%w: bad magic", ErrCheckpoint)
	}
	var u32 [4]byte
	readU32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, u32[:]); err != nil {
			return 0, err
		}
		return binary.BigEndian.Uint32(u32[:]), nil
	}
	version, err := readU32()
	if err != nil {
		return err
	}
	if version != ckptVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrCheckpoint, version)
	}
	fpLen, err := readU32()
	if err != nil {
		return err
	}
	want := m.Cfg.fingerprint()
	if int(fpLen) != len(want) {
		return fmt.Errorf("%w: fingerprint length %d != %d", ErrCheckpoint, fpLen, len(want))
	}
	for i, w := range want {
		got, err := readU32()
		if err != nil {
			return err
		}
		if got != w {
			return fmt.Errorf("%w: architecture mismatch at field %d (%d != %d)",
				ErrCheckpoint, i, got, w)
		}
	}
	count, err := readU32()
	if err != nil {
		return err
	}
	params := m.Params()
	if int(count) != len(params) {
		return fmt.Errorf("%w: %d parameters in file, model has %d", ErrCheckpoint, count, len(params))
	}
	for i, p := range params {
		var l16 [2]byte
		if _, err := io.ReadFull(br, l16[:]); err != nil {
			return err
		}
		nameLen := int(binary.BigEndian.Uint16(l16[:]))
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return err
		}
		if string(name) != p.Name {
			return fmt.Errorf("%w: parameter %d is %q in file, %q in model",
				ErrCheckpoint, i, name, p.Name)
		}
		t, err := tensor.Decode(br)
		if err != nil {
			return err
		}
		if !t.SameShape(p.Value) {
			return fmt.Errorf("%w: parameter %q shape %v != %v",
				ErrCheckpoint, p.Name, t.Shape(), p.Value.Shape())
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
	return LoadCheckpoint(f, m)
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
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return 0, err
	}
	if magic != sessMagic {
		return 0, fmt.Errorf("%w: bad train-state magic", ErrCheckpoint)
	}
	var hdr [8 + 1 + 4 + 4 + 4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, err
	}
	gotFP := binary.BigEndian.Uint64(hdr[:])
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
		var l16 [2]byte
		if _, err := io.ReadFull(br, l16[:]); err != nil {
			return 0, err
		}
		nameLen := int(binary.BigEndian.Uint16(l16[:]))
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return 0, err
		}
		if string(name) != p.Name {
			return 0, fmt.Errorf("%w: parameter %d is %q in checkpoint, %q in model",
				ErrCheckpoint, i, name, p.Name)
		}
		t, err := tensor.Decode(br)
		if err != nil {
			return 0, err
		}
		if !t.SameShape(p.Value) {
			return 0, fmt.Errorf("%w: parameter %q shape %v != %v",
				ErrCheckpoint, p.Name, t.Shape(), p.Value.Shape())
		}
		p.Value.CopyFrom(t)
		m, v := adam.Moments(i)
		for _, mom := range [][]float64{m, v} {
			mt, err := tensor.Decode(br)
			if err != nil {
				return 0, err
			}
			if mt.Size() != len(mom) {
				return 0, fmt.Errorf("%w: moment size %d != %d for %q",
					ErrCheckpoint, mt.Size(), len(mom), p.Name)
			}
			copy(mom, mt.Data())
		}
	}
	adam.SetStepCount(adamT)
	return step, nil
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
