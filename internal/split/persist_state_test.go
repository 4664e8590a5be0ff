package split

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// trainStateFixture builds a small parameter set with a warmed-up Adam
// so the checkpoint has non-trivial moments and a non-zero clock.
func trainStateFixture(seed int64, steps int) ([]*nn.Param, *opt.Adam) {
	rng := rand.New(rand.NewSource(seed))
	dense := nn.NewDense(rng, 3, 2)
	params := dense.Params()
	adam := opt.NewAdam(params, 0.01, 0.9, 0.999)
	for s := 0; s < steps; s++ {
		for _, p := range params {
			g := p.Grad.Data()
			for i := range g {
				g[i] = rng.NormFloat64()
			}
		}
		adam.Step()
	}
	return params, adam
}

func TestTrainStateRoundTrip(t *testing.T) {
	params, adam := trainStateFixture(1, 5)
	const fp, step = 0xFEEDFACE, 42
	var buf bytes.Buffer
	if err := SaveTrainState(&buf, fp, HalfBS, step, params, adam); err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), buf.Bytes()...)

	fresh, freshAdam := trainStateFixture(2, 0) // different values, same shapes
	got, err := LoadTrainState(bytes.NewReader(saved), fp, HalfBS, fresh, freshAdam)
	if err != nil {
		t.Fatal(err)
	}
	if got != step {
		t.Fatalf("restored step %d, want %d", got, step)
	}
	if freshAdam.StepCount() != adam.StepCount() {
		t.Fatalf("adam clock %d, want %d", freshAdam.StepCount(), adam.StepCount())
	}
	for i := range params {
		if tensor.MaxAbsDiff(params[i].Value, fresh[i].Value) != 0 {
			t.Fatalf("parameter %d values drifted through the checkpoint", i)
		}
		m0, v0 := adam.Moments(i)
		m1, v1 := freshAdam.Moments(i)
		for j := range m0 {
			if m0[j] != m1[j] || v0[j] != v1[j] {
				t.Fatalf("parameter %d moments drifted at %d", i, j)
			}
		}
	}

	// Re-saving the restored state must be byte-identical — the
	// property the transport's resume-equivalence tests build on.
	var buf2 bytes.Buffer
	if err := SaveTrainState(&buf2, fp, HalfBS, step, fresh, freshAdam); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, buf2.Bytes()) {
		t.Fatal("save → load → save is not byte-identical")
	}
}

func TestTrainStateRejectsDrift(t *testing.T) {
	params, adam := trainStateFixture(1, 3)
	var buf bytes.Buffer
	if err := SaveTrainState(&buf, 0xAAAA, HalfUE, 7, params, adam); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()

	// Stale fingerprint: the configuration drifted since the checkpoint.
	fresh, freshAdam := trainStateFixture(2, 0)
	_, err := LoadTrainState(bytes.NewReader(saved), 0xBBBB, HalfUE, fresh, freshAdam)
	if !errors.Is(err, ErrCheckpoint) || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("stale fingerprint: err = %v", err)
	}
	// Wrong half.
	if _, err := LoadTrainState(bytes.NewReader(saved), 0xAAAA, HalfBS, fresh, freshAdam); !errors.Is(err, ErrCheckpoint) {
		t.Fatalf("wrong half: err = %v", err)
	}
	// Truncation.
	if _, err := LoadTrainState(bytes.NewReader(saved[:len(saved)/2]), 0xAAAA, HalfUE, fresh, freshAdam); err == nil {
		t.Fatal("truncated train state accepted")
	}
	// Bad magic.
	bad := append([]byte(nil), saved...)
	bad[0] ^= 0xFF
	if _, err := LoadTrainState(bytes.NewReader(bad), 0xAAAA, HalfUE, fresh, freshAdam); !errors.Is(err, ErrCheckpoint) {
		t.Fatalf("bad magic: err = %v", err)
	}
}

// referenceSaveTrainState is the train-state encoder as it stood before
// AppendTrainState (one tensor.Encode per tensor through a bufio.Writer),
// kept as the oracle for the format: checkpoint bytes are part of the
// resume, handover and failover bit-identity invariants.
func referenceSaveTrainState(w io.Writer, fp uint64, half byte, step int, params []*nn.Param, adam *opt.Adam) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(sessMagic[:]); err != nil {
		return err
	}
	var hdr []byte
	hdr = binary.BigEndian.AppendUint64(hdr, fp)
	hdr = append(hdr, half)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(step))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(adam.StepCount()))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(params)))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	for i, p := range params {
		name := []byte(p.Name)
		var rec []byte
		rec = binary.BigEndian.AppendUint16(rec, uint16(len(name)))
		rec = append(rec, name...)
		if _, err := bw.Write(rec); err != nil {
			return err
		}
		if err := tensor.Encode(bw, p.Value, tensor.Depth64); err != nil {
			return err
		}
		m, v := adam.Moments(i)
		for _, mom := range [][]float64{m, v} {
			if err := tensor.Encode(bw, tensor.FromSlice(mom, len(mom)), tensor.Depth64); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// TestAppendTrainStateGolden: the append encoder writes the reference
// encoder's bytes exactly — on a real BS half, after a prefix already in
// the buffer, and through the SaveTrainState wrapper — and allocates
// nothing once its buffer is warm.
func TestAppendTrainStateGolden(t *testing.T) {
	cfg := DefaultConfig(ImageRF, 40)
	bs := NewBSModel(rand.New(rand.NewSource(cfg.Seed)), cfg, 2) // one pooled pixel + RF power
	params := bs.Params()
	adam := opt.NewAdam(params, cfg.LR, cfg.Beta1, cfg.Beta2)
	rng := rand.New(rand.NewSource(9))
	for s := 0; s < 3; s++ {
		for _, p := range params {
			g := p.Grad.Data()
			for i := range g {
				g[i] = rng.NormFloat64()
			}
		}
		adam.Step()
	}
	const fp, step = 0xC0FFEE1234, 17

	var want bytes.Buffer
	if err := referenceSaveTrainState(&want, fp, HalfBS, step, params, adam); err != nil {
		t.Fatal(err)
	}
	if want.Len() != 108495 {
		t.Fatalf("the paper's one-pixel BS half is %d bytes, want 108495", want.Len())
	}
	prefix := []byte("prefix")
	got, err := AppendTrainState(append([]byte(nil), prefix...), fp, HalfBS, step, params, adam)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want.Bytes()) {
		t.Fatalf("AppendTrainState wrote %d bytes that differ from the reference's %d", len(got)-len(prefix), want.Len())
	}
	var wrapped bytes.Buffer
	if err := SaveTrainState(&wrapped, fp, HalfBS, step, params, adam); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wrapped.Bytes(), want.Bytes()) {
		t.Fatal("SaveTrainState differs from the reference")
	}

	if n := testing.AllocsPerRun(20, func() {
		if got, err = AppendTrainState(got[:0], fp, HalfBS, step, params, adam); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("AppendTrainState into a warm buffer allocates %.0f times per call, want 0", n)
	}
}
