package split

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// ---- checkpointing -------------------------------------------------------------

func TestCheckpointRoundTrip(t *testing.T) {
	d := tinyDataset(t, 150)
	cfg := tinyConfig(ImageRF, 4)
	sp := makeSplit(t, d, cfg)
	model := buildModel(t, cfg, d, sp)
	tr := NewTrainer(model, d, sp, IdealLink{})
	for i := 0; i < 10; i++ {
		if _, err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, model); err != nil {
		t.Fatal(err)
	}

	// Restore into a freshly initialised model with different seed.
	cfg2 := cfg
	cfg2.Seed = 999
	restored := buildModel(t, cfg2, d, sp)
	if ParamsEqual(model, restored) {
		t.Fatal("fresh model should differ before restore")
	}
	// fingerprint ignores seed, so the load must succeed.
	if err := LoadCheckpoint(&buf, restored); err != nil {
		t.Fatal(err)
	}
	if !ParamsEqual(model, restored) {
		t.Fatal("restored parameters differ")
	}

	// Restored model predicts identically.
	anchors := sp.Val[:4]
	a := model.PredictAnchors(anchors)
	b := restored.PredictAnchors(anchors)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("prediction %d differs after restore", i)
		}
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	d := tinyDataset(t, 100)
	cfg := tinyConfig(RFOnly, 1)
	sp := makeSplit(t, d, cfg)
	model := buildModel(t, cfg, d, sp)
	path := t.TempDir() + "/model.ckpt"
	if err := SaveCheckpointFile(path, model); err != nil {
		t.Fatal(err)
	}
	clone := buildModel(t, cfg, d, sp)
	if err := LoadCheckpointFile(path, clone); err != nil {
		t.Fatal(err)
	}
	if !ParamsEqual(model, clone) {
		t.Fatal("file round trip lost parameters")
	}
}

func TestCheckpointRejectsIncompatible(t *testing.T) {
	d := tinyDataset(t, 100)
	cfgA := tinyConfig(ImageRF, 4)
	cfgB := tinyConfig(ImageRF, 2) // different pooling → different arch
	sp := makeSplit(t, d, cfgA)
	a := buildModel(t, cfgA, d, sp)
	b := buildModel(t, cfgB, d, sp)

	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, a); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()
	if err := LoadCheckpoint(bytes.NewReader(saved), b); !errors.Is(err, ErrCheckpoint) {
		t.Fatalf("incompatible load: err = %v, want ErrCheckpoint", err)
	}
	// Header words 6 and 7 held the recurrent core and wire quantisation,
	// both now removed: a file written with a GRU core or a quantised wire
	// (a 1 there) must be refused, never misloaded. The words start after
	// the magic, version and word count.
	for _, word := range []int{6, 7} {
		patched := slices.Clone(saved)
		binary.BigEndian.PutUint32(patched[16+4*word:], 1)
		if err := LoadCheckpoint(bytes.NewReader(patched), a); !errors.Is(err, ErrCheckpoint) {
			t.Fatalf("header word %d = 1: err = %v, want ErrCheckpoint", word, err)
		}
	}
}

func TestCheckpointRejectsCorrupt(t *testing.T) {
	d := tinyDataset(t, 100)
	cfg := tinyConfig(RFOnly, 1)
	sp := makeSplit(t, d, cfg)
	model := buildModel(t, cfg, d, sp)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, model); err != nil {
		t.Fatal(err)
	}
	data := slices.Clone(buf.Bytes())
	data[3] = 'X' // corrupt magic
	if err := LoadCheckpoint(bytes.NewReader(data), model); err == nil {
		t.Fatal("corrupt magic accepted")
	}
	// Truncation
	if err := LoadCheckpoint(bytes.NewReader(buf.Bytes()[:20]), model); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}

// TestConfigFingerprintGolden pins the handshake fingerprint and the
// checkpoint header words of every paper configuration. Hellos, journaled
// train states and saved models carry these values, so a change here
// strands every peer and file written before it. The values are the same
// on 32- and 64-bit builds: a 386 UE must agree with an amd64 BS.
func TestConfigFingerprintGolden(t *testing.T) {
	for _, tc := range []struct {
		m     Modality
		pool  int
		fp    uint64
		words []uint32
	}{
		{RFOnly, 1, 0xefdf21ef7190a128, []uint32{0, 1, 1, 4, 32, 3, 0, 0, 0}},
		{RFOnly, 4, 0xefaaf220d2888888, []uint32{0, 4, 4, 4, 32, 3, 0, 0, 0}},
		{RFOnly, 10, 0x0ce04008c57ed6c8, []uint32{0, 10, 10, 4, 32, 3, 0, 0, 0}},
		{RFOnly, 40, 0xaeb899c99a49c448, []uint32{0, 40, 40, 4, 32, 3, 0, 0, 0}},
		{ImageOnly, 1, 0x8826ef03e0247c87, []uint32{1, 1, 1, 4, 32, 3, 0, 0, 0}},
		{ImageOnly, 4, 0xcacf684766e865a7, []uint32{1, 4, 4, 4, 32, 3, 0, 0, 0}},
		{ImageOnly, 10, 0x1d0ba84e7b8f04e7, []uint32{1, 10, 10, 4, 32, 3, 0, 0, 0}},
		{ImageOnly, 40, 0x20481258e1948a27, []uint32{1, 40, 40, 4, 32, 3, 0, 0, 0}},
		{ImageRF, 1, 0x17f0bf95dc43631e, []uint32{2, 1, 1, 4, 32, 3, 0, 0, 0}},
		{ImageRF, 4, 0x558a4c79a70882fe, []uint32{2, 4, 4, 4, 32, 3, 0, 0, 0}},
		{ImageRF, 10, 0x7c72f140569cc6be, []uint32{2, 10, 10, 4, 32, 3, 0, 0, 0}},
		{ImageRF, 40, 0xc87597fb1021d6be, []uint32{2, 40, 40, 4, 32, 3, 0, 0, 0}},
	} {
		c := DefaultConfig(tc.m, tc.pool)
		if got := c.Fingerprint(); got != tc.fp {
			t.Errorf("%s/%d: Fingerprint() = %#016x, want %#016x", tc.m, tc.pool, got, tc.fp)
		}
		if got := c.fingerprint(); !slices.Equal(got, tc.words) {
			t.Errorf("%s/%d: checkpoint header words %v, want %v", tc.m, tc.pool, got, tc.words)
		}
	}
}

// TestConfigFingerprint: identical configs agree, and every
// wire-relevant knob perturbs the hash — the property the session
// handshake's drift detection relies on.
func TestConfigFingerprint(t *testing.T) {
	base := DefaultConfig(ImageRF, 40)
	if base.Fingerprint() != DefaultConfig(ImageRF, 40).Fingerprint() {
		t.Fatal("identical configs fingerprint differently")
	}
	seen := map[uint64]string{base.Fingerprint(): "base"}
	for name, mutate := range map[string]func(*Config){
		"modality": func(c *Config) { c.Modality = ImageOnly },
		"pool":     func(c *Config) { c.PoolH, c.PoolW = 10, 10 },
		"seqlen":   func(c *Config) { c.SeqLen++ },
		"horizon":  func(c *Config) { c.HorizonFrames++ },
		"batch":    func(c *Config) { c.BatchSize++ },
		"hidden":   func(c *Config) { c.HiddenSize++ },
		"kernel":   func(c *Config) { c.KernelSize += 2 },
		"bitdepth": func(c *Config) { c.BitDepth = tensor.Depth8 },
		"lr":       func(c *Config) { c.LR *= 2 },
		"seed":     func(c *Config) { c.Seed++ },
	} {
		c := base
		mutate(&c)
		fp := c.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("mutation %q collides with %q (fp %x)", name, prev, fp)
		}
		seen[fp] = name
	}
}
