// Package split implements the paper's contribution: the multimodal
// split-learning architecture for mmWave received-power prediction. The
// global model is split into a UE-side CNN over depth images (ending in
// the payload-compressing average-pooling layer) and a BS-side LSTM that
// fuses the pooled CNN output with the RF received-power sequence to
// predict the power T = 120 ms ahead. Forward activations cross the
// uplink and cut-layer gradients cross the downlink of a lossy slotted
// channel; the trainer charges both, plus FLOP-proportional compute, to a
// deterministic virtual clock, reproducing the learning-curves experiment
// of Fig. 3a.
package split

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/tensor"
)

// Modality selects which inputs the model consumes — the three schemes
// compared throughout the paper's evaluation.
type Modality int

// The paper's three schemes.
const (
	RFOnly    Modality = iota // baseline: RF power sequence only (no link use)
	ImageOnly                 // baseline: pooled CNN outputs only
	ImageRF                   // proposed: pooled CNN outputs ⊕ RF power
)

// String returns the scheme name used in figures.
func (m Modality) String() string {
	switch m {
	case RFOnly:
		return "RF-only"
	case ImageOnly:
		return "Image-only"
	case ImageRF:
		return "Image+RF"
	}
	return fmt.Sprintf("Modality(%d)", int(m))
}

// UsesImages reports whether the scheme runs the UE CNN (and therefore
// uses the wireless link during training).
func (m Modality) UsesImages() bool { return m != RFOnly }

// UsesRF reports whether the RF power is part of the RNN input.
func (m Modality) UsesRF() bool { return m != ImageOnly }

// Config fully describes one training run.
type Config struct {
	Modality     Modality
	PoolH, PoolW int // w_H × w_W; 40×40 over 40×40 images is the "1-pixel" scheme

	SeqLen        int // L
	HorizonFrames int // T/γ
	BatchSize     int // |B|
	HiddenSize    int // LSTM width
	KernelSize    int // UE conv kernel (square, stride 1, same padding)

	BitDepth tensor.BitDepth // R in the payload formula

	// Codec selects the cut-layer payload codec (internal/compress).
	// The zero value, compress.CodecRaw, is the paper's behaviour:
	// lossless transfer priced at BitDepth bits per element. Lossy
	// codecs both shrink the payload charged to the channel and
	// round-trip the cut tensors during training, so their quantisation
	// error genuinely flows through the optimisation.
	Codec compress.ID

	// Adam hyper-parameters (paper: 0.001, 0.9, 0.999).
	LR, Beta1, Beta2 float64

	// Stopping rule (paper: RMSE ≤ 2.7 dB or 100 epochs of 156 steps).
	TargetRMSEdB  float64
	MaxEpochs     int
	StepsPerEpoch int

	Seed int64
}

// DefaultConfig returns the paper-faithful configuration for a scheme and
// square pooling size.
func DefaultConfig(m Modality, pool int) Config {
	return Config{
		Modality: m,
		PoolH:    pool, PoolW: pool,
		SeqLen:        dataset.PaperSeqLen,
		HorizonFrames: dataset.PaperHorizonFrames(),
		BatchSize:     64,
		HiddenSize:    32,
		KernelSize:    3,
		BitDepth:      tensor.Depth32,
		LR:            0.001, Beta1: 0.9, Beta2: 0.999,
		TargetRMSEdB:  2.7,
		MaxEpochs:     100,
		StepsPerEpoch: 156,
		Seed:          1,
	}
}

// Fingerprint hashes every field that both halves of a split session must
// agree on for their models, datasets and wire tensors to line up. Two
// peers built from the same Config always fingerprint identically, so a
// mismatch during the session handshake means the UE and BS were launched
// with drifted parameters — caught before any tensor crosses the wire.
func (c Config) Fingerprint() uint64 {
	h := fnv.New64a()
	put := func(vs ...int64) {
		for _, v := range vs {
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	// The literal 0s sit where removed fields used to be hashed: the
	// pooling operator (average pooling was 0), the recurrent core (the
	// LSTM was 0) and wire quantisation (off was 0). Hello fingerprints,
	// journaled train states and saved models from before their removal
	// must still match.
	put(int64(c.Modality), int64(c.PoolH), int64(c.PoolW), 0,
		int64(c.SeqLen), int64(c.HorizonFrames), int64(c.BatchSize),
		int64(c.HiddenSize), int64(c.KernelSize), 0,
		int64(c.BitDepth), int64(c.Codec), c.Seed, 0)
	put(int64(c.LR*1e12), int64(c.Beta1*1e12), int64(c.Beta2*1e12))
	return h.Sum64()
}

// Validate reports the first configuration error against a dataset's
// geometry.
func (c Config) Validate(d *dataset.Dataset) error {
	switch {
	case c.SeqLen <= 0:
		return fmt.Errorf("split: non-positive sequence length %d", c.SeqLen)
	case c.HorizonFrames < 0:
		return fmt.Errorf("split: negative horizon %d", c.HorizonFrames)
	case c.BatchSize <= 0:
		return fmt.Errorf("split: non-positive batch size %d", c.BatchSize)
	case c.HiddenSize <= 0:
		return fmt.Errorf("split: non-positive hidden size %d", c.HiddenSize)
	case c.MaxEpochs <= 0 || c.StepsPerEpoch <= 0:
		return fmt.Errorf("split: bad schedule %d epochs × %d steps", c.MaxEpochs, c.StepsPerEpoch)
	case !c.BitDepth.Valid():
		return fmt.Errorf("split: bad bit depth %d", c.BitDepth)
	case !c.Codec.Valid():
		return fmt.Errorf("split: unknown payload codec %d", c.Codec)
	}
	if c.Modality.UsesImages() {
		switch {
		case c.PoolH <= 0 || c.PoolW <= 0:
			return fmt.Errorf("split: non-positive pooling %dx%d", c.PoolH, c.PoolW)
		case d.H%c.PoolH != 0 || d.W%c.PoolW != 0:
			return fmt.Errorf("split: pooling %dx%d does not divide image %dx%d",
				c.PoolH, c.PoolW, d.H, d.W)
		case c.KernelSize <= 0 || c.KernelSize%2 == 0:
			return fmt.Errorf("split: kernel size %d must be odd and positive", c.KernelSize)
		}
	}
	return nil
}

// FeaturePixels returns the per-frame CNN output size after pooling:
// (N_H/w_H)·(N_W/w_W). Zero for RF-only.
func (c Config) FeaturePixels(d *dataset.Dataset) int {
	if !c.Modality.UsesImages() {
		return 0
	}
	return (d.H / c.PoolH) * (d.W / c.PoolW)
}

// RNNInputDim returns the per-step LSTM input width: pooled pixels plus
// one RF scalar when the scheme uses RF.
func (c Config) RNNInputDim(d *dataset.Dataset) int {
	dim := c.FeaturePixels(d)
	if c.Modality.UsesRF() {
		dim++
	}
	if dim == 0 {
		panic("split: scheme with no inputs")
	}
	return dim
}

// UplinkPayloadBits returns the paper's B^UL for one mini-batch forward:
// N_H·N_W·B·R·L/(w_H·w_W) bits. Zero for RF-only (the BS measures the RF
// feature locally).
func (c Config) UplinkPayloadBits(d *dataset.Dataset) int {
	if !c.Modality.UsesImages() {
		return 0
	}
	return d.H * d.W * c.BatchSize * int(c.BitDepth) * c.SeqLen / (c.PoolH * c.PoolW)
}

// WireCodec instantiates the configured cut-layer codec. The Raw codec
// prices payloads at the paper's R = BitDepth bits per element, so the
// default configuration charges the channel exactly UplinkPayloadBits —
// the codec subsystem generalises the formula without moving it.
func (c Config) WireCodec() (compress.Codec, error) {
	codec, err := compress.New(c.Codec)
	if err != nil {
		return nil, fmt.Errorf("split: %w", err)
	}
	if raw, ok := codec.(compress.Raw); ok {
		raw.ModelBits = int(c.BitDepth)
		return raw, nil
	}
	return codec, nil
}
