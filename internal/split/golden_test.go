package split

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
)

// The values TestTrainStepGolden expects, recorded at PR 12 (commit
// 45d62d0, the last im2col/GEMM engine) on amd64. A kernel change that
// keeps every floating-point chain reproduces them; the within-commit
// oracle (engine ≡ Conv2DDirect) cannot see both paths drifting together,
// this can.
const (
	goldenSteps             = 20
	goldenLossBits   uint64 = 0x3ffa5caf97355e3f
	goldenUEConvHash uint64 = 0xe820849b818155c0
)

// ueConvHash is FNV-1a over the Float64bits of the UE convolution's
// kernel, then its bias.
func ueConvHash(params []*nn.Param) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range params {
		for _, v := range p.Value.Data() {
			binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestTrainStepGolden: 20 Trainer.Steps on the paper's one-pixel config
// (Img+RF, 40×40 pooling over 40×40 frames, batch 64 × L 4) land on the
// loss and the UE conv parameters the previous engine produced, bit for
// bit.
func TestTrainStepGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden recorded on amd64; other targets may fuse multiply-adds")
	}
	gen := dataset.DefaultGenConfig()
	gen.NumFrames = 600
	gen.Seed = 1
	d, err := dataset.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(ImageRF, 40)
	sp, err := dataset.NewSplit(d, cfg.SeqLen, cfg.HorizonFrames, 450)
	if err != nil {
		t.Fatal(err)
	}
	model := buildModel(t, cfg, d, sp)
	tr := NewTrainer(model, d, sp, IdealLink{})
	var loss float64
	for s := 0; s < goldenSteps; s++ {
		if loss, err = tr.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := math.Float64bits(loss); got != goldenLossBits {
		t.Errorf("loss after %d steps: bits %#x (%g), want %#x", goldenSteps, got, loss, goldenLossBits)
	}
	if got := ueConvHash(model.UE.Params()); got != goldenUEConvHash {
		t.Errorf("UE conv kernel+bias hash %#x, want %#x", got, goldenUEConvHash)
	}
}
