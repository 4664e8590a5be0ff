package split

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tensor"
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

// The UE conv hash the same 20 steps give where math.Exp takes its
// multiply-then-add path (amd64 without FMA, or GODEBUG=cpu.fma=off),
// recorded under GODEBUG=cpu.fma=off on commit db4b7ff, the last before
// the LSTM's gates ran in AVX2. The loss keeps goldenLossBits.
const goldenUEConvHashNoFMA uint64 = 0x24f24eaf33478dad

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
// bit, on the Go and on the AVX2 row kernels.
func TestTrainStepGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden recorded on amd64; other targets may fuse multiply-adds")
	}
	defer tensor.SetAVX2(true)
	for _, path := range []struct {
		name string
		avx  bool
	}{{"go", false}, {"avx2", true}} {
		t.Run(path.name, func(t *testing.T) {
			if tensor.SetAVX2(path.avx) != path.avx {
				t.Skip("the CPU has no AVX2")
			}
			checkTrainStepGolden(t, goldenUEConvHash)
		})
	}
}

// TestTrainStepGoldenWithoutFMA: where math.Exp takes its
// multiply-then-add path, TestTrainStepGolden's values cannot hold, on
// any commit (the scene and the gates call math.Exp); the run lands on
// that path's values instead, on the Go and on the AVX2 row kernels. It
// fails if the LSTM's vector exp, which copies the FMA path, runs there:
// the tensor package's start-up probe must have switched it off.
func TestTrainStepGoldenWithoutFMA(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden recorded on amd64; other targets may fuse multiply-adds")
	}
	// On this argument math.Exp's FMA path gives …7b23, the other …7b22.
	if math.Float64bits(math.Exp(math.Float64frombits(0x3fe54c95d5e5d937))) != 0x3fff21675c627b22 {
		t.Skip("math.Exp takes its FMA path: TestTrainStepGolden pins this run")
	}
	defer tensor.SetAVX2(true)
	for _, path := range []struct {
		name string
		avx  bool
	}{{"go", false}, {"avx2", true}} {
		t.Run(path.name, func(t *testing.T) {
			if tensor.SetAVX2(path.avx) != path.avx {
				t.Skip("the CPU has no AVX2")
			}
			checkTrainStepGolden(t, goldenUEConvHashNoFMA)
		})
	}
}

// checkTrainStepGolden runs the 20 golden steps and compares the loss with
// goldenLossBits and the UE conv parameters' hash with convHash.
func checkTrainStepGolden(t *testing.T, convHash uint64) {
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
	if got := ueConvHash(model.UE.Params()); got != convHash {
		t.Errorf("UE conv kernel+bias hash %#x, want %#x", got, convHash)
	}
}
