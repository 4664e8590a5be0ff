// Package dataset defines the time-indexed multimodal samples
// s_k = (x_k, P_k) of depth image and received power, the paper's
// train/validation split, mini-batch sampling, and binary persistence.
//
// Paper constants: K = 13,228 frames at γ = 33 ms; prediction horizon
// T = 120 ms (HorizonFrames = round(T/γ) = 4); RNN sequence length L = 4;
// K_train = {L, …, 9928}, K_val = K \ K_train.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/scene"
)

// Paper experiment constants.
const (
	PaperNumFrames     = 13228
	PaperFramePeriodS  = 0.033 // γ = 33 ms (depth-camera frame rate)
	PaperHorizonMS     = 120.0 // T
	PaperSeqLen        = 4     // L
	PaperTrainEndIndex = 9928  // last index (inclusive) of K_train
)

// PaperHorizonFrames is round(T/γ), the target offset in frames.
func PaperHorizonFrames() int {
	return int(math.Round(PaperHorizonMS / 1000 / PaperFramePeriodS))
}

// Dataset is a chronological multimodal series. Images are stored flat:
// frame k occupies Images[k*H*W : (k+1)*H*W], normalised to [0, 1].
// Powers are in dBm.
type Dataset struct {
	H, W         int
	FramePeriodS float64
	Images       []float64
	Powers       []float64
}

// Len returns the number of frames K.
func (d *Dataset) Len() int { return len(d.Powers) }

// Image returns frame k's pixels as a subslice (not a copy).
func (d *Dataset) Image(k int) []float64 {
	px := d.H * d.W
	return d.Images[k*px : (k+1)*px]
}

// TimeOf returns the timestamp of frame k in seconds.
func (d *Dataset) TimeOf(k int) float64 { return float64(k) * d.FramePeriodS }

// Validate reports structural problems.
func (d *Dataset) Validate() error {
	if d.H <= 0 || d.W <= 0 {
		return fmt.Errorf("dataset: bad image size %dx%d", d.H, d.W)
	}
	if len(d.Images) != len(d.Powers)*d.H*d.W {
		return fmt.Errorf("dataset: %d image values for %d frames of %d px",
			len(d.Images), len(d.Powers), d.H*d.W)
	}
	if d.FramePeriodS <= 0 {
		return fmt.Errorf("dataset: non-positive frame period %g", d.FramePeriodS)
	}
	return nil
}

// GenConfig configures synthetic generation.
type GenConfig struct {
	Scene     scene.Config
	NumFrames int
	Seed      int64
}

// DefaultGenConfig returns the paper-scale generation configuration.
func DefaultGenConfig() GenConfig {
	return GenConfig{Scene: scene.DefaultConfig(), NumFrames: PaperNumFrames, Seed: 1}
}

// Generate runs the scene simulator for cfg.NumFrames frames and collects
// both modalities.
func Generate(cfg GenConfig) (*Dataset, error) {
	if cfg.NumFrames <= 0 {
		return nil, fmt.Errorf("dataset: non-positive frame count %d", cfg.NumFrames)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sc, err := scene.New(cfg.Scene, rng)
	if err != nil {
		return nil, err
	}
	h, w := cfg.Scene.ImageH, cfg.Scene.ImageW
	d := &Dataset{
		H: h, W: w,
		FramePeriodS: PaperFramePeriodS,
		Images:       make([]float64, cfg.NumFrames*h*w),
		Powers:       make([]float64, cfg.NumFrames),
	}
	for k := 0; k < cfg.NumFrames; k++ {
		t := float64(k) * d.FramePeriodS
		sc.Advance(t)
		sc.RenderDepthInto(d.Images[k*h*w:(k+1)*h*w], t)
		d.Powers[k] = sc.ReceivedPowerDBm(t)
	}
	return d, nil
}

// Split holds the index sets of the paper's train/validation partition.
// An index k is usable if both the full input sequence {k-L+1, …, k} and
// the target k+HorizonFrames exist.
type Split struct {
	Train []int
	Val   []int
}

// NewSplit partitions frame indices following the paper: training indices
// run from L to trainEnd inclusive, validation is the remainder, and both
// are clipped so the prediction target stays inside the series.
func NewSplit(d *Dataset, seqLen, horizonFrames, trainEnd int) (*Split, error) {
	if seqLen <= 0 || horizonFrames < 0 {
		return nil, fmt.Errorf("dataset: bad split parameters L=%d, horizon=%d", seqLen, horizonFrames)
	}
	k := d.Len()
	if trainEnd >= k {
		return nil, fmt.Errorf("dataset: trainEnd %d outside series of length %d", trainEnd, k)
	}
	sp := &Split{}
	for i := seqLen - 1; i+horizonFrames < k; i++ {
		if i <= trainEnd {
			sp.Train = append(sp.Train, i)
		} else {
			sp.Val = append(sp.Val, i)
		}
	}
	if len(sp.Train) == 0 || len(sp.Val) == 0 {
		return nil, fmt.Errorf("dataset: degenerate split (%d train, %d val)", len(sp.Train), len(sp.Val))
	}
	return sp, nil
}

// PaperSplit applies the paper's exact partition to a paper-scale dataset.
func PaperSplit(d *Dataset) (*Split, error) {
	return NewSplit(d, PaperSeqLen, PaperHorizonFrames(), PaperTrainEndIndex)
}

// Sampler draws uniform mini-batches of anchor indices from a split's
// training set, as in the paper ("a minibatch uniformly randomly sampled
// from K_train").
type Sampler struct {
	indices []int
	rng     *rand.Rand
}

// NewSampler returns a sampler over the given anchor indices.
func NewSampler(indices []int, rng *rand.Rand) *Sampler {
	return &Sampler{indices: indices, rng: rng}
}

// Batch returns n anchor indices sampled uniformly with replacement.
func (s *Sampler) Batch(n int) []int {
	out := make([]int, n)
	s.Fill(out)
	return out
}

// Fill fills dst with anchor indices sampled uniformly with replacement
// — the allocation-free form of Batch, consuming exactly the same RNG
// draws, used by the serving hot path.
func (s *Sampler) Fill(dst []int) {
	for i := range dst {
		dst[i] = s.indices[s.rng.Intn(len(s.indices))]
	}
}

// Normalizer standardises powers for network consumption. Images are
// already in [0, 1]; powers in dBm are shifted/scaled by training-set
// statistics so the network trains on roughly unit-scale targets while
// all reported errors stay in dB.
type Normalizer struct {
	MeanDBm float64
	StdDBm  float64
}

// FitNormalizer computes training-set power statistics.
func FitNormalizer(d *Dataset, trainIdx []int) Normalizer {
	var sum, sumSq float64
	for _, k := range trainIdx {
		sum += d.Powers[k]
	}
	mean := sum / float64(len(trainIdx))
	for _, k := range trainIdx {
		diff := d.Powers[k] - mean
		sumSq += diff * diff
	}
	std := math.Sqrt(sumSq / float64(len(trainIdx)))
	if std < 1e-9 {
		std = 1
	}
	return Normalizer{MeanDBm: mean, StdDBm: std}
}

// Normalize maps dBm to network scale.
func (n Normalizer) Normalize(dbm float64) float64 { return (dbm - n.MeanDBm) / n.StdDBm }

// Denormalize maps network scale back to dBm.
func (n Normalizer) Denormalize(v float64) float64 { return v*n.StdDBm + n.MeanDBm }

// DenormalizeRMSE converts an RMSE on the normalised scale to dB.
func (n Normalizer) DenormalizeRMSE(rmse float64) float64 { return rmse * n.StdDBm }
