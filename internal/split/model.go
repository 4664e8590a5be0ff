package split

import (
	"fmt"
	"math/rand"

	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// UEModel is the user-equipment half of the split network: a stride-1
// same-padded convolution producing a single-channel "CNN output image"
// (so Fig. 2's visualisation applies), a ReLU, and the paper's
// payload-compressing average pooling, fused into one layer that makes
// one pass per frame.
type UEModel struct {
	Net            *nn.ConvReLUAvgPool
	imageH, imageW int
}

// NewUEModel builds the UE CNN for the given dataset geometry.
//
// The convolution kernel is initialised as a normalised blur plus small
// noise rather than zero-mean random weights. With a single channel and a
// ReLU, a zero-mean draw is a coin flip between a structure-preserving
// (blur-like) and a structure-destroying (sign-mixed, ReLU-clipped)
// filter, which would make the CNN output image — the object Fig. 2
// visualises and Table 1's privacy metric measures — an accident of the
// seed. The blur initialisation matches the paper's Fig. 2, where the CNN
// outputs visibly resemble the raw frames, and remains fully trainable.
func NewUEModel(rng *rand.Rand, cfg Config, d *dataset.Dataset) *UEModel {
	conv := nn.NewConv2DSame(rng, 1, 1, cfg.KernelSize)
	k := conv.K.Value.Data()
	base := 1.0 / float64(len(k))
	for i := range k {
		k[i] = base * (1 + 0.1*rng.NormFloat64())
	}
	return &UEModel{
		Net:    nn.NewConvReLUAvgPool(conv, cfg.PoolH, cfg.PoolW),
		imageH: d.H, imageW: d.W,
	}
}

// Forward maps a (B·L, 1, H, W) image stack to pooled feature maps
// (B·L, 1, H/wH, W/wW) — the payload that crosses the uplink.
func (u *UEModel) Forward(images *tensor.Tensor) *tensor.Tensor {
	return u.Net.Forward(images)
}

// Backward consumes the cut-layer gradient received from the BS,
// accumulating the UE-side parameter gradients. The layer is the
// network's input layer: no gradient is formed for the pixels.
func (u *UEModel) Backward(grad *tensor.Tensor) {
	u.Net.Backward(grad)
}

// Release returns the layer's scratch buffers to the shared tensor pool,
// for the next session's model to take up; a later Forward re-acquires.
func (u *UEModel) Release() { u.Net.Release() }

// Params returns the UE-side parameters (they never leave the UE).
func (u *UEModel) Params() []*nn.Param { return u.Net.Params() }

// FLOPsPerImage estimates the floating-point work of one image's forward
// pass (backward costs roughly 2× and is accounted by the caller).
func (u *UEModel) FLOPsPerImage(kernel int) float64 {
	conv := float64(u.imageH*u.imageW) * float64(kernel*kernel) * 2
	relu := float64(u.imageH * u.imageW)
	pool := float64(u.imageH * u.imageW)
	return conv + relu + pool
}

// BSModel is the base-station half: an LSTM over the L-step fused
// sequence followed by a linear regression head producing the predicted
// normalised power.
type BSModel struct {
	Core *nn.LSTM
	Head *nn.Dense
}

// NewBSModel builds the BS model for the given per-step input width.
func NewBSModel(rng *rand.Rand, cfg Config, inputDim int) *BSModel {
	return &BSModel{
		Core: nn.NewLSTM(rng, inputDim, cfg.HiddenSize),
		Head: nn.NewDense(rng, cfg.HiddenSize, 1),
	}
}

// Forward maps the fused (B, L, D) sequence to (B, 1) predictions.
func (b *BSModel) Forward(seq *tensor.Tensor) *tensor.Tensor {
	return b.Head.Forward(b.Core.Forward(seq))
}

// Backward propagates the loss gradient back to the fused sequence,
// returning the (B, L, D) gradient whose image part crosses the downlink.
func (b *BSModel) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return b.Core.Backward(b.Head.Backward(grad))
}

// Release returns the scratch of the core and of the head to the shared
// tensor pool; a later Forward re-acquires.
func (b *BSModel) Release() {
	b.Core.Release()
	b.Head.Release()
}

// Params returns the BS-side parameters.
func (b *BSModel) Params() []*nn.Param {
	return append(b.Core.Params(), b.Head.Params()...)
}

// FLOPsPerSequence estimates one sequence's recurrent + head forward
// cost: per step, the packed products over the LSTM's four gates plus
// the element-wise gate arithmetic.
func (b *BSModel) FLOPsPerSequence(seqLen int) float64 {
	in, hid := b.Core.InDim, b.Core.Hidden
	perStep := float64(2*(in+hid)*4*hid) + float64(10*hid)
	head := float64(2 * hid)
	return float64(seqLen)*perStep + head
}

// Model bundles both halves plus everything needed to assemble batches.
// It is the in-process view of the split network; the trainer decides how
// the cut-layer tensors travel (ideal, simulated channel, or real socket).
type Model struct {
	Cfg  Config
	UE   *UEModel // nil for RF-only
	BS   *BSModel
	Norm dataset.Normalizer

	data *dataset.Dataset
	wire compress.Codec // cut-layer payload codec (Cfg.Codec)

	// arena holds the model's batch-assembly scratch (image stack, fused
	// sequence, targets, cut gradient). It is reset at the top of every
	// ForwardBatch, so in steady state each training step reuses the
	// previous step's buffers verbatim; tensors handed out from it are
	// only valid until the next ForwardBatch. The model inherits the
	// layers' single-threaded contract, so the arena needs no locking.
	arena tensor.Arena
}

// NewModel constructs the split model for a dataset, validating the
// configuration first.
func NewModel(cfg Config, d *dataset.Dataset, norm dataset.Normalizer) (*Model, error) {
	if err := cfg.Validate(d); err != nil {
		return nil, err
	}
	codec, err := cfg.WireCodec()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{Cfg: cfg, Norm: norm, data: d, wire: codec}
	if cfg.Modality.UsesImages() {
		m.UE = NewUEModel(rng, cfg, d)
	}
	m.BS = NewBSModel(rng, cfg, cfg.RNNInputDim(d))
	return m, nil
}

// Params returns all trainable parameters (UE first, then BS).
func (m *Model) Params() []*nn.Param {
	var ps []*nn.Param
	if m.UE != nil {
		ps = append(ps, m.UE.Params()...)
	}
	return append(ps, m.BS.Params()...)
}

// imageBatch assembles the (B·L, 1, H, W) stack of input frames for the
// anchors: row b·L+t holds frame anchors[b]−L+1+t.
func (m *Model) imageBatch(anchors []int) *tensor.Tensor {
	d, L := m.data, m.Cfg.SeqLen
	px := d.H * d.W
	out := m.arena.GetUninit(len(anchors)*L, 1, d.H, d.W)
	for b, k := range anchors {
		for t := 0; t < L; t++ {
			frame := k - L + 1 + t
			copy(out.Data()[(b*L+t)*px:(b*L+t+1)*px], d.Image(frame))
		}
	}
	return out
}

// fuse builds the (B, L, D) LSTM input from pooled features (may be nil
// for RF-only) and, when the scheme uses RF, the normalised power at each
// input step.
func (m *Model) fuse(anchors []int, pooled *tensor.Tensor) *tensor.Tensor {
	cfg, d := m.Cfg, m.data
	L := cfg.SeqLen
	featPx := cfg.FeaturePixels(d)
	dim := cfg.RNNInputDim(d)
	out := m.arena.GetUninit(len(anchors), L, dim)
	for b, k := range anchors {
		for t := 0; t < L; t++ {
			row := out.Data()[(b*L+t)*dim : (b*L+t+1)*dim]
			if pooled != nil {
				copy(row[:featPx], pooled.Data()[(b*L+t)*featPx:(b*L+t+1)*featPx])
			}
			if cfg.Modality.UsesRF() {
				row[dim-1] = m.Norm.Normalize(d.Powers[k-L+1+t])
			}
		}
	}
	return out
}

// splitFusedGrad extracts the image-feature part of the fused-sequence
// gradient as a (B·L, 1, h, w) tensor — the payload of the downlink.
func (m *Model) splitFusedGrad(grad *tensor.Tensor) *tensor.Tensor {
	cfg, d := m.Cfg, m.data
	L := cfg.SeqLen
	featPx := cfg.FeaturePixels(d)
	dim := cfg.RNNInputDim(d)
	n := grad.Dim(0)
	out := m.arena.GetUninit(n*L, 1, d.H/cfg.PoolH, d.W/cfg.PoolW)
	for b := 0; b < n; b++ {
		for t := 0; t < L; t++ {
			src := grad.Data()[(b*L+t)*dim : (b*L+t)*dim+featPx]
			copy(out.Data()[(b*L+t)*featPx:(b*L+t+1)*featPx], src)
		}
	}
	return out
}

// targets builds the (B, 1) normalised prediction targets P_{k+T/γ}.
func (m *Model) targets(anchors []int) *tensor.Tensor {
	out := m.arena.GetUninit(len(anchors), 1)
	for b, k := range anchors {
		out.Data()[b] = m.Norm.Normalize(m.data.Powers[k+m.Cfg.HorizonFrames])
	}
	return out
}

// ForwardBatch runs the full forward pass for the anchors, returning the
// (B, 1) normalised predictions and, for image schemes, the pooled
// activations that crossed the cut layer. Under a lossy codec the
// activations the BS consumes are the codec round-trip of what the UE
// produced, exactly as the uplink would deliver them.
func (m *Model) ForwardBatch(anchors []int) (pred, pooled *tensor.Tensor) {
	// Recycle the previous step's batch-assembly buffers: nothing handed
	// out by the arena may outlive the next ForwardBatch (see arena doc).
	m.arena.Reset()
	if m.UE != nil {
		pooled = m.wireRoundTrip(m.UE.Forward(m.imageBatch(anchors)))
	}
	return m.BS.Forward(m.fuse(anchors, pooled)), pooled
}

// BackwardBatch propagates the (B, 1) loss gradient through both halves,
// returning the cut-layer gradient (nil for RF-only) for payload
// accounting. Under a lossy codec the gradient the UE consumes is the
// codec round-trip of what the BS produced (the downlink is equally
// band-limited).
func (m *Model) BackwardBatch(lossGrad *tensor.Tensor) (cutGrad *tensor.Tensor) {
	fusedGrad := m.BS.Backward(lossGrad)
	if m.UE == nil {
		return nil
	}
	cutGrad = m.splitFusedGrad(fusedGrad)
	m.UE.Backward(m.wireRoundTrip(cutGrad))
	return cutGrad
}

// wireRoundTrip applies the configured codec's encode→decode pair to a
// cut-layer tensor, so lossy codecs inject exactly the error the far
// end of the link would see. Raw is lossless and skipped outright to
// keep the default hot path allocation-free.
func (m *Model) wireRoundTrip(t *tensor.Tensor) *tensor.Tensor {
	if m.Cfg.Codec == compress.CodecRaw {
		return t
	}
	enc, err := m.wire.Encode(t)
	if err != nil {
		panic(fmt.Sprintf("split: wire codec encode: %v", err))
	}
	out, err := m.wire.Decode(enc)
	if err != nil {
		panic(fmt.Sprintf("split: wire codec decode: %v", err))
	}
	return out
}

// WireBits prices one cut-layer transfer (uplink activations or the
// equally-shaped downlink gradient) under the configured codec: the
// codec-generalised B^UL. Zero for schemes that never use the link.
func (m *Model) WireBits() int {
	if m.UE == nil {
		return 0
	}
	cfg := m.Cfg
	// Bits depends only on the tensor's size, so price a zero tensor of
	// the per-step cut shape.
	shape := tensor.New(cfg.BatchSize*cfg.SeqLen, 1, m.data.H/cfg.PoolH, m.data.W/cfg.PoolW)
	return m.wire.Bits(shape)
}

// StepFLOPs estimates the floating-point work of one full training step
// (forward + backward ≈ 3× forward) for the cost model.
func (m *Model) StepFLOPs() float64 {
	cfg := m.Cfg
	var fwd float64
	if m.UE != nil {
		fwd += float64(cfg.BatchSize*cfg.SeqLen) * m.UE.FLOPsPerImage(cfg.KernelSize)
	}
	fwd += float64(cfg.BatchSize) * m.BS.FLOPsPerSequence(cfg.SeqLen)
	return 3 * fwd
}

// PredictAnchors returns de-normalised dBm predictions for arbitrary
// anchors (no gradient bookkeeping beyond the forward caches).
func (m *Model) PredictAnchors(anchors []int) []float64 {
	pred, _ := m.ForwardBatch(anchors)
	out := make([]float64, len(anchors))
	for i := range out {
		out[i] = m.Norm.Denormalize(pred.Data()[i])
	}
	return out
}

// String describes the scheme for figure legends, e.g.
// "Image+RF, 40×40 (1-pixel)" or "RF-only".
func (m *Model) String() string { return SchemeName(m.Cfg) }

// SchemeName formats a configuration the way the paper's figures label
// their curves.
func SchemeName(cfg Config) string {
	if !cfg.Modality.UsesImages() {
		return cfg.Modality.String()
	}
	label := fmt.Sprintf("%s, %d×%d", cfg.Modality, cfg.PoolH, cfg.PoolW)
	if cfg.PoolH == 40 && cfg.PoolW == 40 {
		label += " (1-pixel)"
	}
	if cfg.Codec != compress.CodecRaw {
		label += fmt.Sprintf(" [%s]", cfg.Codec)
	}
	return label
}
