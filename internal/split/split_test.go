package split

import (
	"math"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// tinyDataset generates a small synthetic dataset with little images so
// numeric gradient checks stay fast.
func tinyDataset(t *testing.T, frames int) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DefaultGenConfig()
	cfg.NumFrames = frames
	cfg.Seed = 99
	cfg.Scene.ImageH, cfg.Scene.ImageW = 8, 8
	cfg.Scene.FocalPixels = 5
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// tinyConfig returns a small but structurally faithful configuration.
func tinyConfig(m Modality, pool int) Config {
	cfg := DefaultConfig(m, pool)
	cfg.SeqLen = 2
	cfg.HorizonFrames = 2
	cfg.BatchSize = 4
	cfg.HiddenSize = 6
	cfg.StepsPerEpoch = 5
	cfg.MaxEpochs = 3
	return cfg
}

func buildModel(t *testing.T, cfg Config, d *dataset.Dataset, sp *dataset.Split) *Model {
	t.Helper()
	norm := dataset.FitNormalizer(d, sp.Train)
	m, err := NewModel(cfg, d, norm)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func makeSplit(t *testing.T, d *dataset.Dataset, cfg Config) *dataset.Split {
	t.Helper()
	sp, err := dataset.NewSplit(d, cfg.SeqLen, cfg.HorizonFrames, d.Len()*2/3)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestConfigValidate(t *testing.T) {
	d := tinyDataset(t, 60)
	good := tinyConfig(ImageRF, 4)
	if err := good.Validate(d); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.SeqLen = 0 },
		func(c *Config) { c.BatchSize = 0 },
		func(c *Config) { c.HiddenSize = -1 },
		func(c *Config) { c.PoolH = 3 },      // does not divide 8
		func(c *Config) { c.KernelSize = 4 }, // even kernel
		func(c *Config) { c.BitDepth = 7 },
		func(c *Config) { c.MaxEpochs = 0 },
	}
	for i, mutate := range cases {
		c := tinyConfig(ImageRF, 4)
		mutate(&c)
		if c.Validate(d) == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
	// RF-only ignores pooling geometry entirely.
	rf := tinyConfig(RFOnly, 3)
	if err := rf.Validate(d); err != nil {
		t.Fatalf("RF-only with odd pooling rejected: %v", err)
	}
}

func TestModalityProperties(t *testing.T) {
	if RFOnly.UsesImages() || !RFOnly.UsesRF() {
		t.Fatal("RF-only flags wrong")
	}
	if !ImageOnly.UsesImages() || ImageOnly.UsesRF() {
		t.Fatal("Image-only flags wrong")
	}
	if !ImageRF.UsesImages() || !ImageRF.UsesRF() {
		t.Fatal("Image+RF flags wrong")
	}
}

func TestSchemeNames(t *testing.T) {
	if got := SchemeName(DefaultConfig(RFOnly, 1)); got != "RF-only" {
		t.Fatalf("name = %q", got)
	}
	if got := SchemeName(DefaultConfig(ImageRF, 40)); got != "Image+RF, 40×40 (1-pixel)" {
		t.Fatalf("name = %q", got)
	}
	if got := SchemeName(DefaultConfig(ImageOnly, 4)); got != "Image-only, 4×4" {
		t.Fatalf("name = %q", got)
	}
}

func TestPayloadFormulas(t *testing.T) {
	d := &dataset.Dataset{H: 40, W: 40, FramePeriodS: 0.033,
		Powers: make([]float64, 100), Images: make([]float64, 100*1600)}
	cfg := DefaultConfig(ImageRF, 4)
	// 40·40·64·32·4/(4·4) = 819200 — the 4×4 row of Table 1.
	if got := cfg.UplinkPayloadBits(d); got != 819200 {
		t.Fatalf("B^UL = %d, want 819200", got)
	}
	rf := DefaultConfig(RFOnly, 1)
	if rf.UplinkPayloadBits(d) != 0 {
		t.Fatal("RF-only must not use the uplink")
	}
}

func TestRNNInputDim(t *testing.T) {
	d := &dataset.Dataset{H: 40, W: 40, FramePeriodS: 0.033,
		Powers: make([]float64, 10), Images: make([]float64, 10*1600)}
	if got := DefaultConfig(ImageRF, 40).RNNInputDim(d); got != 2 {
		t.Fatalf("1-pixel Img+RF input dim = %d, want 2 (1 px + 1 RF)", got)
	}
	if got := DefaultConfig(ImageRF, 4).RNNInputDim(d); got != 101 {
		t.Fatalf("4×4 Img+RF input dim = %d, want 101", got)
	}
	if got := DefaultConfig(ImageOnly, 4).RNNInputDim(d); got != 100 {
		t.Fatalf("4×4 Img-only input dim = %d, want 100", got)
	}
	if got := DefaultConfig(RFOnly, 1).RNNInputDim(d); got != 1 {
		t.Fatalf("RF-only input dim = %d, want 1", got)
	}
}

func TestForwardBatchShapes(t *testing.T) {
	d := tinyDataset(t, 60)
	for _, m := range []Modality{RFOnly, ImageOnly, ImageRF} {
		cfg := tinyConfig(m, 4)
		sp := makeSplit(t, d, cfg)
		model := buildModel(t, cfg, d, sp)
		anchors := sp.Train[:cfg.BatchSize]
		pred, pooled := model.ForwardBatch(anchors)
		if pred.Dim(0) != cfg.BatchSize || pred.Dim(1) != 1 {
			t.Fatalf("%v: prediction shape %v", m, pred.Shape())
		}
		if m.UsesImages() {
			want := []int{cfg.BatchSize * cfg.SeqLen, 1, 2, 2} // 8/4 = 2
			got := pooled.Shape()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v: pooled shape %v, want %v", m, got, want)
				}
			}
		} else if pooled != nil {
			t.Fatalf("RF-only produced pooled activations")
		}
	}
}

// TestFullModelGradients numerically verifies the entire split pipeline —
// imageBatch → UE CNN → fuse → LSTM → head → MSE — for every modality.
// This is the strongest correctness check in the package: any indexing
// slip in batch assembly or gradient routing breaks it.
func TestFullModelGradients(t *testing.T) {
	d := tinyDataset(t, 40)
	for _, m := range []Modality{RFOnly, ImageOnly, ImageRF} {
		t.Run(m.String(), func(t *testing.T) {
			cfg := tinyConfig(m, 4)
			cfg.BatchSize = 2
			sp := makeSplit(t, d, cfg)
			model := buildModel(t, cfg, d, sp)
			anchors := sp.Train[:2]

			lossOf := func() float64 {
				pred, _ := model.ForwardBatch(anchors)
				loss, _ := nn.MSE(pred, model.targets(anchors))
				return loss
			}

			nn.ZeroGrads(model.Params())
			pred, _ := model.ForwardBatch(anchors)
			_, lossGrad := nn.MSE(pred, model.targets(anchors))
			model.BackwardBatch(lossGrad)

			const eps = 1e-6
			for pi, p := range model.Params() {
				for i := 0; i < p.Value.Size(); i++ {
					orig := p.Value.Data()[i]
					p.Value.Data()[i] = orig + eps
					plus := lossOf()
					p.Value.Data()[i] = orig - eps
					minus := lossOf()
					p.Value.Data()[i] = orig
					num := (plus - minus) / (2 * eps)
					got := p.Grad.Data()[i]
					if math.Abs(got-num) > 1e-5*(1+math.Abs(num)) {
						t.Fatalf("param %d (%s) grad[%d] = %g, numeric %g",
							pi, p.Name, i, got, num)
					}
				}
			}
		})
	}
}

func TestCutGradientShapeMatchesActivations(t *testing.T) {
	d := tinyDataset(t, 40)
	cfg := tinyConfig(ImageRF, 2)
	sp := makeSplit(t, d, cfg)
	model := buildModel(t, cfg, d, sp)
	anchors := sp.Train[:cfg.BatchSize]
	pred, pooled := model.ForwardBatch(anchors)
	_, lossGrad := nn.MSE(pred, model.targets(anchors))
	cut := model.BackwardBatch(lossGrad)
	if !cut.SameShape(pooled) {
		t.Fatalf("cut gradient %v vs activations %v", cut.Shape(), pooled.Shape())
	}
}

func TestTrainerStepReducesLossOverTime(t *testing.T) {
	d := tinyDataset(t, 200)
	cfg := tinyConfig(ImageRF, 4)
	cfg.BatchSize = 16
	sp := makeSplit(t, d, cfg)
	model := buildModel(t, cfg, d, sp)
	tr := NewTrainer(model, d, sp, IdealLink{})

	before, err := tr.Validate()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		if _, err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	}
	after, err := tr.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("validation RMSE did not improve: %.3f dB -> %.3f dB", before, after)
	}
}

func TestTrainerClockAdvances(t *testing.T) {
	d := tinyDataset(t, 100)
	cfg := tinyConfig(ImageRF, 4)
	sp := makeSplit(t, d, cfg)
	model := buildModel(t, cfg, d, sp)
	tr := NewTrainer(model, d, sp, IdealLink{})
	if _, err := tr.Step(); err != nil {
		t.Fatal(err)
	}
	if tr.Clock.Seconds() <= 0 {
		t.Fatal("virtual clock did not advance on compute")
	}
}

// TestDelayIndependence is invariant 2 of DESIGN.md in its strong form:
// channel delays must affect only the clock, never the mathematics. The
// parameter trajectory under a lossy simulated link must be bit-identical
// to the trajectory under an ideal link.
func TestDelayIndependence(t *testing.T) {
	d := tinyDataset(t, 150)
	cfg := tinyConfig(ImageRF, 4)
	sp := makeSplit(t, d, cfg)

	run := func(link CutLink) []*nn.Param {
		model := buildModel(t, cfg, d, sp)
		tr := NewTrainer(model, d, sp, link)
		for i := 0; i < 20; i++ {
			if _, err := tr.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return model.Params()
	}

	ideal := run(IdealLink{})
	lossy := run(NewPaperSimLink(7))
	for i := range ideal {
		if tensor.MaxAbsDiff(ideal[i].Value, lossy[i].Value) != 0 {
			t.Fatalf("parameter %d diverged between ideal and lossy links", i)
		}
	}
}

func TestSimLinkChargesMoreThanIdeal(t *testing.T) {
	d := tinyDataset(t, 150)
	cfg := tinyConfig(ImageRF, 1) // 8×8 images, 1×1 pooling → biggest payload
	cfg.BitDepth = tensor.Depth32
	sp := makeSplit(t, d, cfg)

	elapsed := func(link CutLink) float64 {
		model := buildModel(t, cfg, d, sp)
		tr := NewTrainer(model, d, sp, link)
		for i := 0; i < 10; i++ {
			if _, err := tr.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return tr.Clock.Seconds()
	}
	if lossy, ideal := elapsed(NewPaperSimLink(3)), elapsed(IdealLink{}); lossy <= ideal {
		t.Fatalf("lossy link (%g s) not slower than ideal (%g s)", lossy, ideal)
	}
}

func TestTrainerRunProducesCurve(t *testing.T) {
	d := tinyDataset(t, 200)
	cfg := tinyConfig(RFOnly, 1)
	cfg.MaxEpochs = 2
	sp := makeSplit(t, d, cfg)
	model := buildModel(t, cfg, d, sp)
	tr := NewTrainer(model, d, sp, IdealLink{})
	curve, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) == 0 || len(curve.Points) > cfg.MaxEpochs {
		t.Fatalf("curve has %d points", len(curve.Points))
	}
	for i := 1; i < len(curve.Points); i++ {
		if curve.Points[i].TimeS <= curve.Points[i-1].TimeS {
			t.Fatal("virtual time not monotone across epochs")
		}
	}
	if curve.Scheme != "RF-only" {
		t.Fatalf("scheme = %q", curve.Scheme)
	}
}

func TestTrainerEarlyStop(t *testing.T) {
	d := tinyDataset(t, 200)
	cfg := tinyConfig(RFOnly, 1)
	cfg.TargetRMSEdB = 1e9 // any validation passes immediately
	cfg.MaxEpochs = 50
	sp := makeSplit(t, d, cfg)
	model := buildModel(t, cfg, d, sp)
	tr := NewTrainer(model, d, sp, IdealLink{})
	curve, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !curve.Converged || len(curve.Points) != 1 {
		t.Fatalf("early stop failed: converged=%v points=%d", curve.Converged, len(curve.Points))
	}
}

func TestValidateSubsampling(t *testing.T) {
	d := tinyDataset(t, 300)
	cfg := tinyConfig(RFOnly, 1)
	sp := makeSplit(t, d, cfg)
	model := buildModel(t, cfg, d, sp)
	tr := NewTrainer(model, d, sp, IdealLink{})

	full, err := tr.Validate()
	if err != nil {
		t.Fatal(err)
	}
	tr.ValBatch = 16
	sub, err := tr.Validate()
	if err != nil {
		t.Fatal(err)
	}
	// Subsampled estimate should be in the same ballpark as the full one.
	if math.Abs(full-sub) > full {
		t.Fatalf("subsampled RMSE %g too far from full %g", sub, full)
	}
}

func TestPredictWindowBounds(t *testing.T) {
	d := tinyDataset(t, 100)
	cfg := tinyConfig(ImageRF, 4)
	sp := makeSplit(t, d, cfg)
	model := buildModel(t, cfg, d, sp)
	tr := NewTrainer(model, d, sp, IdealLink{})

	if _, err := tr.PredictWindow(0, 10); err == nil {
		t.Fatal("window before first usable anchor accepted")
	}
	if _, err := tr.PredictWindow(10, d.Len()); err == nil {
		t.Fatal("window beyond horizon accepted")
	}
	preds, err := tr.PredictWindow(10, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 21 {
		t.Fatalf("got %d predictions, want 21", len(preds))
	}
	// Predictions are de-normalised dBm values: plausible range.
	for _, p := range preds {
		if p > 30 || p < -120 {
			t.Fatalf("implausible prediction %g dBm", p)
		}
	}
}

func TestIdealLinkZeroDelay(t *testing.T) {
	var l IdealLink
	for _, bits := range []int{0, 1, 1 << 20} {
		d, err := l.ForwardDelay(bits)
		if err != nil || d != 0 {
			t.Fatalf("ForwardDelay(%d) = %v, %v", bits, d, err)
		}
		d, err = l.BackwardDelay(bits)
		if err != nil || d != 0 {
			t.Fatalf("BackwardDelay(%d) = %v, %v", bits, d, err)
		}
	}
}

func TestSimLinkZeroPayloadFree(t *testing.T) {
	l := NewPaperSimLink(1)
	d, err := l.ForwardDelay(0)
	if err != nil || d != 0 {
		t.Fatalf("zero payload: %v, %v", d, err)
	}
}

func TestSimLinkDelayAtLeastOneSlot(t *testing.T) {
	l := NewPaperSimLink(2)
	d, err := l.ForwardDelay(8192)
	if err != nil {
		t.Fatal(err)
	}
	if d < time.Millisecond {
		t.Fatalf("delay %v below one slot", d)
	}
}

func TestStepFLOPsOrdering(t *testing.T) {
	d := tinyDataset(t, 60)
	flopsOf := func(m Modality, pool int) float64 {
		cfg := tinyConfig(m, pool)
		sp := makeSplit(t, d, cfg)
		return buildModel(t, cfg, d, sp).StepFLOPs()
	}
	rf := flopsOf(RFOnly, 1)
	img := flopsOf(ImageRF, 4)
	if rf >= img {
		t.Fatalf("RF-only (%g) should be cheaper than Image+RF (%g)", rf, img)
	}
}
