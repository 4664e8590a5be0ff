package experiments

import (
	"math"
	"testing"

	"repro/internal/split"
	"repro/internal/tensor"
)

// testScale is small enough to keep the whole experiment suite a few
// seconds while exercising the full pipeline with real 40×40 frames.
func testScale() Scale {
	return Scale{
		Frames:        700,
		TrainFrac:     0.7,
		MaxEpochs:     2,
		StepsPerEpoch: 4,
		ValBatch:      32,
		Seed:          5,
	}
}

func testEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewEnv(testScale())
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestNewEnv(t *testing.T) {
	env := testEnv(t)
	if env.Data.Len() != 700 {
		t.Fatalf("K = %d", env.Data.Len())
	}
	if len(env.Split.Train) == 0 || len(env.Split.Val) == 0 {
		t.Fatal("degenerate split")
	}
	if env.Norm.StdDBm <= 0 {
		t.Fatal("bad normaliser")
	}
}

func TestPaperScaleUsesPaperSplit(t *testing.T) {
	sc := PaperScale()
	if sc.Frames != 13228 || sc.MaxEpochs != 100 || sc.StepsPerEpoch != 156 {
		t.Fatalf("paper scale = %+v", sc)
	}
}

func TestFig3aSchemesMatchPaperCurveSet(t *testing.T) {
	specs := Fig3aSchemes()
	if len(specs) != 5 {
		t.Fatalf("%d schemes, want 5", len(specs))
	}
	// 1×1 pooling must be absent: its success probability is ≈ 0 and
	// training could never complete a transfer (Table 1).
	for _, s := range specs {
		if s.Modality.UsesImages() && s.Pool == 1 {
			t.Fatal("1×1 pooling scheme present in Fig. 3a set")
		}
	}
}

func TestRunFig3a(t *testing.T) {
	env := testEnv(t)
	res, err := RunFig3a(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 5 {
		t.Fatalf("%d curves", len(res.Curves))
	}
	names := map[string]bool{}
	var rfTime, onePixelTime, fourTime float64
	for _, c := range res.Curves {
		if len(c.Points) == 0 {
			t.Fatalf("curve %s empty", c.Scheme)
		}
		names[c.Scheme] = true
		last := c.Points[len(c.Points)-1].TimeS
		switch c.Scheme {
		case "RF-only":
			rfTime = last
		case "Image+RF, 40×40 (1-pixel)":
			onePixelTime = last
		case "Image+RF, 4×4":
			fourTime = last
		}
		for _, p := range c.Points {
			if p.RMSEdB <= 0 || math.IsNaN(p.RMSEdB) {
				t.Fatalf("curve %s has invalid RMSE %g", c.Scheme, p.RMSEdB)
			}
		}
	}
	if !names["RF-only"] || !names["Image+RF, 40×40 (1-pixel)"] {
		t.Fatalf("missing schemes: %v", names)
	}
	// The paper's headline time ordering: RF-only uses no link and is
	// fastest; 1-pixel Img+RF is faster than 4×4 Img+RF because its
	// payload needs ~37× fewer slot retransmissions.
	if !(rfTime < onePixelTime && onePixelTime < fourTime) {
		t.Fatalf("virtual time ordering violated: RF=%g 1px=%g 4×4=%g",
			rfTime, onePixelTime, fourTime)
	}
}

func TestRunFig3b(t *testing.T) {
	env := testEnv(t)
	res, err := RunFig3b(env, 60)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if len(tr.TimeS) != 60 || len(tr.TruthDBm) != 60 {
		t.Fatalf("window length %d/%d", len(tr.TimeS), len(tr.TruthDBm))
	}
	if len(tr.Series) != 3 {
		t.Fatalf("%d series, want 3", len(tr.Series))
	}
	// The window must contain a real transition (that is its purpose).
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range tr.TruthDBm {
		lo = math.Min(lo, p)
		hi = math.Max(hi, p)
	}
	if hi-lo < 10 {
		t.Fatalf("window swing only %.1f dB", hi-lo)
	}
	for _, s := range tr.Series {
		for _, p := range s.PredDBm {
			if math.IsNaN(p) || p > 20 || p < -120 {
				t.Fatalf("series %s has implausible prediction %g", s.Scheme, p)
			}
		}
	}
}

func TestFindTransitionWindowErrors(t *testing.T) {
	env := testEnv(t)
	if _, _, err := env.FindTransitionWindow(len(env.Split.Val) + 1); err == nil {
		t.Fatal("oversized window accepted")
	}
}

func TestRunTable1(t *testing.T) {
	env := testEnv(t)
	cfg := Table1Config{LeakageSamples: 32, TrainEpochs: 0, MCTrials: 2000}
	res, err := RunTable1(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// Success probability column reproduces Table 1.
	want := []struct {
		pool int
		p    float64
		tol  float64
	}{{1, 0, 1e-6}, {4, 0.0276, 0.003}, {10, 0.99999, 1e-3}, {40, 1.0, 1e-3}}
	for i, w := range want {
		row := res.Rows[i]
		if row.Pool != w.pool {
			t.Fatalf("row %d pool = %d", i, row.Pool)
		}
		if math.Abs(row.SuccessAnalytic-w.p) > w.tol {
			t.Fatalf("pool %d success = %g, want %g", w.pool, row.SuccessAnalytic, w.p)
		}
		// Monte-Carlo agrees with analytic within sampling error.
		if math.Abs(row.SuccessMC-row.SuccessAnalytic) > 0.02 {
			t.Fatalf("pool %d MC %g vs analytic %g", w.pool, row.SuccessMC, row.SuccessAnalytic)
		}
	}
	// Table 1's headline claim: the 1-pixel scheme attains the minimum
	// privacy leakage. (Strict monotonicity across all four poolings
	// holds for trained models at paper scale but not necessarily for the
	// randomly-initialised CNN this quick test uses.)
	onePixel := res.Rows[3].Leakage
	for _, row := range res.Rows[:3] {
		if onePixel > row.Leakage+1e-9 {
			t.Fatalf("1-pixel leakage %g not minimal (pool %d has %g)",
				onePixel, row.Pool, row.Leakage)
		}
	}
	for _, row := range res.Rows {
		if row.Leakage <= 0 || row.Leakage > 1 {
			t.Fatalf("pool %d leakage %g outside (0,1]", row.Pool, row.Leakage)
		}
	}
	// Table rendering works and has 5 columns (metric + 4 poolings).
	tab := res.Table()
	if len(tab.Columns) != 5 || len(tab.Rows) != 4 {
		t.Fatalf("table %dx%d", len(tab.Columns), len(tab.Rows))
	}
}

func TestRunFig2(t *testing.T) {
	env := testEnv(t)
	res, err := RunFig2(env, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != 2 {
		t.Fatalf("%d frames", len(res.Frames))
	}
	for _, row := range res.Frames {
		// raw + 3 poolings
		if len(row) != 4 {
			t.Fatalf("%d panels", len(row))
		}
		for _, img := range row {
			if len(img.Pixels) != img.H*img.W {
				t.Fatalf("panel %q wrong size", img.Label)
			}
		}
		// The 1-pixel panel is constant (one value replicated).
		onePixel := row[3].Pixels
		for _, v := range onePixel {
			if v != onePixel[0] {
				t.Fatal("1-pixel panel is not constant")
			}
		}
	}
}

func TestRunFig2RejectsBadCount(t *testing.T) {
	env := testEnv(t)
	if _, err := RunFig2(env, 0); err == nil {
		t.Fatal("zero frames accepted")
	}
}

func TestAblations(t *testing.T) {
	env := testEnv(t)
	bit := RunAblationBitDepth(env)
	if len(bit.Rows) != 4 {
		t.Fatalf("bit-depth rows = %d", len(bit.Rows))
	}
	// Success probability decreases with bit depth (payload grows).
	for i := 1; i < len(bit.Rows); i++ {
		if bit.Rows[i].Success > bit.Rows[i-1].Success {
			t.Fatal("success not monotone in bit depth")
		}
	}
	batch := RunAblationBatch(env)
	for i := 1; i < len(batch.Rows); i++ {
		if batch.Rows[i].PayloadBits <= batch.Rows[i-1].PayloadBits {
			t.Fatal("payload not increasing in batch size")
		}
	}
	seq := RunAblationSeqLen(env)
	if len(seq.Rows) != 4 {
		t.Fatalf("seq rows = %d", len(seq.Rows))
	}
	poolSweep := RunAblationPoolingSweep(env)
	if len(poolSweep.Rows) < 6 {
		t.Fatalf("pooling sweep rows = %d", len(poolSweep.Rows))
	}
	// Rendering works.
	if tab := poolSweep.Table(); len(tab.Rows) != len(poolSweep.Rows) {
		t.Fatal("ablation table row count")
	}
}

func TestEnvNewTrainerValidates(t *testing.T) {
	env := testEnv(t)
	if _, err := env.NewTrainer(split.ImageRF, 7, split.IdealLink{}); err == nil {
		t.Fatal("non-dividing pooling accepted")
	}
}

// TestTrainStepAllocs pins a warm raw-codec training step of the
// headline scheme (Img+RF, one-pixel pooling, over the paper's
// simulated channel) on ONE tensor worker, where its allocations are
// its fan-outs' closures plus what DESIGN.md §6 lists beside them,
// whatever the CPU count. Pooled scratch makes the count meaningless
// under the race detector, whose sync.Pool drops Puts.
func TestTrainStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	defer tensor.SetWorkers(tensor.Workers())
	tensor.SetWorkers(1)
	env, err := NewEnv(Scale{
		Frames: 1500, TrainFrac: 0.75, MaxEpochs: 3,
		StepsPerEpoch: 20, ValBatch: 96, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := env.NewTrainer(split.ImageRF, 40, split.NewPaperSimLink(9))
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		if _, err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	}
	step() // warm the scratch buffers
	if n := testing.AllocsPerRun(20, step); n > 12 {
		t.Fatalf("a training step allocates %.0f times on one worker, want ≤ 12", n)
	}
}
