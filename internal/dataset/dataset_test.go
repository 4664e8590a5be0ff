package dataset

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/scene"
)

// smallGen returns a fast small-scale generation config for tests.
func smallGen(seed int64, frames int) GenConfig {
	cfg := DefaultGenConfig()
	cfg.NumFrames = frames
	cfg.Seed = seed
	return cfg
}

func TestPaperHorizonFrames(t *testing.T) {
	// round(120 ms / 33 ms) = 4 frames.
	if got := PaperHorizonFrames(); got != 4 {
		t.Fatalf("horizon = %d frames, want 4", got)
	}
}

func TestGenerateShapes(t *testing.T) {
	d, err := Generate(smallGen(1, 300))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 300 {
		t.Fatalf("K = %d, want 300", d.Len())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(d.Image(0)); got != 1600 {
		t.Fatalf("image size = %d px, want 1600", got)
	}
	if math.Abs(d.TimeOf(100)-3.3) > 1e-9 {
		t.Fatalf("TimeOf(100) = %g, want 3.3", d.TimeOf(100))
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	cfg := smallGen(1, 0)
	if _, err := Generate(cfg); err == nil {
		t.Fatal("zero frames accepted")
	}
	cfg = smallGen(1, 10)
	cfg.Scene.ImageH = -1
	if _, err := Generate(cfg); err == nil {
		t.Fatal("bad scene config accepted")
	}
}

func TestGeneratePowersInPlausibleRange(t *testing.T) {
	d, err := Generate(smallGen(2, 2000))
	if err != nil {
		t.Fatal(err)
	}
	min, max := math.Inf(1), math.Inf(-1)
	for _, p := range d.Powers {
		if p < min {
			min = p
		}
		if p > max {
			max = p
		}
	}
	// Fig. 3b's dynamic range: LoS near -20 dBm, deep blockage near -45.
	if max > -15 || max < -25 {
		t.Fatalf("max power = %g dBm, want ≈ -20", max)
	}
	if min > -30 {
		t.Fatalf("min power = %g dBm; no blockage events in 66 s?", min)
	}
}

func TestGenerateContainsBlockageEvents(t *testing.T) {
	d, err := Generate(smallGen(3, 2000))
	if err != nil {
		t.Fatal(err)
	}
	// Count transitions below -30 dBm (non-LoS episodes).
	events := 0
	inEvent := false
	for _, p := range d.Powers {
		if p < -30 && !inEvent {
			events++
			inEvent = true
		} else if p > -25 {
			inEvent = false
		}
	}
	// 66 s with a 4 s mean inter-arrival and a 2 m crossing band over a
	// 4 m link: expect several distinct blockage episodes.
	if events < 3 {
		t.Fatalf("only %d blockage events in 66 s", events)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallGen(7, 100))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallGen(7, 100))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Powers {
		if a.Powers[i] != b.Powers[i] {
			t.Fatalf("power %d differs under same seed", i)
		}
	}
	for i := range a.Images {
		if a.Images[i] != b.Images[i] {
			t.Fatalf("pixel %d differs under same seed", i)
		}
	}
}

// TestGenerateGolden: a 240-frame Generate lands on the images and powers
// of commit db4b7ff, where each frame was rendered into a fresh slice and
// copied, by FNV-1a over their Float64bits (the same under
// GODEBUG=cpu.fma=off there).
func TestGenerateGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden recorded on amd64; other targets may fuse multiply-adds")
	}
	d, err := Generate(smallGen(7, 240))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		values []float64
		want   uint64
	}{{"images", d.Images, 0x40e5e1caf26a6f4b}, {"powers", d.Powers, 0x51875dd89409cf76}} {
		h := fnv.New64a()
		var b [8]byte
		for _, v := range c.values {
			binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s hash %#x, want %#x", c.name, got, c.want)
		}
	}
}

// TestGenerateRendersInPlace: Generate renders every frame straight into
// its image slice. At 2400 frames it allocates its two output slices and
// at most 64 KB and 120 objects besides (the scene's random sources, one
// object per pedestrian that arrives, the walker lists' growth), where a
// fresh frame and walker list per frame took 31 MB and 6280 objects more.
func TestGenerateRendersInPlace(t *testing.T) {
	const frames = 2400
	cfg := smallGen(7, frames)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := Generate(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	outputs := uint64(8 * (len(d.Images) + len(d.Powers)))
	if extra := after.TotalAlloc - before.TotalAlloc - outputs; extra > 64<<10 {
		t.Errorf("Generate of %d frames allocated %d bytes beyond its outputs, want ≤ 64 KB", frames, extra)
	}
	if objs := after.Mallocs - before.Mallocs; objs > frames/20 {
		t.Errorf("Generate of %d frames allocated %d objects, want ≤ %d", frames, objs, frames/20)
	}
}

func TestNewSplitPaperIndices(t *testing.T) {
	d := &Dataset{H: 1, W: 1, FramePeriodS: PaperFramePeriodS,
		Powers: make([]float64, PaperNumFrames),
		Images: make([]float64, PaperNumFrames)}
	sp, err := PaperSplit(d)
	if err != nil {
		t.Fatal(err)
	}
	// First usable index is L-1 = 3 (0-based anchor of {k-3..k}).
	if sp.Train[0] != PaperSeqLen-1 {
		t.Fatalf("first train index = %d, want %d", sp.Train[0], PaperSeqLen-1)
	}
	if last := sp.Train[len(sp.Train)-1]; last != PaperTrainEndIndex {
		t.Fatalf("last train index = %d, want %d", last, PaperTrainEndIndex)
	}
	if sp.Val[0] != PaperTrainEndIndex+1 {
		t.Fatalf("first val index = %d", sp.Val[0])
	}
	// Targets must stay in range: the last anchor is K-1-horizon.
	if last := sp.Val[len(sp.Val)-1]; last != PaperNumFrames-1-PaperHorizonFrames() {
		t.Fatalf("last val index = %d", last)
	}
}

func TestNewSplitRejectsDegenerate(t *testing.T) {
	d := &Dataset{H: 1, W: 1, FramePeriodS: 0.033,
		Powers: make([]float64, 10), Images: make([]float64, 10)}
	if _, err := NewSplit(d, 4, 4, 20); err == nil {
		t.Fatal("trainEnd beyond series accepted")
	}
	if _, err := NewSplit(d, 0, 4, 5); err == nil {
		t.Fatal("zero seqLen accepted")
	}
	if _, err := NewSplit(d, 4, 4, 9); err == nil {
		t.Fatal("empty validation set accepted")
	}
}

func TestSamplerUniform(t *testing.T) {
	idx := []int{10, 20, 30, 40}
	s := NewSampler(idx, rand.New(rand.NewSource(1)))
	counts := map[int]int{}
	const draws = 40000
	for _, k := range s.Batch(draws) {
		counts[k]++
	}
	for _, want := range idx {
		got := counts[want]
		if got < draws/8 || got > draws/2 {
			t.Fatalf("index %d drawn %d of %d times; not uniform", want, got, draws)
		}
	}
	if len(counts) != len(idx) {
		t.Fatalf("sampler drew %d distinct indices, want %d", len(counts), len(idx))
	}
}

func TestNormalizerRoundTrip(t *testing.T) {
	d, err := Generate(smallGen(4, 500))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSplit(d, 4, 4, 350)
	if err != nil {
		t.Fatal(err)
	}
	n := FitNormalizer(d, sp.Train)
	if n.StdDBm <= 0 {
		t.Fatalf("std = %g", n.StdDBm)
	}
	for _, p := range []float64{-45, -20, -33.3} {
		if got := n.Denormalize(n.Normalize(p)); math.Abs(got-p) > 1e-9 {
			t.Fatalf("round trip %g -> %g", p, got)
		}
	}
	// Normalised training powers should have ≈ zero mean, unit variance.
	var sum, sumSq float64
	for _, k := range sp.Train {
		v := n.Normalize(d.Powers[k])
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(len(sp.Train))
	variance := sumSq/float64(len(sp.Train)) - mean*mean
	if math.Abs(mean) > 1e-9 || math.Abs(variance-1) > 1e-6 {
		t.Fatalf("normalised stats: mean=%g var=%g", mean, variance)
	}
}

func TestNormalizerDegenerateStd(t *testing.T) {
	d := &Dataset{H: 1, W: 1, FramePeriodS: 0.033,
		Powers: []float64{-20, -20, -20}, Images: make([]float64, 3)}
	n := FitNormalizer(d, []int{0, 1, 2})
	if n.StdDBm != 1 {
		t.Fatalf("degenerate std = %g, want fallback 1", n.StdDBm)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d, err := Generate(smallGen(5, 120))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() || got.H != d.H || got.W != d.W {
		t.Fatalf("header mismatch: %dx%d K=%d", got.H, got.W, got.Len())
	}
	for i := range d.Powers {
		if got.Powers[i] != d.Powers[i] {
			t.Fatalf("power %d: %g != %g", i, got.Powers[i], d.Powers[i])
		}
	}
	// Pixels are 16-bit quantised: error bounded by 1/65535.
	for i := range d.Images {
		if math.Abs(got.Images[i]-d.Images[i]) > 1.0/65535+1e-12 {
			t.Fatalf("pixel %d: %g != %g", i, got.Images[i], d.Images[i])
		}
	}
}

func TestReadRejectsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	d, err := Generate(smallGen(6, 10))
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	// Corrupt the magic.
	data := buf.Bytes()
	data[0] = 'X'
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Truncated stream.
	if _, err := Read(bytes.NewReader(data[:40])); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

func TestSceneConfigReusedInGenerate(t *testing.T) {
	cfg := smallGen(8, 50)
	cfg.Scene.ImageH, cfg.Scene.ImageW = 20, 30
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.H != 20 || d.W != 30 {
		t.Fatalf("dataset size %dx%d, want 20x30", d.H, d.W)
	}
	_ = scene.DefaultConfig() // keep import for symmetric extension
}
