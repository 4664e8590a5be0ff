// Benchmarks regenerating every table and figure of the paper, one per
// artefact, plus ablations and micro-benchmarks of the hot substrates.
//
//	go test -bench=. -benchmem
//
// Artefact benches print the reproduced rows/series once (first
// iteration) via b.Log; run with -v to see them. Absolute timings are
// hardware-specific; the reproduced *values* are deterministic.
package repro

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/channel"
	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/mds"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/radio"
	"repro/internal/split"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/transport"
)

// benchScale is sized so every artefact bench completes an iteration in
// seconds while exercising the full 40×40-image pipeline.
func benchScale() experiments.Scale {
	return experiments.Scale{
		Frames:        1500,
		TrainFrac:     0.75,
		MaxEpochs:     3,
		StepsPerEpoch: 20,
		ValBatch:      96,
		Seed:          1,
	}
}

var (
	benchEnvOnce sync.Once
	benchEnvVal  *experiments.Env
	benchEnvErr  error
)

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnvVal, benchEnvErr = experiments.NewEnv(benchScale())
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnvVal
}

// ---- Table 1 -----------------------------------------------------------------

// BenchmarkTable1Success regenerates the success-probability row of
// Table 1 (the quantitatively calibrated artefact: 0.00 / 0.027 / 0.999 /
// 1.00 for poolings 1, 4, 10, 40).
func BenchmarkTable1Success(b *testing.B) {
	ul := channel.MustNew(radio.PaperUplink(), radio.PaperSlotSeconds,
		rand.New(rand.NewSource(1)))
	var logged bool
	for i := 0; i < b.N; i++ {
		var row string
		for _, pool := range experiments.Table1Poolings() {
			bits := channel.PaperUplinkPayloadBits(40, 40, 64, 32, 4, pool, pool)
			row += fmt.Sprintf("  %dx%d: %.4g", pool, pool, ul.SuccessProbability(bits))
		}
		if !logged {
			b.Log("Table 1 success probability:" + row)
			logged = true
		}
	}
}

// BenchmarkTable1Privacy regenerates the privacy-leakage row of Table 1
// (MDS similarity between raw images and transmitted CNN outputs).
func BenchmarkTable1Privacy(b *testing.B) {
	env := benchEnv(b)
	cfg := experiments.Table1Config{LeakageSamples: 32, TrainEpochs: 0, MCTrials: 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable1(env, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var row string
			for _, r := range res.Rows {
				row += fmt.Sprintf("  %dx%d: %.3f", r.Pool, r.Pool, r.Leakage)
			}
			b.Log("Table 1 privacy leakage:" + row)
		}
	}
}

// ---- Fig. 2 ------------------------------------------------------------------

// BenchmarkFig2Render regenerates Fig. 2: raw depth frames and the CNN
// output images at poolings 1×1, 4×4 and 40×40.
func BenchmarkFig2Render(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig2(env, 2)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("Fig. 2: %d sample frames × %d panels (raw, 1×1, 4×4, 40×40)",
				len(res.Frames), len(res.Frames[0]))
		}
	}
}

// ---- Fig. 3a -----------------------------------------------------------------

// BenchmarkFig3aSchemes regenerates Fig. 3a: the five learning curves of
// validation RMSE against virtual elapsed time over the paper's channel.
func BenchmarkFig3aSchemes(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3a(env)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, c := range res.Curves {
				last := c.Points[len(c.Points)-1]
				b.Logf("Fig. 3a %-30s t=%6.1fs rmse=%.2f dB", c.Scheme, last.TimeS, last.RMSEdB)
			}
		}
	}
}

// ---- Fig. 3b -----------------------------------------------------------------

// BenchmarkFig3bPredict regenerates Fig. 3b: predicted vs ground-truth
// received power over a validation window containing a LoS→non-LoS
// transition.
func BenchmarkFig3bPredict(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3b(env, 60)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var buf bytes.Buffer
			if err := res.Trace.WriteCSV(&buf); err != nil {
				b.Fatal(err)
			}
			b.Logf("Fig. 3b: %d rows × %d schemes (CSV %d bytes)",
				len(res.Trace.TimeS), len(res.Trace.Series), buf.Len())
		}
	}
}

// ---- Ablations (DESIGN.md A1–A3 + pooling sweep) -----------------------------

// BenchmarkAblationBitDepth sweeps the payload bit depth R.
func BenchmarkAblationBitDepth(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.RunAblationBitDepth(env)
		if i == 0 {
			logAblation(b, res)
		}
	}
}

// BenchmarkAblationBatch sweeps the mini-batch size B.
func BenchmarkAblationBatch(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.RunAblationBatch(env)
		if i == 0 {
			logAblation(b, res)
		}
	}
}

// BenchmarkAblationSeqLen sweeps the RNN context length L.
func BenchmarkAblationSeqLen(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.RunAblationSeqLen(env)
		if i == 0 {
			logAblation(b, res)
		}
	}
}

// BenchmarkAblationPooling sweeps every pooling that divides the image.
func BenchmarkAblationPooling(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.RunAblationPoolingSweep(env)
		if i == 0 {
			logAblation(b, res)
		}
	}
}

func logAblation(b *testing.B, res *experiments.AblationResult) {
	b.Helper()
	for _, r := range res.Rows {
		b.Logf("%s %-8s payload=%9d bits  p=%.4g  E[delay]=%.4gs",
			res.Name, r.Setting, r.PayloadBits, r.Success, r.DelayPerStepS)
	}
}

// ---- substrate micro-benchmarks ----------------------------------------------

// BenchmarkConvForward measures the UE CNN's convolution on one paper
// mini-batch (B·L = 256 images of 40×40).
func BenchmarkConvForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.Randn(rng, 1, 256, 1, 40, 40)
	k := tensor.Randn(rng, 0.3, 1, 1, 3, 3)
	bias := []float64{0.1}
	spec := tensor.Conv2DSpec{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tensor.Conv2D(x, k, bias, spec)
	}
}

// BenchmarkConvBackward measures the convolution's gradient computation.
func BenchmarkConvBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := tensor.Randn(rng, 1, 256, 1, 40, 40)
	k := tensor.Randn(rng, 0.3, 1, 1, 3, 3)
	spec := tensor.Conv2DSpec{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	out := tensor.Conv2D(x, k, nil, spec)
	grad := tensor.Ones(out.Shape()...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = tensor.Conv2DBackward(x, k, grad, spec)
	}
}

// BenchmarkLSTMForward measures the BS-side LSTM on a paper mini-batch
// (64 sequences of length 4, 4×4-pooling input width 101).
func BenchmarkLSTMForward(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	l := nn.NewLSTM(rng, 101, 32)
	x := tensor.Randn(rng, 1, 64, 4, 101)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.Forward(x)
	}
}

// BenchmarkLSTMBackward measures BPTT on the same batch.
func BenchmarkLSTMBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	l := nn.NewLSTM(rng, 101, 32)
	x := tensor.Randn(rng, 1, 64, 4, 101)
	h := l.Forward(x)
	grad := tensor.Ones(h.Shape()...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Forward(x) // refresh caches: Backward consumes the latest Forward
		_ = l.Backward(grad)
	}
}

// BenchmarkChannelTransmit measures simulated delivery of the 4×4-pooling
// payload (the slowest feasible scheme: E[slots] ≈ 37).
func BenchmarkChannelTransmit(b *testing.B) {
	ch := channel.MustNew(radio.PaperUplink(), radio.PaperSlotSeconds,
		rand.New(rand.NewSource(5)))
	bits := channel.PaperUplinkPayloadBits(40, 40, 64, 32, 4, 4, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ch.Transmit(bits); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatasetGenerate measures synthetic scene generation throughput
// (frames rendered + power sampled).
func BenchmarkDatasetGenerate(b *testing.B) {
	cfg := dataset.DefaultGenConfig()
	cfg.NumFrames = 300
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := dataset.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMDSLeakage measures the privacy metric on 32 image pairs.
func BenchmarkMDSLeakage(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	n, dim := 32, 1600
	raw := make([][]float64, n)
	feat := make([][]float64, n)
	for i := range raw {
		r := make([]float64, dim)
		f := make([]float64, dim)
		for j := range r {
			r[j] = rng.Float64()
			f[j] = 0.5*r[j] + 0.5*rng.Float64()
		}
		raw[i], feat[i] = r, f
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mds.PrivacyLeakage(raw, feat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtocolRoundTrip measures encoding + decoding of a 1-pixel
// activations message (the per-step wire cost of the headline scheme).
func BenchmarkProtocolRoundTrip(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	msg := &transport.Message{
		Type:   transport.MsgActivations,
		Step:   1,
		Tensor: tensor.Randn(rng, 1, 256, 1, 1, 1),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := transport.WriteMessage(&buf, msg); err != nil {
			b.Fatal(err)
		}
		if _, err := transport.ReadMessage(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHandshakeRoundTrip measures encoding + decoding of the
// session-hello/ack pair — the fixed per-UE join cost of the multi-UE
// server.
func BenchmarkHandshakeRoundTrip(b *testing.B) {
	hello := &transport.Message{Type: transport.MsgSessionHello, Hello: &transport.Hello{
		Version: transport.ProtocolVersion, SessionID: "ue-benchmark",
		Seed: 42, Frames: 2400, Pool: 40, Modality: uint8(split.ImageRF),
		ConfigFP: 0x1234567890ABCDEF,
	}}
	ack := &transport.Message{Type: transport.MsgSessionAck, Hello: &transport.Hello{
		Version: transport.ProtocolVersion, SessionID: "ue-benchmark",
		ConfigFP: 0x1234567890ABCDEF,
	}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		for _, m := range []*transport.Message{hello, ack} {
			if err := transport.WriteMessage(&buf, m); err != nil {
				b.Fatal(err)
			}
			if _, err := transport.ReadMessage(&buf); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMultiUEServer4Sessions measures a complete 4-UE server cycle —
// handshakes, concurrent training, evaluations, detach — at test scale
// over net.Pipe, the end-to-end cost the multi-UE base station adds on
// top of single-session training.
func BenchmarkMultiUEServer4Sessions(b *testing.B) {
	const nUE = 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv, err := transport.NewBSServer(transport.ServerConfig{
			MaxUE: nUE,
			Steps: 10, EvalEvery: 5, ValAnchors: 16,
			Provision: multiUESessionEnv,
		})
		if err != nil {
			b.Fatal(err)
		}
		runMultiUESessions(b, srv, nUE, compress.CodecRaw)
	}
}

// BenchmarkTrainStep1Pixel measures one full split training step of the
// headline scheme over the simulated channel.
func BenchmarkTrainStep1Pixel(b *testing.B) {
	env := benchEnv(b)
	tr, err := env.NewTrainer(split.ImageRF, 40, split.NewPaperSimLink(9))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainStepRFOnly measures the RF-only baseline's step cost.
func BenchmarkTrainStepRFOnly(b *testing.B) {
	env := benchEnv(b)
	tr, err := env.NewTrainer(split.RFOnly, 1, split.IdealLink{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCurveCSV measures figure serialisation (sanity: output path is
// never the bottleneck).
func BenchmarkCurveCSV(b *testing.B) {
	c := &trace.LearningCurve{Scheme: "Image+RF, 40×40 (1-pixel)"}
	for e := 1; e <= 100; e++ {
		c.Add(trace.CurvePoint{Epoch: e, TimeS: float64(e), RMSEdB: 5 - float64(e)/50})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := trace.WriteCurvesCSV(&buf, []*trace.LearningCurve{c}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGRUForward measures the GRU ablation core on the same batch
// as BenchmarkLSTMForward.
func BenchmarkGRUForward(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	g := nn.NewGRU(rng, 101, 32)
	x := tensor.Randn(rng, 1, 64, 4, 101)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Forward(x)
	}
}

// BenchmarkGRUBackward measures GRU BPTT.
func BenchmarkGRUBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	g := nn.NewGRU(rng, 101, 32)
	x := tensor.Randn(rng, 1, 64, 4, 101)
	h := g.Forward(x)
	grad := tensor.Ones(h.Shape()...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Forward(x)
		_ = g.Backward(grad)
	}
}

// BenchmarkTrainStepQuantized measures the 1-pixel scheme with 8-bit
// wire quantisation of the cut-layer tensors.
func BenchmarkTrainStepQuantized(b *testing.B) {
	env := benchEnv(b)
	cfg := env.SchemeConfig(split.ImageRF, 40)
	cfg.QuantizeWire = true
	cfg.BitDepth = tensor.Depth8
	tr, err := env.NewTrainerFromConfig(cfg, split.IdealLink{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventConditioned measures the Fig. 3b event-split metric over
// a 10k-sample trace.
func BenchmarkEventConditioned(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	n := 10000
	truth := make([]float64, n)
	pred := make([]float64, n)
	for i := range truth {
		truth[i] = -20
		if i%300 > 150 && i%300 < 180 {
			truth[i] = -45
		}
		pred[i] = truth[i] + rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metrics.EventConditioned(pred, truth, 8, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointSave measures model serialisation (1-pixel scheme).
func BenchmarkCheckpointSave(b *testing.B) {
	env := benchEnv(b)
	tr, err := env.NewTrainer(split.ImageRF, 40, split.IdealLink{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := split.SaveCheckpoint(&buf, tr.Model); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecEncode measures each payload codec's Encode on a
// paper-shaped cut tensor (one Img+RF mini-batch at 4×4 pooling:
// B·L = 256 maps of 10×10, 25,600 elements).
func BenchmarkCodecEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	cut := tensor.Randn(rng, 1, 256, 1, 10, 10)
	for _, id := range compress.IDs() {
		codec := compress.MustNew(id)
		b.Run(id.String(), func(b *testing.B) {
			b.ReportAllocs()
			var encodedBytes int
			for i := 0; i < b.N; i++ {
				enc, err := codec.Encode(cut)
				if err != nil {
					b.Fatal(err)
				}
				encodedBytes = len(enc)
			}
			b.ReportMetric(float64(encodedBytes), "wire-bytes")
		})
	}
}

// BenchmarkCodecDecode measures each codec's Decode on the same
// paper-shaped payload.
func BenchmarkCodecDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	cut := tensor.Randn(rng, 1, 256, 1, 10, 10)
	for _, id := range compress.IDs() {
		codec := compress.MustNew(id)
		enc, err := codec.Encode(cut)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(id.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := codec.Decode(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMultiUEWireBytesPerCodec runs a complete 2-UE server cycle
// per codec at test scale and reports the measured uplink wire bytes
// per session — the end-to-end compression the negotiated codec
// actually delivers through framing, handshake and all.
func BenchmarkMultiUEWireBytesPerCodec(b *testing.B) {
	for _, id := range compress.IDs() {
		b.Run(id.String(), func(b *testing.B) {
			var bytesIn int64
			for i := 0; i < b.N; i++ {
				srv, err := transport.NewBSServer(transport.ServerConfig{
					MaxUE: 2,
					Steps: 10, EvalEvery: 5, ValAnchors: 16,
					Provision: multiUESessionEnv,
				})
				if err != nil {
					b.Fatal(err)
				}
				runMultiUESessions(b, srv, 2, id)
				bytesIn = 0
				for _, s := range srv.Sessions() {
					bytesIn += s.BytesIn
				}
				bytesIn /= int64(len(srv.Sessions()))
			}
			b.ReportMetric(float64(bytesIn), "uplink-bytes/session")
		})
	}
}

// BenchmarkTrainStepCodec measures one in-process split training step
// of the 1-pixel scheme per payload codec (ideal link, so the codec's
// encode→decode round trip dominates the delta over raw).
func BenchmarkTrainStepCodec(b *testing.B) {
	env := benchEnv(b)
	for _, id := range compress.IDs() {
		cfg := env.SchemeConfig(split.ImageRF, 40)
		cfg.Codec = id
		tr, err := env.NewTrainerFromConfig(cfg, split.IdealLink{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(id.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tr.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCodecFrontier regenerates the codec × pooling frontier
// artefact at bench scale.
func BenchmarkCodecFrontier(b *testing.B) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunCodecFrontier(env, []int{10, 40}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range res.Rows {
				b.Logf("frontier %-8s pool=%2d bits=%8d rmse=%.2f dB", r.Codec, r.Pool, r.BitsPerStep, r.FinalRMSE)
			}
		}
	}
}

// BenchmarkNakagamiTransmit measures the generalised fading channel
// (m = 3) against the Rayleigh baseline of BenchmarkChannelTransmit.
func BenchmarkNakagamiTransmit(b *testing.B) {
	ch := channel.MustNewNakagami(radio.PaperUplink(), radio.PaperSlotSeconds, 3,
		rand.New(rand.NewSource(11)))
	bits := channel.PaperUplinkPayloadBits(40, 40, 64, 32, 4, 10, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ch.Transmit(bits); err != nil {
			b.Fatal(err)
		}
	}
}
