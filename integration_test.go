package repro

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/online"
	"repro/internal/radio"
	"repro/internal/split"
	"repro/internal/store"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Integration tests: cross-module flows a downstream user would run,
// end to end, at a scale suitable for CI.

func integrationScale() experiments.Scale {
	return experiments.Scale{
		Frames:        900,
		TrainFrac:     0.7,
		MaxEpochs:     2,
		StepsPerEpoch: 10,
		ValBatch:      64,
		Seed:          4242,
	}
}

// TestIntegrationTrainCheckpointStream is the full deployment lifecycle:
// train over the lossy channel → checkpoint → restore into a fresh
// process-like model → stream online predictions → sanity-check stats.
func TestIntegrationTrainCheckpointStream(t *testing.T) {
	env, err := experiments.NewEnv(integrationScale())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := env.NewTrainer(split.ImageRF, 40, split.NewPaperSimLink(9))
	if err != nil {
		t.Fatal(err)
	}
	curve, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) == 0 || tr.Clock.Seconds() <= 0 {
		t.Fatal("training produced no curve or no virtual time")
	}

	// Checkpoint → restore.
	var ckpt bytes.Buffer
	if err := split.SaveCheckpoint(&ckpt, tr.Model); err != nil {
		t.Fatal(err)
	}
	cfg := tr.Model.Cfg
	cfg.Seed = 777 // a different init that the checkpoint must overwrite
	restored, err := split.NewModel(cfg, env.Data, env.Norm)
	if err != nil {
		t.Fatal(err)
	}
	if err := split.LoadCheckpoint(&ckpt, restored); err != nil {
		t.Fatal(err)
	}
	if !split.ParamsEqual(tr.Model, restored) {
		t.Fatal("restored model differs from trained model")
	}

	// Stream the restored model online over the paper uplink.
	ch := channel.MustNew(radio.PaperUplink(), radio.PaperSlotSeconds,
		rand.New(rand.NewSource(11)))
	first := env.Split.Val[0]
	res, err := online.Stream(restored, env.Data, ch, online.DefaultConfig(), first, first+80)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Outages != 0 {
		t.Fatalf("paper-parameter streaming had %d outages", res.Stats.Outages)
	}
	if res.Stats.RMSEdB <= 0 || math.IsNaN(res.Stats.RMSEdB) {
		t.Fatalf("streaming RMSE = %g", res.Stats.RMSEdB)
	}

	// The streamed predictions must match the batch API (no outages ⇒
	// identical inputs).
	batch := restored.PredictAnchors(res.Anchors)
	for i := range batch {
		if math.Abs(batch[i]-res.PredDBm[i]) > 1e-9 {
			t.Fatalf("anchor %d: stream %g vs batch %g", res.Anchors[i], res.PredDBm[i], batch[i])
		}
	}
}

// TestIntegrationDatasetFileFlow exercises the CLI's dataset path:
// generate → save → load → train on the loaded copy.
func TestIntegrationDatasetFileFlow(t *testing.T) {
	gen := dataset.DefaultGenConfig()
	gen.NumFrames = 600
	gen.Seed = 5
	d, err := dataset.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/ds.mmsl"
	if err := dataset.Save(path, d); err != nil {
		t.Fatal(err)
	}
	loaded, err := dataset.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	env, err := experiments.NewEnvFromDataset(integrationScale(), loaded)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := env.NewTrainer(split.RFOnly, 1, split.IdealLink{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step(); err != nil {
		t.Fatal(err)
	}
}

// TestIntegrationProtocolRobustness floods ReadMessage with mutated
// frames: it must never panic, and every mutation of a valid frame must
// either fail or decode to a structurally valid message.
func TestIntegrationProtocolRobustness(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	base := &transport.Message{
		Type:    transport.MsgActivations,
		Step:    3,
		Anchors: []int32{5, 9},
		Tensor:  tensor.Randn(rng, 1, 2, 3),
	}
	var buf bytes.Buffer
	if err := transport.WriteMessage(&buf, base); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()

	for trial := 0; trial < 2000; trial++ {
		mutated := append([]byte(nil), pristine...)
		// 1–3 random byte mutations.
		for m := 0; m <= rng.Intn(3); m++ {
			mutated[rng.Intn(len(mutated))] ^= byte(1 + rng.Intn(255))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("mutation panicked: %v", r)
				}
			}()
			msg, err := transport.ReadMessage(bytes.NewReader(mutated))
			if err != nil {
				return // rejection is the expected outcome
			}
			// CRC collisions are possible in principle; a decoded message
			// must still be structurally sane.
			if msg.Tensor != nil && msg.Tensor.Size() > 1<<28 {
				t.Fatal("decoded mutant with absurd tensor")
			}
		}()
	}
}

// multiUESessionEnv provisions test-scale session environments for the
// multi-UE integration test: each hello gets its own small dataset and
// config derived from its seed, like the production SessionEnv but sized
// for CI.
func multiUESessionEnv(h transport.Hello) (split.Config, *dataset.Dataset, *dataset.Split, error) {
	gen := dataset.DefaultGenConfig()
	gen.NumFrames = int(h.Frames)
	gen.Seed = h.Seed
	gen.Scene.ImageH, gen.Scene.ImageW = 8, 8
	gen.Scene.FocalPixels = 5
	d, err := dataset.Generate(gen)
	if err != nil {
		return split.Config{}, nil, nil, err
	}
	cfg := split.DefaultConfig(split.Modality(h.Modality), int(h.Pool))
	cfg.Seed = h.Seed
	cfg.SeqLen = 2
	cfg.HorizonFrames = 2
	cfg.BatchSize = 4
	cfg.HiddenSize = 6
	sp, err := dataset.NewSplit(d, cfg.SeqLen, cfg.HorizonFrames, d.Len()*3/4)
	if err != nil {
		return split.Config{}, nil, nil, err
	}
	return cfg, d, sp, nil
}

// runMultiUESessions trains n test-scale UEs (distinct seeds, hence
// distinct datasets and model halves) concurrently against srv over
// net.Pipe with the given payload codec, failing tb on any session or
// UE error. Shared by the integration tests and the multi-UE benchmarks.
func runMultiUESessions(tb testing.TB, srv *transport.BSServer, n int, codec compress.ID) {
	tb.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, 2*n)
	for i := 0; i < n; i++ {
		h := transport.Hello{
			SessionID: fmt.Sprintf("ue-%d", i),
			Seed:      int64(100 + i),
			Frames:    200,
			Pool:      4,
			Modality:  uint8(split.ImageRF),
			Codec:     uint8(codec),
		}
		cfg, d, _, err := multiUESessionEnv(h)
		if err != nil {
			tb.Fatal(err)
		}
		cfg.Codec = codec
		h.ConfigFP = cfg.Fingerprint()
		ueConn, bsConn := net.Pipe()
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := srv.Handle(bsConn); err != nil {
				errs <- fmt.Errorf("BS %s: %w", h.SessionID, err)
			}
		}()
		go func() {
			defer wg.Done()
			if err := transport.ServeUE(ueConn, h, cfg, d); err != nil {
				errs <- fmt.Errorf("UE %s: %w", h.SessionID, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		tb.Error(err)
	}
}

// TestIntegrationMultiUESessions is the multi-UE deployment flow end to
// end: one BSServer, three UEs with distinct seeds joining concurrently
// over net.Pipe, each running the session-hello handshake, training,
// periodic evaluation and detach. Every session must converge: its
// validation RMSE after the last evaluation must improve on its first.
func TestIntegrationMultiUESessions(t *testing.T) {
	const nUE, steps = 3, 60
	srv, err := transport.NewBSServer(transport.ServerConfig{
		MaxUE: nUE,
		Steps: steps, EvalEvery: 15, ValAnchors: 24,
		Provision: multiUESessionEnv,
	})
	if err != nil {
		t.Fatal(err)
	}
	runMultiUESessions(t, srv, nUE, compress.CodecRaw)

	snaps := srv.Sessions()
	if len(snaps) != nUE {
		t.Fatalf("got %d sessions, want %d", len(snaps), nUE)
	}
	for _, s := range snaps {
		if s.State != transport.SessionDetached {
			t.Errorf("session %s: state %v (err %q), want detached", s.ID, s.State, s.Err)
			continue
		}
		if s.Steps != steps {
			t.Errorf("session %s: %d steps, want %d", s.ID, s.Steps, steps)
		}
		hist := s.Metrics.ValRMSE.Values
		if len(hist) < 2 {
			t.Errorf("session %s: only %d evaluations", s.ID, len(hist))
			continue
		}
		first, last := hist[0], hist[len(hist)-1]
		if !(last > 0) || last >= first {
			t.Errorf("session %s did not converge: val RMSE %.3f → %.3f dB", s.ID, first, last)
		}
		if s.BytesIn == 0 || s.BytesOut == 0 {
			t.Errorf("session %s: no wire traffic counted", s.ID)
		}
	}
}

// TestIntegrationMultiUECodecPayload is the codec subsystem's headline
// guarantee, measured end to end through the multi-UE server: with the
// same seed (hence identical dataset and initial parameters), a session
// negotiating the int8 codec must move ≥ 60% fewer uplink wire bytes
// than a raw session while finishing with a validation RMSE within 10%
// of it.
func TestIntegrationMultiUECodecPayload(t *testing.T) {
	run := func(codec compress.ID) transport.SessionSnapshot {
		srv, err := transport.NewBSServer(transport.ServerConfig{
			MaxUE: 1,
			Steps: 60, EvalEvery: 15, ValAnchors: 24,
			Provision: multiUESessionEnv,
		})
		if err != nil {
			t.Fatal(err)
		}
		h := transport.Hello{
			SessionID: "ue-codec",
			Seed:      424,
			Frames:    200,
			Pool:      4,
			Modality:  uint8(split.ImageRF),
			Codec:     uint8(codec),
		}
		cfg, d, _, err := multiUESessionEnv(h)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Codec = codec
		h.ConfigFP = cfg.Fingerprint()
		ueConn, bsConn := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- srv.Handle(bsConn) }()
		if err := transport.ServeUE(ueConn, h, cfg, d); err != nil {
			t.Fatalf("%v UE: %v", codec, err)
		}
		if err := <-done; err != nil {
			t.Fatalf("%v BS: %v", codec, err)
		}
		snaps := srv.Sessions()
		if len(snaps) != 1 || snaps[0].State != transport.SessionDetached {
			t.Fatalf("%v session did not detach: %+v", codec, snaps)
		}
		return snaps[0]
	}

	raw := run(compress.CodecRaw)
	q8 := run(compress.CodecQuantInt8)

	// BytesIn at the BS is the uplink: the handshake plus every
	// activations frame the UE sent, as counted on the wire.
	if q8.BytesIn > raw.BytesIn*4/10 {
		t.Errorf("int8 uplink %d bytes > 40%% of raw %d — less than the promised 60%% reduction",
			q8.BytesIn, raw.BytesIn)
	}
	if raw.LastRMSE <= 0 || q8.LastRMSE <= 0 {
		t.Fatalf("degenerate RMSEs: raw %g, int8 %g", raw.LastRMSE, q8.LastRMSE)
	}
	if diff := math.Abs(q8.LastRMSE - raw.LastRMSE); diff > 0.1*raw.LastRMSE {
		t.Errorf("int8 val RMSE %.3f dB drifts more than 10%% from raw %.3f dB",
			q8.LastRMSE, raw.LastRMSE)
	}
}

// TestIntegrationMultiUEFaultInjection is the fault-tolerant serving
// flow end to end: several UEs train concurrently against one
// checkpointing BSServer while one UE's link is cut mid-training
// (truncating a frame on the wire). The victim reconnects with capped
// backoff, resumes from the last checkpoint, and must converge to
// exactly the validation RMSE of an identical session that was never
// interrupted. MMSL_FAULT=1 (the CI fault-injection step) widens the
// sweep: more UEs and repeated cuts on the victim's link.
func TestIntegrationMultiUEFaultInjection(t *testing.T) {
	nUE, drops := 3, 1
	if os.Getenv("MMSL_FAULT") != "" {
		nUE, drops = 5, 3
	}
	const steps = 60

	newServer := func() *transport.BSServer {
		j, err := store.OpenJournal(filepath.Join(t.TempDir(), "store.journal"), store.JournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { j.Close() })
		srv, err := transport.NewBSServer(transport.ServerConfig{
			MaxUE: nUE,
			Steps: steps, EvalEvery: 15, ValAnchors: 24,
			Provision: multiUESessionEnv,
			Store:     j, CheckpointEvery: 5,
			IdleTimeout: 30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}

	// runSession drives one UESession to completion; dials [0, drops)
	// are cut after cutBytes of uplink.
	runSession := func(srv *transport.BSServer, i int, cutBytes int64, nDrops int) (*transport.UESession, error) {
		h := transport.Hello{
			SessionID: fmt.Sprintf("ue-%d", i),
			Seed:      int64(100 + i),
			Frames:    200,
			Pool:      4,
			Modality:  uint8(split.ImageRF),
		}
		cfg, d, _, err := multiUESessionEnv(h)
		if err != nil {
			t.Fatal(err)
		}
		us := &transport.UESession{
			Hello: h, Cfg: cfg, Data: d,
			Backoff: transport.Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond, Retries: nDrops + 3},
		}
		var wg sync.WaitGroup
		dials := 0
		err = us.Run(func() (io.ReadWriteCloser, error) {
			ueConn, bsConn := net.Pipe()
			wg.Add(1)
			go func() { defer wg.Done(); _ = srv.Handle(bsConn) }()
			dials++
			if cutBytes > 0 && dials <= nDrops {
				return transport.NewFaultConn(ueConn, -1, cutBytes), nil
			}
			return ueConn, nil
		})
		wg.Wait()
		return us, err
	}

	srv := newServer()
	sessions := make([]*transport.UESession, nUE)
	errs := make([]error, nUE)
	var wg sync.WaitGroup
	for i := 0; i < nUE; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cut := int64(0)
			if i == 0 {
				cut = 3500 // sever mid-activations-frame, past the first checkpoint
			}
			sessions[i], errs[i] = runSession(srv, i, cut, drops)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("ue-%d: %v", i, err)
		}
	}
	if got := sessions[0].Resumes(); got < 1 {
		t.Fatalf("victim UE resumed %d times, want ≥ 1", got)
	}
	if live := srv.ActiveSessions(); live != 0 {
		t.Fatalf("%d sessions still live", live)
	}

	// Every session id's final incarnation detached after the full
	// schedule with a sane, converging RMSE.
	finals := map[string]transport.SessionSnapshot{}
	for _, s := range srv.Sessions() {
		finals[s.ID] = s // join order: the last snapshot per id wins
	}
	if len(finals) != nUE {
		t.Fatalf("%d distinct sessions, want %d", len(finals), nUE)
	}
	for id, s := range finals {
		if s.State != transport.SessionDetached {
			t.Errorf("%s: state %v (err %q), want detached", id, s.State, s.Err)
			continue
		}
		if s.Steps != steps {
			t.Errorf("%s: %d steps, want %d", id, s.Steps, steps)
		}
		if !(s.LastRMSE > 0 && s.LastRMSE < 100) {
			t.Errorf("%s: final RMSE %g dB out of range", id, s.LastRMSE)
		}
	}

	// Determinism across the fault: an identical session that was never
	// interrupted finishes at the bit-identical validation RMSE.
	cleanSrv := newServer()
	clean, err := runSession(cleanSrv, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Resumes() != 0 {
		t.Fatal("clean reference session resumed")
	}
	cleanFinal := cleanSrv.Sessions()[0]
	if got, want := finals["ue-0"].LastRMSE, cleanFinal.LastRMSE; got != want {
		t.Fatalf("resumed session RMSE %v != uninterrupted %v — resume changed the mathematics", got, want)
	}
}

// TestIntegrationSeedReproducibility re-runs a full quick experiment and
// demands bit-identical learning curves.
func TestIntegrationSeedReproducibility(t *testing.T) {
	run := func() []float64 {
		env, err := experiments.NewEnv(integrationScale())
		if err != nil {
			t.Fatal(err)
		}
		tr, err := env.NewTrainer(split.ImageRF, 40, split.NewPaperSimLink(13))
		if err != nil {
			t.Fatal(err)
		}
		curve, err := tr.Run()
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 0, 2*len(curve.Points))
		for _, p := range curve.Points {
			out = append(out, p.TimeS, p.RMSEdB)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("curve lengths differ between identical runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("value %d differs: %g vs %g", i, a[i], b[i])
		}
	}
}
