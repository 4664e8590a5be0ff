package transport

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/split"
	"repro/internal/tensor"
)

func TestMessageRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	msgs := []*Message{
		{Type: MsgShutdown},
		{Type: MsgBatchRequest, Step: 7, Anchors: []int32{3, 5, 8, 13}},
		{Type: MsgActivations, Step: 9, Tensor: tensor.Randn(rng, 1, 4, 1, 2, 2)},
		{Type: MsgCutGradient, Step: 9, Anchors: []int32{1}, Tensor: tensor.Randn(rng, 1, 2, 2)},
	}
	for _, m := range msgs {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("%v: %v", m.Type, err)
		}
		if got.Type != m.Type || got.Step != m.Step {
			t.Fatalf("header mismatch: %+v vs %+v", got, m)
		}
		if len(got.Anchors) != len(m.Anchors) {
			t.Fatalf("anchors %v vs %v", got.Anchors, m.Anchors)
		}
		for i := range m.Anchors {
			if got.Anchors[i] != m.Anchors[i] {
				t.Fatalf("anchor %d mismatch", i)
			}
		}
		if (got.Tensor == nil) != (m.Tensor == nil) {
			t.Fatal("tensor presence mismatch")
		}
		if m.Tensor != nil && tensor.MaxAbsDiff(got.Tensor, m.Tensor) != 0 {
			t.Fatal("tensor not lossless through protocol")
		}
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	f := func(step uint32, anchors []int32, vals []float64) bool {
		if len(anchors) > 1000 {
			anchors = anchors[:1000]
		}
		m := &Message{Type: MsgBatchRequest, Step: step, Anchors: anchors}
		if len(vals) > 0 {
			for i := range vals {
				if vals[i] != vals[i] { // NaN breaks equality comparison only
					vals[i] = 0
				}
			}
			m.Tensor = tensor.FromSlice(vals, len(vals))
		}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			return false
		}
		got, err := ReadMessage(&buf)
		if err != nil || got.Step != step || len(got.Anchors) != len(anchors) {
			return false
		}
		if m.Tensor != nil && tensor.MaxAbsDiff(got.Tensor, m.Tensor) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestHelloRoundTrip covers the session handshake messages end to end,
// including the empty-string and rejection-ack cases.
func TestHelloRoundTrip(t *testing.T) {
	hellos := []*Hello{
		{SessionID: "ue-7", Seed: 42, Frames: 2400,
			Pool: 40, Modality: 2, ConfigFP: 0xFEEDFACECAFEBEEF, TargetRMSEdB: 2.7},
		{SessionID: "a", Seed: -1},
		{SessionID: "ue-7", Err: "server full (8/8 UEs)"},
		{},
	}
	types := []MsgType{MsgSessionHello, MsgSessionAck}
	for i, h := range hellos {
		m := &Message{Type: types[i%2], Hello: h}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("hello %d: %v", i, err)
		}
		if got.Type != m.Type || got.Hello == nil {
			t.Fatalf("hello %d: decoded %+v", i, got)
		}
		if *got.Hello != *h {
			t.Fatalf("hello %d: %+v round-tripped to %+v", i, h, got.Hello)
		}
	}
}

func TestHelloRejectsOversizedStrings(t *testing.T) {
	long := make([]byte, 300)
	for i := range long {
		long[i] = 'x'
	}
	m := &Message{Type: MsgSessionHello, Hello: &Hello{SessionID: string(long)}}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized session id: err = %v, want ErrBadFrame", err)
	}
}

// TestReadRejectsNewerFrameVersion re-stamps a valid frame with every
// other protocol version, older or newer (fixing up the CRC), and
// expects a rejection naming the version.
func TestReadRejectsNewerFrameVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Message{Type: MsgBatchRequest, Step: 3, Anchors: []int32{7}}); err != nil {
		t.Fatal(err)
	}
	for _, version := range []byte{0, 1, 2, ProtocolVersion + 1} {
		frame := restamp(buf.Bytes(), version)
		_, err := ReadMessage(bytes.NewReader(frame))
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("version %d: err = %v, want ErrBadFrame", version, err)
		}
		if want := fmt.Sprintf("protocol version %d", version); !strings.Contains(err.Error(), want) {
			t.Fatalf("version %d: err %q does not name %q", version, err, want)
		}
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	m := &Message{Type: MsgBatchRequest, Step: 1, Anchors: []int32{1, 2}}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	pristine := append([]byte(nil), buf.Bytes()...)

	// Flip a payload byte: CRC must catch it.
	corrupt := append([]byte(nil), pristine...)
	corrupt[14] ^= 0xFF
	if _, err := ReadMessage(bytes.NewReader(corrupt)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("flipped byte: err = %v, want ErrChecksum", err)
	}

	// Break the magic.
	corrupt = append([]byte(nil), pristine...)
	corrupt[0] = 0
	if _, err := ReadMessage(bytes.NewReader(corrupt)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad magic: err = %v, want ErrBadFrame", err)
	}

	// Truncate.
	if _, err := ReadMessage(bytes.NewReader(pristine[:len(pristine)-2])); err == nil {
		t.Fatal("truncated frame accepted")
	}

	// Absurd length field.
	corrupt = append([]byte(nil), pristine...)
	corrupt[8], corrupt[9], corrupt[10], corrupt[11] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := ReadMessage(bytes.NewReader(corrupt)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("giant length: err = %v, want ErrBadFrame", err)
	}
}

// tinyDataset mirrors the split package's test helper.
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

func tinyConfig(m split.Modality, pool int) split.Config {
	cfg := split.DefaultConfig(m, pool)
	cfg.SeqLen = 2
	cfg.HorizonFrames = 2
	cfg.BatchSize = 4
	cfg.HiddenSize = 6
	return cfg
}

// runDistributed trains a UE/BS pair over the given connection-like pair
// for n steps and returns the peers.
func runDistributed(t *testing.T, cfg split.Config, d *dataset.Dataset, sp *dataset.Split, n int) (*UEPeer, *BSPeer) {
	t.Helper()
	ueConn, bsConn := net.Pipe()

	ue, err := NewUEPeer(cfg, d, ueConn)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := NewBSPeer(cfg, d, sp, bsConn)
	if err != nil {
		t.Fatal(err)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- ue.Serve() }()

	for i := 0; i < n; i++ {
		if _, err := bs.TrainStep(); err != nil {
			t.Fatal(err)
		}
	}
	if err := bs.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("UE serve: %v", err)
	}
	ueConn.Close()
	bsConn.Close()
	return ue, bs
}

func TestDistributedTrainingRuns(t *testing.T) {
	d := tinyDataset(t, 120)
	cfg := tinyConfig(split.ImageRF, 4)
	sp, err := dataset.NewSplit(d, cfg.SeqLen, cfg.HorizonFrames, 80)
	if err != nil {
		t.Fatal(err)
	}
	runDistributed(t, cfg, d, sp, 10)
}

// TestDistributedMatchesInProcess is invariant 2 of DESIGN.md: training
// over the socket protocol must produce bit-identical parameters to the
// in-process split trainer over an ideal link.
func TestDistributedMatchesInProcess(t *testing.T) {
	d := tinyDataset(t, 150)
	cfg := tinyConfig(split.ImageRF, 4)
	sp, err := dataset.NewSplit(d, cfg.SeqLen, cfg.HorizonFrames, 100)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 12

	// In-process reference.
	norm := dataset.FitNormalizer(d, sp.Train)
	ref, err := split.NewModel(cfg, d, norm)
	if err != nil {
		t.Fatal(err)
	}
	tr := split.NewTrainer(ref, d, sp, split.IdealLink{})
	for i := 0; i < steps; i++ {
		if _, err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	}

	// Distributed run.
	ue, bs := runDistributed(t, cfg, d, sp, steps)

	refParams := ref.Params()
	gotParams := append(ue.Model.Params(), bs.Model.Params()...)
	if len(refParams) != len(gotParams) {
		t.Fatalf("parameter count %d vs %d", len(gotParams), len(refParams))
	}
	for i := range refParams {
		if tensor.MaxAbsDiff(refParams[i].Value, gotParams[i].Value) != 0 {
			t.Fatalf("parameter %d (%s) diverged between distributed and in-process",
				i, refParams[i].Name)
		}
	}
}

func TestDistributedEvaluate(t *testing.T) {
	d := tinyDataset(t, 150)
	cfg := tinyConfig(split.ImageRF, 4)
	sp, err := dataset.NewSplit(d, cfg.SeqLen, cfg.HorizonFrames, 100)
	if err != nil {
		t.Fatal(err)
	}
	ueConn, bsConn := net.Pipe()
	ue, err := NewUEPeer(cfg, d, ueConn)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := NewBSPeer(cfg, d, sp, bsConn)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ue.Serve() }()

	rmse, err := bs.Evaluate(sp.Val[:20])
	if err != nil {
		t.Fatal(err)
	}
	if rmse <= 0 || rmse > 100 {
		t.Fatalf("evaluate RMSE = %g dB", rmse)
	}
	if err := bs.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestDistributedOverTCP(t *testing.T) {
	d := tinyDataset(t, 120)
	cfg := tinyConfig(split.ImageRF, 4)
	sp, err := dataset.NewSplit(d, cfg.SeqLen, cfg.HorizonFrames, 80)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	serveErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			serveErr <- err
			return
		}
		defer conn.Close()
		ue, err := NewUEPeer(cfg, d, conn)
		if err != nil {
			serveErr <- err
			return
		}
		serveErr <- ue.Serve()
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bs, err := NewBSPeer(cfg, d, sp, conn)
	if err != nil {
		t.Fatal(err)
	}
	var lastLoss float64
	for i := 0; i < 8; i++ {
		if lastLoss, err = bs.TrainStep(); err != nil {
			t.Fatal(err)
		}
	}
	if lastLoss <= 0 {
		t.Fatalf("loss = %g", lastLoss)
	}
	if err := bs.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("UE over TCP: %v", err)
	}
}

func TestUEPeerRejectsRFOnly(t *testing.T) {
	d := tinyDataset(t, 60)
	if _, err := NewUEPeer(tinyConfig(split.RFOnly, 1), d, nil); err == nil {
		t.Fatal("RF-only UE peer accepted")
	}
}

func TestUEPeerRejectsBadAnchor(t *testing.T) {
	d := tinyDataset(t, 60)
	cfg := tinyConfig(split.ImageRF, 4)
	ueConn, bsConn := net.Pipe()
	ue, err := NewUEPeer(cfg, d, ueConn)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ue.Serve() }()

	// Anchor 0 has no full input sequence (L = 2 needs frame -1).
	if err := WriteMessage(bsConn, &Message{Type: MsgBatchRequest, Step: 1, Anchors: []int32{0}}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Fatal("UE accepted out-of-range anchor")
	}
	ueConn.Close()
	bsConn.Close()
}

func TestRFOnlyBSPeerNeedsNoConnection(t *testing.T) {
	d := tinyDataset(t, 150)
	cfg := tinyConfig(split.RFOnly, 1)
	sp, err := dataset.NewSplit(d, cfg.SeqLen, cfg.HorizonFrames, 100)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := NewBSPeer(cfg, d, sp, nil) // nil conn: never touched
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := bs.TrainStep(); err != nil {
			t.Fatal(err)
		}
	}
	rmse, err := bs.Evaluate(sp.Val[:10])
	if err != nil {
		t.Fatal(err)
	}
	if rmse <= 0 {
		t.Fatalf("RMSE = %g", rmse)
	}
}
