package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/opt"
	"repro/internal/split"
	"repro/internal/store"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// pr2Baseline pins the PR-2 (pre-engine) measurements of the raw-codec
// default-config train step, recorded with `go test -bench
// BenchmarkTrainStep1Pixel -benchmem` on the reference runner before the
// kernel/arena engine landed. Speedup and allocation-reduction columns in
// BENCH.json are computed against these numbers so the perf trajectory
// has a fixed origin.
var pr2Baseline = benchResult{
	Name:     "train_step/pr2_baseline",
	NsPerOp:  24551866,
	AllocsOp: 871,
	BytesOp:  21240920,
}

type benchResult struct {
	Name     string  `json:"name"`
	NsPerOp  float64 `json:"ns_per_op"`
	AllocsOp int64   `json:"allocs_per_op"`
	BytesOp  int64   `json:"bytes_per_op"`
	// SpeedupVs names the result this one is compared against; Speedup is
	// ns_per_op(reference) / ns_per_op(this).
	SpeedupVs string  `json:"speedup_vs,omitempty"`
	Speedup   float64 `json:"speedup,omitempty"`
}

type benchReport struct {
	Schema        string        `json:"schema"`
	CPUs          int           `json:"cpus"`
	GoMaxProcs    int           `json:"gomaxprocs"`
	TensorWorkers int           `json:"tensor_workers"`
	Baseline      benchResult   `json:"pr2_baseline"`
	Results       []benchResult `json:"results"`
	Fleet         *fleet.Report `json:"fleet,omitempty"`
}

func measure(name string, f func(b *testing.B)) benchResult {
	r := testing.Benchmark(f)
	return benchResult{
		Name:     name,
		NsPerOp:  float64(r.NsPerOp()),
		AllocsOp: r.AllocsPerOp(),
		BytesOp:  r.AllocedBytesPerOp(),
	}
}

// loadReport parses an existing BENCH.json (nil if absent/unreadable) so
// a partial run can merge into it instead of clobbering it.
func loadReport(path string) *benchReport {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var rep benchReport
	if json.Unmarshal(data, &rep) != nil {
		return nil
	}
	return &rep
}

func writeReport(rep *benchReport, path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// pinnedAllocs reports whether a result's allocs/op are gated by -check:
// the frame path and the checkpoint save/append path, the two things a
// serving round does per message and per checkpoint, the convolution
// kernels, the UE half's per-step cost, and the whole training step,
// whose count is its fan-outs (DESIGN.md §6 accounts for every one of
// their allocations).
func pinnedAllocs(name string) bool {
	for _, prefix := range []string{"frame_", "ckpt_save/", "journal_put/", "conv_forward/", "conv_backward/", "train_step/"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// checkPinnedAllocs is the bench-regression gate: every pinned result
// must not allocate more per op than the committed baseline —
// steady-state frame encode/decode and the train-state encoder are pinned
// at zero, a journal put at its frame head and batch, the conv kernels at
// their closure and pooled-scratch round trips.
func checkPinnedAllocs(results []benchResult, baselinePath string) error {
	base := loadReport(baselinePath)
	if base == nil {
		return fmt.Errorf("bench: -check: cannot read baseline %s", baselinePath)
	}
	baseline := make(map[string]benchResult, len(base.Results))
	for _, r := range base.Results {
		baseline[r.Name] = r
	}
	var failures []string
	checked := 0
	for _, r := range results {
		if !pinnedAllocs(r.Name) {
			continue
		}
		b, ok := baseline[r.Name]
		if !ok {
			continue
		}
		checked++
		if r.AllocsOp > b.AllocsOp {
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op exceeds baseline %d",
				r.Name, r.AllocsOp, b.AllocsOp))
		}
	}
	if checked == 0 {
		return fmt.Errorf("bench: -check: baseline %s has no pinned results to compare", baselinePath)
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench: pinned alloc regression:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Printf("bench: pinned allocs within baseline (%d results checked)\n", checked)
	return nil
}

// loopReader replays one byte slice forever.
type loopReader struct {
	data []byte
	off  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// measureFrameBench times the zero-copy frame path on a paper-shaped
// message (one mini-batch of 1-pixel pooled activations): steady-state
// encode and decode must run at zero allocs/op in both directions.
func measureFrameBench() ([]benchResult, error) {
	rng := rand.New(rand.NewSource(3))
	msg := &transport.Message{
		Type:    transport.MsgActivations,
		Step:    7,
		Tensor:  tensor.Randn(rng, 1, 256, 1, 1, 1),
		Anchors: make([]int32, 64),
	}
	fw := transport.NewFrameWriter(io.Discard)
	defer fw.Release()
	if err := fw.WriteMessage(msg, transport.ProtocolVersion); err != nil {
		return nil, err
	}
	enc := measure("frame_encode/raw", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := fw.WriteMessage(msg, transport.ProtocolVersion); err != nil {
				b.Fatal(err)
			}
		}
	})

	var frame bytes.Buffer
	if err := transport.WriteMessage(&frame, msg); err != nil {
		return nil, err
	}
	fr := transport.NewFrameReader(&loopReader{data: frame.Bytes()})
	defer fr.Release()
	if _, err := fr.ReadMessage(); err != nil {
		return nil, err
	}
	dec := measure("frame_decode/raw", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := fr.ReadMessage(); err != nil {
				b.Fatal(err)
			}
		}
	})
	return []benchResult{enc, dec}, nil
}

// measureCheckpointBench times the durable-checkpoint path on the
// paper's one-pixel BS half (108,495 bytes): serialising it into a warm
// buffer must not allocate, and a journal put — fsync included — must
// cost its frame head and batch bookkeeping, never a copy of the blob.
func measureCheckpointBench() ([]benchResult, error) {
	cfg := split.DefaultConfig(split.ImageRF, 40)
	bs := split.NewBSModel(rand.New(rand.NewSource(cfg.Seed)), cfg, 2)
	params := bs.Params()
	adam := opt.NewAdam(params, cfg.LR, cfg.Beta1, cfg.Beta2)
	blob, err := split.AppendTrainState(nil, cfg.Fingerprint(), split.HalfBS, 7, params, adam)
	if err != nil {
		return nil, err
	}
	save := measure("ckpt_save/bs_half", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if blob, err = split.AppendTrainState(blob[:0], cfg.Fingerprint(), split.HalfBS, 7, params, adam); err != nil {
				b.Fatal(err)
			}
		}
	})

	dir, err := os.MkdirTemp("", "mmsl-bench-journal")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	j, err := store.OpenJournal(filepath.Join(dir, "bench.journal"), store.JournalOptions{})
	if err != nil {
		return nil, err
	}
	defer j.Close()
	put := measure("journal_put/ckpt_108k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// One key, replaced each time: the dead copies are compacted
			// away at the default threshold, so the file stays bounded.
			if err := j.PutCheckpoint("ue-0", 7, blob); err != nil {
				b.Fatal(err)
			}
		}
	})
	return []benchResult{save, put}, nil
}

// measureConvBench times the convolution engine (the row kernels) against
// the direct reference oracle on one paper mini-batch (B·L = 256 images
// of 40×40, 3×3 same kernel). It runs on ONE tensor worker: the numbers
// compare kernels, not fan-out, and allocs/op do not depend on -cpu (w ≥ 2
// workers add w + 1 heap objects to every call).
func measureConvBench() []benchResult {
	defer tensor.SetWorkers(tensor.Workers())
	tensor.SetWorkers(1)
	rng := rand.New(rand.NewSource(1))
	x := tensor.Randn(rng, 1, 256, 1, 40, 40)
	k := tensor.Randn(rng, 0.3, 1, 1, 3, 3)
	bias := []float64{0.1}
	spec := tensor.Conv2DSpec{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}

	convDirect := measure("conv_forward/direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = tensor.Conv2DDirect(x, k, bias, spec)
		}
	})
	convOut := tensor.New(256, 1, 40, 40)
	convRows := measure("conv_forward/rows", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tensor.Conv2DInto(convOut, x, k, bias, spec)
		}
	})
	convRows.SpeedupVs = convDirect.Name
	convRows.Speedup = convDirect.NsPerOp / convRows.NsPerOp

	grad := tensor.Ones(256, 1, 40, 40)
	gradX, gradK := tensor.New(x.Shape()...), tensor.New(k.Shape()...)
	gradB := make([]float64, 1)
	backward := func(into func(gradX, gradK *tensor.Tensor, gradBias []float64, x, k, gradOut *tensor.Tensor, spec tensor.Conv2DSpec)) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gradK.Zero()
				gradB[0] = 0
				into(gradX, gradK, gradB, x, k, grad, spec)
			}
		}
	}
	backDirect := measure("conv_backward/direct", backward(tensor.Conv2DBackwardDirect))
	backRows := measure("conv_backward/rows", backward(tensor.Conv2DBackwardInto))
	backRows.SpeedupVs = backDirect.Name
	backRows.Speedup = backDirect.NsPerOp / backRows.NsPerOp
	return []benchResult{convDirect, convRows, backDirect, backRows}
}

// measureTrainStep is the headline macro-benchmark: one raw-codec
// default-config split training step (Img+RF, 1-pixel pooling) over the
// simulated channel, the same measurement as the PR-2 baseline. Like the
// conv kernels it runs on ONE tensor worker, so that its allocs/op count
// the step's fan-outs (one closure each) whatever -cpu says.
func measureTrainStep() (benchResult, error) {
	defer tensor.SetWorkers(tensor.Workers())
	tensor.SetWorkers(1)
	sc := experiments.Scale{
		Frames: 1500, TrainFrac: 0.75, MaxEpochs: 3,
		StepsPerEpoch: 20, ValBatch: 96, Seed: 1,
	}
	env, err := experiments.NewEnv(sc)
	if err != nil {
		return benchResult{}, err
	}
	tr, err := env.NewTrainer(split.ImageRF, 40, split.NewPaperSimLink(9))
	if err != nil {
		return benchResult{}, err
	}
	if _, err := tr.Step(); err != nil { // warm the scratch buffers
		return benchResult{}, err
	}
	trainStep := measure("train_step/raw_1pixel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := tr.Step(); err != nil {
				b.Fatal(err)
			}
		}
	})
	trainStep.SpeedupVs = pr2Baseline.Name
	trainStep.Speedup = pr2Baseline.NsPerOp / trainStep.NsPerOp
	return trainStep, nil
}

// cmdBench runs the engine micro/macro benchmarks in-process and emits
// ns/op, allocs/op and speedups — `-json` writes BENCH.json so CI keeps a
// perf data point per commit. `-quick -check BENCH.json` is the CI
// regression gate for the zero-alloc serving path and the conv kernels'
// allocs.
func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "write results as JSON")
	out := fs.String("out", "BENCH.json", "output path for -json")
	ues := fs.Int("ue", 16, "-fleet: concurrent UE sessions")
	fleetRun := fs.Bool("fleet", false, "run the heterogeneous fleet soak (live UEs, mixed configs, churn)")
	fleetSoak := fs.Bool("fleet-soak", false, "run -fleet at 10000 concurrent sessions")
	fleetSteps := fs.Int("fleet-steps", 6, "-fleet: training steps per session")
	fleetChurn := fs.Float64("fleet-churn", 0.5, "-fleet: churn fraction among image-bearing UEs")
	fleetSeed := fs.Int64("fleet-seed", 42, "-fleet: master fleet seed")
	replicas := fs.Int("replicas", 1, "-fleet: shard the soak across this many BS replicas behind a coordinator (handover drill runs throughout)")
	chaos := fs.Bool("chaos", false, "-fleet: run the chaos drill (uncontrolled replica kills with torn store writes, crash failover, rejoin; needs -replicas > 1)")
	adminAddr := fs.String("admin", "", "-fleet: serve the control plane (/metrics, sessions, config) on this address for the soak's duration")
	quick := fs.Bool("quick", false, "run only the alloc-pinned benchmarks: frame path, checkpoint path, conv kernels (-fleet: 64-UE smoke)")
	check := fs.String("check", "", "fail if pinned allocs/op exceed this committed BENCH.json")
	perf := perfFlags(fs)
	fs.Parse(args)
	if err := perf.apply(nil); err != nil {
		return err
	}
	defer perf.finish()

	if *fleetRun || *fleetSoak {
		n := *ues
		if *quick {
			n = 64
		}
		if *fleetSoak {
			n = 10000
		}
		return runFleetBench(n, *fleetSteps, *fleetChurn, *fleetSeed, *replicas, *chaos, *adminAddr, *jsonOut, *out, *check)
	}

	rep := &benchReport{
		Schema:        "mmsl-bench/v1",
		CPUs:          runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		TensorWorkers: tensor.Workers(),
		Baseline:      pr2Baseline,
	}
	if prev := loadReport(*out); prev != nil {
		// A micro-suite run keeps the recorded fleet section.
		rep.Fleet = prev.Fleet
	}

	pinned, err := measureFrameBench()
	if err != nil {
		return err
	}
	ckptResults, err := measureCheckpointBench()
	if err != nil {
		return err
	}
	pinned = append(pinned, ckptResults...)
	pinned = append(pinned, measureConvBench()...)
	trainStep, err := measureTrainStep()
	if err != nil {
		return err
	}
	pinned = append(pinned, trainStep)
	if *quick {
		// Merge, don't clobber: keep any previously recorded engine
		// results and replace only the pinned entries
		// re-measured here.
		if prev := loadReport(*out); prev != nil {
			for _, r := range prev.Results {
				if !pinnedAllocs(r.Name) {
					rep.Results = append(rep.Results, r)
				}
			}
		}
		rep.Results = append(rep.Results, pinned...)
		for _, r := range pinned {
			fmt.Printf("%-28s %14.0f %12d %12d\n", r.Name, r.NsPerOp, r.BytesOp, r.AllocsOp)
		}
		if *jsonOut {
			if err := writeReport(rep, *out); err != nil {
				return err
			}
		}
		if *check != "" {
			return checkPinnedAllocs(pinned, *check)
		}
		return nil
	}

	// Blocked parallel matmul at the LSTM's packed-gate shape.
	rng := rand.New(rand.NewSource(1))
	a := tensor.Randn(rng, 1, 64, 101)
	wm := tensor.Randn(rng, 1, 101, 128)
	mm := tensor.New(64, 128)
	matmul := measure("matmul_64x101x128", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tensor.MatMulInto(mm, a, wm)
		}
	})

	// Session lifecycle latency: one fresh join (handshake +
	// provisioning + ack) and one checkpoint-resume (handshake +
	// provisioning + train-state restore + sampler fast-forward + ack)
	// against an in-process v3 server over net.Pipe — the serving-path
	// numbers BENCH.json tracks for the reconnect/resume subsystem.
	joinLat, resumeLat, err := measureSessionLatency()
	if err != nil {
		return err
	}

	rep.Results = []benchResult{matmul, joinLat, resumeLat}
	rep.Results = append(rep.Results, pinned...)

	if *jsonOut {
		if err := writeReport(rep, *out); err != nil {
			return err
		}
	}
	fmt.Printf("%-28s %14s %12s %12s %10s\n", "benchmark", "ns/op", "B/op", "allocs/op", "speedup")
	for _, r := range rep.Results {
		sp := ""
		if r.Speedup > 0 {
			sp = fmt.Sprintf("%.2fx", r.Speedup)
		}
		fmt.Printf("%-28s %14.0f %12d %12d %10s\n", r.Name, r.NsPerOp, r.BytesOp, r.AllocsOp, sp)
	}
	reduction := 100 * (1 - float64(trainStep.AllocsOp)/float64(pr2Baseline.AllocsOp))
	fmt.Printf("\ntrain step vs PR-2 baseline: %.2fx faster, %.1f%% fewer allocs/op\n",
		trainStep.Speedup, reduction)
	if *check != "" {
		return checkPinnedAllocs(rep.Results, *check)
	}
	return nil
}

// benchSessionProvision memoises a small session environment so the
// latency benchmarks measure the serving path (handshake, admission,
// peer construction, restore), not repeated dataset synthesis.
func benchSessionProvision() transport.Provision {
	var (
		once sync.Once
		cfg  split.Config
		d    *dataset.Dataset
		sp   *dataset.Split
		err  error
	)
	return func(h transport.Hello) (split.Config, *dataset.Dataset, *dataset.Split, error) {
		once.Do(func() {
			gcfg := dataset.DefaultGenConfig()
			gcfg.NumFrames = int(h.Frames)
			gcfg.Seed = h.Seed
			gcfg.Scene.ImageH, gcfg.Scene.ImageW = 8, 8
			gcfg.Scene.FocalPixels = 5
			d, err = dataset.Generate(gcfg)
			if err != nil {
				return
			}
			cfg = split.DefaultConfig(split.Modality(h.Modality), int(h.Pool))
			cfg.Seed = h.Seed
			cfg.SeqLen, cfg.HorizonFrames, cfg.BatchSize, cfg.HiddenSize = 2, 2, 4, 6
			sp, err = dataset.NewSplit(d, cfg.SeqLen, cfg.HorizonFrames, d.Len()*3/4)
		})
		return cfg, d, sp, err
	}
}

// measureSessionLatency times the v3 join and resume handshakes.
func measureSessionLatency() (join, resume benchResult, err error) {
	dir, err := os.MkdirTemp("", "mmsl-bench-ckpt-*")
	if err != nil {
		return join, resume, err
	}
	defer os.RemoveAll(dir)
	prov := benchSessionProvision()
	srv, err := transport.NewBSServer(transport.ServerConfig{
		MaxUE: 1, Steps: 3, EvalEvery: 1 << 30, ValAnchors: 8,
		Provision: prov, CheckpointDir: dir, CheckpointEvery: 1,
	})
	if err != nil {
		return join, resume, err
	}
	defer srv.Close()
	h := transport.Hello{
		SessionID: "bench-ue", Seed: 7, Frames: 200, Pool: 4,
		Modality: uint8(split.ImageRF),
	}
	cfg, d, _, err := prov(h)
	if err != nil {
		return join, resume, err
	}
	h.ConfigFP = cfg.Fingerprint()

	// One complete session first, to lay down the checkpoint the resume
	// iterations restore from.
	var wg sync.WaitGroup
	us := &transport.UESession{Hello: h, Cfg: cfg, Data: d,
		Backoff: transport.Backoff{Base: time.Millisecond, Retries: 1}}
	runErr := us.Run(func() (io.ReadWriteCloser, error) {
		ueConn, bsConn := net.Pipe()
		wg.Add(1)
		go func() { defer wg.Done(); _ = srv.Handle(bsConn) }()
		return ueConn, nil
	})
	wg.Wait()
	if runErr != nil {
		return join, resume, runErr
	}
	ckptStep := us.LastCheckpointStep()

	// handshake runs one join/teardown cycle; the teardown (close +
	// handler join) is included so iterations cannot overlap.
	handshake := func(h transport.Hello) error {
		ueConn, bsConn := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- srv.Handle(bsConn) }()
		_, joinErr := transport.JoinSession(ueConn, h)
		ueConn.Close()
		<-done
		return joinErr
	}

	join = measure("session/join_latency", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := handshake(h); err != nil {
				b.Fatal(err)
			}
		}
	})
	hr := h
	hr.ResumeStep = ckptStep
	resume = measure("session/resume_latency", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := handshake(hr); err != nil {
				b.Fatal(err)
			}
		}
	})
	return join, resume, nil
}
