package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/compress"
	"repro/internal/coord"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/split"
	"repro/internal/store"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Layer drills time one public function of one module in isolation, so
// that a traced workload's "where did the time go" has a per-call price
// list to be read against. Every drill takes the median of drillBatches
// batches; its share of the run is budget, which main derives from
// --seconds (the issue's "≥ 1 s and ≥ 200 samples" is what --seconds 64
// buys).
const drillBatches = 5

// drills collects the metrics as the drills produce them.
type drills struct {
	budget time.Duration
	seed   int64
	sz     sizes
	ms     []metric
}

func (d *drills) put(name, unit string, value float64, n int) {
	d.ms = append(d.ms, metric{name, unit, value, n})
}

// timeOp returns the median over batches of the mean time of one op, in
// nanoseconds, and the number of ops timed. With prep set, prep runs
// untimed before every op and each op is timed on its own; without, a
// whole batch is timed at once, so nanosecond ops carry no clock reads.
func (d *drills) timeOp(prep, op func()) (ns float64, n int) {
	if prep != nil {
		prep()
	}
	t0 := time.Now()
	op() // warm-up, and a first estimate of the op's length
	est := time.Since(t0)
	perBatch := int(d.budget / drillBatches / max(est, time.Nanosecond))
	perBatch = max(perBatch, 1)
	means := make([]float64, drillBatches)
	for b := range means {
		var total time.Duration
		if prep == nil {
			t0 := time.Now()
			for i := 0; i < perBatch; i++ {
				op()
			}
			total = time.Since(t0)
		} else {
			for i := 0; i < perBatch; i++ {
				prep()
				t0 := time.Now()
				op()
				total += time.Since(t0)
			}
		}
		means[b] = float64(total) / float64(perBatch)
	}
	return medianOf(means), perBatch * drillBatches
}

// allocsPer is the mean number of heap allocations of one op.
func allocsPer(n int, op func()) float64 {
	var m0, m1 runtime.MemStats
	op()
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// runDrills runs every layer drill.
func runDrills(budget time.Duration, seed int64, sz sizes) ([]metric, error) {
	d := &drills{budget: budget, seed: seed, sz: sz}
	d.tensor()
	blob, err := d.split()
	if err != nil {
		return nil, fmt.Errorf("split drills: %w", err)
	}
	if err := d.compress(); err != nil {
		return nil, fmt.Errorf("compress drills: %w", err)
	}
	if err := d.frames(); err != nil {
		return nil, fmt.Errorf("frame drills: %w", err)
	}
	if err := d.sessions(); err != nil {
		return nil, fmt.Errorf("session drills: %w", err)
	}
	if err := d.store(blob); err != nil {
		return nil, fmt.Errorf("store drills: %w", err)
	}
	if err := d.failover(); err != nil {
		return nil, fmt.Errorf("failover drill: %w", err)
	}
	return d.ms, nil
}

// tensor: one paper mini-batch through the conv kernels (B·L = 256
// images of 40×40, 3×3 same) and the LSTM's packed-gate matmul.
func (d *drills) tensor() {
	rng := rand.New(rand.NewSource(d.seed))
	x := tensor.Randn(rng, 1, 256, 1, 40, 40)
	k := tensor.Randn(rng, 0.3, 1, 1, 3, 3)
	bias := []float64{0.1}
	spec := tensor.Conv2DSpec{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	out := tensor.New(256, 1, 40, 40)
	fwd := func() { tensor.Conv2DInto(out, x, k, bias, spec) }
	ns, n := d.timeOp(nil, fwd)
	d.put("tensor.conv_fwd_ms", "ms", ns/1e6, n)
	const convFLOPs = 2 * 256 * 40 * 40 * 3 * 3
	d.put("tensor.conv_gflops", "GFLOP/s", convFLOPs/ns, n)
	d.put("tensor.conv_fwd_allocs", "count", allocsPer(20, fwd), 20)

	grad := tensor.Ones(256, 1, 40, 40)
	gradX, gradK := tensor.New(x.Shape()...), tensor.New(k.Shape()...)
	gradB := make([]float64, 1)
	ns, n = d.timeOp(nil, func() {
		gradK.Zero()
		gradB[0] = 0
		tensor.Conv2DBackwardInto(gradX, gradK, gradB, x, k, grad, spec)
	})
	d.put("tensor.conv_bwd_ms", "ms", ns/1e6, n)

	a := tensor.Randn(rng, 1, 64, 101)
	w := tensor.Randn(rng, 1, 101, 128)
	mm := tensor.New(64, 128)
	ns, n = d.timeOp(nil, func() { tensor.MatMulInto(mm, a, w) })
	d.put("tensor.matmul_ms", "ms", ns/1e6, n)
}

// split: the two model halves on one paper batch, the in-process
// trainer's step, and the train-state checkpoint. It returns a real
// BS-half checkpoint blob for the store drills.
func (d *drills) split() ([]byte, error) {
	prov := fleet.MemoProvision()
	h, cfg, err := paperHello(prov, "drill", d.seed*131+3)
	if err != nil {
		return nil, err
	}
	_, data, _, _ := prov(h)
	rng := rand.New(rand.NewSource(cfg.Seed))
	ue := split.NewUEModel(rng, cfg, data)
	ueAdam := opt.NewAdam(ue.Params(), cfg.LR, cfg.Beta1, cfg.Beta2)
	images := tensor.Randn(rng, 1, cfg.BatchSize*cfg.SeqLen, 1, data.H, data.W)
	var act *tensor.Tensor
	fwd := func() { act = ue.Forward(images) }
	ns, n := d.timeOp(nil, fwd)
	d.put("split.ue_fwd_ms", "ms", ns/1e6, n)
	cut := tensor.Ones(act.Shape()...)
	ns, n = d.timeOp(fwd, func() {
		nn.ZeroGrads(ue.Params())
		ue.Backward(cut)
		ueAdam.Step()
	})
	d.put("split.ue_bwd_ms", "ms", ns/1e6, n)

	dim := cfg.RNNInputDim(data)
	bs := split.NewBSModel(rng, cfg, dim)
	bsAdam := opt.NewAdam(bs.Params(), cfg.LR, cfg.Beta1, cfg.Beta2)
	fused := tensor.Randn(rng, 1, cfg.BatchSize, cfg.SeqLen, dim)
	targets := tensor.Randn(rng, 1, cfg.BatchSize, 1)
	lossGrad := tensor.New(cfg.BatchSize, 1)
	ns, n = d.timeOp(nil, func() {
		nn.ZeroGrads(bs.Params())
		pred := bs.Forward(fused)
		nn.MSEInto(lossGrad, pred, targets)
		bs.Backward(lossGrad)
	})
	d.put("split.bs_step_ms", "ms", ns/1e6, n)

	env, err := experiments.NewEnv(experiments.Scale{
		Frames: 1500, TrainFrac: 0.75, MaxEpochs: 3, StepsPerEpoch: 20, ValBatch: 96, Seed: d.seed,
	})
	if err != nil {
		return nil, err
	}
	tr, err := env.NewTrainer(split.ImageRF, 40, split.NewPaperSimLink(9))
	if err != nil {
		return nil, err
	}
	var stepErr error
	step := func() {
		if _, err := tr.Step(); err != nil {
			stepErr = err
		}
	}
	ns, n = d.timeOp(nil, step)
	d.put("split.train_step_ms", "ms", ns/1e6, n)
	d.put("split.train_step_allocs", "count", allocsPer(10, step), 10)
	if stepErr != nil {
		return nil, stepErr
	}

	var buf bytes.Buffer
	fp := cfg.Fingerprint()
	var ckptErr error
	ns, n = d.timeOp(nil, func() {
		buf.Reset()
		if err := split.SaveTrainState(&buf, fp, split.HalfBS, 7, bs.Params(), bsAdam); err != nil {
			ckptErr = err
		}
	})
	d.put("split.ckpt_save_ms", "ms", ns/1e6, n)
	blob := append([]byte(nil), buf.Bytes()...)
	d.put("split.ckpt_bytes", "B", float64(len(blob)), 0)
	ns, n = d.timeOp(nil, func() {
		if _, err := split.LoadTrainState(bytes.NewReader(blob), fp, split.HalfBS, bs.Params(), bsAdam); err != nil {
			ckptErr = err
		}
	})
	d.put("split.ckpt_load_ms", "ms", ns/1e6, n)
	return blob, ckptErr
}

// compress: every codec on the pool-4 cut tensor (256×1×10×10), plus
// the size of the paper's one-pixel payload.
func (d *drills) compress() error {
	rng := rand.New(rand.NewSource(d.seed))
	t := tensor.Randn(rng, 1, 256, 1, 10, 10)
	for _, id := range compress.IDs() {
		c := compress.ForID(id)
		var buf []byte
		var err error
		ns, n := d.timeOp(nil, func() { buf, err = c.EncodeInto(buf[:0], t) })
		if err != nil {
			return err
		}
		d.put(fmt.Sprintf("compress.%s_enc_us", id), "us", ns/1e3, n)
		d.put(fmt.Sprintf("compress.%s_bytes", id), "B", float64(len(buf)), 0)
		var dst *tensor.Tensor
		ns, n = d.timeOp(nil, func() { dst, err = c.DecodeInto(dst, buf) })
		if err != nil {
			return err
		}
		d.put(fmt.Sprintf("compress.%s_dec_us", id), "us", ns/1e3, n)
	}
	onePx, err := compress.ForID(compress.CodecRaw).Encode(tensor.Randn(rng, 1, 256, 1, 1, 1))
	if err != nil {
		return err
	}
	d.put("compress.raw_bytes_1px", "B", float64(len(onePx)), 0)
	return nil
}

// loopReader replays one frame forever.
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

// frames: the zero-copy frame path on a paper-shaped message (one
// mini-batch of one-pixel activations). Steady state must not allocate.
func (d *drills) frames() error {
	rng := rand.New(rand.NewSource(d.seed))
	msg := &transport.Message{
		Type: transport.MsgActivations, Step: 7,
		Tensor: tensor.Randn(rng, 1, 256, 1, 1, 1),
	}
	var err error
	fw := transport.NewFrameWriter(io.Discard)
	defer fw.Release()
	enc := func() {
		if e := fw.WriteMessage(msg, transport.ProtocolVersion); e != nil {
			err = e
		}
	}
	ns, n := d.timeOp(nil, enc)
	d.put("transport.frame_enc_ns", "ns", ns, n)
	d.put("transport.frame_enc_allocs", "count", allocsPer(1000, enc), 1000)

	var frame bytes.Buffer
	if err := transport.WriteMessage(&frame, msg); err != nil {
		return err
	}
	fr := transport.NewFrameReader(&loopReader{data: frame.Bytes()})
	defer fr.Release()
	dec := func() {
		if _, e := fr.ReadMessage(); e != nil {
			err = e
		}
	}
	ns, n = d.timeOp(nil, dec)
	d.put("transport.frame_dec_ns", "ns", ns, n)
	d.put("transport.frame_dec_allocs", "count", allocsPer(1000, dec), 1000)
	return err
}

// sessions: what a join, a resume, a coordinator join and a lone round
// cost, on paper-shaped sessions with a memoised dataset.
func (d *drills) sessions() error {
	prov := fleet.MemoProvision()
	h, cfg, err := paperHello(prov, "drill-ue", d.seed*131+5)
	if err != nil {
		return err
	}
	_, data, _, _ := prov(h)
	clk := clock{t0: time.Now()}
	server := transport.ServerConfig{
		MaxUE: 2, Steps: 3, EvalEvery: 1 << 30, ValAnchors: 8, Provision: prov, CheckpointEvery: 1,
	}
	direct, err := buildTestbed(bedSpec{replicas: 1, server: server}, clk, false)
	if err != nil {
		return err
	}
	defer direct.close()
	// One whole session first: it leaves the checkpoint the resume
	// handshakes restore from.
	first := &ueSession{id: h.SessionID}
	direct.runLive(first, h, cfg, data, 3, nil)
	if first.err != nil {
		return first.err
	}
	resume := h
	resume.ResumeStep = 3

	// handshake joins and hangs up; the hang-up and the handler's exit are
	// inside the timed span so that iterations cannot overlap.
	var hsErr error
	handshake := func(f *testbed, h transport.Hello) func() {
		return func() {
			conn := f.dial()
			if _, err := transport.JoinSession(conn, h); err != nil {
				hsErr = err
			}
			conn.Close()
			f.handlers.Wait()
		}
	}
	ns, n := d.timeOp(nil, handshake(direct, resume))
	d.put("transport.resume_ms", "ms", ns/1e6, n)

	fronted, err := buildTestbed(bedSpec{replicas: 2, coordinator: true, server: server}, clk, false)
	if err != nil {
		return err
	}
	defer fronted.close()
	// The coordinator's share of a join is a tenth of the join, less than
	// the join drifts over a second. So the two are timed in turns and the
	// tax is the median of the pairwise differences.
	joinDirect, joinFronted := handshake(direct, h), handshake(fronted, h)
	var directMs, frontedMs, taxUs []float64
	for begin := time.Now(); len(taxUs) < minBeyond || time.Since(begin) < 2*d.budget; {
		t0 := time.Now()
		joinDirect()
		t1 := time.Now()
		joinFronted()
		t2 := time.Now()
		directMs = append(directMs, float64(t1.Sub(t0))/1e6)
		frontedMs = append(frontedMs, float64(t2.Sub(t1))/1e6)
		taxUs = append(taxUs, float64(t2.Sub(t1)-t1.Sub(t0))/1e3)
	}
	d.put("transport.join_ms", "ms", medianOf(directMs), len(directMs))
	d.put("coord.join_ms", "ms", medianOf(frontedMs), len(frontedMs))
	d.put("coord.join_tax_us", "us", medianOf(taxUs), len(taxUs))
	if hsErr != nil {
		return hsErr
	}
	rep := coord.NewLocalReplica(direct.servers[0])
	ns, n = d.timeOp(nil, func() { _ = rep.Probe() }) // nil from a live replica, by construction
	d.put("coord.probe_us", "us", ns/1e3, n)

	// One replay session alone, on the serial path and on the pipelined
	// one: the no-queue floor of a round and what the pipeline's stage
	// hand-offs add to it.
	const lone = 40
	frames, err := fleet.RecordTrajectory(prov, h, lone)
	if err != nil {
		return err
	}
	for _, path := range []struct {
		name   string
		window time.Duration
	}{{"transport.round_serial_ms", 0}, {"transport.round_batched_ms", 2 * time.Millisecond}} {
		rounds, err := d.loneRounds(prov, h, frames, lone, path.window, clk)
		if err != nil {
			return err
		}
		d.put(path.name, "ms", medianOf(rounds), len(rounds))
	}
	return nil
}

// loneRounds replays the trajectory, one session at a time, against a
// fresh one-UE server with the given batch window (0: the serial path)
// and returns the UE-side round times in milliseconds.
func (d *drills) loneRounds(prov transport.Provision, h transport.Hello, frames [][]byte, steps int, window time.Duration, clk clock) ([]float64, error) {
	f, err := buildTestbed(bedSpec{replicas: 1, server: transport.ServerConfig{
		MaxUE: 1, Steps: steps, EvalEvery: 1 << 30, ValAnchors: 16, Provision: prov,
		BatchWindow: window, BatchMax: 8,
	}}, clk, false)
	if err != nil {
		return nil, err
	}
	defer f.close()
	var rounds []float64
	for begin, i := time.Now(), 0; i == 0 || time.Since(begin) < d.budget; i++ {
		s := &ueSession{id: fmt.Sprintf("lone-%d", i)}
		h.SessionID = s.id
		f.runReplay(s, h, frames)
		f.handlers.Wait()
		if s.err != nil {
			return nil, s.err
		}
		for _, r := range s.taps[0].rounds {
			rounds = append(rounds, float64(r.gFirst-r.wStart)/1e6)
		}
	}
	return rounds, nil
}

// noSyncFS is the real filesystem with fsync switched off: the replay
// drill needs a 5000-record journal to open, not 5000 fsyncs to wait
// for while building it.
type noSyncFS struct{ store.FS }

type noSyncFile struct{ store.File }

func (noSyncFile) Sync() error { return nil }

func (fs noSyncFS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

func (noSyncFS) SyncDir(string) error { return nil }

// store: the journal's put (alone and with one writer per core), get,
// replay and compaction, and the mem store's put for the floor. The put
// drills checkpoint the way the server does — put step s, prune step
// s-2 — with a real BS-half blob.
func (d *drills) store(blob []byte) error {
	dir, err := os.MkdirTemp("", "bsbench-drill-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Enough puts that ten lie beyond the 99th percentile, whatever the
	// budget: the tail of an fsync is the reason to look at it.
	tailPuts := d.sz.tailPuts
	j, err := store.OpenJournal(filepath.Join(dir, "put.journal"), store.JournalOptions{})
	if err != nil {
		return err
	}
	var putErr error
	put := func(st store.Store, id string, step int) {
		if err := st.PutCheckpoint(id, step, blob); err != nil {
			putErr = err
		}
		if step >= 2 {
			if err := st.DeleteCheckpoint(id, step-2); err != nil {
				putErr = err
			}
		}
	}
	us := make([]float64, tailPuts)
	for i := range us {
		t0 := time.Now()
		put(j, "drill", i)
		us[i] = float64(time.Since(t0)) / 1e3
	}
	d.put("store.journal_put_p50_us", "us", medianOf(us), len(us))
	d.put("store.journal_put_p99_us", "us", supported(us, 0.99), len(us))

	// One writer per core: how far below cores × the single-writer time
	// this lands is the headroom a group commit could claim.
	writers := runtime.GOMAXPROCS(0)
	par := make([][]float64, writers)
	var wg sync.WaitGroup
	for w := range par {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("drill-%d", w)
			for begin, i := time.Now(), 0; time.Since(begin) < d.budget; i++ {
				t0 := time.Now()
				put(j, id, i)
				par[w] = append(par[w], float64(time.Since(t0))/1e3)
			}
		}()
	}
	wg.Wait()
	var all []float64
	for _, p := range par {
		all = append(all, p...)
	}
	d.put("store.journal_put_par_p50_us", "us", medianOf(all), len(all))

	ns, n := d.timeOp(nil, func() {
		if _, err := j.GetCheckpoint("drill", tailPuts-1); err != nil {
			putErr = err
		}
	})
	d.put("store.journal_get_us", "us", ns/1e3, n)
	if err := j.Close(); err != nil {
		return err
	}

	mem := store.NewMem(0)
	step := 0
	ns, n = d.timeOp(nil, func() { put(mem, "drill", step); step++ })
	d.put("store.mem_put_us", "us", ns/1e3, n)
	if putErr != nil {
		return putErr
	}

	// Replay and compaction over a journal of 5000 checkpoint records
	// (500 sessions × 10 steps of 4 KiB).
	ids, steps := d.sz.replayIDs, 10
	small := make([]byte, 4096)
	rand.New(rand.NewSource(d.seed)).Read(small)
	path := filepath.Join(dir, "replay.journal")
	build, err := store.OpenJournal(path, store.JournalOptions{FS: noSyncFS{store.OS}})
	if err != nil {
		return err
	}
	for i := 0; i < ids; i++ {
		for s := 1; s <= steps; s++ {
			if err := build.PutCheckpoint(fmt.Sprintf("ue-%04d", i), s, small); err != nil {
				return err
			}
		}
	}
	if err := build.Close(); err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	var opened *store.Journal
	var openErr error
	ns, n = d.timeOp(func() {
		if opened != nil {
			opened.Close()
		}
	}, func() { opened, openErr = store.OpenJournal(path, store.JournalOptions{}) })
	if openErr != nil {
		return openErr
	}
	d.put("store.journal_replay_ms", "ms", ns/1e6, n)
	d.put("store.journal_replay_mb_per_s", "MB/s", float64(info.Size())/1e6/(ns/1e9), n)
	// Compaction: prune all but the last step of every session (again
	// without waiting for 4500 fsyncs), then rewrite on the real
	// filesystem. Timed once — it consumes the dead records it measures.
	if err := opened.Close(); err != nil {
		return err
	}
	if build, err = store.OpenJournal(path, store.JournalOptions{FS: noSyncFS{store.OS}}); err != nil {
		return err
	}
	for i := 0; i < ids; i++ {
		for s := 1; s < steps; s++ {
			if err := build.DeleteCheckpoint(fmt.Sprintf("ue-%04d", i), s); err != nil {
				return err
			}
		}
	}
	if err := build.Close(); err != nil {
		return err
	}
	if opened, err = store.OpenJournal(path, store.JournalOptions{}); err != nil {
		return err
	}
	t0 := time.Now()
	if err := opened.Compact(); err != nil {
		return err
	}
	d.put("store.journal_compact_ms", "ms", float64(time.Since(t0))/1e6, 1)
	return opened.Close()
}
