package transport

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/split"
	"repro/internal/tensor"
)

// UEPeer is the camera-side endpoint. It owns the raw depth images and
// the CNN half of the model; it serves forward passes on request and
// applies its own optimiser to its own parameters when gradients arrive.
// Raw images never cross the connection.
type UEPeer struct {
	Model *split.UEModel
	Cfg   split.Config

	// OnCheckpoint, when set, is called for every MsgCheckpoint the BS
	// sends: the UE must persist its half's train state at the given
	// step so a later reconnect can resume from it. A returned error
	// aborts the session.
	OnCheckpoint func(step uint32) error

	// OnRequest, when set, observes every request frame the BS sends —
	// batch, eval, checkpoint, shutdown — before the peer acts on it.
	// The fleet simulator hangs its think-time and churn triggers here:
	// sleeping models a straggler or a slow channel, and a returned
	// error makes Serve return without touching the connection (the
	// mid-round abandonment a wedged UE exhibits).
	OnRequest func(t MsgType, step uint32) error

	data         *dataset.Dataset
	frames       *tensor.Tensor // data's images, read in place
	idx          []int32        // the latest request's sample-to-frame index, grow-only
	adam         *opt.Adam
	conn         io.ReadWriter
	fr           *FrameReader
	fw           *FrameWriter
	shutdownStep uint32 // step field of the shutdown that ended Serve
}

// ShutdownStep reports the step field of the shutdown that ended a
// clean Serve: 0 means the session completed (checkpoints may be
// discarded), non-zero a resumable drain at that checkpointed step.
func (u *UEPeer) ShutdownStep() uint32 { return u.shutdownStep }

// NewUEPeer constructs the UE endpoint over an established connection.
func NewUEPeer(cfg split.Config, d *dataset.Dataset, conn io.ReadWriter) (*UEPeer, error) {
	if !cfg.Modality.UsesImages() {
		return nil, fmt.Errorf("transport: %v needs no UE peer", cfg.Modality)
	}
	if err := cfg.Validate(d); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	model := split.NewUEModel(rng, cfg, d)
	u := &UEPeer{
		Model:  model,
		Cfg:    cfg,
		data:   d,
		frames: split.FrameStore(d),
		adam:   opt.NewAdam(model.Params(), cfg.LR, cfg.Beta1, cfg.Beta2),
		conn:   conn,
	}
	if conn != nil { // nil conn: an offline probe peer (checkpoint validation)
		u.fr = NewFrameReader(conn)
		u.fw = NewFrameWriter(conn)
	}
	return u, nil
}

// AppendState appends the UE half's resumable train state (parameters +
// optimiser moments), labelled with the given training step, to buf.
func (u *UEPeer) AppendState(buf []byte, step int) ([]byte, error) {
	return split.AppendTrainState(buf, u.Cfg.Fingerprint(), split.HalfUE, step, u.Model.Params(), u.adam)
}

// RestoreState loads a snapshot written by AppendState into this peer and
// returns the step it was taken at.
func (u *UEPeer) RestoreState(r io.Reader) (int, error) {
	return split.LoadTrainState(r, u.Cfg.Fingerprint(), split.HalfUE, u.Model.Params(), u.adam)
}

// frameIndex sets the peer's sample-to-frame index for the anchors'
// sequences, sample b·L+t reading frame anchors[b]−L+1+t, and refuses an
// anchor whose sequence does not lie in the dataset before any frame is
// read. The index stays valid until the next request.
func (u *UEPeer) frameIndex(anchors []int32) ([]int32, error) {
	L := u.Cfg.SeqLen
	u.idx = u.idx[:0]
	for _, k := range anchors {
		if int(k) < L-1 || int(k) >= u.data.Len() {
			return nil, fmt.Errorf("transport: anchor %d outside usable range", k)
		}
		for t := 0; t < L; t++ {
			u.idx = append(u.idx, k-int32(L)+1+int32(t))
		}
	}
	return u.idx, nil
}

// Serve processes requests until a shutdown message or connection error.
// A clean shutdown returns nil. The request loop runs through the
// peer's FrameReader/FrameWriter, so steady-state serving performs zero
// allocations per message in either direction.
func (u *UEPeer) Serve() error {
	defer u.release()
	for {
		msg, err := u.fr.ReadMessage()
		if err != nil {
			return fmt.Errorf("transport: UE read: %w", err)
		}
		// msg (and its anchors/tensor) is reader-owned scratch: copy the
		// header fields needed after the next read.
		reqType, reqStep := msg.Type, msg.Step
		if u.OnRequest != nil {
			if err := u.OnRequest(reqType, reqStep); err != nil {
				return fmt.Errorf("transport: UE request hook at step %d: %w", reqStep, err)
			}
		}
		switch reqType {
		case MsgShutdown:
			u.shutdownStep = reqStep
			return nil

		case MsgCheckpoint:
			if u.OnCheckpoint != nil {
				if err := u.OnCheckpoint(reqStep); err != nil {
					return fmt.Errorf("transport: UE checkpoint at step %d: %w", reqStep, err)
				}
			}

		case MsgBatchRequest, MsgEvalRequest:
			idx, err := u.frameIndex(msg.Anchors)
			if err != nil {
				return err
			}
			act := u.Model.ForwardFrames(u.frames, idx)
			reply := &Message{Type: MsgActivations, Step: reqStep, Tensor: act, Codec: u.Cfg.Codec}
			if err := u.fw.WriteMessage(reply, ProtocolVersion); err != nil {
				return fmt.Errorf("transport: UE write: %w", err)
			}
			if reqType == MsgEvalRequest {
				// No backward pass for evaluation: the answer to wait for
				// is the next request, and on this rare round the wait
				// starts with one pass through the global run queue. With
				// both halves in one process (tests, examples, the
				// benchmark's load generator) they hand the processor to
				// each other through the pipe's rendezvous, runnext to
				// runnext, and a P that always has such a successor serves
				// the global queue only every 61st tick: whatever waits
				// there (anything that called runtime.Gosched) used to get
				// its turn from the GC cycles the UE half's per-request
				// garbage set off. The UE half now keeps only pooled and
				// grow-only buffers (a sign mask, a pooled output and a
				// frame index; frames are read in place), so without this
				// yield such a waiter can wait out two whole short
				// sessions. Not on training rounds: a round of an
				// 8×8-pixel session is 35 µs and the yield costs 16.
				runtime.Gosched()
				continue
			}
			grad, err := u.fr.ReadMessage()
			if err != nil {
				return fmt.Errorf("transport: UE read gradient: %w", err)
			}
			if grad.Type == MsgShutdown {
				u.shutdownStep = grad.Step
				return nil
			}
			if grad.Type != MsgCutGradient || grad.Tensor == nil {
				return fmt.Errorf("transport: UE expected CutGradient, got %v", grad.Type)
			}
			if grad.Step != reqStep {
				return fmt.Errorf("transport: gradient step %d for request %d", grad.Step, reqStep)
			}
			if grad.Codec != u.Cfg.Codec {
				return fmt.Errorf("transport: gradient used codec %v, session negotiated %v",
					grad.Codec, u.Cfg.Codec)
			}
			if !grad.Tensor.SameShape(act) {
				return fmt.Errorf("transport: gradient shape %v for activations %v",
					grad.Tensor.Shape(), act.Shape())
			}
			nn.ZeroGrads(u.Model.Params())
			u.Model.Backward(grad.Tensor)
			u.adam.Step()

		default:
			return fmt.Errorf("transport: UE unexpected message %v", reqType)
		}
	}
}

// release returns the peer's pooled frame buffers and layer scratch; the
// peer's protocol methods must not be used afterwards.
func (u *UEPeer) release() {
	if u.fr != nil {
		u.fr.Release()
	}
	if u.fw != nil {
		u.fw.Release()
	}
	u.Model.Release()
}

// BSPeer is the base-station endpoint. It owns the received powers, the
// labels, and the LSTM half; it orchestrates training by requesting
// forward passes from the UE.
type BSPeer struct {
	Model *split.BSModel
	Cfg   split.Config
	Norm  dataset.Normalizer

	data    *dataset.Dataset
	adam    *opt.Adam
	conn    io.ReadWriter
	fr      *FrameReader
	fw      *FrameWriter
	sampler *dataset.Sampler
	step    uint32
	trained int // training steps applied (restored across resume)

	// Serving-path scratch: the arena holds the per-round batch-assembly
	// tensors (fused sequence, targets, cut gradient), reset at the top
	// of every computeStep; the slices are reused across rounds. None of
	// this changes any computed value — see the equivalence suite.
	arena      tensor.Arena
	anchorsInt []int
	anchors32  []int32
	lossGrad   *tensor.Tensor
	fp         uint64 // cached Cfg.Fingerprint()

	// lastFused/lastTargets retain the most recent computeStep's network
	// inputs (arena-owned, valid until the next computeStep). The
	// cross-session batcher compares them bitwise against a candidate
	// clone session's to prove that sharing this step's computation is
	// exact rather than assumed.
	lastFused   *tensor.Tensor
	lastTargets *tensor.Tensor

	// task is the peer's reusable dispatcher round (see batcher.go),
	// lazily created by computeHub.submit.
	task *roundTask
}

// NewBSPeer constructs the BS endpoint over an established connection.
func NewBSPeer(cfg split.Config, d *dataset.Dataset, sp *dataset.Split, conn io.ReadWriter) (*BSPeer, error) {
	if err := cfg.Validate(d); err != nil {
		return nil, err
	}
	// Match internal/split's construction order so distributed and
	// in-process training are comparable: the BS draws from the same seed
	// stream *after* the UE's layers, which NewModel achieves by building
	// UE first. Here the halves live in different processes, so the BS
	// replays the UE's draws by building a throwaway UE model.
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Modality.UsesImages() {
		_ = split.NewUEModel(rng, cfg, d)
	}
	model := split.NewBSModel(rng, cfg, cfg.RNNInputDim(d))
	norm := dataset.FitNormalizer(d, sp.Train)
	b := &BSPeer{
		Model:   model,
		Cfg:     cfg,
		Norm:    norm,
		data:    d,
		adam:    opt.NewAdam(model.Params(), cfg.LR, cfg.Beta1, cfg.Beta2),
		conn:    conn,
		sampler: dataset.NewSampler(sp.Train, rand.New(rand.NewSource(cfg.Seed+1000))),
		fp:      cfg.Fingerprint(),
	}
	if conn != nil {
		b.fr = NewFrameReader(conn)
		b.fw = NewFrameWriter(conn)
	}
	return b, nil
}

// release returns the peer's pooled frame buffers and layer scratch; the
// peer's protocol methods must not be used afterwards.
func (b *BSPeer) release() {
	if b.fr != nil {
		b.fr.Release()
	}
	if b.fw != nil {
		b.fw.Release()
	}
	b.lastFused, b.lastTargets = nil, nil
	tensor.Release(&b.lossGrad)
	b.arena.Release()
	b.Model.Release()
}

// AppendState appends the BS half's resumable train state (parameters +
// optimiser moments), labelled with the given training step, to buf.
func (b *BSPeer) AppendState(buf []byte, step int) ([]byte, error) {
	return split.AppendTrainState(buf, b.Cfg.Fingerprint(), split.HalfBS, step, b.Model.Params(), b.adam)
}

// RestoreState loads a snapshot written by AppendState into this freshly
// constructed peer and returns the step it was taken at. The anchor
// sampler is fast-forwarded past the restored steps' draws, so the
// resumed run consumes exactly the mini-batches the uninterrupted run
// would have — checkpoint/restore never changes the mathematics, only
// where the wall clock restarts.
func (b *BSPeer) RestoreState(r io.Reader) (int, error) {
	step, err := split.LoadTrainState(r, b.Cfg.Fingerprint(), split.HalfBS, b.Model.Params(), b.adam)
	if err != nil {
		return 0, err
	}
	for i := b.trained; i < step; i++ {
		b.sampler.Batch(b.Cfg.BatchSize)
	}
	b.trained = step
	return step, nil
}

// requestActivations asks the UE for a forward pass over the anchors,
// advancing the step correlation id, and validates the reply — its shape
// included, which is the UE's to choose on the wire and the fused
// sequence's to index by — against the request. The returned tensor is
// reader-owned scratch, valid until the next read on this peer.
func (b *BSPeer) requestActivations(t MsgType, anchors []int32) (*tensor.Tensor, error) {
	b.step++
	req := &Message{Type: t, Step: b.step, Anchors: anchors}
	if err := b.fw.WriteMessage(req, ProtocolVersion); err != nil {
		return nil, fmt.Errorf("transport: BS write: %w", err)
	}
	reply, err := b.fr.ReadMessage()
	if err != nil {
		return nil, fmt.Errorf("transport: BS read: %w", err)
	}
	if reply.Type != MsgActivations || reply.Tensor == nil {
		return nil, fmt.Errorf("transport: BS expected Activations, got %v", reply.Type)
	}
	if reply.Step != b.step {
		return nil, fmt.Errorf("transport: reply step %d for request %d", reply.Step, b.step)
	}
	if reply.Codec != b.Cfg.Codec {
		return nil, fmt.Errorf("transport: activations used codec %v, session negotiated %v",
			reply.Codec, b.Cfg.Codec)
	}
	n, h, w := len(anchors)*b.Cfg.SeqLen, b.data.H/b.Cfg.PoolH, b.data.W/b.Cfg.PoolW
	if act := reply.Tensor; act.Rank() != 4 || act.Dim(0) != n || act.Dim(1) != 1 || act.Dim(2) != h || act.Dim(3) != w {
		return nil, fmt.Errorf("transport: activations shape %v, want [%d 1 %d %d]", act.Shape(), n, h, w)
	}
	return reply.Tensor, nil
}

// fuse builds the (B, L, D) LSTM input from received activations and the
// locally measured RF powers into the peer's arena.
func (b *BSPeer) fuse(anchors []int32, pooled *tensor.Tensor) *tensor.Tensor {
	cfg, d := b.Cfg, b.data
	L := cfg.SeqLen
	featPx := cfg.FeaturePixels(d)
	dim := cfg.RNNInputDim(d)
	out := b.arena.GetUninit(len(anchors), L, dim)
	for bi, k := range anchors {
		for t := 0; t < L; t++ {
			row := out.Data()[(bi*L+t)*dim : (bi*L+t+1)*dim]
			if pooled != nil {
				copy(row[:featPx], pooled.Data()[(bi*L+t)*featPx:(bi*L+t+1)*featPx])
			}
			if cfg.Modality.UsesRF() {
				row[dim-1] = b.Norm.Normalize(d.Powers[int(k)-L+1+t])
			}
		}
	}
	return out
}

func (b *BSPeer) targets(anchors []int32) *tensor.Tensor {
	out := b.arena.GetUninit(len(anchors), 1)
	for i, k := range anchors {
		out.Data()[i] = b.Norm.Normalize(b.data.Powers[int(k)+b.Cfg.HorizonFrames])
	}
	return out
}

// extractImageGrad pulls the image-feature block out of the fused
// gradient as the cut-layer payload (arena-owned, valid until the next
// computeStep).
func (b *BSPeer) extractImageGrad(grad *tensor.Tensor, batch int) *tensor.Tensor {
	cfg, d := b.Cfg, b.data
	L := cfg.SeqLen
	featPx := cfg.FeaturePixels(d)
	dim := cfg.RNNInputDim(d)
	out := b.arena.GetUninit(batch*L, 1, d.H/cfg.PoolH, d.W/cfg.PoolW)
	for bi := 0; bi < batch; bi++ {
		for t := 0; t < L; t++ {
			src := grad.Data()[(bi*L+t)*dim : (bi*L+t)*dim+featPx]
			copy(out.Data()[(bi*L+t)*featPx:(bi*L+t+1)*featPx], src)
		}
	}
	return out
}

// nextAnchors draws the next mini-batch of anchors into the peer's
// reusable int32 slice.
func (b *BSPeer) nextAnchors() []int32 {
	if cap(b.anchorsInt) < b.Cfg.BatchSize {
		b.anchorsInt = make([]int, b.Cfg.BatchSize)
		b.anchors32 = make([]int32, b.Cfg.BatchSize)
	}
	b.anchorsInt = b.anchorsInt[:b.Cfg.BatchSize]
	b.anchors32 = b.anchors32[:b.Cfg.BatchSize]
	b.sampler.Fill(b.anchorsInt)
	for i, x := range b.anchorsInt {
		b.anchors32[i] = int32(x)
	}
	return b.anchors32
}

// computeStep runs the local half of one training step — fuse, forward,
// loss, backward, optimiser update, cut-gradient extraction — with no
// I/O. It is the unit of work the server's dispatcher schedules and a
// bare peer runs inline between the activation read and the gradient
// write. The returned cut gradient (nil for RF-only schemes) is
// arena-owned and valid until the next computeStep.
func (b *BSPeer) computeStep(anchors []int32, pooled *tensor.Tensor) (loss float64, cut *tensor.Tensor) {
	b.arena.Reset()
	nn.ZeroGrads(b.Model.Params())
	fused := b.fuse(anchors, pooled)
	pred := b.Model.Forward(fused)
	targets := b.targets(anchors)
	b.lossGrad = tensor.EnsureShape(b.lossGrad, pred.Shape()...)
	loss = nn.MSEInto(b.lossGrad, pred, targets)
	fusedGrad := b.Model.Backward(b.lossGrad)
	b.adam.Step()
	if b.Cfg.Modality.UsesImages() {
		cut = b.extractImageGrad(fusedGrad, len(anchors))
	}
	b.lastFused, b.lastTargets = fused, targets
	b.trained++
	return loss, cut
}

// sendCutGradient ships the cut-layer gradient for the in-flight step.
func (b *BSPeer) sendCutGradient(cut *tensor.Tensor) error {
	msg := &Message{Type: MsgCutGradient, Step: b.step, Tensor: cut, Codec: b.Cfg.Codec}
	if err := b.fw.WriteMessage(msg, ProtocolVersion); err != nil {
		return fmt.Errorf("transport: BS write gradient: %w", err)
	}
	return nil
}

// TrainStep runs one distributed SGD step, computing the BS half inline,
// and returns the mini-batch loss on the normalised scale.
func (b *BSPeer) TrainStep() (float64, error) { return b.trainStep(computeInline) }

// computeFn runs the BS half of one round for a peer: computeInline on a
// bare peer, computeHub.submit on a server session. It is the only thing
// the two differ in.
type computeFn func(b *BSPeer, anchors []int32, pooled *tensor.Tensor) (loss float64, cut *tensor.Tensor, err error)

func computeInline(b *BSPeer, anchors []int32, pooled *tensor.Tensor) (float64, *tensor.Tensor, error) {
	loss, cut := b.computeStep(anchors, pooled)
	return loss, cut, nil
}

// trainStep is the lock-step training round, the only implementation of
// it: draw anchors, request the UE's forward pass, compute, send the cut
// gradient back.
func (b *BSPeer) trainStep(compute computeFn) (float64, error) {
	anchors := b.nextAnchors()

	var pooled *tensor.Tensor
	if b.Cfg.Modality.UsesImages() {
		var err error
		pooled, err = b.requestActivations(MsgBatchRequest, anchors)
		if err != nil {
			return 0, err
		}
	}
	loss, cut, err := compute(b, anchors, pooled)
	if err != nil {
		return 0, err
	}
	if cut != nil {
		if err := b.sendCutGradient(cut); err != nil {
			return 0, err
		}
	}
	return loss, nil
}

// Evaluate computes the RMSE in dB over the given anchors without
// touching any parameters.
func (b *BSPeer) Evaluate(anchors []int) (float64, error) {
	var sumSq float64
	total := 0
	for start := 0; start < len(anchors); start += b.Cfg.BatchSize {
		end := start + b.Cfg.BatchSize
		if end > len(anchors) {
			end = len(anchors)
		}
		batch := toInt32(anchors[start:end])
		var pooled *tensor.Tensor
		if b.Cfg.Modality.UsesImages() {
			var err error
			pooled, err = b.requestActivations(MsgEvalRequest, batch)
			if err != nil {
				return 0, err
			}
		}
		b.arena.Reset()
		b.lastFused, b.lastTargets = nil, nil
		pred := b.Model.Forward(b.fuse(batch, pooled))
		target := b.targets(batch)
		for i := range batch {
			diff := pred.Data()[i] - target.Data()[i]
			sumSq += diff * diff
		}
		total += len(batch)
	}
	return b.Norm.DenormalizeRMSE(sqrt(sumSq / float64(total))), nil
}

// Shutdown tells the UE the session is complete. Safe to call when the
// scheme has no UE peer (it is then a no-op on a nil-safe connection).
func (b *BSPeer) Shutdown() error { return b.ShutdownAt(0) }

// ShutdownAt tells the UE to stop serving. A non-zero step marks a
// resumable shutdown (graceful drain with a checkpoint at that step):
// the UE keeps its checkpointed half for a later resume. Step 0 means
// the session is complete and checkpoints may be discarded.
func (b *BSPeer) ShutdownAt(step uint32) error {
	return b.writeControl(&Message{Type: MsgShutdown, Step: step})
}

// writeControl sends a control frame through the peer's writer — also
// the path the server uses for MsgCheckpoint, so control frames never
// interleave with a staged data frame.
func (b *BSPeer) writeControl(m *Message) error {
	return b.fw.WriteMessage(m, ProtocolVersion)
}

func toInt32(xs []int) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}

func sqrt(v float64) float64 {
	if v < 0 {
		return 0
	}
	return math.Sqrt(v)
}

// IsClosedConn reports whether err looks like a normal connection
// teardown, for servers that want to treat peer disconnects as clean.
func IsClosedConn(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe)
}
