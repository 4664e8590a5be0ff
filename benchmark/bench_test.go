package main

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/fleet"
	"repro/internal/split"
	"repro/internal/tensor"
	"repro/internal/transport"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 0.95); !ok || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190 with ten beyond", v, ok)
	}
	if _, ok := percentile(xs, 0.99); ok {
		t.Error("p99 of 200 samples has two samples beyond it and must be refused")
	}
	if _, ok := percentile(xs[:10], 0.5); ok {
		t.Error("median of 10 samples has five beyond it and must be refused as a percentile")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of nothing must be refused")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5}); q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles of 1..5 = %v %v %v", q1, q2, q3)
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != 1 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := spread([]float64{7, 7, 7}); got != 0 {
		t.Errorf("spread of a constant = %v", got)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	var l spanLog
	round := l.add(0, "round", "s", 1, 0, 100)
	l.add(round, "ue.bwd", "s", 1, 40, 90)
	l.add(round, "store.put", "s", 1, 60, 120) // overlaps ue.bwd and runs past its parent
	serve := l.add(round, "serve", "s", 1, 10, 40)
	l.add(serve, "bs.service", "s", 1, 15, 35)
	got := make(map[string]layerTime)
	for _, lt := range selfTimes(l.spans) {
		got[lt.Name] = lt
	}
	// Children cover [10,40) ∪ [40,90) ∪ [60,100) = [10,100): 10 left.
	if got["round"].Self != 10 || got["round"].Total != 100 {
		t.Errorf("round: %+v, want total 100 self 10", got["round"])
	}
	if got["serve"].Self != 10 {
		t.Errorf("serve self = %d, want 30-20", got["serve"].Self)
	}
	if got["store.put"].Self != 60 || got["bs.service"].Self != 20 {
		t.Errorf("leaves keep their whole duration: %+v %+v", got["store.put"], got["bs.service"])
	}
}

func TestUnionLength(t *testing.T) {
	if got := unionLength([]interval{{5, 10}, {0, 3}, {8, 12}, {20, 21}, {9, 9}}); got != 3+7+1 {
		t.Errorf("union = %d, want 11", got)
	}
	if unionLength(nil) != 0 {
		t.Error("empty union must be 0")
	}
}

// The taps follow frames by the wire layout, which the benchmark spells
// out for itself; this pins it to what the program really writes.
func TestFrameScannerFollowsWireFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	msgs := []*transport.Message{
		{Type: transport.MsgSessionHello, Hello: &transport.Hello{SessionID: "ue-1", Seed: 3, Frames: 10, Pool: 4}},
		{Type: transport.MsgBatchRequest, Step: 7, Anchors: []int32{5, 6, 7, 8}},
		{Type: transport.MsgActivations, Step: 7, Tensor: tensor.Randn(rng, 1, 4, 1, 2, 2), Codec: compress.CodecFloat16},
		{Type: transport.MsgCutGradient, Step: 7, Tensor: tensor.Randn(rng, 1, 4, 1, 2, 2)},
		{Type: transport.MsgCheckpoint, Step: 9},
		{Type: transport.MsgShutdown},
	}
	var stream []byte
	var ends []int
	for _, m := range msgs {
		var err error
		if stream, err = transport.AppendMessage(stream, m, transport.ProtocolVersion); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, len(stream))
	}
	for _, chunk := range []int{1, 5, 12, 13, 64, len(stream)} {
		var sc frameScanner
		var seen int
		for off := 0; off < len(stream); off += chunk {
			end := min(off+chunk, len(stream))
			now := int64(off + 1) // "time" is the chunk's offset
			sc.feed(stream[off:end], now, func(typ transport.MsgType, step uint32, startAt int64) {
				if seen >= len(msgs) {
					t.Fatalf("chunk %d: extra frame %v", chunk, typ)
				}
				if typ != msgs[seen].Type || step != msgs[seen].Step {
					t.Errorf("chunk %d, frame %d: got %v step %d, want %v step %d", chunk, seen, typ, step, msgs[seen].Type, msgs[seen].Step)
				}
				if end < ends[seen] || off >= ends[seen] {
					t.Errorf("chunk %d, frame %d: reported done in [%d,%d), ends at %d", chunk, seen, off, end, ends[seen])
				}
				first := 0
				if seen > 0 {
					first = ends[seen-1]
				}
				if want := int64(first/chunk*chunk + 1); startAt != want {
					t.Errorf("chunk %d, frame %d: first byte stamped %d, want %d", chunk, seen, startAt, want)
				}
				seen++
			})
		}
		if seen != len(msgs) {
			t.Errorf("chunk %d: saw %d of %d frames", chunk, seen, len(msgs))
		}
	}
}

func TestStratifyGivesExactShares(t *testing.T) {
	candidates := fleet.Spec{UEs: 2000, Seed: 9, SceneClasses: 8}.Profiles()
	got, err := stratify(candidates, 120)
	if err != nil {
		t.Fatal(err)
	}
	byModality := make(map[split.Modality]int)
	byCodec := make(map[compress.ID]int)
	byPool := make(map[int]int)
	for _, p := range got {
		byModality[p.Modality]++
		byCodec[p.Codec]++
		byPool[p.Pool]++
	}
	if byModality[split.RFOnly] != 24 || byModality[split.ImageOnly] != 24 || byModality[split.ImageRF] != 72 {
		t.Errorf("modalities %v, want 24/24/72", byModality)
	}
	if byCodec[compress.CodecRaw] != 60 || byCodec[compress.CodecFloat16] != 30 || byCodec[compress.CodecQuantInt8] != 30 {
		t.Errorf("codecs %v, want 60/30/30", byCodec)
	}
	if byPool[2] != 40 || byPool[4] != 40 || byPool[8] != 40 {
		t.Errorf("pools %v, want 40 each", byPool)
	}
	// Interleaved: any quarter of the order holds about a quarter of the
	// RF-only sessions.
	rf := 0
	for _, p := range got[:30] {
		if p.Modality == split.RFOnly {
			rf++
		}
	}
	if rf < 4 || rf > 8 {
		t.Errorf("first quarter holds %d of 24 RF-only sessions", rf)
	}
	if _, err := stratify(candidates, 100); err == nil {
		t.Error("a size that is not a multiple of 60 must be refused")
	}
	if _, err := stratify(candidates[:100], 120); err == nil {
		t.Error("too few candidates must be refused")
	}
}

// smokeSizes shrinks every unit so that all four workloads, traced and
// untraced, and every drill run in a few seconds: an API change under
// internal/ then breaks this test, not the next benchmark run.
var smokeSizes = sizes{
	liveSteps: 4, cloneSteps: 6, churnUEs: 60, churnSteps: 14, churnMoveAt: 6,
	failoverReps: 2, tailPuts: 30, replayIDs: 20,
}

func TestSmokeWorkloads(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			clk := clock{t0: time.Now()}
			b, err := w.setup(5, smokeSizes, clk, false)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := runPhase(b, 0.05)
			b.f.close()
			if err != nil {
				t.Fatal(err)
			}
			if b, err = w.setup(5, smokeSizes, clk, true); err != nil {
				t.Fatal(err)
			}
			defer b.f.close()
			ph, err := runPhase(b, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range append(ref.problems, ph.problems...) {
				t.Error(p)
			}
			if ph.failed() != 0 || ph.units < 1 || ph.sessionsOK != ph.units*b.slots {
				t.Fatalf("%d units, %d of %d sessions ok, %d failed", ph.units, ph.sessionsOK, ph.sessionsRun, ph.failed())
			}
			for slot, got := range ph.finalBits() {
				if want := ref.finalBits()[slot]; !bitsEqual(got[0], want[0]) || !bitsEqual(got[1], want[1]) {
					t.Errorf("slot %d: traced and untraced runs end in different bits", slot)
				}
			}
			if w.fixedWire && ph.wireBytesPerStep() != ref.wireBytesPerStep() {
				t.Errorf("wire bytes per step: traced %v, untraced %v", ph.wireBytesPerStep(), ref.wireBytesPerStep())
			}
			if w.name == "churn" && (ph.movesAsked == 0 || ph.movesFailed != 0) {
				t.Errorf("handovers: %d asked, %d failed", ph.movesAsked, ph.movesFailed)
			}

			spans, ls := buildSpans(ph)
			names := make(map[string]int)
			for _, s := range spans.spans {
				names[s.Name]++
				if s.End < s.Start {
					t.Fatalf("span %+v ends before it starts", s)
				}
			}
			want := []string{"session", "join"}
			if w.name != "churn" || names["round"] > 0 {
				want = append(want, "round", "ue.fwd", "serve", "bs.service", "ue.bwd")
			}
			if b.f.co != nil {
				want = append(want, "relay.up", "relay.down")
			}
			if w.name == "ckpt_storm" || w.name == "churn" {
				want = append(want, "store.put")
			}
			if w.name == "churn" {
				want = append(want, "migrate", "migrate_out", "adopt", "resume_gap")
			}
			for _, n := range want {
				if names[n] == 0 {
					t.Errorf("no %q span in the trace (have %v)", n, names)
				}
			}
			if b.f.co != nil && len(ls.relayRttUs) == 0 {
				t.Error("no round was matched to its replica-side record")
			}
			if err := spans.writeJSONL(filepath.Join(t.TempDir(), "trace.jsonl")); err != nil {
				t.Error(err)
			}
			for _, m := range tracedMetrics(ph, ls, ref.stepsPerSec()) {
				if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
					t.Errorf("%s = %v", m.name, m.value)
				}
			}
		})
	}
}

// smokeDrills runs every drill once, at toy size, for all the tests that
// look at their output.
var smokeDrills = sync.OnceValues(func() ([]metric, error) {
	dir, err := os.MkdirTemp("", "bsbench-test-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	defer os.Setenv("TMPDIR", os.Getenv("TMPDIR"))
	os.Setenv("TMPDIR", dir)
	return runDrills(5*time.Millisecond, 5, smokeSizes)
})

func TestSmokeDrills(t *testing.T) {
	ms, err := smokeDrills()
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]float64)
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) || m.value < 0 {
			t.Errorf("%s = %v", m.name, m.value)
		}
		got[m.name] = m.value
	}
	for _, name := range []string{"transport.frame_enc_allocs", "transport.frame_dec_allocs", "coord.failover_lost"} {
		if v, ok := got[name]; !ok || v != 0 {
			t.Errorf("%s = %v (present %v), want 0", name, v, ok)
		}
	}
	if got["split.ckpt_bytes"] == 0 || got["compress.raw_bytes_1px"] == 0 || got["coord.failover_recover_p50_ms"] == 0 {
		t.Errorf("drills left a measured size or time at 0: %v", got)
	}
}

// BENCHMARK.json and the program must name the same workloads and
// metrics, with the same units.
func TestManifestMatchesProgram(t *testing.T) {
	mf, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Workloads) != len(workloads) {
		t.Errorf("manifest lists %d workloads, program has %d", len(mf.Workloads), len(workloads))
	}
	for i, w := range mf.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: manifest %q, program %q", i, w.Name, workloads[i].name)
		}
	}

	// A made-up phase is enough to make the program name its metrics.
	tap := &ueTap{helloStart: 1, ackEnd: 2, shutdownEnd: 1000}
	for i := int64(0); i < 300; i++ {
		tap.rounds = append(tap.rounds, roundRec{wStart: i, gFirst: 2*i + 1})
	}
	ph := &phase{
		b: &bench{steps: 300}, sessions: []*ueSession{{taps: []*ueTap{tap}}},
		sessionsRun: 1, sessionsOK: 1, wallNs: 1e9,
	}
	e2e, _, err := endToEnd(ph, 1)
	if err != nil {
		t.Fatal(err)
	}
	drilled, err := smokeDrills()
	if err != nil {
		t.Fatal(err)
	}
	layer := append(tracedMetrics(ph, layerSamples{}, 1), drilled...)

	check := func(kind string, listed []manifestMetric, produced []metric) {
		units := make(map[string]string)
		for _, m := range produced {
			if _, dup := units[m.name]; dup {
				t.Errorf("%s metric %q is produced twice", kind, m.name)
			}
			units[m.name] = m.unit
		}
		for _, m := range listed {
			unit, ok := units[m.Name]
			if !ok {
				t.Errorf("%s metric %q is in the manifest and not produced", kind, m.Name)
			} else if unit != m.Unit {
				t.Errorf("%s metric %q: manifest unit %q, program prints %q", kind, m.Name, m.Unit, unit)
			}
			delete(units, m.Name)
		}
		for n := range units {
			t.Errorf("%s metric %q is produced and not in the manifest", kind, n)
		}
	}
	check("end-to-end", mf.EndToEnd, e2e)
	check("per-layer", mf.PerLayer, layer)
}
