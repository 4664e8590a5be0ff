package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/split"
	"repro/internal/transport"
)

// A workload is a fleet plus a unit of work: a fixed, seed-determined
// set of sessions that is driven to completion again and again until
// the run's time is up. Because a unit's inputs never change, every
// repetition must end in the same bits as the first — which turns each
// run into its own determinism proof (invariants 6–9 seen from
// outside) and makes every count (steps, wire bytes, final RMSE) a
// function of the seed alone, whatever the number of units that fitted.
type workloadDef struct {
	name      string
	needsDisk bool // fsync is the point: refuse a tmpfs temp dir
	fixedWire bool // every run of a seed moves exactly the same bytes per step
	setup     func(seed int64, sz sizes, clk clock, traced bool) (*bench, error)
}

// bench is one set-up instance of a workload.
type bench struct {
	f      *testbed
	slots  int  // sessions per unit
	steps  int  // training steps per session
	clones bool // all sessions of a unit replay one trajectory and must agree bit for bit
	unit   func(u int) ([]*ueSession, error)
}

// sizes fixes a unit of every workload. The issue sized each workload
// by step count to about 30 s; the builder's contract measures for a
// given number of seconds instead, so the sizes fix the unit and the run
// repeats it. A unit lasts well under three seconds on two vCPUs, so a
// run overshoots its time by little, and set-up — paid several times a
// run — stays under two seconds.
type sizes struct {
	liveSteps   int // per live UE and unit; 1500 in one session at the issue's full size
	cloneSteps  int // recorded trajectory length; 500 at the issue's full size
	churnUEs    int // sessions per unit, stratified; 2400 distinct at the issue's full size
	churnSteps  int
	churnMoveAt uint32 // the batch request that triggers a session's handover

	failoverReps int
	tailPuts     int // journal puts timed one by one; ten must lie beyond the 99th percentile
	replayIDs    int // the replay drill's journal holds replayIDs × 10 checkpoint records
}

var fullSizes = sizes{
	liveSteps: 150, cloneSteps: 120, churnUEs: 120, churnSteps: 60, churnMoveAt: 10,
	failoverReps: 20, tailPuts: 100*minBeyond + 100, replayIDs: 500,
}

const (
	liveUEs    = 2
	liveFrames = 600
	cloneUEs   = 8
	churnSlots = 2
)

// The four workloads; BENCHMARK.json and README.md say why each was
// chosen and which layer does most of the work on it.
var workloads = []workloadDef{
	{
		name:      "live_fleet",
		fixedWire: true,
		setup:     setupLiveFleet,
	},
	{
		name:      "clones_batched",
		fixedWire: true,
		setup: func(seed int64, sz sizes, clk clock, traced bool) (*bench, error) {
			return setupClones(seed, sz, clk, traced, false)
		},
	},
	{
		name:      "ckpt_storm",
		needsDisk: true,
		fixedWire: true,
		setup: func(seed int64, sz sizes, clk clock, traced bool) (*bench, error) {
			return setupClones(seed, sz, clk, traced, true)
		},
	},
	{
		name:      "churn",
		needsDisk: true,
		setup:     setupChurn,
	},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// paperHello is the hello of a paper-shaped session: 40×40 depth images
// pooled 40×40 to the one-pixel cut, image+RF, raw codec.
func paperHello(prov transport.Provision, id string, seed int64) (transport.Hello, split.Config, error) {
	h := transport.Hello{
		SessionID: id, Seed: seed, Frames: liveFrames, Pool: 40,
		Modality: uint8(split.ImageRF), Codec: uint8(compress.CodecRaw),
	}
	cfg, _, _, err := prov(h)
	if err != nil {
		return h, cfg, err
	}
	h.ConfigFP = cfg.Fingerprint()
	return h, cfg, nil
}

func setupLiveFleet(seed int64, sz sizes, clk clock, traced bool) (*bench, error) {
	prov := fleet.MemoProvision()
	type ue struct {
		h   transport.Hello
		cfg split.Config
		d   *dataset.Dataset
	}
	ues := make([]ue, liveUEs)
	for i := range ues {
		// Distinct seeds: distinct datasets and fingerprints, so the two
		// sessions share nothing and placement spreads them.
		h, cfg, err := paperHello(prov, "", seed*131+int64(i)+1)
		if err != nil {
			return nil, err
		}
		_, d, _, _ := prov(h) // memoised by paperHello's call
		ues[i] = ue{h, cfg, d}
	}
	f, err := buildTestbed(bedSpec{
		replicas: 2, coordinator: true, journal: true,
		server: transport.ServerConfig{
			MaxUE: liveUEs, Steps: sz.liveSteps, EvalEvery: 50, ValAnchors: 64, Provision: prov,
			BatchWindow: 2 * time.Millisecond, BatchMax: 8, CheckpointEvery: 10,
		},
	}, clk, traced)
	if err != nil {
		return nil, err
	}
	b := &bench{f: f, slots: liveUEs, steps: sz.liveSteps}
	b.unit = func(u int) ([]*ueSession, error) {
		return f.wave(liveUEs, true, func(s *ueSession) {
			s.id = fmt.Sprintf("lf-%05d-%d", u, s.slot)
			ue := ues[s.slot]
			ue.h.SessionID = s.id
			f.runLive(s, ue.h, ue.cfg, ue.d, sz.liveSteps, nil)
		})
	}
	return b, nil
}

// setupClones builds clones_batched (storm false) and ckpt_storm (storm
// true): the same eight replay clones of one recorded trajectory, first
// straight onto one BS with a mem store, then through the coordinator
// onto a journal that checkpoints every step.
func setupClones(seed int64, sz sizes, clk clock, traced, storm bool) (*bench, error) {
	prov := fleet.MemoProvision()
	h, _, err := paperHello(prov, "recorder", seed*131+7)
	if err != nil {
		return nil, err
	}
	// One trajectory, replayed by every clone of every wave: recording
	// runs a real UE half at about 12 ms a step, and eight seeds of 1500
	// steps cost the sizing probe 137 s of set-up.
	frames, err := fleet.RecordTrajectory(prov, h, sz.cloneSteps)
	if err != nil {
		return nil, fmt.Errorf("record trajectory: %w", err)
	}
	gate := newWaveGate(cloneUEs)
	spec := bedSpec{
		replicas: 1,
		server: transport.ServerConfig{
			MaxUE: cloneUEs, Steps: sz.cloneSteps, EvalEvery: 1 << 30, ValAnchors: 16,
			Provision:   gate.provision(prov),
			BatchWindow: 2 * time.Millisecond, BatchMax: cloneUEs, CheckpointEvery: 50,
		},
	}
	prefix := "cb"
	if storm {
		prefix = "cs"
		spec.replicas, spec.coordinator, spec.journal = 2, true, true
		spec.server.CheckpointEvery = 1
	}
	f, err := buildTestbed(spec, clk, traced)
	if err != nil {
		return nil, err
	}
	b := &bench{f: f, slots: cloneUEs, steps: sz.cloneSteps, clones: true}
	b.unit = func(u int) ([]*ueSession, error) {
		// Behind the coordinator the joins are serialised so that affinity
		// sees clone i live when it places clone i+1 and co-locates all
		// eight; the gate then starts them together.
		return f.wave(cloneUEs, f.co != nil, func(s *ueSession) {
			s.id = fmt.Sprintf("%s-%05d-%d", prefix, u, s.slot)
			hi := h
			hi.SessionID = s.id
			f.runReplay(s, hi, frames)
		})
	}
	return b, nil
}

func setupChurn(seed int64, sz sizes, clk clock, traced bool) (*bench, error) {
	env, err := fleet.NewEnv(fleet.Spec{
		UEs: 16 * sz.churnUEs, Seed: seed, Steps: sz.churnSteps, SceneClasses: 8, ChurnFraction: 0,
	})
	if err != nil {
		return nil, err
	}
	profiles, err := stratify(env.Profiles, sz.churnUEs)
	if err != nil {
		return nil, err
	}
	prov := unitProvision(env.Provision())
	f, err := buildTestbed(bedSpec{
		replicas: 2, coordinator: true, journal: true,
		// The default 64 MiB threshold would compact once or never in a
		// run; 4 MiB makes compaction a steady part of the load.
		compactBytes: 4 << 20,
		server: transport.ServerConfig{
			MaxUE: 2 * churnSlots, Steps: sz.churnSteps, EvalEvery: 1 << 30, ValAnchors: 8, Provision: prov,
			BatchWindow: 2 * time.Millisecond, BatchMax: 16, CheckpointEvery: 5,
		},
	}, clk, traced)
	if err != nil {
		return nil, err
	}
	b := &bench{f: f, slots: sz.churnUEs, steps: sz.churnSteps}
	b.unit = func(u int) ([]*ueSession, error) {
		out := make([]*ueSession, sz.churnUEs)
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < churnSlots; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					p := profiles[i]
					s := &ueSession{id: fmt.Sprintf("ch-%05d/%s", u, p.SessionID), slot: i}
					out[i] = s
					h := env.Hello(p)
					h.SessionID = s.id
					if !p.Modality.UsesImages() {
						f.runRFOnly(s, h)
						continue
					}
					f.runLive(s, h, env.Config(p), env.Dataset(p), sz.churnSteps, f.migrateOnce(s, sz.churnMoveAt))
				}
			}()
		}
		for i := range profiles {
			next <- i
		}
		close(next)
		wg.Wait()
		f.handlers.Wait()
		return out, nil
	}
	return b, nil
}

// unitProvision lets every unit replay the same fleet profiles under
// fresh session ids ("ch-00003/fleet-00017"): provisioning resolves the
// part after the slash.
func unitProvision(inner transport.Provision) transport.Provision {
	return func(h transport.Hello) (split.Config, *dataset.Dataset, *dataset.Split, error) {
		h.SessionID = h.SessionID[strings.IndexByte(h.SessionID, '/')+1:]
		return inner(h)
	}
}

// stratify picks n profiles out of a larger seeded candidate set so
// that every (modality, codec, pool) combination appears in exactly its
// expected share — 20/20/60 % RF-only/image-only/image+RF, 50/25/25 %
// raw/float16/int8, a third each of pool 2/4/8 — and orders them so
// the combinations are interleaved. A plain draw of 120 profiles puts
// between 15 and 33 RF-only sessions in a unit depending on the seed,
// and wire bytes per step (a 16-fold range across pools) then moves
// several per cent from seed to seed for no reason the program has any
// part in. n must be a multiple of 60.
func stratify(candidates []fleet.Profile, n int) ([]fleet.Profile, error) {
	if n%60 != 0 {
		return nil, fmt.Errorf("stratify: %d is not a multiple of 60", n)
	}
	type key struct {
		m split.Modality
		c compress.ID
		p int
	}
	want := func(k key) int {
		w := n / 3 // pool
		switch k.m {
		case split.RFOnly, split.ImageOnly:
			w /= 5
		default:
			w = w * 3 / 5
		}
		if k.c == compress.CodecRaw {
			return w / 2
		}
		return w / 4
	}
	type pick struct {
		p   fleet.Profile
		pos float64
	}
	var picks []pick
	taken := make(map[key]int)
	for _, p := range candidates {
		k := key{p.Modality, p.Codec, p.Pool}
		if taken[k] >= want(k) {
			continue
		}
		picks = append(picks, pick{p, (float64(taken[k]) + 0.5) / float64(want(k))})
		taken[k]++
	}
	if len(picks) != n {
		return nil, fmt.Errorf("stratify: %d candidates fill only %d of %d places", len(candidates), len(picks), n)
	}
	sort.SliceStable(picks, func(i, j int) bool { return picks[i].pos < picks[j].pos })
	out := make([]fleet.Profile, n)
	for i, pk := range picks {
		out[i] = pk.p
	}
	return out, nil
}
