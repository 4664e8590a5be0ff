// Package fleet is the heterogeneous-UE load model for the multi-UE
// base station: a deterministic generator of synthetic UE profiles and
// a soak runner that drives them — as real protocol sessions, not
// replayed clones — against an in-process BSServer.
//
// The repository benchmark's clone workloads (benchmark/) measure the
// friendliest possible load: N clones of one recorded session, every
// round fingerprint-equal and shareable. A deployed base station sees
// the opposite — independent UEs with different corridors (non-IID
// datasets via scene parameter sweeps), different modalities, codecs
// and pooling widths (mixed config fingerprints, so cross-session
// sharing finds nothing), different channel quality (blockage and
// Nakagami fading shaping per-round think time), and churn: flapping
// reconnects, mid-round drops, idling until evicted, and
// supersede-on-rejoin. This package is that honest adversarial load:
// the soak tests drive it through Run, and the benchmark draws its
// profiles and provisioning from it.
//
// Everything derives deterministically from Spec.Seed: the same spec
// produces a byte-identical profile set, and — because per-session
// training is deterministic and round sharing is proven bit-exact
// before use — identical per-UE final metrics across runs and across
// tensor worker counts (the fleet extension of invariants 6–8).
package fleet

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/compress"
	"repro/internal/split"
	"repro/internal/transport"
)

// Churn is a UE's connection-lifecycle behaviour over its session.
type Churn int

// Churn behaviours. Only image-bearing UEs churn: an RF-only session
// never blocks the server on its UE, so cutting or stalling its uplink
// exercises nothing.
const (
	// ChurnSteady serves every request until clean shutdown.
	ChurnSteady Churn = iota
	// ChurnFlapping cuts its own uplink mid-frame (FaultConn) and
	// reconnects with backoff, resuming from the last checkpoint when
	// checkpointing is enabled; after two cuts it stays up.
	ChurnFlapping
	// ChurnMidRoundDrop cuts its uplink mid-activation-upload once and
	// never returns — the session fails on the server's read.
	ChurnMidRoundDrop
	// ChurnIdle answers a few rounds, then holds the connection open and
	// stops responding until the server's idle timeout evicts it.
	ChurnIdle
	// ChurnSupersede stops responding like ChurnIdle, but immediately
	// rejoins on a fresh connection with the same session id, fencing
	// the wedged incarnation off via supersede-on-rejoin.
	ChurnSupersede

	numChurn
)

// String names the churn behaviour.
func (c Churn) String() string {
	switch c {
	case ChurnSteady:
		return "steady"
	case ChurnFlapping:
		return "flapping"
	case ChurnMidRoundDrop:
		return "mid-round-drop"
	case ChurnIdle:
		return "idle"
	case ChurnSupersede:
		return "supersede"
	}
	return fmt.Sprintf("Churn(%d)", int(c))
}

// Profile is one synthetic UE: everything the driver needs to dial,
// provision and misbehave deterministically.
type Profile struct {
	Index     int    `json:"index"`
	SessionID string `json:"session_id"`

	// Seed is the UE's private model/config seed: distinct per UE, so
	// config fingerprints are mixed and clone sharing finds nothing.
	Seed int64 `json:"seed"`

	// SceneClass indexes the spec's corridor-sweep grid: UEs of one
	// class share a (read-only) dataset, UEs of different classes train
	// non-IID.
	SceneClass int `json:"scene_class"`

	Modality split.Modality `json:"modality"`
	Codec    compress.ID    `json:"codec"`
	Pool     int            `json:"pool"`

	// Channel quality: Nakagami fading shape and a static blockage loss
	// applied to the uplink budget. Together they set the per-round
	// transmission delay the driver models as think time.
	FadingM    float64 `json:"fading_m"`
	BlockageDB float64 `json:"blockage_db"`

	// ThinkNs is the UE's per-request local compute time; HeavyTail
	// marks the straggler decile whose think time is an order of
	// magnitude above the band.
	ThinkNs   int64 `json:"think_ns"`
	HeavyTail bool  `json:"heavy_tail"`

	Churn Churn `json:"churn"`

	// CutBytes is the uplink write budget before a flapping/mid-round
	// fault trips (per incarnation, growing for flapping UEs).
	CutBytes int64 `json:"cut_bytes"`

	// TriggerRound is the number of rounds an idle/supersede UE answers
	// before it stops responding.
	TriggerRound int `json:"trigger_round"`
}

// Spec configures a fleet. Zero values take the documented defaults;
// every derived quantity — profiles, datasets, configs — is a pure
// function of the spec, so two runs of the same spec are comparable
// round for round.
type Spec struct {
	UEs   int   // fleet size (≤0: 64)
	Seed  int64 // master seed for profiles, scenes and datasets
	Steps int   // training steps per session (≤0: 6)

	SceneClasses int // distinct corridor/dataset classes (≤0: min(64, UEs))
	Frames       int // frames per class dataset (≤0: 240)

	// ChurnFraction is the probability that an image-bearing UE gets a
	// non-steady churn behaviour (clamped to [0, 1]).
	ChurnFraction float64

	Checkpoint bool // enable checkpoint/resume (flapping UEs resume)

	// Replicas > 1 shards the soak across that many BS replicas behind a
	// coordinator (internal/coord): sessions are placed by affinity/load,
	// and a handover drill live-migrates sessions between replicas for
	// the whole soak. Each replica gets its own in-memory checkpoint
	// store (migration needs checkpoints), so resume is implicitly on.
	// ≤1 keeps the single-server path byte-identical to before.
	Replicas int

	// RebalanceEvery is the handover drill cadence in a replica fleet
	// (≤0: 5ms). Each tick attempts a load-based rebalance and falls
	// back to a forced round-robin handover of one migration-eligible
	// session, so handover traffic is sustained even on a balanced
	// fleet.
	RebalanceEvery time.Duration

	// Chaos (needs Replicas > 1) runs the crash-failover drill on top of
	// the churn load: every replica is rebuilt on a durable journal
	// store behind a fault-injecting filesystem, a failure detector
	// probes the fleet, and a drill goroutine kills replicas uncontrolled
	// mid-round — tearing the in-flight store write on the way down —
	// waits out coordinator crash failover, then rejoins the replica as
	// a fresh incarnation adopting from its store. The soak's Report
	// gains the Failover section (MTTR and the recovered/lost ledger).
	Chaos bool

	// ChaosInterval is the pause between chaos drill actions — kill,
	// stall, rejoin cycles (≤0: 100ms).
	ChaosInterval time.Duration

	// OnServer, when set, observes each of the soak's BSServers right
	// after it is built and before any UE joins — the mount point for
	// the control plane (internal/control) without this package
	// importing it. Tests also use it to scrape /metrics concurrently
	// with the churn load. In a replica fleet it runs once per replica.
	OnServer func(*transport.BSServer) `json:"-"`
}

// The soak's server settings, the same for every spec.
const (
	batchWindow = 2 * time.Millisecond   // batched-path coalescing window
	batchMax    = 16                     // rounds per dispatch
	idleTimeout = 500 * time.Millisecond // server idle eviction
	retain      = 128                    // finished-snapshot retention ring

	// wallLimit aborts a wedged soak — the deadline that turns a
	// deadlock or an unevictable session into a test failure instead of
	// a hung run.
	wallLimit = 10 * time.Minute
)

func (s Spec) withDefaults() Spec {
	if s.UEs <= 0 {
		s.UEs = 64
	}
	if s.Steps <= 0 {
		s.Steps = 6
	}
	if s.SceneClasses <= 0 {
		s.SceneClasses = s.UEs
		if s.SceneClasses > 64 {
			s.SceneClasses = 64
		}
	}
	if s.Frames <= 0 {
		s.Frames = 240
	}
	if s.ChurnFraction < 0 {
		s.ChurnFraction = 0
	} else if s.ChurnFraction > 1 {
		s.ChurnFraction = 1
	}
	if s.Replicas <= 0 {
		s.Replicas = 1
	}
	if s.RebalanceEvery <= 0 {
		s.RebalanceEvery = 5 * time.Millisecond
	}
	if s.ChaosInterval <= 0 {
		s.ChaosInterval = 100 * time.Millisecond
	}
	return s
}

// Profiles generates the fleet's UE profiles. Each profile draws from
// its own splitmix-derived substream, so profile i is a function of
// (Seed, SceneClasses, i) alone — stable under fleet resizing at a
// fixed class count and trivially byte-identical across runs.
func (s Spec) Profiles() []Profile {
	sp := s.withDefaults()
	out := make([]Profile, sp.UEs)
	for i := range out {
		out[i] = sp.profile(i)
	}
	return out
}

func (s Spec) profile(i int) Profile {
	rng := rand.New(rand.NewSource(int64(mix64(uint64(s.Seed) ^ (uint64(i)+1)*0x9e3779b97f4a7c15))))
	p := Profile{
		Index:     i,
		SessionID: fmt.Sprintf("fleet-%05d", i),
		Seed:      s.Seed + 1_000_003*int64(i) + 17,
	}
	// Fixed draw order keeps every field position-stable in the
	// substream: adding a field later appends a draw, never shifts one.
	p.SceneClass = rng.Intn(s.SceneClasses)
	switch m := rng.Float64(); {
	case m < 0.2:
		p.Modality = split.RFOnly
	case m < 0.4:
		p.Modality = split.ImageOnly
	default:
		p.Modality = split.ImageRF
	}
	p.Codec = []compress.ID{compress.CodecRaw, compress.CodecRaw, compress.CodecFloat16, compress.CodecQuantInt8}[rng.Intn(4)]
	p.Pool = []int{2, 4, 8}[rng.Intn(3)]
	p.FadingM = 0.6 + 1.9*rng.Float64()
	p.BlockageDB = 30 * rng.Float64() * rng.Float64() // skewed toward clear links
	p.ThinkNs = int64(50_000 + 150_000*rng.Float64())
	if rng.Float64() < 0.1 {
		p.HeavyTail = true
		p.ThinkNs *= 10
	}
	churnDraw := rng.Float64()
	kind := Churn(1 + rng.Intn(int(numChurn)-1))
	p.CutBytes = 2048 + rng.Int63n(8192)
	p.TriggerRound = 1 + rng.Intn(3)
	if churnDraw < s.ChurnFraction && p.Modality.UsesImages() {
		p.Churn = kind
	}
	return p
}

// mix64 is the splitmix64 finaliser: a bijective avalanche over the
// per-index stream seeds.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
