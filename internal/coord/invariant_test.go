package coord_test

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/coord"
	"repro/internal/store"
	"repro/internal/transport"
)

// Invariant 9: a session handed over between replicas mid-training is
// bit-identical to one served end-to-end on a single BS — both halves.
// The matrix covers every cut-layer codec crossed with every store
// backend, because the handover wire format is exactly a store
// checkpoint plus a resume token: if any (codec, backend) pair
// round-trips differently, this is where it shows.

// invariantBackends enumerates the store backends; each factory opens a
// fresh instance rooted in its own directory.
var invariantBackends = []struct {
	name string
	open func(t *testing.T) store.Store
}{
	{"mem", func(t *testing.T) store.Store { return store.NewMem(64) }},
	{"journal", func(t *testing.T) store.Store {
		s, err := store.OpenJournal(filepath.Join(t.TempDir(), "store.journal"), store.JournalOptions{Retain: 64})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}},
}

func TestHandoverBitIdentityMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("8-cell handover matrix in -short")
	}
	prov := tinyProvision()
	for _, codec := range compress.IDs() {
		for _, backend := range invariantBackends {
			t.Run(fmt.Sprintf("%s_%s", codec, backend.name), func(t *testing.T) {
				handoverBitIdentityCell(t, prov, codec, backend.open)
			})
		}
	}
}

// invariantHello is tinyHello with the cell's codec negotiated into the
// handshake (and into the fingerprint the affinity policy sees).
func invariantHello(prov transport.Provision, id string, codec compress.ID) (transport.Hello, *transport.UESession) {
	h, cfg, d := tinyHello(prov, id, 7)
	h.Codec = uint8(codec)
	cfg.Codec = codec
	h.ConfigFP = cfg.Fingerprint()
	return h, &transport.UESession{
		Hello: h, Cfg: cfg, Data: d,
		Backoff: transport.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
	}
}

func handoverBitIdentityCell(t *testing.T, prov transport.Provision, codec compress.ID, open func(*testing.T) store.Store) {
	const steps = 30
	newServer := func(id string, st store.Store) *transport.BSServer {
		srv, err := transport.NewBSServer(transport.ServerConfig{
			ReplicaID: id,
			MaxUE:     2, Steps: steps, EvalEvery: 1 << 30, ValAnchors: 8,
			Provision: prov, CheckpointEvery: 2,
			Store: st,
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}

	// Reference: the same session served end-to-end on one BS.
	soloStore := open(t)
	defer soloStore.Close()
	solo := newServer("solo", soloStore)
	_, soloUE := invariantHello(prov, "ue-inv", codec)
	if err := soloUE.Run(func() (io.ReadWriteCloser, error) {
		ueEnd, bsEnd := net.Pipe()
		go func() { _ = solo.Handle(bsEnd) }()
		return ueEnd, nil
	}); err != nil {
		t.Fatalf("solo run: %v", err)
	}
	soloSnap := waitDetached(t, solo, "ue-inv")
	if soloSnap.Steps != steps {
		t.Fatalf("solo snapshot: %+v", soloSnap)
	}
	soloBS, err := soloStore.GetCheckpoint("ue-inv", steps)
	if err != nil {
		t.Fatalf("solo BS checkpoint: %v", err)
	}

	// Handover path: two replicas on the same backend kind, migrate
	// mid-training, finish on the destination.
	stA, stB := open(t), open(t)
	defer stA.Close()
	defer stB.Close()
	srvA, srvB := newServer("bs-a", stA), newServer("bs-b", stB)
	co, err := coord.New([]coord.Replica{
		coord.NewLocalReplica(srvA), coord.NewLocalReplica(srvB),
	}, coord.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	_, migUE := invariantHello(prov, "ue-inv", codec)
	// Slow the UE slightly so the run is still live when the migration
	// lands; pacing cannot affect the math, which is the invariant.
	migUE.OnRequest = func(mt transport.MsgType, _ uint32) error {
		if mt == transport.MsgBatchRequest {
			time.Sleep(500 * time.Microsecond)
		}
		return nil
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := migUE.Run(coordDial(co, &wg)); err != nil {
			panic(fmt.Sprintf("migrated UESession: %v", err))
		}
	}()

	waitFor(t, "session past a checkpoint", func() bool {
		src := co.RouteOf("ue-inv")
		if src == "" {
			return false
		}
		sn, ok := co.ReplicaByID(src).(*coord.LocalReplica).BS().SessionByID("ue-inv")
		return ok && sn.Steps >= 4
	})
	src := co.RouteOf("ue-inv")
	dst := "bs-b"
	if src == dst {
		dst = "bs-a"
	}
	if err := co.Migrate("ue-inv", dst); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	wg.Wait()

	if migUE.Resumes() == 0 {
		t.Fatal("handed-over session never resumed")
	}
	dstSrv := co.ReplicaByID(dst).(*coord.LocalReplica).BS()
	migSnap := waitDetached(t, dstSrv, "ue-inv")
	if migSnap.Steps != steps {
		t.Fatalf("destination snapshot: %+v", migSnap)
	}
	dstStore := stB
	if dst == "bs-a" {
		dstStore = stA
	}
	migBS, err := dstStore.GetCheckpoint("ue-inv", steps)
	if err != nil {
		t.Fatalf("destination BS checkpoint: %v", err)
	}

	// Both halves bit-identical: the UE-side checkpoint blob and the
	// BS-side store blob at the final step, plus the exact final
	// metric bits.
	if !bytes.Equal(soloUE.CheckpointBytes(), migUE.CheckpointBytes()) {
		t.Error("UE half diverged between single-BS and handed-over runs")
	}
	if !bytes.Equal(soloBS, migBS) {
		t.Error("BS half diverged between single-BS and handed-over runs")
	}
	if math.Float64bits(soloSnap.LastLoss) != math.Float64bits(migSnap.LastLoss) ||
		math.Float64bits(soloSnap.LastRMSE) != math.Float64bits(migSnap.LastRMSE) {
		t.Errorf("final metrics diverged: solo loss=%x rmse=%x, migrated loss=%x rmse=%x",
			math.Float64bits(soloSnap.LastLoss), math.Float64bits(soloSnap.LastRMSE),
			math.Float64bits(migSnap.LastLoss), math.Float64bits(migSnap.LastRMSE))
	}
}
