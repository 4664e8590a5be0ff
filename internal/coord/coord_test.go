package coord_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/dataset"
	"repro/internal/split"
	"repro/internal/store"
	"repro/internal/transport"
)

// tinyProvision memoises a test-scale session environment per seed —
// 8×8 images, short sequences — so multi-session tests never pay
// dataset synthesis twice.
func tinyProvision() transport.Provision {
	type env struct {
		cfg split.Config
		d   *dataset.Dataset
		sp  *dataset.Split
		err error
	}
	var mu sync.Mutex
	cache := map[int64]*env{}
	return func(h transport.Hello) (split.Config, *dataset.Dataset, *dataset.Split, error) {
		mu.Lock()
		defer mu.Unlock()
		e, ok := cache[h.Seed]
		if !ok {
			e = &env{}
			gcfg := dataset.DefaultGenConfig()
			gcfg.NumFrames = int(h.Frames)
			gcfg.Seed = h.Seed
			gcfg.Scene.ImageH, gcfg.Scene.ImageW = 8, 8
			gcfg.Scene.FocalPixels = 5
			e.d, e.err = dataset.Generate(gcfg)
			if e.err == nil {
				e.cfg = split.DefaultConfig(split.Modality(h.Modality), int(h.Pool))
				e.cfg.SeqLen, e.cfg.HorizonFrames = 2, 2
				e.cfg.BatchSize, e.cfg.HiddenSize = 4, 6
				e.cfg.Seed = h.Seed
				e.sp, e.err = dataset.NewSplit(e.d, e.cfg.SeqLen, e.cfg.HorizonFrames, e.d.Len()*3/4)
			}
			cache[h.Seed] = e
		}
		return e.cfg, e.d, e.sp, e.err
	}
}

func tinyHello(prov transport.Provision, id string, seed int64) (transport.Hello, split.Config, *dataset.Dataset) {
	h := transport.Hello{
		SessionID: id,
		Seed:      seed,
		Frames:    200,
		Pool:      4,
		Modality:  uint8(split.ImageRF),
	}
	cfg, d, _, err := prov(h)
	if err != nil {
		panic(err)
	}
	h.ConfigFP = cfg.Fingerprint()
	return h, cfg, d
}

// testFleet builds n in-process replicas behind a coordinator. Each
// replica gets its own mem store so checkpoint/resume (and therefore
// migration) is live without touching disk.
func testFleet(t *testing.T, n, steps int, prov transport.Provision) (*coord.Coordinator, []*transport.BSServer) {
	t.Helper()
	servers := make([]*transport.BSServer, n)
	replicas := make([]coord.Replica, n)
	for i := range servers {
		srv, err := transport.NewBSServer(transport.ServerConfig{
			ReplicaID: fmt.Sprintf("bs-%d", i),
			MaxUE:     8, Steps: steps, EvalEvery: 1 << 30, ValAnchors: 8,
			Provision: prov, CheckpointEvery: 5,
			Store: store.NewMem(64),
		})
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
		replicas[i] = coord.NewLocalReplica(srv)
	}
	co, err := coord.New(replicas, coord.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return co, servers
}

// coordDial gives a UESession a dial function that connects through the
// coordinator, the way a TCP dial would reach its accept loop.
func coordDial(co *coord.Coordinator, wg *sync.WaitGroup) func() (io.ReadWriteCloser, error) {
	return func() (io.ReadWriteCloser, error) {
		ueEnd, coEnd := net.Pipe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = co.HandleConn(coEnd)
		}()
		return ueEnd, nil
	}
}

func runUE(co *coord.Coordinator, wg *sync.WaitGroup, h transport.Hello, cfg split.Config, d *dataset.Dataset) *transport.UESession {
	us := &transport.UESession{
		Hello: h, Cfg: cfg, Data: d,
		Backoff: transport.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := us.Run(coordDial(co, wg)); err != nil {
			panic(fmt.Sprintf("UESession %q: %v", h.SessionID, err))
		}
	}()
	return us
}

// waitDetached polls until srv's snapshot of id reaches the detached
// state — the replica's handler goroutine retires a session slightly
// after the UE side returns, so immediate asserts would race it — and
// returns the settled snapshot.
func waitDetached(t *testing.T, srv *transport.BSServer, id string) transport.SessionSnapshot {
	t.Helper()
	var sn transport.SessionSnapshot
	waitFor(t, fmt.Sprintf("%s detached on %s", id, srv.ReplicaID()), func() bool {
		got, ok := srv.SessionByID(id)
		if !ok || got.State != transport.SessionDetached {
			return false
		}
		sn = got
		return true
	})
	return sn
}

// TestCoordinatorRoutesAndCompletes: sessions joined through the
// coordinator complete exactly as they would against a bare server,
// and the fleet load is spread (least-loaded placement under distinct
// fingerprints).
func TestCoordinatorRoutesAndCompletes(t *testing.T) {
	prov := tinyProvision()
	co, servers := testFleet(t, 2, 12, prov)

	var wg sync.WaitGroup
	sessions := make([]*transport.UESession, 4)
	for i := range sessions {
		h, cfg, d := tinyHello(prov, fmt.Sprintf("ue-%d", i), int64(100+i))
		sessions[i] = runUE(co, &wg, h, cfg, d)
	}
	wg.Wait()

	total := 0
	waitFor(t, "fleet to settle", func() bool {
		for _, srv := range servers {
			if srv.ActiveSessions() != 0 {
				return false
			}
		}
		return true
	})
	for _, srv := range servers {
		for _, sn := range srv.Sessions() {
			if sn.State != transport.SessionDetached || sn.Steps != 12 {
				t.Fatalf("session %q on %s: %+v", sn.ID, srv.ReplicaID(), sn)
			}
			total++
		}
	}
	if total != 4 {
		t.Fatalf("fleet served %d sessions, want 4", total)
	}
	st := co.Stats()
	if st.Routed != 4 || st.Refused != 0 {
		t.Fatalf("coordinator stats: %+v", st)
	}
	if st.RelayedBytesUp == 0 || st.RelayedBytesDown == 0 {
		t.Fatalf("no bytes relayed: %+v", st)
	}
	for i := range sessions {
		if got := co.RouteOf(fmt.Sprintf("ue-%d", i)); got == "" {
			t.Fatalf("ue-%d has no route", i)
		}
	}
}

// waitFor polls cond (every ms, 5s budget) — the coordinator tests'
// only concession to real concurrency.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoordinatorHandover: a live session migrated between replicas
// mid-training resumes on the destination and completes there; the
// route flips and the handover is counted.
func TestCoordinatorHandover(t *testing.T) {
	prov := tinyProvision()
	co, servers := testFleet(t, 2, 4000, prov)

	var wg sync.WaitGroup
	h, cfg, d := tinyHello(prov, "ue-mig", 7)
	us := runUE(co, &wg, h, cfg, d)

	waitFor(t, "session live past first checkpoint", func() bool {
		src := co.RouteOf("ue-mig")
		if src == "" {
			return false
		}
		sn, ok := co.ReplicaByID(src).(*coord.LocalReplica).BS().SessionByID("ue-mig")
		return ok && sn.Steps >= 10
	})
	src := co.RouteOf("ue-mig")
	dst := "bs-1"
	if src == dst {
		dst = "bs-0"
	}
	if err := co.Migrate("ue-mig", dst); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if got := co.RouteOf("ue-mig"); got != dst {
		t.Fatalf("route after handover: %s, want %s", got, dst)
	}
	wg.Wait()

	if us.Resumes() == 0 {
		t.Fatal("migrated session never resumed")
	}
	dstSrv := co.ReplicaByID(dst).(*coord.LocalReplica).BS()
	sn := waitDetached(t, dstSrv, "ue-mig")
	if sn.Steps != 4000 || sn.ResumedFrom == 0 {
		t.Fatalf("destination session snapshot: %+v", sn)
	}
	for _, srv := range servers {
		srv := srv
		waitFor(t, srv.ReplicaID()+" to settle", func() bool { return srv.ActiveSessions() == 0 })
	}
	st := co.Stats()
	if st.Migrations != 1 || st.MigrationFails != 0 {
		t.Fatalf("coordinator stats after handover: %+v", st)
	}
	if p50, p99, n := co.HandoverLatency(); n != 1 || p50 <= 0 || p99 < p50 {
		t.Fatalf("handover latency: p50=%v p99=%v n=%d", p50, p99, n)
	}
	srcStats := co.ReplicaByID(src).(*coord.LocalReplica).BS().Stats()
	if srcStats.EndedMigrated != 1 {
		t.Fatalf("source migrated-out count: %+v", srcStats)
	}
	if dstSrv.Stats().MigratedIn != 1 {
		t.Fatalf("destination migrated-in count: %+v", dstSrv.Stats())
	}
}

// TestCoordinatorAllDraining: when every replica is draining, a join is
// refused with a structured rejection, not a hang.
func TestCoordinatorAllDraining(t *testing.T) {
	prov := tinyProvision()
	co, servers := testFleet(t, 2, 8, prov)
	for _, srv := range servers {
		srv.Drain()
	}
	h, cfg, d := tinyHello(prov, "ue-late", 11)
	us := &transport.UESession{Hello: h, Cfg: cfg, Data: d}
	var wg sync.WaitGroup
	err := us.Run(coordDial(co, &wg))
	if !errors.Is(err, transport.ErrSessionRejected) {
		t.Fatalf("join against draining fleet: %v", err)
	}
	wg.Wait()
	if st := co.Stats(); st.Refused == 0 {
		t.Fatalf("refusal not counted: %+v", st)
	}
}

// restampConn frames every write at another protocol version, re-sealing
// the CRC, the way a pre-v3 UE frames its hello. The write runs on its
// own goroutine: the coordinator stops reading after the header, and
// net.Pipe has no buffer to take the rest.
type restampConn struct {
	io.ReadWriter
	version byte
}

func (c restampConn) Write(p []byte) (int, error) {
	frame := append([]byte(nil), p...)
	frame[3] = c.version
	binary.BigEndian.PutUint32(frame[len(frame)-4:], crc32.ChecksumIEEE(frame[:len(frame)-4]))
	go c.ReadWriter.Write(frame)
	return len(p), nil
}

// TestCoordinatorRefusesOlderHello: a hello framed at protocol version 2
// is refused at the coordinator with the diagnostic ack the BS would
// send — not relayed, and not dropped with a bare close the UE would
// retry as a transport failure.
func TestCoordinatorRefusesOlderHello(t *testing.T) {
	prov := tinyProvision()
	co, _ := testFleet(t, 1, 8, prov)
	h, _, _ := tinyHello(prov, "ue-v2", 11)
	ueEnd, coEnd := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- co.HandleConn(coEnd) }()
	_, err := transport.JoinSession(restampConn{ueEnd, 2}, h)
	ueEnd.Close()
	if !errors.Is(err, transport.ErrSessionRejected) || !strings.Contains(err.Error(), "protocol version 2") {
		t.Fatalf("v2 hello through the coordinator: err = %v, want a rejection naming version 2", err)
	}
	if err := <-done; err == nil {
		t.Fatal("coordinator accepted a v2 hello")
	}
	if st := co.Stats(); st.Refused != 1 || st.Routed != 0 {
		t.Fatalf("stats after a v2 hello: %+v", st)
	}
}

// TestCoordinatorRefusesStalledHello: a client that sends half a hello
// and stalls is refused once the hello deadline passes, with the
// diagnostic ack, instead of holding the connection forever; the refusal
// is counted.
func TestCoordinatorRefusesStalledHello(t *testing.T) {
	const deadline = 100 * time.Millisecond
	defer coord.SetHelloTimeout(deadline)()
	prov := tinyProvision()
	co, _ := testFleet(t, 1, 8, prov)
	h, _, _ := tinyHello(prov, "ue-stalled", 11)
	var frame bytes.Buffer
	if err := transport.WriteMessage(&frame, &transport.Message{Type: transport.MsgSessionHello, Hello: &h}); err != nil {
		t.Fatal(err)
	}
	ueEnd, coEnd := net.Pipe()
	defer ueEnd.Close()
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- co.HandleConn(coEnd) }()
	if _, err := ueEnd.Write(frame.Bytes()[:frame.Len()/2]); err != nil {
		t.Fatal(err)
	}
	if err := ueEnd.SetReadDeadline(time.Now().Add(20 * deadline)); err != nil {
		t.Fatal(err)
	}
	reply, err := transport.ReadMessage(ueEnd)
	if err != nil {
		t.Fatalf("no refusal for a stalled hello: %v", err)
	}
	if reply.Type != transport.MsgSessionAck || reply.Hello == nil || reply.Hello.Err == "" {
		t.Fatalf("stalled hello answered with %v %+v, want a rejection ack", reply.Type, reply.Hello)
	}
	if err := <-done; err == nil {
		t.Fatal("coordinator accepted a stalled hello")
	}
	if took := time.Since(start); took < deadline {
		t.Fatalf("stalled hello refused after %v, before its %v deadline", took, deadline)
	}
	if st := co.Stats(); st.Refused != 1 || st.Routed != 0 {
		t.Fatalf("stats after a stalled hello: %+v", st)
	}
}

// TestCoordinatorAffinityPlacement: with the affinity policy, a fresh
// join whose fingerprint is already live lands on the replica serving
// it even when another replica is emptier.
func TestCoordinatorAffinityPlacement(t *testing.T) {
	prov := tinyProvision()
	co, _ := testFleet(t, 3, 4000, prov)

	var wg sync.WaitGroup
	// Same seed → same config fingerprint (clone sessions).
	hA, cfgA, dA := tinyHello(prov, "clone-0", 42)
	runUE(co, &wg, hA, cfgA, dA)
	waitFor(t, "first clone live", func() bool {
		src := co.RouteOf("clone-0")
		if src == "" {
			return false
		}
		_, ok := co.ReplicaByID(src).(*coord.LocalReplica).BS().SessionByID("clone-0")
		return ok
	})

	hB, cfgB, dB := tinyHello(prov, "clone-1", 42)
	runUE(co, &wg, hB, cfgB, dB)
	waitFor(t, "second clone routed", func() bool { return co.RouteOf("clone-1") != "" })

	if a, b := co.RouteOf("clone-0"), co.RouteOf("clone-1"); a != b {
		t.Fatalf("clone sessions split across replicas: %s vs %s", a, b)
	}
	wg.Wait()
}
