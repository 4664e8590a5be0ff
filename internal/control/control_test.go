package control

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/coord"
	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/split"
	"repro/internal/store"
	"repro/internal/transport"
)

// tinyEnv is a fast deterministic provisioner mirroring the transport
// package's test environment: small scene, tiny model, RF+image.
func tinyEnv(h transport.Hello) (split.Config, *dataset.Dataset, *dataset.Split, error) {
	gcfg := dataset.DefaultGenConfig()
	gcfg.NumFrames = int(h.Frames)
	gcfg.Seed = h.Seed
	gcfg.Scene.ImageH, gcfg.Scene.ImageW = 8, 8
	gcfg.Scene.FocalPixels = 5
	d, err := dataset.Generate(gcfg)
	if err != nil {
		return split.Config{}, nil, nil, err
	}
	cfg := split.DefaultConfig(split.Modality(h.Modality), int(h.Pool))
	cfg.SeqLen = 2
	cfg.HorizonFrames = 2
	cfg.BatchSize = 4
	cfg.HiddenSize = 6
	cfg.Seed = h.Seed
	sp, err := dataset.NewSplit(d, cfg.SeqLen, cfg.HorizonFrames, d.Len()*3/4)
	if err != nil {
		return split.Config{}, nil, nil, err
	}
	return cfg, d, sp, nil
}

func tinyHello(i int) transport.Hello {
	return transport.Hello{
		SessionID: fmt.Sprintf("ue-%d", i),
		Seed:      int64(100 + i),
		Frames:    200,
		Pool:      4,
		Modality:  uint8(split.ImageRF),
	}
}

// runHello trains one UE to clean detach through the coordinator.
func runHello(co *coord.Coordinator, h transport.Hello) error {
	cfg, d, _, err := tinyEnv(h)
	if err != nil {
		return err
	}
	h.ConfigFP = cfg.Fingerprint()
	ueConn, coConn := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- co.HandleConn(coConn) }()
	if err := transport.ServeUE(ueConn, h, cfg, d); err != nil {
		return fmt.Errorf("session %s: UE: %w", h.SessionID, err)
	}
	if err := <-done; err != nil {
		return fmt.Errorf("session %s: coordinator: %w", h.SessionID, err)
	}
	return nil
}

// runSession trains UE i to clean detach and waits for its replica to
// retire it.
func runSession(t *testing.T, co *coord.Coordinator, i int) {
	t.Helper()
	if err := runHello(co, tinyHello(i)); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, co)
}

// waitIdle waits until no replica holds a live session. A UE returns on
// the BS's shutdown frame, a moment before the replica retires the
// session.
func waitIdle(t *testing.T, co *coord.Coordinator) {
	t.Helper()
	waitUntil(t, "every session retired", func() bool {
		for _, r := range co.Replicas() {
			if r.Live() > 0 {
				return false
			}
		}
		return true
	})
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func testServer(t *testing.T, cfg transport.ServerConfig) *transport.BSServer {
	t.Helper()
	if cfg.Provision == nil {
		cfg.Provision = tinyEnv
	}
	srv, err := transport.NewBSServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// coordOver puts a coordinator in front of the given servers.
func coordOver(t *testing.T, servers ...*transport.BSServer) *coord.Coordinator {
	t.Helper()
	replicas := make([]coord.Replica, len(servers))
	for i, srv := range servers {
		replicas[i] = coord.NewLocalReplica(srv)
	}
	co, err := coord.New(replicas, coord.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return co
}

// testFleet builds n in-process replicas bs-0…bs-n-1 from cfg behind a
// coordinator, as the daemon does: each replica on its own store, a
// mem store unless cfg names one.
func testFleet(t *testing.T, n int, cfg transport.ServerConfig) (*coord.Coordinator, []*transport.BSServer) {
	t.Helper()
	servers := make([]*transport.BSServer, n)
	for i := range servers {
		c := cfg
		c.ReplicaID = fmt.Sprintf("bs-%d", i)
		if c.Store == nil {
			c.Store = store.NewMem(64)
		}
		servers[i] = testServer(t, c)
	}
	return coordOver(t, servers...), servers
}

// do performs one request against the control handler.
func do(t *testing.T, c *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, req)
	return rec
}

func TestMetricsEndpoint(t *testing.T) {
	co, _ := testFleet(t, 1, transport.ServerConfig{
		MaxUE: 2, Steps: 6, EvalEvery: 3, ValAnchors: 8,
		BatchWindow: 200 * time.Microsecond,
	})
	runSession(t, co, 0)
	runSession(t, co, 1)
	c := New(co, Options{})

	rec := do(t, c, "GET", "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.Bytes()
	if err := ValidateExposition(body); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	for _, want := range []string{
		`mmsl_replica_info{id="bs-0",replica="bs-0"} 1`,
		`mmsl_sessions_live{replica="bs-0"} 0`,
		`mmsl_sessions_ended_total{cause="detached",replica="bs-0"} 2`,
		`mmsl_rounds_total{replica="bs-0"} 12`,
		`mmsl_round_latency_seconds_count{replica="bs-0"} 12`,
		`mmsl_round_latency_seconds_bucket{le="+Inf",replica="bs-0"} 12`,
		`mmsl_wire_bytes_total{direction="in",replica="bs-0"}`,
		`mmsl_policy_max_ue{replica="bs-0"} 2`,
		`mmsl_draining{replica="bs-0"} 0`,
		`mmsl_store_info{kind="mem",replica="bs-0"} 1`,
		`mmsl_store_degraded{replica="bs-0"} 0`,
		`mmsl_store_records_total{replica="bs-0"}`,
		`mmsl_store_compactions_total{replica="bs-0"} 0`,
		`mmsl_store_recoveries_total{replica="bs-0"} 0`,
		`mmsl_store_write_errors_total{replica="bs-0"} 0`,
		`mmsl_checkpoint_restore_errors_total{replica="bs-0"} 0`,
		`mmsl_store_adopted_sessions_total{replica="bs-0"} 0`,
		"mmsl_coord_replicas 1",
		"mmsl_coord_connections_routed_total 2",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// storeJSON is the per-replica store detail of /healthz.
type storeJSON struct {
	Kind            string `json:"kind"`
	Degraded        bool   `json:"degraded"`
	JournalBytes    int64  `json:"journal_bytes"`
	LiveCheckpoints int64  `json:"live_checkpoints"`
	LiveBlobs       int64  `json:"live_blobs"`
	WriteErrors     int64  `json:"write_errors"`
	RestoreErrors   int64  `json:"restore_errors"`
	Recoveries      int64  `json:"recoveries"`
	AdoptedSessions int64  `json:"adopted_sessions"`
}

type healthJSON struct {
	Status string               `json:"status"`
	Stores map[string]storeJSON `json:"stores"`
}

func getHealth(t *testing.T, c *Server) healthJSON {
	t.Helper()
	rec := do(t, c, "GET", "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /healthz: %d", rec.Code)
	}
	var h healthJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	return h
}

// failingStore refuses every checkpoint write.
type failingStore struct{ store.Store }

func (failingStore) PutCheckpoint(string, int, []byte) error { return errors.New("disk full") }

// TestStoreHealthEndpoints: a journal-backed replica surfaces its store
// on /metrics (kind, journal growth, record counts, blob sharing) and
// /healthz (the per-replica store detail map). Two sessions of one seed
// end on bit-identical checkpoints, which the journal holds as one blob.
// A replica whose store degrades demotes the fleet's status.
func TestStoreHealthEndpoints(t *testing.T) {
	dir := t.TempDir()
	j, err := store.OpenJournal(filepath.Join(dir, "bs-0.journal"), store.JournalOptions{Retain: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	co, _ := testFleet(t, 1, transport.ServerConfig{
		MaxUE: 1, Steps: 6, EvalEvery: 3, ValAnchors: 8,
		Store: j, CheckpointEvery: 3,
	})
	runSession(t, co, 0)
	clone := tinyHello(0)
	clone.SessionID = "ue-0-clone"
	if err := runHello(co, clone); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, co)
	c := New(co, Options{})

	rec := do(t, c, "GET", "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	body := rec.Body.String()
	if err := ValidateExposition([]byte(body)); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	for _, want := range []string{
		`mmsl_store_info{kind="journal",replica="bs-0"} 1`,
		`mmsl_store_degraded{replica="bs-0"} 0`,
		`mmsl_store_live_checkpoints{replica="bs-0"} 2`,
		`mmsl_store_live_blobs{replica="bs-0"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(body, `mmsl_store_journal_bytes{replica="bs-0"} 0`) {
		t.Error("journal bytes gauge stuck at zero after a checkpointed session")
	}

	health := getHealth(t, c)
	st := health.Stores["bs-0"]
	if health.Status != "ok" || st.Kind != "journal" || st.Degraded {
		t.Fatalf("healthz: %+v", health)
	}
	if st.JournalBytes == 0 {
		t.Fatal("healthz journal_bytes zero after a checkpointed session")
	}
	if st.LiveCheckpoints != 2 || st.LiveBlobs != 1 {
		t.Fatalf("healthz store: %d live checkpoints on %d blobs, want 2 on 1", st.LiveCheckpoints, st.LiveBlobs)
	}

	// bs-1's checkpoint writes all fail: it degrades, and so does the
	// fleet's status, while bs-0 still reports a healthy store.
	bad := testServer(t, transport.ServerConfig{
		ReplicaID: "bs-1", MaxUE: 1, Steps: 6, EvalEvery: 3, ValAnchors: 8,
		Store: failingStore{store.NewMem(8)}, CheckpointEvery: 3,
		StoreRetries: 1, StoreRetryBackoff: time.Millisecond,
	})
	co2 := coordOver(t, bad)
	runSession(t, co2, 1)
	co, err = coord.New([]coord.Replica{co.Replicas()[0], co2.Replicas()[0]}, coord.Options{})
	if err != nil {
		t.Fatal(err)
	}
	health = getHealth(t, New(co, Options{}))
	if health.Status != "degraded" || !health.Stores["bs-1"].Degraded || health.Stores["bs-0"].Degraded {
		t.Fatalf("healthz with one degraded store: %+v", health)
	}
}

func TestSessionEndpoints(t *testing.T) {
	co, _ := testFleet(t, 2, transport.ServerConfig{
		MaxUE: 2, Steps: 4, EvalEvery: 2, ValAnchors: 8,
	})
	runSession(t, co, 0)
	c := New(co, Options{})
	where := co.RouteOf("ue-0")

	rec := do(t, c, "GET", "/sessions", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /sessions: %d", rec.Code)
	}
	var list []sessionJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != "ue-0" || list[0].State != "detached" || list[0].Steps != 4 || list[0].Replica != where {
		t.Fatalf("GET /sessions = %+v (routed to %q)", list, where)
	}

	rec = do(t, c, "GET", "/sessions/ue-0", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /sessions/ue-0: %d", rec.Code)
	}
	var one sessionJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &one); err != nil {
		t.Fatal(err)
	}
	if one.ID != "ue-0" || one.Codec != "raw" || one.BytesIn <= 0 || one.Replica != where {
		t.Fatalf("GET /sessions/ue-0 = %+v", one)
	}

	if rec := do(t, c, "GET", "/sessions/ghost", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("GET /sessions/ghost: %d", rec.Code)
	}
	if rec := do(t, c, "POST", "/sessions/ghost/evict", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("POST evict ghost: %d", rec.Code)
	}
	if rec := do(t, c, "POST", "/sessions/ue-0/evict", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("POST evict of a detached session: %d", rec.Code)
	}
}

func TestConfigRoundTrip(t *testing.T) {
	co, servers := testFleet(t, 1, transport.ServerConfig{
		MaxUE: 4, Steps: 8, Provision: fleet.GateProvision(2, tinyEnv),
	})
	srv := servers[0]
	c := New(co, Options{})

	rec := do(t, c, "GET", "/config", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /config: %d", rec.Code)
	}
	var got configJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.MaxUE == nil || *got.MaxUE != 4 || got.DefaultCodec == nil || *got.DefaultCodec != "raw" {
		t.Fatalf("GET /config = %s", rec.Body.String())
	}

	// Partial PUT: only the named fields change.
	rec = do(t, c, "PUT", "/config", `{"max_ue": 2, "default_codec": "float16", "idle_timeout": "3s"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("PUT /config: %d %s", rec.Code, rec.Body.String())
	}
	p := srv.CurrentPolicy()
	if p.MaxUE != 2 || p.DefaultCodec != compress.CodecFloat16 || p.IdleTimeout != 3*time.Second {
		t.Fatalf("policy after PUT = %+v", p)
	}
	if p.CheckpointEvery != 50 {
		t.Fatalf("unnamed field changed: CheckpointEvery %d", p.CheckpointEvery)
	}

	// Invalid documents and values must not touch the policy.
	for _, bad := range []struct {
		body string
		code int
	}{
		{`{"max_ue": 0}`, http.StatusUnprocessableEntity},
		{`{"idle_timeout": "soon"}`, http.StatusBadRequest},
		{`{"default_codec": "gzip"}`, http.StatusBadRequest},
		{`{"unknown_field": 1}`, http.StatusBadRequest},
		{`{"batch_window": "-5ms"}`, http.StatusUnprocessableEntity},
		{`not json`, http.StatusBadRequest},
	} {
		rec := do(t, c, "PUT", "/config", bad.body)
		if rec.Code != bad.code {
			t.Errorf("PUT %s: %d, want %d (%s)", bad.body, rec.Code, bad.code, rec.Body.String())
		}
	}
	if srv.CurrentPolicy() != p {
		t.Fatalf("rejected PUTs mutated the policy: %+v", srv.CurrentPolicy())
	}

	// The coalescing window is a live field like any other: a server
	// booted at window 0 accepts a raise, and two clone sessions joined
	// after it (gated to start together) share rounds.
	rec = do(t, c, "PUT", "/config", `{"batch_window": "200ms"}`)
	if rec.Code != http.StatusOK || srv.CurrentPolicy().BatchWindow != 200*time.Millisecond {
		t.Fatalf("PUT batch_window: %d %s", rec.Code, rec.Body.String())
	}
	errs := make(chan error, 2)
	for _, id := range []string{"clone-a", "clone-b"} {
		h := tinyHello(0)
		h.SessionID = id
		go func() { errs <- runHello(co, h) }()
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if srv.SharedRounds() == 0 {
		t.Fatal("clone sessions joined after the live raise shared no round")
	}
}

// TestDrainEndpoint pins POST /drain to the SIGTERM drain semantics:
// every replica refuses new sessions, the OnDrain hook (the listener
// closer in the daemon) runs, and the call is idempotent.
func TestDrainEndpoint(t *testing.T) {
	co, servers := testFleet(t, 2, transport.ServerConfig{MaxUE: 2, Steps: 4})
	var hookCalls int
	c := New(co, Options{OnDrain: func() { hookCalls++ }})

	rec := do(t, c, "POST", "/drain", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /drain: %d", rec.Code)
	}
	if !servers[0].Draining() || !servers[1].Draining() || hookCalls != 1 {
		t.Fatalf("after drain: draining %v/%v, hook calls %d", servers[0].Draining(), servers[1].Draining(), hookCalls)
	}
	if h := getHealth(t, c); h.Status != "draining" {
		t.Fatalf("healthz after drain: %+v", h)
	}

	// Exactly what a SIGTERM-drained daemon does: refuse the join.
	joinErr := runHello(co, tinyHello(9))
	if !errors.Is(joinErr, transport.ErrSessionRejected) || !strings.Contains(joinErr.Error(), "draining") {
		t.Fatalf("join after drain: %v, want draining rejection", joinErr)
	}

	if rec := do(t, c, "POST", "/drain", ""); rec.Code != http.StatusOK {
		t.Fatalf("second POST /drain: %d", rec.Code)
	}
	if hookCalls != 2 {
		t.Fatalf("OnDrain not re-run on repeat drain: %d", hookCalls)
	}
}

// TestEvictEndpoint evicts a live session through the HTTP surface,
// on the replica its route names, and checks the session retires with
// the administrative cause.
func TestEvictEndpoint(t *testing.T) {
	endc := make(chan error, 1)
	co, _ := testFleet(t, 2, transport.ServerConfig{
		MaxUE: 1, Steps: 1_000_000, EvalEvery: 1_000_000, ValAnchors: 8,
		OnSessionEnd: func(_ transport.SessionSnapshot, cause error) { endc <- cause },
	})
	c := New(co, Options{})
	ueDone := make(chan error, 1)
	go func() { ueDone <- runHello(co, tinyHello(0)) }()
	waitUntil(t, "session joined", func() bool {
		rep := co.ReplicaByID(co.RouteOf("ue-0"))
		return rep != nil && rep.Live() == 1
	})

	rec := do(t, c, "POST", "/sessions/ue-0/evict", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("POST evict: %d %s", rec.Code, rec.Body.String())
	}
	var evicted map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &evicted); err != nil || evicted["replica"] != co.RouteOf("ue-0") {
		t.Fatalf("evict response: %v %s", err, rec.Body.String())
	}
	select {
	case cause := <-endc:
		if !errors.Is(cause, transport.ErrAdminEvicted) {
			t.Fatalf("cause = %v, want ErrAdminEvicted", cause)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("OnSessionEnd never fired")
	}
	if err := <-ueDone; err == nil {
		t.Fatal("evicted UE finished cleanly")
	}
}

// TestMetricsScrapeUnderChurn races scrapes against joining, training
// and detaching sessions on two replicas — the race-detector coverage
// for every counter the exposition reads — and validates each scrape.
func TestMetricsScrapeUnderChurn(t *testing.T) {
	co, servers := testFleet(t, 2, transport.ServerConfig{
		MaxUE: 16, Steps: 4, EvalEvery: 2, ValAnchors: 8, Retain: 4,
		BatchWindow: 200 * time.Microsecond,
	})
	c := New(co, Options{})

	stop := make(chan struct{})
	var scrapes sync.WaitGroup
	for w := 0; w < 2; w++ {
		scrapes.Add(1)
		go func() {
			defer scrapes.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := do(t, c, "GET", "/metrics", "")
				if rec.Code != http.StatusOK {
					t.Errorf("scrape: %d", rec.Code)
					return
				}
				if err := ValidateExposition(rec.Body.Bytes()); err != nil {
					t.Errorf("scrape invalid: %v", err)
					return
				}
				do(t, c, "GET", "/sessions", "")
				do(t, c, "GET", "/healthz", "")
			}
		}()
	}

	var ues sync.WaitGroup
	ueErrs := make(chan error, 12)
	for i := 0; i < 12; i++ {
		ues.Add(1)
		go func(i int) {
			defer ues.Done()
			ueErrs <- runHello(co, tinyHello(i))
		}(i)
	}
	ues.Wait()
	waitIdle(t, co)
	close(stop)
	scrapes.Wait()
	close(ueErrs)
	for err := range ueErrs {
		if err != nil {
			t.Fatal(err)
		}
	}

	var detached int64
	for _, srv := range servers {
		st := srv.Stats()
		detached += st.EndedDetached
		// Each retention ring holds 4, but the totals must stay monotonic.
		retained := min(st.EndedDetached, 4)
		if int64(st.RetainedSnapshots) != retained || st.SnapshotsEvicted != st.EndedDetached-retained {
			t.Fatalf("%s ring after %d sessions: retained %d evicted %d, want %d/%d", srv.ReplicaID(),
				st.EndedDetached, st.RetainedSnapshots, st.SnapshotsEvicted, retained, st.EndedDetached-retained)
		}
	}
	if detached != 12 {
		t.Fatalf("detached total %d, want 12", detached)
	}
}

// startUE runs one reconnect-capable UE through the coordinator.
func startUE(t *testing.T, co *coord.Coordinator, wg *sync.WaitGroup, i int) *transport.UESession {
	t.Helper()
	h := tinyHello(i)
	cfg, d, _, err := tinyEnv(h)
	if err != nil {
		t.Fatal(err)
	}
	h.ConfigFP = cfg.Fingerprint()
	us := &transport.UESession{
		Hello: h, Cfg: cfg, Data: d,
		Backoff: transport.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
	}
	dial := func() (io.ReadWriteCloser, error) {
		ueEnd, coEnd := net.Pipe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = co.HandleConn(coEnd)
		}()
		return ueEnd, nil
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := us.Run(dial); err != nil {
			panic(fmt.Sprintf("UESession %q: %v", h.SessionID, err))
		}
	}()
	return us
}

// TestCoordEndpointsAndFederatedMetrics drives a handover through the
// admin surface and then validates the federated scrape: one family
// header per metric, every replica's samples under it with a replica
// label, the coordinator's own counters alongside.
func TestCoordEndpointsAndFederatedMetrics(t *testing.T) {
	co, _ := testFleet(t, 2, transport.ServerConfig{
		MaxUE: 4, Steps: 4000, EvalEvery: 1 << 30, ValAnchors: 8, CheckpointEvery: 5,
	})
	c := New(co, Options{Logf: t.Logf})

	var wg sync.WaitGroup
	us := startUE(t, co, &wg, 0)

	waitUntil(t, "session live past a checkpoint", func() bool {
		src := co.RouteOf("ue-0")
		if src == "" {
			return false
		}
		sn, ok := co.ReplicaByID(src).(*coord.LocalReplica).BS().SessionByID("ue-0")
		return ok && sn.Steps >= 10
	})
	src := co.RouteOf("ue-0")
	dst := "bs-1"
	if src == dst {
		dst = "bs-0"
	}

	if rec := do(t, c, "POST", "/sessions/ue-0/migrate", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("migrate without ?to=: %d", rec.Code)
	}
	rec := do(t, c, "POST", "/sessions/ue-0/migrate?to="+dst, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("POST migrate: %d %s", rec.Code, rec.Body.String())
	}
	var moved map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &moved); err != nil || moved["to"] != dst {
		t.Fatalf("migrate response: %v %s", err, rec.Body.String())
	}
	wg.Wait()
	if us.Resumes() == 0 {
		t.Fatal("migrated session never resumed")
	}
	waitIdle(t, co)

	// Replica listing reflects the fleet.
	rec = do(t, c, "GET", "/replicas", "")
	var reps []replicaJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &reps); err != nil || len(reps) != 2 {
		t.Fatalf("GET /replicas: %v %s", err, rec.Body.String())
	}

	// Both incarnations are listed, each under its replica, and the
	// single-session view follows the route to the destination.
	rec = do(t, c, "GET", "/sessions", "")
	var list []sessionJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil || len(list) != 2 {
		t.Fatalf("GET /sessions: %v %s", err, rec.Body.String())
	}
	rec = do(t, c, "GET", "/sessions/ue-0", "")
	var one sessionJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &one); err != nil || one.Replica != dst || one.State != "detached" {
		t.Fatalf("GET /sessions/ue-0 after handover: %v %s", err, rec.Body.String())
	}

	// Federated scrape: valid exposition, per-replica samples under one
	// header, handover visible on both the replicas and the coordinator.
	rec = do(t, c, "GET", "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	body := rec.Body.Bytes()
	if err := ValidateExposition(body); err != nil {
		t.Fatalf("federated exposition invalid: %v\n%s", err, body)
	}
	for _, want := range []string{
		fmt.Sprintf(`mmsl_replica_info{id=%q,replica=%q} 1`, src, src),
		fmt.Sprintf(`mmsl_replica_info{id=%q,replica=%q} 1`, dst, dst),
		fmt.Sprintf(`mmsl_sessions_ended_total{cause="migrated",replica=%q} 1`, src),
		fmt.Sprintf(`mmsl_sessions_ended_total{cause="detached",replica=%q} 1`, dst),
		fmt.Sprintf(`mmsl_sessions_migrated_in_total{replica=%q} 1`, dst),
		fmt.Sprintf(`mmsl_round_latency_seconds_bucket{le="+Inf",replica=%q}`, src),
		fmt.Sprintf(`mmsl_round_latency_seconds_count{replica=%q}`, dst),
		"mmsl_coord_replicas 2",
		"mmsl_coord_handovers_total 1",
		"mmsl_coord_handover_failures_total 0",
		`mmsl_coord_relayed_bytes_total{direction="in"}`,
		"mmsl_coord_handover_latency_p50_seconds",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("federated exposition missing %q", want)
		}
	}
	if n := strings.Count(string(body), "# TYPE mmsl_sessions_live gauge"); n != 1 {
		t.Errorf("family header repeated %d times", n)
	}

	// Healthz carries fleet shape and handover counts.
	rec = do(t, c, "GET", "/healthz", "")
	var health map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" || health["replicas"] != float64(2) || health["handovers"] != float64(1) {
		t.Fatalf("healthz: %v", health)
	}
}

// TestCoordConfigRoundTrip exercises the one /config document: GET
// returns the live placement and serving policies, PUT patches them,
// and a document that is invalid in either half changes neither.
func TestCoordConfigRoundTrip(t *testing.T) {
	co, servers := testFleet(t, 2, transport.ServerConfig{MaxUE: 4, Steps: 8})
	c := New(co, Options{})

	rec := do(t, c, "GET", "/config", "")
	var got configJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if *got.Strategy != coord.PlaceAffinity || *got.MigrateTimeout != "30s" || *got.MaxUE != 4 {
		t.Fatalf("default config: %s", rec.Body.String())
	}

	rec = do(t, c, "PUT", "/config", `{"strategy":"least-loaded","migrate_timeout":"2s"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("PUT /config: %d %s", rec.Code, rec.Body.String())
	}
	if p := co.CurrentPolicy(); p.Strategy != coord.PlaceLeastLoaded || p.MigrateTimeout != 2*time.Second {
		t.Fatalf("policy after PUT: %+v", p)
	}

	// Partial patch keeps unnamed fields.
	rec = do(t, c, "PUT", "/config", `{"strategy":"affinity"}`)
	if rec.Code != http.StatusOK {
		t.Fatal(rec.Code)
	}
	if p := co.CurrentPolicy(); p.Strategy != coord.PlaceAffinity || p.MigrateTimeout != 2*time.Second {
		t.Fatalf("policy after partial PUT: %+v", p)
	}

	// One document, both halves: the serving half lands on every replica.
	rec = do(t, c, "PUT", "/config", `{"strategy":"least-loaded","max_ue":3,"default_codec":"int8"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("PUT both halves: %d %s", rec.Code, rec.Body.String())
	}
	if p := co.CurrentPolicy(); p.Strategy != coord.PlaceLeastLoaded {
		t.Fatalf("placement after PUT of both halves: %+v", p)
	}
	for _, srv := range servers {
		if p := srv.CurrentPolicy(); p.MaxUE != 3 || p.DefaultCodec != compress.CodecQuantInt8 {
			t.Fatalf("%s serving policy after PUT of both halves: %+v", srv.ReplicaID(), p)
		}
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || *got.MaxUE != 3 || *got.Strategy != coord.PlaceLeastLoaded {
		t.Fatalf("PUT response: %v %s", err, rec.Body.String())
	}

	cp, bp := co.CurrentPolicy(), servers[1].CurrentPolicy()
	for _, bad := range []string{
		`{"strategy":"round-robin"}`,
		`{"migrate_timeout":"-1s"}`,
		`{"migrate_timeout":"soon"}`,
		`{"unknown_field":1}`,
		// One valid half beside one invalid half: neither may land.
		`{"strategy":"affinity","max_ue":0}`,
		`{"strategy":"affinity","batch_window":"later"}`,
		`{"strategy":"round-robin","max_ue":2}`,
		`{"migrate_timeout":"soon","max_ue":2}`,
	} {
		rec = do(t, c, "PUT", "/config", bad)
		if rec.Code == http.StatusOK {
			t.Errorf("PUT %s accepted", bad)
		}
	}
	if p := co.CurrentPolicy(); p != cp {
		t.Fatalf("placement policy mutated by rejected PUT: %+v", p)
	}
	for _, srv := range servers {
		if p := srv.CurrentPolicy(); p != bp {
			t.Fatalf("%s serving policy mutated by rejected PUT: %+v", srv.ReplicaID(), p)
		}
	}
}

func TestValidateExposition(t *testing.T) {
	good := "# HELP a_total things\n# TYPE a_total counter\na_total 3\n" +
		"# TYPE h gauge\nh{x=\"1\",y=\"a,b\"} 2.5\n" +
		"# TYPE lat histogram\nlat_bucket{le=\"0.1\"} 1\nlat_bucket{le=\"+Inf\"} 2\nlat_sum 0.3\nlat_count 2\n"
	if err := ValidateExposition([]byte(good)); err != nil {
		t.Fatalf("good exposition rejected: %v", err)
	}
	for name, bad := range map[string]string{
		"empty":              "",
		"no trailing nl":     "# TYPE a gauge\na 1",
		"bad metric name":    "# TYPE 0a gauge\n0a 1\n",
		"bad value":          "# TYPE a gauge\na one\n",
		"no type":            "a 1\n",
		"duplicate type":     "# TYPE a gauge\n# TYPE a counter\na 1\n",
		"duplicate series":   "# TYPE a gauge\na 1\na 2\n",
		"dup labeled series": "# TYPE a gauge\na{x=\"1\"} 1\na{x=\"1\"} 2\n",
		"type after sample":  "# TYPE a gauge\na 1\n# HELP a late\n",
		"unquoted label":     "# TYPE a gauge\na{x=1} 1\n",
		"bad label name":     "# TYPE a gauge\na{0x=\"1\"} 1\n",
		"unterminated set":   "# TYPE a gauge\na{x=\"1\" 1\n",
		"bad type keyword":   "# TYPE a widget\na 1\n",
	} {
		if err := ValidateExposition([]byte(bad)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Distinct label sets under one name are fine.
	ok := "# TYPE a gauge\na{x=\"1\"} 1\na{x=\"2\"} 2\n"
	if err := ValidateExposition([]byte(ok)); err != nil {
		t.Fatalf("distinct series rejected: %v", err)
	}
}
