package control

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/compress"
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

// runSessionErr trains one UE to clean detach against srv.
func runSessionErr(srv *transport.BSServer, i int) error {
	return runHello(srv, tinyHello(i))
}

func runHello(srv *transport.BSServer, h transport.Hello) error {
	cfg, d, _, err := tinyEnv(h)
	if err != nil {
		return err
	}
	h.ConfigFP = cfg.Fingerprint()
	ueConn, bsConn := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.Handle(bsConn) }()
	if err := transport.ServeUE(ueConn, h, cfg, d); err != nil {
		return fmt.Errorf("session %s: UE: %w", h.SessionID, err)
	}
	if err := <-done; err != nil {
		return fmt.Errorf("session %s: BS: %w", h.SessionID, err)
	}
	return nil
}

func runSession(t *testing.T, srv *transport.BSServer, i int) {
	t.Helper()
	if err := runSessionErr(srv, i); err != nil {
		t.Fatal(err)
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

// get performs one request against the control handler.
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
	srv := testServer(t, transport.ServerConfig{
		MaxUE: 2, Steps: 6, EvalEvery: 3, ValAnchors: 8,
		BatchWindow: 200 * time.Microsecond,
	})
	runSession(t, srv, 0)
	runSession(t, srv, 1)
	c := New(srv, Options{})

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
		"mmsl_sessions_live 0",
		`mmsl_sessions_ended_total{cause="detached"} 2`,
		"mmsl_rounds_total 12",
		"mmsl_round_latency_seconds_count 12",
		`mmsl_round_latency_seconds_bucket{le="+Inf"} 12`,
		`mmsl_wire_bytes_total{direction="in"}`,
		"mmsl_policy_max_ue 2",
		"mmsl_draining 0",
		`mmsl_store_info{kind="mem"} 1`,
		"mmsl_store_degraded 0",
		"mmsl_store_records_total",
		"mmsl_store_compactions_total 0",
		"mmsl_store_recoveries_total 0",
		"mmsl_store_write_errors_total 0",
		"mmsl_checkpoint_restore_errors_total 0",
		"mmsl_store_adopted_sessions_total 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestStoreHealthEndpoints: a journal-backed server surfaces its store
// on /metrics (kind, journal growth, record counts) and /healthz (the
// store detail map).
func TestStoreHealthEndpoints(t *testing.T) {
	dir := t.TempDir()
	j, err := store.OpenJournal(filepath.Join(dir, "store.journal"), store.JournalOptions{Retain: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	srv := testServer(t, transport.ServerConfig{
		MaxUE: 1, Steps: 6, EvalEvery: 3, ValAnchors: 8,
		Store: j, CheckpointEvery: 3,
	})
	runSession(t, srv, 0)
	c := New(srv, Options{})

	rec := do(t, c, "GET", "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	body := rec.Body.String()
	if err := ValidateExposition([]byte(body)); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	for _, want := range []string{
		`mmsl_store_info{kind="journal"} 1`,
		"mmsl_store_degraded 0",
		"mmsl_store_live_checkpoints 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(body, "mmsl_store_journal_bytes 0") {
		t.Error("journal bytes gauge stuck at zero after a checkpointed session")
	}

	rec = do(t, c, "GET", "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /healthz: %d", rec.Code)
	}
	var health struct {
		Status string `json:"status"`
		Store  struct {
			Kind            string `json:"kind"`
			Degraded        bool   `json:"degraded"`
			JournalBytes    int64  `json:"journal_bytes"`
			WriteErrors     int64  `json:"write_errors"`
			RestoreErrors   int64  `json:"restore_errors"`
			Recoveries      int64  `json:"recoveries"`
			AdoptedSessions int64  `json:"adopted_sessions"`
		} `json:"store"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Store.Kind != "journal" || health.Store.Degraded {
		t.Fatalf("healthz: %+v", health)
	}
	if health.Store.JournalBytes == 0 {
		t.Fatal("healthz journal_bytes zero after a checkpointed session")
	}
}

func TestSessionEndpoints(t *testing.T) {
	srv := testServer(t, transport.ServerConfig{
		MaxUE: 2, Steps: 4, EvalEvery: 2, ValAnchors: 8,
	})
	runSession(t, srv, 0)
	c := New(srv, Options{})

	rec := do(t, c, "GET", "/sessions", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /sessions: %d", rec.Code)
	}
	var list []sessionJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != "ue-0" || list[0].State != "detached" || list[0].Steps != 4 {
		t.Fatalf("GET /sessions = %+v", list)
	}

	rec = do(t, c, "GET", "/sessions/ue-0", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /sessions/ue-0: %d", rec.Code)
	}
	var one sessionJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &one); err != nil {
		t.Fatal(err)
	}
	if one.ID != "ue-0" || one.Codec != "raw" || one.BytesIn <= 0 {
		t.Fatalf("GET /sessions/ue-0 = %+v", one)
	}

	if rec := do(t, c, "GET", "/sessions/ghost", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("GET /sessions/ghost: %d", rec.Code)
	}
	if rec := do(t, c, "POST", "/sessions/ghost/evict", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("POST evict ghost: %d", rec.Code)
	}
}

func TestHealthzAndNilBS(t *testing.T) {
	c := New(nil, Options{})
	rec := do(t, c, "GET", "/healthz", "")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ok"`) {
		t.Fatalf("nil-BS healthz: %d %s", rec.Code, rec.Body.String())
	}
	for _, ep := range []struct{ method, path string }{
		{"GET", "/metrics"},
		{"GET", "/sessions"},
		{"GET", "/config"},
		{"POST", "/drain"},
	} {
		if rec := do(t, c, ep.method, ep.path, ""); rec.Code != http.StatusServiceUnavailable {
			t.Errorf("nil-BS %s %s: %d, want 503", ep.method, ep.path, rec.Code)
		}
	}
}

func TestConfigRoundTrip(t *testing.T) {
	srv := testServer(t, transport.ServerConfig{
		MaxUE: 4, Steps: 8, Provision: fleet.GateProvision(2, tinyEnv),
	})
	c := New(srv, Options{})

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
		go func() { errs <- runHello(srv, h) }()
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
// the server refuses new sessions, the OnDrain hook (the listener
// closer in the daemon) runs, and the call is idempotent.
func TestDrainEndpoint(t *testing.T) {
	srv := testServer(t, transport.ServerConfig{MaxUE: 2, Steps: 4})
	var hookCalls int
	c := New(srv, Options{OnDrain: func() { hookCalls++ }})

	rec := do(t, c, "POST", "/drain", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /drain: %d", rec.Code)
	}
	if !srv.Draining() || hookCalls != 1 {
		t.Fatalf("after drain: draining %v, hook calls %d", srv.Draining(), hookCalls)
	}

	// Exactly what a SIGTERM-drained server does: refuse the join.
	h := tinyHello(9)
	cfg, d, _, err := tinyEnv(h)
	if err != nil {
		t.Fatal(err)
	}
	h.ConfigFP = cfg.Fingerprint()
	ueConn, bsConn := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.Handle(bsConn) }()
	joinErr := transport.ServeUE(ueConn, h, cfg, d)
	<-done
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

// TestEvictEndpoint evicts a live session through the HTTP surface and
// checks the session retires with the administrative cause.
func TestEvictEndpoint(t *testing.T) {
	endc := make(chan error, 1)
	srv := testServer(t, transport.ServerConfig{
		MaxUE: 1, Steps: 1_000_000, EvalEvery: 1_000_000, ValAnchors: 8,
		OnSessionEnd: func(_ transport.SessionSnapshot, cause error) { endc <- cause },
	})
	c := New(srv, Options{})
	h := tinyHello(0)
	cfg, d, _, err := tinyEnv(h)
	if err != nil {
		t.Fatal(err)
	}
	h.ConfigFP = cfg.Fingerprint()
	ueConn, bsConn := net.Pipe()
	bsDone := make(chan error, 1)
	ueDone := make(chan error, 1)
	go func() { bsDone <- srv.Handle(bsConn) }()
	go func() { ueDone <- transport.ServeUE(ueConn, h, cfg, d) }()
	deadline := time.Now().Add(10 * time.Second)
	for srv.ActiveSessions() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never joined")
		}
		time.Sleep(time.Millisecond)
	}

	if rec := do(t, c, "POST", "/sessions/ue-0/evict", ""); rec.Code != http.StatusOK {
		t.Fatalf("POST evict: %d %s", rec.Code, rec.Body.String())
	}
	select {
	case cause := <-endc:
		if !errors.Is(cause, transport.ErrAdminEvicted) {
			t.Fatalf("cause = %v, want ErrAdminEvicted", cause)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("OnSessionEnd never fired")
	}
	<-bsDone
	<-ueDone
}

// TestMetricsScrapeUnderChurn races scrapes against joining, training
// and detaching sessions — the race-detector coverage for every
// counter the exposition reads — and validates each scrape.
func TestMetricsScrapeUnderChurn(t *testing.T) {
	srv := testServer(t, transport.ServerConfig{
		MaxUE: 16, Steps: 4, EvalEvery: 2, ValAnchors: 8, Retain: 4,
		BatchWindow: 200 * time.Microsecond,
	})
	c := New(srv, Options{})

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
			ueErrs <- runSessionErr(srv, i)
		}(i)
	}
	ues.Wait()
	close(stop)
	scrapes.Wait()
	close(ueErrs)
	for err := range ueErrs {
		if err != nil {
			t.Fatal(err)
		}
	}

	st := srv.Stats()
	if got := st.EndedDetached; got != 12 {
		t.Fatalf("detached total %d, want 12", got)
	}
	// Retention ring held 4, but the totals must stay monotonic.
	if st.RetainedSnapshots != 4 || st.SnapshotsEvicted != 8 {
		t.Fatalf("ring: retained %d evicted %d, want 4/8", st.RetainedSnapshots, st.SnapshotsEvicted)
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
