package control

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/store"
	"repro/internal/transport"
)

// doCoord performs one request against a coordinator control handler.
func doCoord(t *testing.T, c *CoordServer, method, path, body string) *httptest.ResponseRecorder {
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

// testCoordFleet builds n in-process replicas (each with a mem store,
// so handover is live) behind a coordinator.
func testCoordFleet(t *testing.T, n, steps int) (*coord.Coordinator, []*transport.BSServer) {
	t.Helper()
	servers := make([]*transport.BSServer, n)
	replicas := make([]coord.Replica, n)
	for i := range servers {
		srv := testServer(t, transport.ServerConfig{
			ReplicaID: fmt.Sprintf("bs-%d", i),
			MaxUE:     4, Steps: steps, EvalEvery: 1 << 30, ValAnchors: 8,
			CheckpointEvery: 5, Store: store.NewMem(64),
		})
		servers[i] = srv
		replicas[i] = coord.NewLocalReplica(srv)
	}
	co, err := coord.New(replicas, coord.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return co, servers
}

// startCoordUE runs one reconnect-capable UE through the coordinator.
func startCoordUE(t *testing.T, co *coord.Coordinator, wg *sync.WaitGroup, i int) *transport.UESession {
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

// TestCoordEndpointsAndFederatedMetrics drives a handover through the
// coordinator's admin surface and then validates the federated scrape:
// one family header per metric, every replica's samples under it with a
// replica label, the coordinator's own counters alongside.
func TestCoordEndpointsAndFederatedMetrics(t *testing.T) {
	co, servers := testCoordFleet(t, 2, 4000)
	c := NewCoord(co, Options{Logf: t.Logf})

	var wg sync.WaitGroup
	us := startCoordUE(t, co, &wg, 0)

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

	if rec := doCoord(t, c, "POST", "/sessions/ue-0/migrate", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("migrate without ?to=: %d", rec.Code)
	}
	rec := doCoord(t, c, "POST", "/sessions/ue-0/migrate?to="+dst, "")
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

	// Replica listing reflects the fleet.
	rec = doCoord(t, c, "GET", "/replicas", "")
	var reps []replicaJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &reps); err != nil || len(reps) != 2 {
		t.Fatalf("GET /replicas: %v %s", err, rec.Body.String())
	}

	// Federated scrape: valid exposition, per-replica samples under one
	// header, handover visible on both the replicas and the coordinator.
	rec = doCoord(t, c, "GET", "/metrics", "")
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
	rec = doCoord(t, c, "GET", "/healthz", "")
	var health map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" || health["replicas"] != float64(2) || health["handovers"] != float64(1) {
		t.Fatalf("healthz: %v", health)
	}
	_ = servers
}

// TestCoordConfigRoundTrip exercises the placement-policy config
// surface: GET returns the live policy, PUT patches it atomically,
// invalid documents are rejected without effect.
func TestCoordConfigRoundTrip(t *testing.T) {
	co, _ := testCoordFleet(t, 2, 8)
	c := NewCoord(co, Options{})

	rec := doCoord(t, c, "GET", "/config", "")
	var got coordConfigJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if *got.Strategy != coord.PlaceAffinity || *got.MigrateTimeout != "30s" {
		t.Fatalf("default config: %s", rec.Body.String())
	}

	rec = doCoord(t, c, "PUT", "/config", `{"strategy":"least-loaded","migrate_timeout":"2s"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("PUT /config: %d %s", rec.Code, rec.Body.String())
	}
	if p := co.CurrentPolicy(); p.Strategy != coord.PlaceLeastLoaded || p.MigrateTimeout != 2*time.Second {
		t.Fatalf("policy after PUT: %+v", p)
	}

	// Partial patch keeps unnamed fields.
	rec = doCoord(t, c, "PUT", "/config", `{"strategy":"affinity"}`)
	if rec.Code != http.StatusOK {
		t.Fatal(rec.Code)
	}
	if p := co.CurrentPolicy(); p.Strategy != coord.PlaceAffinity || p.MigrateTimeout != 2*time.Second {
		t.Fatalf("policy after partial PUT: %+v", p)
	}

	for _, bad := range []string{
		`{"strategy":"round-robin"}`,
		`{"migrate_timeout":"-1s"}`,
		`{"migrate_timeout":"soon"}`,
		`{"unknown_field":1}`,
	} {
		rec = doCoord(t, c, "PUT", "/config", bad)
		if rec.Code == http.StatusOK {
			t.Errorf("PUT %s accepted", bad)
		}
	}
	if p := co.CurrentPolicy(); p.Strategy != coord.PlaceAffinity || p.MigrateTimeout != 2*time.Second {
		t.Fatalf("policy mutated by rejected PUT: %+v", p)
	}
}
