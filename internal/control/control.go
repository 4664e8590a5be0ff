// Package control is the BS daemon's embedded control plane: a
// stdlib-only HTTP surface over the coordinator that fronts the
// daemon's in-process replicas (one of them in the paper's 1:1
// topology). The daemon serves it on its -admin address; tests and
// fleet drivers mount it in-process. Its faces:
//
//   - GET /metrics: Prometheus text exposition (metrics.go). Every
//     replica's serving-path series under a replica label, one family
//     header each, then the coordinator's own routing, handover and
//     failover series. Collection reads the servers' lock-free atomics
//     and store accumulators; nothing on the serving hot path allocates
//     or blocks for a scrape.
//   - Session admin: GET /healthz, GET /sessions and GET /sessions/{id}
//     across every replica, POST /sessions/{id}/evict on the replica the
//     session's route names, and POST /drain, which drains every
//     replica and runs the same listener hook main wires to SIGTERM.
//   - Fleet admin: GET /replicas, POST /replicas/{id}/fail (the crash
//     drill), POST /replicas/{id}/rejoin, POST
//     /sessions/{id}/migrate?to=<replica> and POST /rebalance.
//   - Live reconfiguration: GET /config and PUT /config over one
//     document that holds the placement policy (coord.Policy) and the
//     replicas' transport.Policy — the runtime-mutable subset of
//     ServerConfig, swapped atomically and resolved at session join or
//     round boundary, so a reconfig never tears an in-flight round.
//   - /debug/pprof/.
//
// The package deliberately depends on nothing outside the stdlib and
// the repo's own internal packages: no Prometheus client, no router.
package control

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/compress"
	"repro/internal/coord"
	"repro/internal/transport"
)

// Options tunes a control Server.
type Options struct {
	// Logf receives one line per mutating request (evict, drain,
	// migrate, failover, config change); nil discards.
	Logf func(format string, args ...any)

	// OnDrain, when set, runs after every replica's Drain on POST
	// /drain — the place to close the accept listener, making the
	// endpoint observably identical to the daemon's SIGTERM handling.
	// It must be safe to call more than once (so is Drain).
	OnDrain func()
}

// Server is the control plane over a coordinator and its replicas.
// Construct with New; the zero value is not usable.
type Server struct {
	co   *coord.Coordinator
	opts Options
	mux  *http.ServeMux
}

// New builds the control plane for co.
func New(co *coord.Coordinator, opts Options) *Server {
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	s := &Server{co: co, opts: opts, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /sessions", s.handleSessions)
	s.mux.HandleFunc("GET /sessions/{id}", s.handleSession)
	s.mux.HandleFunc("POST /sessions/{id}/evict", s.handleEvict)
	s.mux.HandleFunc("POST /sessions/{id}/migrate", s.handleMigrate)
	s.mux.HandleFunc("POST /drain", s.handleDrain)
	s.mux.HandleFunc("GET /replicas", s.handleReplicas)
	s.mux.HandleFunc("POST /replicas/{id}/fail", s.handleFailReplica)
	s.mux.HandleFunc("POST /replicas/{id}/rejoin", s.handleRejoinReplica)
	s.mux.HandleFunc("POST /rebalance", s.handleRebalance)
	s.mux.HandleFunc("GET /config", s.handleGetConfig)
	s.mux.HandleFunc("PUT /config", s.handlePutConfig)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the control plane's HTTP handler — mount it on an
// http.Server bound to the admin address.
func (s *Server) Handler() http.Handler { return s.mux }

// member is a replica whose BSServer lives in this process.
type member struct {
	id string
	bs *transport.BSServer
}

// members lists the replicas that can surface their server, in
// registration order. The BS() assertion covers LocalReplica, the
// fleet's tracked replicas and the chaos harness's kill/rejoin wrapper.
func (s *Server) members() []member {
	var out []member
	for _, rep := range s.co.Replicas() {
		if lr, ok := rep.(interface{ BS() *transport.BSServer }); ok {
			out = append(out, member{id: rep.ID(), bs: lr.BS()})
		}
	}
	return out
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.co.Stats()
	draining := 0
	for _, rep := range s.co.Replicas() {
		if rep.Draining() {
			draining++
		}
	}
	status := "ok"
	if draining == st.Replicas {
		status = "draining"
	}
	live := 0
	stores := make(map[string]any)
	for _, m := range s.members() {
		bst := m.bs.Stats()
		live += bst.LiveSessions
		// A degraded store demotes overall health: the replica serves,
		// but nothing it trains from here on can be resumed.
		if bst.StoreDegraded {
			status = "degraded"
		}
		stores[m.id] = map[string]any{
			"kind":             bst.StoreKind,
			"degraded":         bst.StoreDegraded,
			"journal_bytes":    bst.StoreJournalBytes,
			"live_checkpoints": bst.StoreLiveCheckpoints,
			"live_blobs":       bst.StoreLiveBlobs,
			"write_errors":     bst.StoreWriteErrors,
			"restore_errors":   bst.RestoreErrors,
			"recoveries":       bst.StoreRecoveries,
			"adopted_sessions": bst.AdoptedSessions,
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":             status,
		"live_sessions":      live,
		"replicas":           st.Replicas,
		"replicas_draining":  draining,
		"replicas_fenced":    st.Fenced,
		"routes":             st.Routes,
		"handovers":          st.Migrations,
		"handover_failures":  st.MigrationFails,
		"failovers":          st.Failovers,
		"sessions_recovered": st.SessionsRecovered,
		"sessions_lost":      st.SessionsLost,
		"stores":             stores,
	})
}

// sessionJSON is the admin-facing projection of a SessionSnapshot.
type sessionJSON struct {
	ID          string  `json:"id"`
	Replica     string  `json:"replica"`
	State       string  `json:"state"`
	Epoch       uint32  `json:"epoch"`
	Seed        int64   `json:"seed"`
	Codec       string  `json:"codec"`
	Steps       int     `json:"steps"`
	ResumedFrom uint32  `json:"resumed_from,omitempty"`
	LastLoss    float64 `json:"last_loss"`
	LastRMSEdB  float64 `json:"last_rmse_db"`
	Evals       int     `json:"evals"`
	Reached     bool    `json:"reached_target"`
	Checkpoints int64   `json:"checkpoints"`
	Resumes     int64   `json:"resumes"`
	BytesIn     int64   `json:"bytes_in"`
	BytesOut    int64   `json:"bytes_out"`
	Err         string  `json:"error,omitempty"`
}

func toSessionJSON(replica string, snap transport.SessionSnapshot) sessionJSON {
	out := sessionJSON{
		ID:          snap.ID,
		Replica:     replica,
		State:       snap.State.String(),
		Epoch:       snap.Epoch,
		Seed:        snap.Hello.Seed,
		Codec:       compress.ID(snap.Hello.Codec).String(),
		Steps:       snap.Steps,
		ResumedFrom: snap.ResumedFrom,
		LastLoss:    snap.LastLoss,
		LastRMSEdB:  snap.LastRMSE,
		Evals:       snap.Evals,
		Reached:     snap.Reached,
		BytesIn:     snap.BytesIn,
		BytesOut:    snap.BytesOut,
		Err:         snap.Err,
	}
	if snap.Metrics != nil {
		out.Checkpoints = snap.Metrics.Checkpoints.Load()
		out.Resumes = snap.Metrics.Resumes.Load()
	}
	return out
}

func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	out := []sessionJSON{}
	for _, m := range s.members() {
		for _, snap := range m.bs.Sessions() {
			out = append(out, toSessionJSON(m.id, snap))
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleSession reports the session on the replica its route names;
// a session known only elsewhere (a handed-over incarnation, or a
// replica that adopted it from its store) is reported from the first
// replica that holds it.
func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	routed := s.co.RouteOf(id)
	var out *sessionJSON
	for _, m := range s.members() {
		if snap, ok := m.bs.SessionByID(id); ok && (out == nil || m.id == routed) {
			sj := toSessionJSON(m.id, snap)
			out = &sj
		}
	}
	if out == nil {
		http.Error(w, fmt.Sprintf("no session %q", id), http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	routed := s.co.RouteOf(id)
	for _, m := range s.members() {
		if m.id != routed {
			continue
		}
		if err := m.bs.Evict(id); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		s.opts.Logf("control: evicted session %q on %s", id, m.id)
		writeJSON(w, http.StatusOK, map[string]string{"evicted": id, "replica": m.id})
		return
	}
	http.Error(w, fmt.Sprintf("no route for session %q", id), http.StatusNotFound)
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	live := 0
	for _, m := range s.members() {
		m.bs.Drain()
		live += m.bs.ActiveSessions()
	}
	if s.opts.OnDrain != nil {
		s.opts.OnDrain()
	}
	s.opts.Logf("control: drain requested")
	writeJSON(w, http.StatusOK, map[string]any{
		"draining":      true,
		"live_sessions": live,
	})
}

// replicaJSON is the admin-facing projection of a fleet member. Health
// and probe latency appear once a failure detector runs.
type replicaJSON struct {
	ID       string  `json:"id"`
	Live     int     `json:"live_sessions"`
	Draining bool    `json:"draining"`
	Fenced   bool    `json:"fenced"`
	Health   string  `json:"health,omitempty"`
	ProbeMs  float64 `json:"probe_latency_ms,omitempty"`
}

func (s *Server) handleReplicas(w http.ResponseWriter, r *http.Request) {
	det := s.co.Detector()
	var health map[string]coord.ReplicaHealth
	if det != nil {
		health = det.Health()
	}
	reps := s.co.Replicas()
	out := make([]replicaJSON, 0, len(reps))
	for _, rep := range reps {
		rj := replicaJSON{
			ID:       rep.ID(),
			Live:     rep.Live(),
			Draining: rep.Draining(),
			Fenced:   s.co.IsFenced(rep.ID()),
		}
		if h, ok := health[rep.ID()]; ok {
			rj.Health = h.String()
			rj.ProbeMs = float64(det.ProbeLatency(rep.ID())) / float64(time.Millisecond)
		}
		out = append(out, rj)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleFailReplica is the operator's crash drill: fence the replica
// and run full crash failover for its sessions, exactly as a detector
// death verdict would.
func (s *Server) handleFailReplica(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	res, err := s.co.FailReplica(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	s.opts.Logf("control: replica %s failed over: %d sessions (%d recovered, %d fresh, %d lost)",
		id, res.Sessions, res.Recovered, res.Fresh, res.Lost)
	writeJSON(w, http.StatusOK, map[string]any{
		"replica":    id,
		"sessions":   res.Sessions,
		"recovered":  res.Recovered,
		"fresh":      res.Fresh,
		"lost":       res.Lost,
		"elapsed_ms": float64(res.Elapsed) / float64(time.Millisecond),
	})
}

// handleRejoinReplica lifts the fence by hand — the operator override
// of the detector's healthy-probe quota.
func (s *Server) handleRejoinReplica(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.co.ReplicaByID(id) == nil {
		http.Error(w, fmt.Sprintf("unknown replica %q", id), http.StatusNotFound)
		return
	}
	if !s.co.IsFenced(id) {
		http.Error(w, fmt.Sprintf("replica %q is not fenced", id), http.StatusConflict)
		return
	}
	s.co.Unfence(id)
	s.opts.Logf("control: replica %s unfenced by operator", id)
	writeJSON(w, http.StatusOK, map[string]string{"rejoined": id})
}

func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	dst := r.URL.Query().Get("to")
	if dst == "" {
		http.Error(w, "missing ?to=<replica-id>", http.StatusBadRequest)
		return
	}
	if err := s.co.Migrate(id, dst); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	s.opts.Logf("control: session %q handed over to %s", id, dst)
	writeJSON(w, http.StatusOK, map[string]string{"migrated": id, "to": dst})
}

func (s *Server) handleRebalance(w http.ResponseWriter, r *http.Request) {
	id, dst, err := s.co.Rebalance()
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	if id == "" {
		writeJSON(w, http.StatusOK, map[string]any{"balanced": true})
		return
	}
	s.opts.Logf("control: rebalanced session %q onto %s", id, dst)
	writeJSON(w, http.StatusOK, map[string]string{"migrated": id, "to": dst})
}

// configJSON is the one /config document: the coordinator's placement
// policy (strategy, migrate_timeout) and the replicas'
// transport.Policy (max_ue … default_codec). PUT bodies use pointer
// fields so a partial document patches only the named fields; GET
// responses always carry every field. Durations are Go duration
// strings ("250ms"), the codec its -codec flag name.
type configJSON struct {
	Strategy        *string `json:"strategy,omitempty"`
	MigrateTimeout  *string `json:"migrate_timeout,omitempty"`
	MaxUE           *int    `json:"max_ue,omitempty"`
	IdleTimeout     *string `json:"idle_timeout,omitempty"`
	BatchWindow     *string `json:"batch_window,omitempty"`
	BatchMax        *int    `json:"batch_max,omitempty"`
	CheckpointEvery *int    `json:"checkpoint_every,omitempty"`
	DefaultCodec    *string `json:"default_codec,omitempty"`
}

// configOf renders both halves; bp is nil when no replica is local.
func configOf(cp coord.Policy, bp *transport.Policy) configJSON {
	mt := cp.MigrateTimeout.String()
	out := configJSON{Strategy: &cp.Strategy, MigrateTimeout: &mt}
	if bp != nil {
		idle, window := bp.IdleTimeout.String(), bp.BatchWindow.String()
		codec := bp.DefaultCodec.String()
		out.MaxUE = &bp.MaxUE
		out.IdleTimeout = &idle
		out.BatchWindow = &window
		out.BatchMax = &bp.BatchMax
		out.CheckpointEvery = &bp.CheckpointEvery
		out.DefaultCodec = &codec
	}
	return out
}

// applyCoord patches p with c's present placement fields.
func (c configJSON) applyCoord(p *coord.Policy) error {
	if c.Strategy != nil {
		p.Strategy = *c.Strategy
	}
	if c.MigrateTimeout != nil {
		d, err := time.ParseDuration(*c.MigrateTimeout)
		if err != nil {
			return fmt.Errorf("migrate_timeout: %w", err)
		}
		p.MigrateTimeout = d
	}
	return nil
}

// applyBS patches p with c's present serving fields.
func (c configJSON) applyBS(p *transport.Policy) error {
	if c.MaxUE != nil {
		p.MaxUE = *c.MaxUE
	}
	if c.IdleTimeout != nil {
		d, err := time.ParseDuration(*c.IdleTimeout)
		if err != nil {
			return fmt.Errorf("idle_timeout: %w", err)
		}
		p.IdleTimeout = d
	}
	if c.BatchWindow != nil {
		d, err := time.ParseDuration(*c.BatchWindow)
		if err != nil {
			return fmt.Errorf("batch_window: %w", err)
		}
		p.BatchWindow = d
	}
	if c.BatchMax != nil {
		p.BatchMax = *c.BatchMax
	}
	if c.CheckpointEvery != nil {
		p.CheckpointEvery = *c.CheckpointEvery
	}
	if c.DefaultCodec != nil {
		id, err := compress.Parse(*c.DefaultCodec)
		if err != nil {
			return fmt.Errorf("default_codec: %w", err)
		}
		p.DefaultCodec = id
	}
	return nil
}

// currentConfig reads both halves. Every replica carries the same
// serving policy, since PUT /config installs it on all of them, so the
// first one speaks for the fleet.
func (s *Server) currentConfig() configJSON {
	var bp *transport.Policy
	if ms := s.members(); len(ms) > 0 {
		p := ms[0].bs.CurrentPolicy()
		bp = &p
	}
	return configOf(s.co.CurrentPolicy(), bp)
}

func (s *Server) handleGetConfig(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.currentConfig())
}

// handlePutConfig patches and validates both halves — the placement
// policy and every replica's serving policy — before it installs any,
// so a document with one bad half changes neither.
func (s *Server) handlePutConfig(w http.ResponseWriter, r *http.Request) {
	var body configJSON
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		http.Error(w, fmt.Sprintf("bad config document: %v", err), http.StatusBadRequest)
		return
	}
	cp := s.co.CurrentPolicy()
	if err := body.applyCoord(&cp); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ms := s.members()
	bps := make([]transport.Policy, len(ms))
	for i, m := range ms {
		bps[i] = m.bs.CurrentPolicy()
		if err := body.applyBS(&bps[i]); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	if err := cp.Validate(); err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	for _, p := range bps {
		if err := p.Validate(); err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
	}
	// Both halves validated above, so neither install can refuse.
	_ = s.co.SetPolicy(cp)
	for i, m := range ms {
		_ = m.bs.SetPolicy(bps[i])
	}
	s.opts.Logf("control: config updated: placement %+v, serving %+v", cp, bps)
	writeJSON(w, http.StatusOK, s.currentConfig())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
