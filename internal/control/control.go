// Package control is the base station's embedded control plane: a
// stdlib-only HTTP surface a daemon serves on its -admin address (and a
// bench harness can mount in-process) with three faces —
//
//   - GET /metrics: Prometheus text exposition of the serving-path
//     counters (metrics.go). Collection reads the server's lock-free
//     atomics and store accumulators; nothing on the serving hot path
//     allocates or blocks for a scrape.
//   - JSON admin: GET /healthz, GET /sessions, GET /sessions/{id},
//     POST /sessions/{id}/evict, POST /drain. Drain is byte-for-byte
//     the SIGTERM path: it calls BSServer.Drain plus the same listener
//     hook main wires to the signal handler. POST /sessions/{id}/migrate
//     and POST /sessions/adopt expose the two halves of live session
//     handover (migrate.go) — the wire a coordinator uses to move a
//     session between replicas it cannot reach in-process.
//   - Live reconfiguration: GET /config and PUT /config over
//     transport.Policy — the runtime-mutable subset of ServerConfig,
//     swapped atomically and resolved at session join or round
//     boundary, so a reconfig never tears an in-flight round.
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
	"repro/internal/transport"
)

// Options tunes a control Server.
type Options struct {
	// Logf receives one line per mutating request (evict, drain,
	// config change); nil discards.
	Logf func(format string, args ...any)

	// Pprof mounts net/http/pprof under /debug/pprof/ — the -admin
	// replacement for the old standalone -pprof listener.
	Pprof bool

	// OnDrain, when set, runs after BSServer.Drain on POST /drain —
	// the place to close the accept listener, making the endpoint
	// observably identical to the daemon's SIGTERM handling. It must
	// be safe to call more than once (so is Drain).
	OnDrain func()
}

// Server is the control plane over one BSServer. Construct with New;
// the zero value is not usable.
type Server struct {
	bs   *transport.BSServer
	opts Options
	mux  *http.ServeMux
}

// New builds the control plane for bs. A nil bs is allowed — the
// process has no serving BSServer — and degrades the
// surface to /healthz and pprof; every BS-backed endpoint answers 503.
func New(bs *transport.BSServer, opts Options) *Server {
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	s := &Server{bs: bs, opts: opts, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.withBS(s.handleMetrics))
	s.mux.HandleFunc("GET /sessions", s.withBS(s.handleSessions))
	s.mux.HandleFunc("GET /sessions/{id}", s.withBS(s.handleSession))
	s.mux.HandleFunc("POST /sessions/{id}/evict", s.withBS(s.handleEvict))
	s.mux.HandleFunc("POST /sessions/{id}/migrate", s.withBS(s.handleMigrateOut))
	s.mux.HandleFunc("POST /sessions/adopt", s.withBS(s.handleAdopt))
	s.mux.HandleFunc("POST /drain", s.withBS(s.handleDrain))
	s.mux.HandleFunc("GET /config", s.withBS(s.handleGetConfig))
	s.mux.HandleFunc("PUT /config", s.withBS(s.handlePutConfig))
	if opts.Pprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the control plane's HTTP handler — mount it on an
// http.Server bound to the admin address.
func (s *Server) Handler() http.Handler { return s.mux }

// withBS gates a handler on a serving BSServer being present.
func (s *Server) withBS(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.bs == nil {
			http.Error(w, "no serving base station in this process", http.StatusServiceUnavailable)
			return
		}
		h(w, r)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{"status": "ok"}
	if s.bs != nil {
		st := s.bs.Stats()
		resp["draining"] = st.Draining
		resp["live_sessions"] = st.LiveSessions
		// A degraded store demotes overall health: the process serves,
		// but nothing it trains from here on can be resumed.
		if st.StoreDegraded {
			resp["status"] = "degraded"
		}
		resp["store"] = map[string]any{
			"kind":             st.StoreKind,
			"degraded":         st.StoreDegraded,
			"journal_bytes":    st.StoreJournalBytes,
			"write_errors":     st.StoreWriteErrors,
			"restore_errors":   st.RestoreErrors,
			"recoveries":       st.StoreRecoveries,
			"adopted_sessions": st.AdoptedSessions,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// sessionJSON is the admin-facing projection of a SessionSnapshot.
type sessionJSON struct {
	ID          string  `json:"id"`
	State       string  `json:"state"`
	Epoch       uint32  `json:"epoch"`
	Version     uint8   `json:"protocol_version"`
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

func toSessionJSON(snap transport.SessionSnapshot) sessionJSON {
	out := sessionJSON{
		ID:          snap.ID,
		State:       snap.State.String(),
		Epoch:       snap.Epoch,
		Version:     snap.Version,
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
	snaps := s.bs.Sessions()
	out := make([]sessionJSON, 0, len(snaps))
	for _, snap := range snaps {
		out = append(out, toSessionJSON(snap))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, ok := s.bs.SessionByID(id)
	if !ok {
		http.Error(w, fmt.Sprintf("no session %q", id), http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, toSessionJSON(snap))
}

func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.bs.Evict(id); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	s.opts.Logf("control: evicted session %q", id)
	writeJSON(w, http.StatusOK, map[string]string{"evicted": id})
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.bs.Drain()
	if s.opts.OnDrain != nil {
		s.opts.OnDrain()
	}
	s.opts.Logf("control: drain requested")
	writeJSON(w, http.StatusOK, map[string]any{
		"draining":      true,
		"live_sessions": s.bs.ActiveSessions(),
	})
}

// configJSON is the wire form of transport.Policy. PUT bodies use
// pointer fields so a partial document patches only the named fields;
// GET responses always carry every field. Durations are Go duration
// strings ("250ms"), the codec its -codec flag name.
type configJSON struct {
	MaxUE           *int    `json:"max_ue,omitempty"`
	IdleTimeout     *string `json:"idle_timeout,omitempty"`
	BatchWindow     *string `json:"batch_window,omitempty"`
	BatchMax        *int    `json:"batch_max,omitempty"`
	CheckpointEvery *int    `json:"checkpoint_every,omitempty"`
	DefaultCodec    *string `json:"default_codec,omitempty"`
}

func configFromPolicy(p transport.Policy) configJSON {
	idle, window := p.IdleTimeout.String(), p.BatchWindow.String()
	codec := p.DefaultCodec.String()
	return configJSON{
		MaxUE:           &p.MaxUE,
		IdleTimeout:     &idle,
		BatchWindow:     &window,
		BatchMax:        &p.BatchMax,
		CheckpointEvery: &p.CheckpointEvery,
		DefaultCodec:    &codec,
	}
}

// apply patches p with c's present fields.
func (c configJSON) apply(p *transport.Policy) error {
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

func (s *Server) handleGetConfig(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, configFromPolicy(s.bs.CurrentPolicy()))
}

func (s *Server) handlePutConfig(w http.ResponseWriter, r *http.Request) {
	var body configJSON
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		http.Error(w, fmt.Sprintf("bad config document: %v", err), http.StatusBadRequest)
		return
	}
	p := s.bs.CurrentPolicy()
	if err := body.apply(&p); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.bs.SetPolicy(p); err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	s.opts.Logf("control: config updated: %+v", p)
	writeJSON(w, http.StatusOK, configFromPolicy(s.bs.CurrentPolicy()))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
