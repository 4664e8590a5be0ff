package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/coord"
	"repro/internal/dataset"
	"repro/internal/split"
	"repro/internal/store"
	"repro/internal/transport"
)

// bedSpec says which of the program's layers a workload puts in the
// path: how many replicas, whether the coordinator fronts them, and
// which store backs them.
type bedSpec struct {
	replicas     int
	coordinator  bool
	journal      bool  // journal store on disk; false: mem store
	compactBytes int64 // journal compaction threshold (0: the store's default)
	server       transport.ServerConfig
}

// testbed is one built instance of the program under test plus the
// benchmark's observers around it.
type testbed struct {
	servers []*transport.BSServer
	stores  []store.Store
	co      *coord.Coordinator
	handle  func(io.ReadWriteCloser) error
	dir     string

	handlers sync.WaitGroup
	clk      clock
	ends     endLog

	// traced runs only
	taps  tapRegistry
	puts  putLog
	moves moveLog
}

// endLog keeps every session's terminal snapshot by id. A session that
// was handed over retires twice (migrated, then detached); the clean
// detach is the one that counts, so it is never overwritten.
type endLog struct {
	mu   sync.Mutex
	last map[string]transport.SessionSnapshot
}

func (l *endLog) record(snap transport.SessionSnapshot, _ error) {
	l.mu.Lock()
	if l.last == nil {
		l.last = make(map[string]transport.SessionSnapshot)
	}
	if prev, ok := l.last[snap.ID]; !ok || prev.State != transport.SessionDetached {
		snap.Metrics = nil // the series are not needed and would pin every session's history
		l.last[snap.ID] = snap
	}
	l.mu.Unlock()
}

func (l *endLog) of(id string) (transport.SessionSnapshot, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s, ok := l.last[id]
	return s, ok
}

// waitDetached waits, until the deadline, for a session's clean detach
// to reach the end-of-session hook. The relay goroutines a load
// generator can wait on end when the UE has read its shutdown, a moment
// before the replica's own goroutine records the detach and calls the
// hook.
func (l *endLog) waitDetached(id string, deadline time.Time) (transport.SessionSnapshot, bool) {
	for {
		if snap, ok := l.of(id); ok && snap.State == transport.SessionDetached {
			return snap, true
		}
		if time.Now().After(deadline) {
			return transport.SessionSnapshot{}, false
		}
		runtime.Gosched()
	}
}

// buildTestbed constructs servers, stores and (optionally) the
// coordinator. In a traced build the store and the replicas are wrapped
// by the benchmark's timing shims; an untraced build hands the program
// its own objects, so the end-to-end numbers carry no observer on the
// server side.
func buildTestbed(spec bedSpec, clk clock, traced bool) (*testbed, error) {
	f := &testbed{clk: clk}
	if spec.journal {
		dir, err := os.MkdirTemp("", "bsbench-*")
		if err != nil {
			return nil, fmt.Errorf("journal dir: %w", err)
		}
		f.dir = dir
	}
	for i := 0; i < spec.replicas; i++ {
		var st store.Store
		if spec.journal {
			j, err := store.OpenJournal(filepath.Join(f.dir, fmt.Sprintf("bs-%d.journal", i)),
				store.JournalOptions{Retain: spec.server.Retain, CompactBytes: spec.compactBytes})
			if err != nil {
				f.close()
				return nil, fmt.Errorf("journal %d: %w", i, err)
			}
			st = j
		} else {
			st = store.NewMem(spec.server.Retain)
		}
		f.stores = append(f.stores, st)
		cfg := spec.server
		cfg.ReplicaID = fmt.Sprintf("bs-%d", i)
		cfg.Sched = transport.SchedAsync
		cfg.OnSessionEnd = f.ends.record
		cfg.Store = st
		if traced {
			cfg.Store = &tracedStore{Store: st, clk: clk, log: &f.puts}
		}
		srv, err := transport.NewBSServer(cfg)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("server %d: %w", i, err)
		}
		f.servers = append(f.servers, srv)
	}
	if !spec.coordinator {
		f.handle = f.servers[0].Handle
		return f, nil
	}
	reps := make([]coord.Replica, len(f.servers))
	for i, srv := range f.servers {
		reps[i] = coord.NewLocalReplica(srv)
		if traced {
			reps[i] = &tracedReplica{Replica: reps[i], f: f}
		}
	}
	co, err := coord.New(reps, coord.Options{})
	if err != nil {
		f.close()
		return nil, err
	}
	f.co = co
	f.handle = co.HandleConn
	return f, nil
}

// dial opens one UE connection into the fleet; the far end is served on
// its own goroutine, as an accept loop would.
func (f *testbed) dial() io.ReadWriteCloser {
	ue, bs := net.Pipe()
	f.handlers.Add(1)
	go func() {
		defer f.handlers.Done()
		_ = f.handle(bs) // outcomes are read from the end-of-session hook
	}()
	return ue
}

// live is the number of unfinished sessions across the fleet.
func (f *testbed) live() int {
	n := 0
	for _, s := range f.servers {
		n += s.ActiveSessions()
	}
	return n
}

// waitLive blocks until n sessions are admitted. It is the serialised
// join: the load generator dials session i+1 only once session i is
// visible to placement. Unserialised, the coordinator places the second
// hello before the first session counts as live and the same two UEs
// land on two replicas in one run and on one in the next — round p50
// 1.97 ms against 4.5 ms in the sizing probe — which is the load
// generator's race, not the program's speed.
func (f *testbed) waitLive(n int) error {
	deadline := time.Now().Add(20 * time.Second)
	for f.live() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("serialised join: %d of %d sessions admitted after 20s", f.live(), n)
		}
		runtime.Gosched()
	}
	return nil
}

// wave runs n sessions side by side, each on its own goroutine, and
// returns when all of them and their server-side handlers have ended.
// run names the session and drives it. With serialise set, session i+1
// starts only once session i is admitted (see waitLive); run must then
// dial before anything else.
func (f *testbed) wave(n int, serialise bool, run func(*ueSession)) ([]*ueSession, error) {
	var out []*ueSession
	var wg sync.WaitGroup
	var joinErr error
	for i := 0; i < n && joinErr == nil; i++ {
		s := &ueSession{slot: i}
		out = append(out, s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(s)
		}()
		if serialise {
			joinErr = f.waitLive(i + 1)
		}
	}
	wg.Wait()
	f.handlers.Wait()
	return out, joinErr
}

// settle waits until the replicas have retired the given sessions; the
// output checks name any that never detached.
func (f *testbed) settle(sessions []*ueSession) {
	deadline := time.Now().Add(5 * time.Second)
	for _, s := range sessions {
		f.ends.waitDetached(s.id, deadline)
	}
}

// close tears the fleet down and removes its journals.
func (f *testbed) close() {
	f.handlers.Wait()
	for _, s := range f.servers {
		s.Close()
	}
	for _, st := range f.stores {
		st.Close()
	}
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}

// serverTotals sums the counters the end-to-end and transport.* metrics
// are made of over every replica.
type serverTotals struct {
	rounds, shared, checkpoints, bytesIn, bytesOut int64
	queuePeak                                      int64
	journalBytes, compactions                      int64
}

func (f *testbed) totals() serverTotals {
	var t serverTotals
	for _, s := range f.servers {
		st := s.Stats()
		t.rounds += st.Rounds
		t.shared += st.SharedRounds
		t.checkpoints += st.CheckpointsTotal
		t.bytesIn += st.BytesInTotal
		t.bytesOut += st.BytesOutTotal
		t.journalBytes += st.StoreJournalBytes
		t.compactions += st.StoreCompactions
		t.queuePeak = max(t.queuePeak, s.TakeBatchQueuePeak())
	}
	return t
}

// waveGate holds every session of a wave in provisioning until all n
// have joined, then releases them together and re-arms for the next
// wave (fleet.GateProvision is one-shot). Ungated, eight replay clones
// drift apart by however long their joins took and the batcher shares
// 6308 rounds in one run and 10499 in the next; gated they share 87 %
// every time.
type waveGate struct {
	mu      sync.Mutex
	n       int
	arrived int
	open    chan struct{}
}

func newWaveGate(n int) *waveGate { return &waveGate{n: n, open: make(chan struct{})} }

func (g *waveGate) provision(inner transport.Provision) transport.Provision {
	return func(h transport.Hello) (split.Config, *dataset.Dataset, *dataset.Split, error) {
		g.mu.Lock()
		g.arrived++
		open := g.open
		if g.arrived == g.n {
			close(open)
			g.arrived, g.open = 0, make(chan struct{})
		}
		g.mu.Unlock()
		select {
		case <-open:
		case <-time.After(30 * time.Second):
			return split.Config{}, nil, nil, fmt.Errorf("wave gate: %d sessions never all joined", g.n)
		}
		return inner(h)
	}
}

// putRec is one PutCheckpoint call as the store wrapper timed it.
type putRec struct {
	session    string
	step       int
	start, end int64
}

type putLog struct {
	mu   sync.Mutex
	recs []putRec
}

// tracedStore times the store seam. Only PutCheckpoint is on a round's
// path; everything else passes through.
type tracedStore struct {
	store.Store
	clk clock
	log *putLog
}

func (s *tracedStore) PutCheckpoint(id string, step int, blob []byte) error {
	t0 := s.clk.now()
	err := s.Store.PutCheckpoint(id, step, blob)
	t1 := s.clk.now()
	s.log.mu.Lock()
	s.log.recs = append(s.log.recs, putRec{session: id, step: step, start: t0, end: t1})
	s.log.mu.Unlock()
	return err
}

// moveRec is one half of a handover as the replica wrapper timed it.
type moveRec struct {
	session    string
	out        bool // MigrateOut; false: Adopt
	start, end int64
}

type moveLog struct {
	mu   sync.Mutex
	recs []moveRec
}

func (l *moveLog) add(r moveRec) {
	l.mu.Lock()
	l.recs = append(l.recs, r)
	l.mu.Unlock()
}

// tracedReplica times the coord.Replica seam: the two halves of a
// handover, and every connection the coordinator opens into the
// replica.
type tracedReplica struct {
	coord.Replica
	f *testbed
}

func (r *tracedReplica) Dial() (io.ReadWriteCloser, error) {
	c, err := r.Replica.Dial()
	if err != nil {
		return nil, err
	}
	return &replicaTap{inner: c, clk: r.f.clk, reg: &r.f.taps, hello: make([]byte, 0, 128)}, nil
}

func (r *tracedReplica) MigrateOut(id string, timeout time.Duration) (*transport.MigrationState, error) {
	t0 := r.f.clk.now()
	st, err := r.Replica.MigrateOut(id, timeout)
	r.f.moves.add(moveRec{session: id, out: true, start: t0, end: r.f.clk.now()})
	return st, err
}

func (r *tracedReplica) Adopt(st *transport.MigrationState) error {
	t0 := r.f.clk.now()
	err := r.Replica.Adopt(st)
	r.f.moves.add(moveRec{session: st.ID, start: t0, end: r.f.clk.now()})
	return err
}

// bitsEqual compares two floats exactly.
func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
