package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/coord"
	"repro/internal/fleet"
	"repro/internal/store"
	"repro/internal/transport"
)

const (
	failoverSessions = 4
	failoverSteps    = 20
	failoverParkAt   = 7 // past the first checkpoint (every 5 steps)
)

// failover times crash recovery with nothing left to chance: four
// image sessions are parked — their UEs block in the request hook — past
// their first checkpoint on a journal-backed replica, the replica is
// killed, coord.FailReplica is timed, and only then are the UEs let go
// to find their connection dead, redial, resume on the survivor and
// finish. There is no detector and no wall-clock trigger, so every
// repetition recovers the same four sessions from the same state; the
// legacy bench's kill drill raced the sessions and reported as many
// attempts lost as landed.
func (d *drills) failover() error {
	env, err := fleet.NewEnv(fleet.Spec{UEs: 32, Seed: d.seed, Steps: failoverSteps, SceneClasses: 1})
	if err != nil {
		return err
	}
	var profile *fleet.Profile
	for i := range env.Profiles {
		if env.Profiles[i].Modality.UsesImages() {
			profile = &env.Profiles[i]
			break
		}
	}
	if profile == nil {
		return fmt.Errorf("no image-bearing profile among %d", len(env.Profiles))
	}
	dir, err := os.MkdirTemp("", "bsbench-failover-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Two chaos replicas on journals. The four sessions are clones of one
	// profile joined one after the other, so affinity packs them onto the
	// replica the first one was placed on: bs-0, which every tie goes to.
	var ends endLog
	var handlers sync.WaitGroup
	reps := make([]*chaos.Replica, 2)
	for i := range reps {
		path := filepath.Join(dir, fmt.Sprintf("bs-%d.journal", i))
		st, err := store.OpenJournal(path, store.JournalOptions{})
		if err != nil {
			return err
		}
		reps[i], err = chaos.New(chaos.Config{
			Make: func(st store.Store) (*transport.BSServer, error) {
				return transport.NewBSServer(transport.ServerConfig{
					ReplicaID: fmt.Sprintf("bs-%d", i), MaxUE: failoverSessions, Steps: failoverSteps,
					EvalEvery: 1 << 30, ValAnchors: 8, Provision: unitProvision(env.Provision()),
					CheckpointEvery: 5, Store: st, OnSessionEnd: ends.record,
				})
			},
			Store:     st,
			Reopen:    func() (store.Store, error) { return store.OpenForTakeover("journal", path, 0, 5*time.Second) },
			HandlerWG: &handlers,
		})
		if err != nil {
			st.Close()
			return err
		}
	}
	defer func() {
		handlers.Wait()
		for _, r := range reps {
			r.BS().Close()
			r.BS().Store().Close()
		}
	}()
	co, err := coord.New([]coord.Replica{reps[0], reps[1]}, coord.Options{})
	if err != nil {
		return err
	}
	victim := reps[0]

	var recoverMs []float64
	lost := 0
	for rep := 0; rep < d.sz.failoverReps; rep++ {
		parked := make(chan struct{}, failoverSessions) // one send per session
		release := make(chan struct{})
		errs := make([]error, failoverSessions)
		ids := make([]string, failoverSessions)
		var ues sync.WaitGroup
		for i := range ids {
			ids[i] = fmt.Sprintf("fo-%03d-%d/%s", rep, i, profile.SessionID)
			h := env.Hello(*profile)
			h.SessionID = ids[i]
			once := false
			us := &transport.UESession{
				Hello: h, Cfg: env.Config(*profile), Data: env.Dataset(*profile),
				Backoff: transport.Backoff{Base: time.Millisecond, Max: 20 * time.Millisecond, Retries: 60},
				OnRequest: func(t transport.MsgType, step uint32) error {
					if !once && t == transport.MsgBatchRequest && step >= failoverParkAt {
						once = true
						parked <- struct{}{}
						<-release
					}
					return nil
				},
			}
			ues.Add(1)
			go func() {
				defer ues.Done()
				errs[i] = us.Run(func() (io.ReadWriteCloser, error) {
					ue, bs := net.Pipe()
					handlers.Add(1)
					go func() {
						defer handlers.Done()
						_ = co.HandleConn(bs)
					}()
					return ue, nil
				})
			}()
			// Serialised join, as in the workloads: clone i+1 is placed
			// once clone i is live, so affinity co-locates them.
			for deadline := time.Now().Add(10 * time.Second); victim.Live() < i+1; {
				if time.Now().After(deadline) {
					close(release)
					return fmt.Errorf("repetition %d: session %d never went live on %s", rep, i, victim.ID())
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
		for range ids {
			select {
			case <-parked:
			case <-time.After(20 * time.Second):
				close(release)
				return fmt.Errorf("repetition %d: sessions never reached step %d", rep, failoverParkAt)
			}
		}
		victim.Kill(false)
		t0 := time.Now()
		res, err := co.FailReplica(victim.ID())
		elapsed := time.Since(t0)
		close(release)
		ues.Wait()
		handlers.Wait()
		if err != nil {
			return fmt.Errorf("repetition %d: %w", rep, err)
		}
		recoverMs = append(recoverMs, float64(elapsed)/1e6)
		lost += res.Lost
		deadline := time.Now().Add(5 * time.Second)
		for i, id := range ids {
			snap, ok := ends.waitDetached(id, deadline)
			if errs[i] != nil || !ok || snap.Steps != failoverSteps || snap.ResumedFrom == 0 {
				lost++
			}
		}
		if err := victim.Rejoin(); err != nil {
			return fmt.Errorf("repetition %d: rejoin: %w", rep, err)
		}
		co.Unfence(victim.ID())
	}
	d.put("coord.failover_recover_p50_ms", "ms", medianOf(recoverMs), len(recoverMs))
	d.put("coord.failover_lost", "count", float64(lost), 0)
	return nil
}
