package coord

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/store"
	"repro/internal/transport"
)

// Crash failover: when a replica is declared dead (by the failure
// detector or an operator drill), the coordinator fences it, barriers
// every route it held, reads the checkpoints out of its durable store
// and adopts each session onto a healthy survivor — the same
// AdoptSessionState + migration-barrier machinery a planned handover
// uses, minus the MigrateOut the dead replica can no longer serve.
// Reconnecting UEs park at the barrier exactly as they do during a
// planned handover and resume from their last checkpoint on the
// survivor, so a recovered session is bit-identical to one interrupted
// at that checkpoint (invariant 10).

// FailoverConfig tunes the recovery loop.
type FailoverConfig struct {
	// RecoverParallel caps concurrent session adoptions, so recovery of
	// a loaded replica never stampedes the survivors (≤0: 4).
	RecoverParallel int

	// RetryLimit is the per-session adoption attempt budget; each
	// attempt re-picks a survivor, skipping ones that already failed
	// (≤0: 3 retries after the first attempt).
	RetryLimit int

	// RetryBackoff schedules the jittered wait between attempts; the
	// zero value means {Base: 25ms, Max: 1s}. Retries here is ignored —
	// RetryLimit governs.
	RetryBackoff transport.Backoff
}

func (f FailoverConfig) withDefaults() FailoverConfig {
	if f.RecoverParallel <= 0 {
		f.RecoverParallel = 4
	}
	if f.RetryLimit <= 0 {
		f.RetryLimit = 3
	}
	if f.RetryBackoff.Base <= 0 {
		f.RetryBackoff.Base = 25 * time.Millisecond
	}
	if f.RetryBackoff.Max <= 0 {
		f.RetryBackoff.Max = time.Second
	}
	return f
}

// FailoverResult summarizes one crash failover.
type FailoverResult struct {
	Replica   string
	Sessions  int // routes the dead replica held
	Recovered int // adopted onto survivors from durable checkpoints
	Fresh     int // no durable state; re-placed to retrain from scratch
	Lost      int // had durable state but no survivor could adopt it
	Elapsed   time.Duration
}

// FailReplica fences the named replica and runs crash failover for
// every session routed to it. It blocks until recovery settles and is
// safe to call concurrently with routing, handover and the detector; a
// replica that is already fenced is an error (one failover owns a
// death). The fence is lifted only by Unfence — normally via the
// detector's rejoin path after the replica passes healthy probes.
func (c *Coordinator) FailReplica(id string) (*FailoverResult, error) {
	rep := c.ReplicaByID(id)
	if rep == nil {
		return nil, fmt.Errorf("coord: unknown replica %q", id)
	}
	c.mu.Lock()
	if c.fenced[id] {
		c.mu.Unlock()
		return nil, fmt.Errorf("coord: replica %q already fenced", id)
	}
	c.fenced[id] = true
	c.mu.Unlock()

	start := time.Now()
	c.failovers.Add(1)
	c.recoveriesActive.Add(1)
	defer c.recoveriesActive.Add(-1)
	c.logf("coord: replica %s fenced — beginning crash failover", id)

	victims := c.claimRoutes(id)
	res := &FailoverResult{Replica: id, Sessions: len(victims)}

	var src store.Store
	release := func() {}
	if len(victims) > 0 {
		if rs, ok := rep.(RecoverySource); ok {
			var err error
			src, release, err = rs.TakeoverStore()
			if err != nil {
				c.logf("coord: replica %s: store takeover failed, sessions with durable state are lost: %v", id, err)
				src, release = nil, func() {}
			}
		} else {
			c.logf("coord: replica %s offers no recovery source — sessions with durable state are lost", id)
		}
	}

	// Adopt each victim onto a survivor under the concurrency cap.
	// Per-session retry with jittered backoff rides inside
	// recoverSession; the semaphore bounds the fleet-wide stampede.
	sem := make(chan struct{}, c.failover.RecoverParallel)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, v := range victims {
		wg.Add(1)
		go func(v failoverVictim) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			t0 := time.Now()
			outcome := c.recoverSession(src, v, rep)
			mu.Lock()
			switch outcome {
			case recoverAdopted:
				res.Recovered++
			case recoverFresh:
				res.Fresh++
			case recoverLost:
				res.Lost++
			}
			mu.Unlock()
			if outcome == recoverAdopted {
				c.recovered.Add(1)
				c.recoverLat.add(time.Since(t0))
			} else if outcome == recoverLost {
				c.lostSessions.Add(1)
			}
		}(v)
	}
	wg.Wait()
	release()
	res.Elapsed = time.Since(start)
	c.logf("coord: failover of %s done in %v: %d sessions (%d recovered, %d fresh, %d lost)",
		id, res.Elapsed.Round(time.Millisecond), res.Sessions, res.Recovered, res.Fresh, res.Lost)
	return res, nil
}

// failoverVictim is one route claimed from a dead replica.
type failoverVictim struct {
	id       string
	configFP uint64
	rt       *route
	barrier  chan struct{}
}

// claimRoutes barriers every route on the dead replica and returns the
// claimed set. Routes mid-handover are waited out first (the handover
// will fail against the dead source and settle the route back, or
// complete onto a live destination — either way the barrier resolves),
// bounded by the migrate timeout.
func (c *Coordinator) claimRoutes(id string) []failoverVictim {
	claimed := make(map[string]bool)
	var victims []failoverVictim
	deadline := time.Now().Add(c.CurrentPolicy().MigrateTimeout)
	for {
		var pending []chan struct{}
		c.mu.Lock()
		for sid, rt := range c.routes {
			if claimed[sid] || rt.replica.ID() != id {
				continue
			}
			if rt.migrating != nil {
				pending = append(pending, rt.migrating)
				continue
			}
			b := make(chan struct{})
			rt.migrating = b
			claimed[sid] = true
			victims = append(victims, failoverVictim{id: sid, configFP: rt.configFP, rt: rt, barrier: b})
		}
		c.mu.Unlock()
		if len(pending) == 0 {
			return victims
		}
		for _, b := range pending {
			select {
			case <-b:
			case <-time.After(time.Until(deadline)):
				return victims // stuck handover keeps its own barrier; don't deadlock recovery
			}
		}
	}
}

type recoverOutcome int

const (
	recoverAdopted recoverOutcome = iota // durable state installed on a survivor
	recoverFresh                         // nothing durable; session re-places fresh
	recoverLost                          // durable state existed but could not be moved
)

// recoverSession moves one victim off the dead replica: it adopts every
// durable checkpoint step (the store keeps the newest and its
// predecessor, so a UE whose resume token lags the final write — it
// died mid-checkpoint — still finds its step) onto a survivor picked by
// the placement policy, retrying with jittered backoff and skipping
// survivors that failed (a second crash during recovery moves on to the
// next replica). The route settles on the survivor on success and is
// deleted otherwise, so the UE either resumes or re-places fresh.
func (c *Coordinator) recoverSession(src store.Store, v failoverVictim, dead Replica) recoverOutcome {
	settle := func(to Replica) {
		c.mu.Lock()
		if to != nil {
			v.rt.replica = to
			v.rt.migrating = nil
		} else {
			delete(c.routes, v.id)
		}
		c.mu.Unlock()
		close(v.barrier)
	}

	var steps []int
	if src != nil {
		var err error
		steps, err = src.CheckpointSteps(v.id)
		if err != nil {
			c.logf("coord: recover %q: reading checkpoint steps: %v", v.id, err)
		}
	}
	if len(steps) == 0 {
		// No durable progress (or no store): nothing to move. Delete
		// the route so the session's next hello places fresh — with no
		// durable checkpoint the UE holds no resume token either, so
		// nothing is lost... unless the store itself is gone, in which
		// case the checkpointed incarnation is.
		settle(nil)
		if src == nil {
			return recoverLost
		}
		return recoverFresh
	}

	tried := make(map[string]bool)
	bo := c.failover.RetryBackoff
	for attempt := 0; attempt <= c.failover.RetryLimit; attempt++ {
		if attempt > 0 {
			time.Sleep(bo.Delay(attempt))
		}
		target := c.pickSurvivor(v.configFP, dead, tried)
		if target == nil {
			// Every candidate tried and failed; give the untried-set a
			// fresh start in case a replica recovered or rejoined.
			tried = make(map[string]bool)
			continue
		}
		if err := adoptSteps(target, src, v, steps); err != nil {
			c.logf("coord: recover %q onto %s (attempt %d): %v", v.id, target.ID(), attempt+1, err)
			tried[target.ID()] = true
			continue
		}
		settle(target)
		c.logf("coord: session %q recovered onto %s at step %d", v.id, target.ID(), steps[len(steps)-1])
		return recoverAdopted
	}
	settle(nil)
	return recoverLost
}

// pickSurvivor chooses the adoption target under the placement policy,
// excluding the dead replica, fenced or visibly crashed replicas, and
// ones that already failed this session's recovery.
func (c *Coordinator) pickSurvivor(fp uint64, dead Replica, tried map[string]bool) Replica {
	c.mu.Lock()
	pol := c.policy
	eligible := make([]Replica, 0, len(c.replicas))
	for _, r := range c.eligibleLocked() {
		if r.ID() == dead.ID() || tried[r.ID()] {
			continue
		}
		eligible = append(eligible, r)
	}
	c.mu.Unlock()
	return pol.place(eligible, fp)
}

// adoptSteps installs every durable checkpoint step on the target,
// oldest first. Re-adopting a step that already landed in an earlier
// attempt is an idempotent overwrite.
func adoptSteps(target Replica, src store.Store, v failoverVictim, steps []int) error {
	for _, step := range steps {
		blob, err := src.GetCheckpoint(v.id, step)
		if err != nil {
			return fmt.Errorf("read step %d from dead store: %w", step, err)
		}
		if err := target.Adopt(&transport.MigrationState{
			ID:       v.id,
			ConfigFP: v.configFP,
			Step:     uint32(step),
			Blob:     blob,
		}); err != nil {
			return fmt.Errorf("adopt step %d: %w", step, err)
		}
	}
	return nil
}

// IsFenced reports whether the replica is currently fenced.
func (c *Coordinator) IsFenced(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fenced[id]
}

// Unfence readmits a fenced replica to placement — the rejoin path,
// called by the detector after the replica passes its healthy-probe
// quota (or by an operator who knows better). Sticky routes stay where
// recovery put them; only fresh placements land on the rejoined
// replica.
func (c *Coordinator) Unfence(id string) {
	c.mu.Lock()
	was := c.fenced[id]
	delete(c.fenced, id)
	c.mu.Unlock()
	if was {
		c.rejoins.Add(1)
		c.logf("coord: replica %s unfenced — back in placement", id)
	}
}

// RecoveriesActive reports in-flight failovers (for drills that must
// wait out recovery before rejoining a replica).
func (c *Coordinator) RecoveriesActive() int {
	return int(c.recoveriesActive.Load())
}
