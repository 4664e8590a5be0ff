package transport

import (
	"fmt"
	"time"

	"repro/internal/compress"
)

// Live reconfiguration. ServerConfig is read once at boot; the subset
// of it that can change safely while sessions are being served lives in
// a Policy, held behind an atomic pointer on the BSServer and resolved
// at its natural binding point — session join for admission parameters,
// round boundary for scheduling ones — rather than captured at startup.
// The indirection follows the runtime config-substitution pattern: code
// never holds a policy value across a binding point, it asks for "the
// current policy" when the decision is made, and a swap (SetPolicy,
// driven by the control plane's PUT /config) is one atomic pointer
// exchange, so an in-flight round can never observe a torn mix of two
// policies.
//
// What a policy can never change is the mathematics: codec and
// fingerprint are fixed per session at join, the batch window only
// decides when rounds coalesce (invariant 8 pins batched ≡ solo
// bit-identically), and the checkpoint interval only decides when state
// is persisted (invariant 7 pins resumed ≡ uninterrupted). The fields
// deliberately exclude anything that would break those invariants
// mid-session.

// Policy is the runtime-mutable subset of ServerConfig. Each field
// documents when a change binds.
type Policy struct {
	// MaxUE caps concurrent live sessions. Binds at session join:
	// lowering it below the current occupancy evicts nobody, it only
	// refuses new admissions until attrition brings the count under the
	// new cap.
	MaxUE int

	// IdleTimeout is the per-operation I/O stall budget after which a
	// session is failed and its slot freed. Binds at session join (each
	// incarnation's connection is wrapped once); 0 disables.
	IdleTimeout time.Duration

	// BatchWindow is the compute dispatcher's coalescing window: how
	// long a round waits for rounds from other sessions to share its
	// dispatch. Binds at the next round arriving at the dispatcher. 0
	// dispatches every round at once, no coalescing wait.
	BatchWindow time.Duration

	// BatchMax caps rounds coalesced per dispatch. Binds at the next
	// round arriving at the dispatcher.
	BatchMax int

	// CheckpointEvery is the checkpoint interval in training steps.
	// Binds at each session's next completed step. Whether checkpointing
	// exists at all (ServerConfig.CheckpointDir) is boot-only.
	CheckpointEvery int

	// DefaultCodec is granted to sessions whose hello requests
	// CodecServerDefault instead of a concrete codec. Binds at session
	// join; sessions that named a codec are never overridden.
	DefaultCodec compress.ID
}

// Validate reports the first reason p cannot be installed.
func (p Policy) Validate() error {
	switch {
	case p.MaxUE < 1:
		return fmt.Errorf("transport: policy MaxUE %d < 1", p.MaxUE)
	case p.IdleTimeout < 0:
		return fmt.Errorf("transport: policy IdleTimeout %v < 0", p.IdleTimeout)
	case p.BatchWindow < 0:
		return fmt.Errorf("transport: policy BatchWindow %v < 0", p.BatchWindow)
	case p.BatchMax < 1:
		return fmt.Errorf("transport: policy BatchMax %d < 1", p.BatchMax)
	case p.CheckpointEvery < 1:
		return fmt.Errorf("transport: policy CheckpointEvery %d < 1", p.CheckpointEvery)
	case !p.DefaultCodec.Valid():
		return fmt.Errorf("transport: policy default codec id %d unknown", uint8(p.DefaultCodec))
	}
	return nil
}

// policy extracts the boot-time policy from a defaulted ServerConfig.
func (c *ServerConfig) policy() Policy {
	return Policy{
		MaxUE:           c.MaxUE,
		IdleTimeout:     c.IdleTimeout,
		BatchWindow:     c.BatchWindow,
		BatchMax:        c.BatchMax,
		CheckpointEvery: c.CheckpointEvery,
		DefaultCodec:    compress.CodecRaw,
	}
}

// CurrentPolicy returns the policy now in force.
func (s *BSServer) CurrentPolicy() Policy { return *s.pol.Load() }

// SetPolicy atomically installs p as the current policy after
// validating it. New values bind at each field's documented point
// (session join or round boundary); nothing in flight is disturbed.
func (s *BSServer) SetPolicy(p Policy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	old := s.pol.Swap(&p)
	if *old != p {
		s.cfg.Logf("bs-server: policy %+v (was %+v)", p, *old)
	}
	return nil
}
