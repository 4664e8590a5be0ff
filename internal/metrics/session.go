package metrics

import (
	"fmt"
	"sync/atomic"
)

// Per-session training telemetry for the multi-UE base station: each
// split-learning session tracks its mini-batch losses and validation
// RMSEs as append-only series so the server can report convergence per
// UE. The types are plain values — callers that share them across
// goroutines (the session manager does) guard them with their own lock.

// Series is a named, append-only scalar series indexed by training step.
type Series struct {
	Name   string
	Steps  []int
	Values []float64
}

// Add appends one observation at the given step.
func (s *Series) Add(step int, v float64) {
	s.Steps = append(s.Steps, step)
	s.Values = append(s.Values, v)
}

// Len returns the number of observations.
func (s *Series) Len() int { return len(s.Values) }

// Last returns the most recent observation, or ok = false when empty.
func (s *Series) Last() (step int, v float64, ok bool) {
	if len(s.Values) == 0 {
		return 0, 0, false
	}
	return s.Steps[len(s.Steps)-1], s.Values[len(s.Values)-1], true
}

// Clone returns an independent deep copy — the snapshot primitive for
// concurrent reporting.
func (s *Series) Clone() Series {
	return Series{
		Name:   s.Name,
		Steps:  append([]int(nil), s.Steps...),
		Values: append([]float64(nil), s.Values...),
	}
}

// SessionMetrics aggregates one split-learning session's series and
// lifecycle counters.
//
// The counters are lock-free atomics: they sit on the serving hot path
// (Steps is bumped once per training round, the lifecycle counters on
// every checkpoint/resume) while concurrent snapshot reporting polls
// them, and under many live UEs a shared mutex here measurably
// serialises rounds. The series still need external locking — they are
// append-only slices — which callers (the server's session records)
// already provide; the counters deliberately do not.
type SessionMetrics struct {
	SessionID string
	Loss      Series // per-step mini-batch loss (normalised scale)
	ValRMSE   Series // validation RMSE in dB at evaluation points

	// Per-step and lifecycle counters for the serving layer.
	Steps              atomic.Int64 // latest completed training step (resume restores it)
	Checkpoints        atomic.Int64 // train-state checkpoints written
	LastCheckpointStep atomic.Int64 // step of the most recent checkpoint (0: none)
	Resumes            atomic.Int64 // times this session resumed from a checkpoint
	LastResumeStep     atomic.Int64 // step the most recent resume restarted from
}

// NewSessionMetrics returns empty telemetry for a session.
func NewSessionMetrics(id string) *SessionMetrics {
	return &SessionMetrics{
		SessionID: id,
		Loss:      Series{Name: fmt.Sprintf("%s/loss", id)},
		ValRMSE:   Series{Name: fmt.Sprintf("%s/val_rmse_db", id)},
	}
}

// RecordStep notes one completed training round at the given step.
func (m *SessionMetrics) RecordStep(step int) {
	m.Steps.Store(int64(step))
}

// RecordCheckpoint notes one train-state checkpoint at the given step.
func (m *SessionMetrics) RecordCheckpoint(step int) {
	m.Checkpoints.Add(1)
	m.LastCheckpointStep.Store(int64(step))
}

// RecordResume notes one resume-from-checkpoint at the given step.
func (m *SessionMetrics) RecordResume(step int) {
	m.Resumes.Add(1)
	m.LastResumeStep.Store(int64(step))
}

// Clone returns an independent deep copy.
func (m *SessionMetrics) Clone() *SessionMetrics {
	out := &SessionMetrics{
		SessionID: m.SessionID,
		Loss:      m.Loss.Clone(),
		ValRMSE:   m.ValRMSE.Clone(),
	}
	out.Steps.Store(m.Steps.Load())
	out.Checkpoints.Store(m.Checkpoints.Load())
	out.LastCheckpointStep.Store(m.LastCheckpointStep.Load())
	out.Resumes.Store(m.Resumes.Load())
	out.LastResumeStep.Store(m.LastResumeStep.Load())
	return out
}
