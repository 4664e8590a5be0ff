package transport

import (
	"errors"

	"repro/internal/metrics"
	"repro/internal/store"
)

// Bridge between the in-memory session layer and the durable store: a
// retiring SessionSnapshot projects onto a store.SessionRecord (the
// durable mirror write), and at boot the records found in an adopted
// store re-materialize as snapshots (cold-start adoption). The full
// metric series die with the process that collected them; what crosses
// the boundary is the terminal summary — enough for the control plane's
// reporting and for a fresh process to accept the session's resume
// token.

// recordFromSnapshot projects a terminal snapshot onto its durable form.
func recordFromSnapshot(snap SessionSnapshot) store.SessionRecord {
	rec := store.SessionRecord{
		ID:          snap.ID,
		Epoch:       snap.Epoch,
		Version:     snap.Version,
		Cause:       causeOf(snap.State, snap.cause),
		Steps:       uint32(snap.Steps),
		ResumedFrom: snap.ResumedFrom,
		Evals:       uint32(snap.Evals),
		Reached:     snap.Reached,
		Resumable:   snap.drained,
		LastLoss:    snap.LastLoss,
		LastRMSE:    snap.LastRMSE,
		BytesIn:     snap.BytesIn,
		BytesOut:    snap.BytesOut,
		Err:         snap.Err,
		Seed:        snap.Hello.Seed,
		Frames:      snap.Hello.Frames,
		Pool:        snap.Hello.Pool,
		Modality:    snap.Hello.Modality,
		Codec:       snap.Hello.Codec,
	}
	if snap.Metrics != nil {
		rec.Checkpoints = snap.Metrics.Checkpoints.Load()
		rec.Resumes = snap.Metrics.Resumes.Load()
	}
	return rec
}

// causeOf classifies a terminal state + cause into the store's EndCause,
// with the same precedence as endCounts.classify.
func causeOf(state SessionState, cause error) store.EndCause {
	switch {
	case errors.Is(cause, ErrAdminEvicted):
		return store.CauseAdmin
	case errors.Is(cause, ErrSuperseded) || state == SessionSuperseded:
		return store.CauseSuperseded
	case errors.Is(cause, ErrIdleTimeout):
		return store.CauseIdle
	case errors.Is(cause, ErrMigrated):
		return store.CauseMigrated
	case cause != nil || state == SessionFailed:
		return store.CauseFailed
	}
	return store.CauseDetached
}

// snapshotFromRecord re-materializes an adopted record as a retired
// snapshot: state and cause are reconstructed from the stored
// disposition (the original error value cannot cross a process
// boundary; the sentinel causes can), and the snapshot carries fresh
// metrics seeded with the stored counters so readers that poll
// Metrics.Checkpoints see the adopted history.
func snapshotFromRecord(rec store.SessionRecord) SessionSnapshot {
	snap := SessionSnapshot{
		ID: rec.ID,
		Hello: Hello{
			Version: rec.Version, SessionID: rec.ID, Seed: rec.Seed,
			Frames: rec.Frames, Pool: rec.Pool, Modality: rec.Modality,
			Codec: rec.Codec, Epoch: rec.Epoch,
		},
		Epoch:       rec.Epoch,
		Version:     rec.Version,
		Steps:       int(rec.Steps),
		ResumedFrom: rec.ResumedFrom,
		LastLoss:    rec.LastLoss,
		LastRMSE:    rec.LastRMSE,
		Evals:       int(rec.Evals),
		Reached:     rec.Reached,
		BytesIn:     rec.BytesIn,
		BytesOut:    rec.BytesOut,
		Err:         rec.Err,
		Metrics:     metrics.NewSessionMetrics(rec.ID),
	}
	snap.Metrics.Steps.Store(int64(rec.Steps))
	snap.Metrics.Checkpoints.Store(rec.Checkpoints)
	snap.Metrics.Resumes.Store(rec.Resumes)
	switch rec.Cause {
	case store.CauseDetached:
		snap.State = SessionDetached
	case store.CauseSuperseded:
		snap.State = SessionSuperseded
		snap.cause = ErrSuperseded
	case store.CauseIdle:
		snap.State = SessionFailed
		snap.cause = ErrIdleTimeout
	case store.CauseAdmin:
		snap.State = SessionFailed
		snap.cause = ErrAdminEvicted
	case store.CauseMigrated:
		snap.State = SessionFailed
		snap.cause = ErrMigrated
	default:
		snap.State = SessionFailed
		if rec.Err != "" {
			snap.cause = errors.New(rec.Err)
		}
	}
	if snap.cause != nil && snap.Err == "" {
		snap.Err = snap.cause.Error()
	}
	return snap
}

// countsFromAggregates seeds the session store's monotonic accumulators
// from an adopted store's lifetime aggregates.
func countsFromAggregates(a store.Aggregates) endCounts {
	return endCounts{
		detached:   a.Detached,
		superseded: a.Superseded,
		idle:       a.Idle,
		admin:      a.Admin,
		migrated:   a.Migrated,
		failed:     a.Failed,
	}
}
