package store

import (
	"fmt"
	"sort"
	"sync"
)

// Mem is the in-process backend: today's retention-ring semantics behind
// the Store interface. Nothing survives the process, but a second
// BSServer handed the same *Mem adopts its sessions — the in-process
// failover primitive, and the test double for the disk backends.
type Mem struct {
	mu    sync.Mutex
	ckpts map[string]map[int][]byte
	ring  *retireRing
	st    Stats
}

// NewMem returns a Mem retaining the newest retain retire records
// (≤0: 128).
func NewMem(retain int) *Mem {
	return &Mem{
		ckpts: make(map[string]map[int][]byte),
		ring:  newRetireRing(retain),
		st:    Stats{Kind: "mem"},
	}
}

// Kind implements Store.
func (m *Mem) Kind() string { return "mem" }

// PutCheckpoint implements Store. The blob is copied.
func (m *Mem) PutCheckpoint(id string, step int, blob []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.ckpts[id]
	if c == nil {
		c = make(map[int][]byte)
		m.ckpts[id] = c
	}
	c[step] = append([]byte(nil), blob...)
	m.st.Records++
	return nil
}

// GetCheckpoint implements Store. The returned blob is a copy.
func (m *Mem) GetCheckpoint(id string, step int) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	blob, ok := m.ckpts[id][step]
	if !ok {
		return nil, fmt.Errorf("store: checkpoint %s@%d: %w", id, step, ErrNotFound)
	}
	return append([]byte(nil), blob...), nil
}

// DeleteCheckpoint implements Store.
func (m *Mem) DeleteCheckpoint(id string, step int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.deleteLocked(id, step)
	return nil
}

func (m *Mem) deleteLocked(id string, step int) {
	if c := m.ckpts[id]; c != nil {
		delete(c, step)
		if len(c) == 0 {
			delete(m.ckpts, id)
		}
	}
}

// CheckpointSteps implements Store.
func (m *Mem) CheckpointSteps(id string) ([]int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	steps := make([]int, 0, len(m.ckpts[id]))
	for step := range m.ckpts[id] {
		steps = append(steps, step)
	}
	sort.Ints(steps)
	return steps, nil
}

// RetireSession implements Store. A completed session's terminal
// checkpoint lives as long as its record: nothing resumes a session that
// ran to its end, so when the ring drops the record the blob goes with
// it, and memory is bounded by retain, not by the sessions ever served.
// Failed, drained, migrated and superseded sessions keep their resume
// material, and so does an id that a newer record in the ring shows was
// taken up again.
func (m *Mem) RetireSession(rec SessionRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, old := range m.ring.push(rec) {
		if old.Cause == CauseDetached && !old.Resumable && !m.ring.holds(old.ID) {
			m.deleteLocked(old.ID, int(old.Steps))
		}
	}
	m.st.Records++
	return nil
}

// RetiredSessions implements Store.
func (m *Mem) RetiredSessions() ([]SessionRecord, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ring.list(), nil
}

// Aggregates implements Store.
func (m *Mem) Aggregates() Aggregates {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ring.aggregates()
}

// Stats implements Store.
func (m *Mem) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.st
	var live int64
	for _, c := range m.ckpts {
		live += int64(len(c))
	}
	st.LiveCheckpoints = live
	return st
}

// Flush implements Store (no-op).
func (m *Mem) Flush() error { return nil }

// Close implements Store (no-op; the data stays adoptable).
func (m *Mem) Close() error { return nil }
