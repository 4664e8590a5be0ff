package metrics

import "testing"

func TestSeriesAddLast(t *testing.T) {
	var s Series
	if _, _, ok := s.Last(); ok {
		t.Fatal("empty series has a last value")
	}
	s.Add(1, 5)
	s.Add(2, 3)
	s.Add(4, 4)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	step, v, ok := s.Last()
	if !ok || step != 4 || v != 4 {
		t.Fatalf("Last = (%d, %g, %v)", step, v, ok)
	}
}

func TestSeriesCloneIsIndependent(t *testing.T) {
	var s Series
	s.Add(1, 2)
	c := s.Clone()
	s.Add(2, 9)
	if c.Len() != 1 {
		t.Fatalf("clone grew with original: len %d", c.Len())
	}
	if _, v, _ := c.Last(); v != 2 {
		t.Fatalf("clone last = %g, want 2", v)
	}
}

func TestSessionMetricsLifecycleCounters(t *testing.T) {
	m := NewSessionMetrics("ue-2")
	m.RecordStep(3)
	m.RecordCheckpoint(5)
	m.RecordCheckpoint(10)
	m.RecordResume(10)
	if m.Steps.Load() != 3 {
		t.Fatalf("steps %d, want 3", m.Steps.Load())
	}
	if m.Checkpoints.Load() != 2 || m.LastCheckpointStep.Load() != 10 {
		t.Fatalf("checkpoints %d @%d", m.Checkpoints.Load(), m.LastCheckpointStep.Load())
	}
	if m.Resumes.Load() != 1 || m.LastResumeStep.Load() != 10 {
		t.Fatalf("resumes %d @%d", m.Resumes.Load(), m.LastResumeStep.Load())
	}
	m.ValRMSE.Add(40, 9.8)
	c := m.Clone()
	m.RecordResume(15)
	m.RecordStep(4)
	m.ValRMSE.Add(60, 50)
	if c.Resumes.Load() != 1 || c.LastResumeStep.Load() != 10 || c.Steps.Load() != 3 {
		t.Fatalf("clone mutated: resumes %d @%d steps %d",
			c.Resumes.Load(), c.LastResumeStep.Load(), c.Steps.Load())
	}
	if _, v, _ := c.ValRMSE.Last(); v != 9.8 {
		t.Fatalf("clone mutated: last RMSE %g", v)
	}
	if c.SessionID != "ue-2" || c.Loss.Name != "ue-2/loss" {
		t.Fatalf("clone identity: %q %q", c.SessionID, c.Loss.Name)
	}
}
