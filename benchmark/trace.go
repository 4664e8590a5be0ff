package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark's own wrappers around the program's public seams. Times are
// nanoseconds since the run's epoch. Parent is 0 for a root.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	Session string `json:"session"`
	Step    uint32 `json:"step"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// spanLog collects the spans of one traced run in memory; they are
// written out only after the measured phase ends.
type spanLog struct {
	spans []span
}

// add appends a span and returns its id (ids start at 1).
func (l *spanLog) add(parent int64, name, session string, step uint32, start, end int64) int64 {
	id := int64(len(l.spans) + 1)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Session: session, Step: step, Start: start, End: end})
	return id
}

// writeJSONL writes one span per line.
func (l *spanLog) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is the per-span-name aggregate of a trace.
type layerTime struct {
	Name  string
	Count int
	Total int64 // summed durations
	Self  int64 // summed durations minus the part child spans cover
}

// selfTimes aggregates a trace by span name. A span's self time is its
// duration minus the union of its children's intervals clipped to it —
// the union, because children may overlap each other (a checkpoint put
// runs while the UE is still in its backward pass) and must not be
// subtracted twice.
func selfTimes(spans []span) []layerTime {
	children := make(map[int64][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	agg := make(map[string]*layerTime)
	for _, s := range spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		dur := s.End - s.Start
		var clipped []interval
		for _, c := range children[s.ID] {
			if c.start < s.Start {
				c.start = s.Start
			}
			if c.end > s.End {
				c.end = s.End
			}
			if c.end > c.start {
				clipped = append(clipped, c)
			}
		}
		lt.Count++
		lt.Total += dur
		lt.Self += dur - unionLength(clipped)
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}
