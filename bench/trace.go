package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder was created; Parent is the id of the
// span that caused this one (0 for a root); spans of one op share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer is the bench's own in-memory span recorder: spans are taken
// around calls into each layer's exported functions, kept in memory and
// flushed once at exit. A nil *tracer records nothing, which is how the
// untraced runs are untraced.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// start opens a span and returns its id (0 from a nil tracer).
func (t *tracer) start(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End = now
	d := time.Duration(s.End - s.Start)
	t.mu.Unlock()
	return d
}

// selfTimes is each span name's total self time in milliseconds: a
// span's duration minus the part of it its direct children cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make(map[int]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		out[s.Name] += float64(s.End-s.Start-covered[s.ID]) / 1e6
	}
	return out
}

// flush writes the spans and their per-name self times to path.
func (t *tracer) flush(path string) error {
	self := t.selfTimes()
	t.mu.Lock()
	doc := struct {
		SelfMs map[string]float64 `json:"self_ms_by_name"`
		Spans  []span             `json:"spans"`
	}{self, t.spans}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
