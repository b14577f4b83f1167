package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the index of the span
// that caused it (-1 at the root); Req groups the spans of one request.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"`
	Req    int64   `json:"req,omitempty"`
}

// tracer holds a traced run's spans in memory until the run ends. A nil
// tracer records nothing, so untraced code paths pay one nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its index.
func (t *tracer) start(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// stop closes span i.
func (t *tracer) stop(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
}

// stopAs closes span i under a name known only once the call returned.
func (t *tracer) stopAs(i int, name string) {
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].Name, t.spans[i].End = name, now
}

// total is the summed duration of every closed span named name.
func (t *tracer) total(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s float64
	for _, sp := range t.spans {
		if sp.Name == name && sp.End >= 0 {
			s += sp.End - sp.Start
		}
	}
	return s
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
