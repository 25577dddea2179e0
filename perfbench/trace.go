package main

import (
	"sync"
	"time"
)

// tracer keeps the spans of a traced run in memory. A span is one call
// into a layer's public function: its name, start, end and the span
// that caused it. Spans may be opened from several goroutines at once.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

type span struct {
	name       string
	parent     int // index of the causing span, -1 for a root
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: now, end: -1})
	return len(t.spans) - 1
}

// finish closes span id.
func (t *tracer) finish(id int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// call runs fn inside a span named name under parent.
func (t *tracer) call(name string, parent int, fn func()) {
	id := t.begin(name, parent)
	fn()
	t.finish(id)
}

func (t *tracer) duration(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].end - t.spans[id].start
}

// total sums the durations of every closed span named name.
func (t *tracer) total(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 {
			d += s.end - s.start
		}
	}
	return d
}
