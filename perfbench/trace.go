package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one
// request share Req; Parent names the span (by ID) whose layer called
// this one, 0 for a root. Start and End are nanoseconds since the
// tracer was created.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op, so the measured code
// path is the same call sequence with or without tracing.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span identifier, so children can name a parent that
// has not ended yet.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// record stores a finished span under a reserved id.
func (t *tracer) record(id int64, name string, req, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, Req: req, ID: id, Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn as a span named name and returns its duration. With a
// nil tracer it only times fn.
func (t *tracer) timed(name string, req, parent int64, fn func()) time.Duration {
	return t.nested(name, req, parent, func(int64) { fn() })
}

// nested is timed for a span whose children need its id.
func (t *tracer) nested(name string, req, parent int64, fn func(id int64)) time.Duration {
	id := t.id()
	start := time.Now()
	fn(id)
	end := time.Now()
	t.record(id, name, req, parent, start, end)
	return end.Sub(start)
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the
// durations of its child spans. Children are either calls made inside
// the parent's interval (set-up steps) or, for a request, the inner
// layer's call replayed with the same arguments right after the outer
// one returned, because the outer call cannot be entered from outside
// the program. Either way the difference is the time the parent layer
// spends on its own.
func selfTimes(spans []span) map[int64]time.Duration {
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// named returns the spans called name.
func named(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations of spans as samples.
func durations(spans []span) samples {
	out := make(samples, len(spans))
	for i, s := range spans {
		out[i] = int64(s.dur())
	}
	return out
}

// selfSamples is the self time of every span called name.
func selfSamples(spans []span, name string) samples {
	self := selfTimes(spans)
	var out samples
	for _, s := range spans {
		if s.Name == name {
			out = append(out, int64(self[s.ID]))
		}
	}
	return out
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return errors.Join(err, f.Close())
		}
	}
	if err := w.Flush(); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}
