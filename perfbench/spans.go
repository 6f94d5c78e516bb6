package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into the program. Spans of one pass share the
// pass name; parent 0 is a root.
type span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent"`
	Pass   string            `json:"pass"`
	Name   string            `json:"name"`
	Start  float64           `json:"start_s"` // seconds since the tracer started
	End    float64           `json:"end_s"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so timed passes share code with traced ones.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(pass string, parent int, name string, attrs ...string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{ID: len(t.spans) + 1, Parent: parent, Pass: pass, Name: name,
		Start: time.Since(t.t0).Seconds()}
	if len(attrs) > 0 {
		s.Attrs = make(map[string]string)
		for i := 0; i+1 < len(attrs); i += 2 {
			s.Attrs[attrs[i]] = attrs[i+1]
		}
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Seconds()
	return time.Duration(s.dur() * float64(time.Second))
}

// selfTimes returns, per span name, the summed duration minus the part
// of each span's interval its children cover.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]float64)
	for _, s := range spans {
		cs := children[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, reach := 0.0, s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.Name] += s.dur() - covered
	}
	return self
}
