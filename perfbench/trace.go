package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans caps the spans kept in memory; later spans are still timed but
// only counted, so a long traced run cannot grow without bound.
const maxSpans = 250_000

// span is one timed call at a layer boundary. Spans of one request (a
// lock passage, a sweep over one algorithm and victim, an E2 pass) share
// a trace id; Parent is 0 for a root.
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// openSpan is a span that has begun and not yet ended.
type openSpan struct {
	name              string
	trace, id, parent uint64
	start             time.Duration
}

// tracer records spans in memory from any goroutine; write puts them out
// once the run is over.
type tracer struct {
	t0      time.Time
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span //guarded by mu
	dropped int    //guarded by mu
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (nil for a root, which starts a new
// trace).
func (t *tracer) begin(name string, parent *openSpan) openSpan {
	s := openSpan{name: name, id: t.ids.Add(1), start: time.Since(t.t0)}
	if parent != nil {
		s.trace, s.parent = parent.trace, parent.id
	} else {
		s.trace = s.id
	}
	return s
}

// end closes s and returns its duration.
func (t *tracer) end(s openSpan) time.Duration {
	end := time.Since(t.t0)
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{Name: s.name, Trace: s.trace, ID: s.id, Parent: s.parent,
			Start: int64(s.start), End: int64(end)})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	return end - s.start
}

// spanSummary is the time spent under one span name. Self time is the
// spans' duration minus the part of it their child spans cover.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// summary aggregates the recorded spans by name, in first-seen order.
func (t *tracer) summary() []spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[uint64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	idx := map[string]int{}
	var out []spanSummary
	for _, s := range t.spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, spanSummary{Name: s.Name})
		}
		dur := s.End - s.Start
		out[i].Count++
		out[i].TotalMS += float64(dur) / 1e6
		out[i].SelfMS += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	kids = slices.Clone(kids)
	slices.SortFunc(kids, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else {
			curE = max(curE, e)
		}
	}
	return total + curE - curS
}

// write puts the recorded spans out as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// stored returns how many spans were kept and how many were only counted.
func (t *tracer) stored() (kept, dropped int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans), t.dropped
}
