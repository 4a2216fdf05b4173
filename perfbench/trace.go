package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// spanRec is one timed interval around a call into a layer. Parent is
// the id of the enclosing span (0 for a root) and Op the benchmark
// operation the span belongs to.
type spanRec struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory for the traced run. A nil tracer
// records nothing, so untraced runs pay one nil check per span.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, spanRec{ID: id, Name: name, Start: now, Parent: parent, Op: op})
	return id
}

// finish closes span id.
func (t *tracer) finish(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// span runs fn inside a span.
func (t *tracer) span(name string, parent, op int, fn func() error) error {
	id := t.start(name, parent, op)
	defer t.finish(id)
	return fn()
}

// spanTimes holds, per span name, each span's duration and self time
// in seconds.
type spanTimes struct {
	dur, self map[string][]float64
}

// times computes every closed span's duration and self time: its
// duration minus the part of its interval that its children cover.
func (t *tracer) times() spanTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]spanRec{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	st := spanTimes{dur: map[string][]float64{}, self: map[string][]float64{}}
	for _, s := range t.spans {
		if s.End < s.Start {
			continue // never closed
		}
		d := s.End - s.Start
		st.dur[s.Name] = append(st.dur[s.Name], float64(d)/1e9)
		st.self[s.Name] = append(st.self[s.Name], float64(d-covered(s, children[s.ID]))/1e9)
	}
	return st
}

// covered returns how many nanoseconds of s the union of kids covers.
func covered(s spanRec, kids []spanRec) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for _, x := range iv {
		lo := max(x[0], end)
		if x[1] > lo {
			total += x[1] - lo
		}
		end = max(end, x[1])
	}
	return total
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
