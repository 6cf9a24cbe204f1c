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

// span is one timed call into a layer, recorded by the benchmark around
// the public call it makes. Trace is the spec (or request) key the call
// served; Parent is the id of the enclosing span, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Trace  string `json:"trace"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once the run ends,
// so recording costs a clock read and an append.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record adds a finished span and returns its id.
func (t *tracer) record(name, trace string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Trace: trace,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// open reserves an id for a span whose children are recorded before it
// ends; close fills in its times.
func (t *tracer) open(name, trace string, parent int, start time.Time) int {
	return t.record(name, trace, parent, start, start)
}

func (t *tracer) close(id int, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
}

// mark returns the span count, so totals can be taken over the spans
// recorded after it.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfNS sums the self time of every span recorded since from, by name:
// a span's duration minus the part of it its children cover.
func (t *tracer) selfNS(from int) map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range t.spans[from:] {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]int64{}
	for _, s := range t.spans[from:] {
		out[s.Name] += s.dur() - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// totalNS sums the full durations of the named spans since from.
func (t *tracer) totalNS(from int, name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, s := range t.spans[from:] {
		if s.Name == name {
			n += s.dur()
		}
	}
	return n
}

// durationsMS lists the named spans' durations since from, in ms.
func (t *tracer) durationsMS(from int, name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans[from:] {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// covered is the length of the union of intervals clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var n int64
	cur := lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			n += e - s
			cur = e
		}
	}
	return n
}

func (t *tracer) writeNDJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err == nil {
			err = enc.Encode(&t.spans[i])
		}
	}
	t.mu.Unlock()
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
