package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the program's public entry points. Spans of one request share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay only nil checks.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span whose end is not yet recorded.
type openSpan struct {
	t *tracer
	s span
}

// newReq returns a fresh request ID (0 when untraced).
func (t *tracer) newReq() int64 {
	if t == nil {
		return 0
	}
	return t.reqs.Add(1)
}

func (t *tracer) begin(name string, req, parent int64) *openSpan {
	if t == nil {
		return nil
	}
	return &openSpan{t: t, s: span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name, Start: time.Since(t.t0).Nanoseconds()}}
}

func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// end records the span and returns its duration.
func (o *openSpan) end() time.Duration {
	if o == nil {
		return 0
	}
	o.s.End = time.Since(o.t.t0).Nanoseconds()
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
	return time.Duration(o.s.End - o.s.Start)
}

// write dumps every span as one JSON object per line.
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
		return err
	}
	return f.Close()
}

// selfTimes returns, per span name, the self time of every span of the
// requests keep admits: its duration minus the part of its interval that
// its child spans cover.
func (t *tracer) selfTimes(keep map[int64]bool) map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string][]float64{}
	for _, s := range t.spans {
		if !keep[s.Req] {
			continue
		}
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		covered, cur := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered)/1e3)
	}
	return out
}

// byReq returns the durations in microseconds of the spans named name,
// keyed by request ID.
func (t *tracer) byReq(name string) map[int64]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int64]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Req] += float64(s.End-s.Start) / 1e3
		}
	}
	return out
}
