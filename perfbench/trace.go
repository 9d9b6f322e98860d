package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, start and end in
// nanoseconds since the recorder began, the index of the span that caused
// it (-1 for a root) and the request it belongs to (-1 for none).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// recorder keeps spans in memory; they are written out once, at the end.
// Safe for concurrent use.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index; end closes it.
func (r *recorder) begin(name string, parent, req int) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, Parent: parent, Req: req})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// do runs fn inside a span.
func (r *recorder) do(name string, parent, req int, fn func()) {
	id := r.begin(name, parent, req)
	fn()
	r.end(id)
}

// durations returns the lengths in ms of every span called name, in the
// order they began.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// byReq returns the duration in ms of the span called name for each
// request id that has one.
func (r *recorder) byReq(name string) map[int]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[int]float64{}
	for _, s := range r.spans {
		if s.Name == name {
			out[s.Req] += s.ms()
		}
	}
	return out
}

// write stores every span as JSON at path.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
