package bench

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Span is one wall-clock interval recorded around a call into a layer.
// Start and End are seconds since the recorder was created. Parent is the
// index of the enclosing span (-1 for an op's root span), Op numbers the
// op the span belongs to and Track separates concurrent callers (a rank of
// the distributed workload; 0 elsewhere).
type Span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Track  int     `json:"track"`
}

// Dur returns the span's length in seconds.
func (s Span) Dur() float64 { return s.End - s.Start }

// Recorder keeps spans in memory until the run ends. It reads the wall
// clock only; the library's own tracer (internal/trace) records modeled
// time and is never mixed in. Safe for concurrent use.
type Recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns an empty recorder whose clock starts now.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Begin opens a span and returns its index, to pass to End and as the
// parent of nested spans.
func (r *Recorder) Begin(name string, parent, op, track int) int {
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{Name: name, Start: now, End: now, Parent: parent, Op: op, Track: track})
	return len(r.spans) - 1
}

// End closes span id and returns its duration in seconds.
func (r *Recorder) End(id int) float64 {
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	return r.spans[id].Dur()
}

// Time runs f inside a span and returns the span's duration.
func (r *Recorder) Time(name string, parent, op, track int, f func()) float64 {
	id := r.Begin(name, parent, op, track)
	f()
	return r.End(id)
}

// Spans returns a copy of the recorded spans in the order they began.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which chrome://tracing and Perfetto load directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// WriteChrome writes spans as Chrome trace events, one process per
// workload (in the order given) and one thread per track, in microseconds.
func WriteChrome(w io.Writer, workloads []string, spans [][]Span) error {
	events := []chromeEvent{}
	for pid, ss := range spans {
		for _, s := range ss {
			events = append(events, chromeEvent{
				Name: s.Name, Ph: "X", Ts: s.Start * 1e6, Dur: s.Dur() * 1e6, Pid: pid, Tid: s.Track,
				Args: map[string]any{"workload": workloads[pid], "op": s.Op, "parent": s.Parent},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
