// Package obs is the observability layer shared by the discrete-event
// simulator (internal/simnet, simulated nanoseconds) and the real
// parallel runtime (internal/parallel and internal/transport, wall-clock
// nanoseconds). It has one recorder per clock and a registry:
//
//   - Recorder: the simulated-time timeline of spans (busy intervals,
//     message flights), instant events (broadcasts, cycle markers),
//     and counter samples (task-queue depth) — the visual form of the
//     paper's Fig 5-5 busy/idle alternation analysis.
//   - CausalRecorder (causal.go): the flight recorder, the one thing a
//     live run writes to.
//   - Registry: a metrics registry of counters, gauges, fixed-bucket
//     histograms, and per-cycle series, with deterministic CSV and
//     JSON export (internal/experiments and the cmd/ tools consume
//     these).
//
// Both recorders export Chrome trace-event JSON through one writer, so
// any run opens directly in Perfetto or chrome://tracing. Every method
// is safe on a nil receiver and does nothing, so instrumented code paths
// need no conditionals and the default (un-observed) configuration pays
// only a nil check.
package obs

import (
	"sort"
	"sync"
)

// NetworkTrack is the pseudo-processor id used for message-flight
// spans; the exporter renders it as its own named track.
const NetworkTrack = -1

// Label is one key/value annotation on a span or instant event.
type Label struct {
	Key, Value string
}

// Span is a closed interval of activity on one track. Times are
// simulated nanoseconds.
type Span struct {
	Proc   int
	Kind   string
	T0, T1 int64
	Labels []Label
}

// Instant is a point event on a track.
type Instant struct {
	Proc   int
	Name   string
	T      int64
	Labels []Label
}

// Sample is one observation of a named per-track counter (rendered as
// a counter track in Perfetto).
type Sample struct {
	Proc  int
	Name  string
	T     int64
	Value float64
}

// Recorder accumulates a run's timeline. All methods are safe for
// concurrent use and on a nil receiver (no-ops), which is the
// zero-overhead fast path for un-observed runs.
type Recorder struct {
	mu       sync.Mutex
	spans    []Span
	instants []Instant
	samples  []Sample
	tracks   map[int]string
}

// NewRecorder returns an empty timeline recorder.
func NewRecorder() *Recorder {
	return &Recorder{tracks: map[int]string{}}
}

// SetTrack names a track (processor id, or NetworkTrack).
func (r *Recorder) SetTrack(proc int, name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tracks[proc] = name
	r.mu.Unlock()
}

// Span records a closed activity interval [t0, t1] on a track.
// Zero-length spans are kept (they still mark an occurrence), but
// callers on hot paths typically skip them.
func (r *Recorder) Span(proc int, kind string, t0, t1 int64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, Span{Proc: proc, Kind: kind, T0: t0, T1: t1, Labels: labels})
	r.mu.Unlock()
}

// Instant records a point event on a track.
func (r *Recorder) Instant(proc int, name string, t int64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.instants = append(r.instants, Instant{Proc: proc, Name: name, T: t, Labels: labels})
	r.mu.Unlock()
}

// Sample records one value of a per-track counter (e.g. queue depth).
func (r *Recorder) Sample(proc int, name string, t int64, value float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.samples = append(r.samples, Sample{Proc: proc, Name: name, T: t, Value: value})
	r.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return out
}

// Instants returns a copy of the recorded instant events.
func (r *Recorder) Instants() []Instant {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Instant, len(r.instants))
	copy(out, r.instants)
	return out
}

// SpanTotal sums the duration of spans on processor tracks (proc >= 0),
// optionally restricted to one kind (empty kind means all). For a
// simulated run this equals the simulator's total busy time.
func (r *Recorder) SpanTotal(kind string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for _, s := range r.spans {
		if s.Proc < 0 {
			continue
		}
		if kind != "" && s.Kind != kind {
			continue
		}
		total += s.T1 - s.T0
	}
	return total
}

// sortLabels orders labels by key for deterministic export.
func sortLabels(ls []Label) []Label {
	if len(ls) < 2 {
		return ls
	}
	out := make([]Label, len(ls))
	copy(out, ls)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
