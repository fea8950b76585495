package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. parent indexes the enclosing
// span on the same track (-1 for a root), so self time — the span's
// duration minus the part its children cover — needs no interval
// arithmetic: spans on one track nest strictly.
type span struct {
	name   string
	op     int32
	parent int32
	start  int64 // ns since the trace epoch
	end    int64
}

// track is the span buffer of one goroutine at a time (a client, or a
// server-side matcher guarded by its session lock). A nil *track
// records nothing, so the untraced run executes the same op code and
// pays one nil check per call site.
type track struct {
	label string
	epoch time.Time
	spans []span
	open  int32 // innermost unfinished span, -1 when idle
}

// newTrack preallocates room for capacity spans so the traced phase
// does not grow the buffer while it is being timed.
func newTrack(label string, epoch time.Time, capacity int) *track {
	return &track{label: label, epoch: epoch, spans: make([]span, 0, capacity), open: -1}
}

func (t *track) begin(name string, op int) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, op: int32(op), parent: t.open, start: int64(time.Since(t.epoch))})
	t.open = id
	return id
}

func (t *track) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = int64(time.Since(t.epoch))
	t.open = t.spans[id].parent
}

// selfTimes returns, per span, its duration minus its direct
// children's durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
	}
	for _, s := range spans {
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// spanAgg summarises every span of one name across tracks.
type spanAgg struct {
	n    int
	dur  float64   // total duration, µs
	self float64   // total self time, µs
	durs []float64 // each duration, µs
}

func (a *spanAgg) count() int {
	if a == nil {
		return 0
	}
	return a.n
}

func (a *spanAgg) mean() float64 {
	if a == nil || a.n == 0 {
		return 0
	}
	return a.dur / float64(a.n)
}

func (a *spanAgg) quantile(q float64) float64 {
	if a == nil {
		return 0
	}
	return quantile(a.durs, q)
}

func (a *spanAgg) total() float64 {
	if a == nil {
		return 0
	}
	return a.dur
}

func (a *spanAgg) selfTotal() float64 {
	if a == nil {
		return 0
	}
	return a.self
}

// aggregate groups the spans of the given tracks by name.
func aggregate(tracks ...*track) map[string]*spanAgg {
	out := map[string]*spanAgg{}
	for _, t := range tracks {
		if t == nil {
			continue
		}
		self := selfTimes(t.spans)
		for i, s := range t.spans {
			a := out[s.name]
			if a == nil {
				a = &spanAgg{}
				out[s.name] = a
			}
			d := float64(s.end-s.start) / 1e3
			a.n++
			a.dur += d
			a.self += float64(self[i]) / 1e3
			a.durs = append(a.durs, d)
		}
	}
	return out
}

// traceFileOps caps how many ops per track reach the Chrome trace: a
// queens op is ~2000 spans, and Perfetto needs a handful of ops to
// show the shape, not the whole run.
const traceFileOps = 8

// writeChromeTrace writes the first traceFileOps ops of each track in
// the Chrome trace-event format (load in ui.perfetto.dev or
// chrome://tracing): one "X" event per span, one thread per track.
func writeChromeTrace(path string, tracks []*track) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	}
	var events []event
	for tid, t := range tracks {
		events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": t.label}})
		seen := map[int32]bool{}
		for _, s := range t.spans {
			if !seen[s.op] && len(seen) == traceFileOps {
				break
			}
			seen[s.op] = true
			events = append(events, event{Name: s.name, Ph: "X", Pid: 1, Tid: tid,
				Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Args: map[string]any{"op": s.op}})
		}
	}
	data, err := json.Marshal(map[string]any{"displayTimeUnit": "ns", "traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
