package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WriteChromeTrace exports the recorded timeline as Chrome trace-event
// JSON (the "JSON Array Format" wrapped in a traceEvents object), the
// format Perfetto and chrome://tracing open directly.
//
// The output is deterministic for a given set of recorded events:
// events are fully ordered by (timestamp, track, kind, name), fields
// are emitted in a fixed order, and timestamps are nanoseconds
// rendered as microseconds with exactly three decimals. Spans become
// complete events (ph "X"), instants become thread-scoped instant
// events (ph "i"), and samples become counter events (ph "C").
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	if r == nil {
		return writeTraceEvents(w, "mpcrete", nil, nil)
	}
	r.mu.Lock()
	spans := make([]Span, len(r.spans))
	copy(spans, r.spans)
	instants := make([]Instant, len(r.instants))
	copy(instants, r.instants)
	samples := make([]Sample, len(r.samples))
	copy(samples, r.samples)
	tracks := make(map[int]string, len(r.tracks))
	for k, v := range r.tracks {
		tracks[k] = v
	}
	r.mu.Unlock()

	// Map tracks to Chrome thread ids: processors keep their id, the
	// network pseudo-track goes after the highest processor.
	maxProc := 0
	seen := map[int]bool{}
	note := func(proc int) {
		seen[proc] = true
		if proc > maxProc {
			maxProc = proc
		}
	}
	for _, s := range spans {
		note(s.Proc)
	}
	for _, i := range instants {
		note(i.Proc)
	}
	for _, s := range samples {
		note(s.Proc)
	}
	for p := range tracks {
		note(p)
	}
	netTid := maxProc + 1
	tid := func(proc int) int {
		if proc == NetworkTrack {
			return netTid
		}
		return proc
	}

	// One thread per known track, in track order.
	var trackIDs []int
	for p := range seen {
		trackIDs = append(trackIDs, p)
	}
	sort.Ints(trackIDs)
	threads := make([]traceThread, 0, len(trackIDs))
	for _, p := range trackIDs {
		name, ok := tracks[p]
		if !ok {
			if p == NetworkTrack {
				name = "network"
			} else {
				name = fmt.Sprintf("proc %d", p)
			}
		}
		threads = append(threads, traceThread{tid(p), name})
	}

	// rank orders ties at equal ts: 0 span, 1 instant, 2 sample.
	var evs []traceLine
	for _, s := range spans {
		evs = append(evs, traceLine{ts: s.T0, rank: 0, tid: tid(s.Proc), name: s.Kind,
			line: fmt.Sprintf(`{"name":%s,"cat":"span","ph":"X","ts":%s,"dur":%s,"pid":0,"tid":%d%s}`,
				strconv.Quote(s.Kind), usec(s.T0), usec(s.T1-s.T0), tid(s.Proc), argsJSON(s.Labels))})
	}
	for _, i := range instants {
		evs = append(evs, traceLine{ts: i.T, rank: 1, tid: tid(i.Proc), name: i.Name,
			line: fmt.Sprintf(`{"name":%s,"cat":"instant","ph":"i","ts":%s,"pid":0,"tid":%d,"s":"t"%s}`,
				strconv.Quote(i.Name), usec(i.T), tid(i.Proc), argsJSON(i.Labels))})
	}
	for _, s := range samples {
		// Counter tracks are keyed by (pid, name) in the viewer, so the
		// track id is folded into the counter name.
		name := fmt.Sprintf("%s/p%d", s.Name, s.Proc)
		evs = append(evs, traceLine{ts: s.T, rank: 2, tid: tid(s.Proc), name: name,
			line: fmt.Sprintf(`{"name":%s,"cat":"counter","ph":"C","ts":%s,"pid":0,"tid":%d,"args":{"value":%s}}`,
				strconv.Quote(name), usec(s.T), tid(s.Proc), formatFloat(s.Value))})
	}
	return writeTraceEvents(w, "mpcrete", threads, evs)
}

// traceThread names one Chrome thread (a track).
type traceThread struct {
	tid  int
	name string
}

// traceLine is one rendered trace event under its sort key.
type traceLine struct {
	ts   int64
	rank int // ties at equal ts
	tid  int
	seq  uint64
	name string
	line string
}

// writeTraceEvents writes a Chrome trace-event file, the one place that
// knows what one is: the "JSON Array Format" wrapped in a traceEvents
// object, one event per line — the process name, the thread names in the
// order given, then evs fully ordered by (ts, rank, tid, seq, name, line)
// for monotonic, reproducible output.
func writeTraceEvents(w io.Writer, process string, threads []traceThread, evs []traceLine) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"traceEvents":[` + "\n")
	fmt.Fprintf(bw, `{"name":"process_name","ph":"M","pid":0,"args":{"name":%s}}`, strconv.Quote(process))
	for _, t := range threads {
		fmt.Fprintf(bw, ",\n"+`{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":%s}}`, t.tid, strconv.Quote(t.name))
	}
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		switch {
		case a.ts != b.ts:
			return a.ts < b.ts
		case a.rank != b.rank:
			return a.rank < b.rank
		case a.tid != b.tid:
			return a.tid < b.tid
		case a.seq != b.seq:
			return a.seq < b.seq
		case a.name != b.name:
			return a.name < b.name
		}
		return a.line < b.line
	})
	for _, e := range evs {
		bw.WriteString(",\n" + e.line)
	}
	// A bufio.Writer's first error is sticky and Flush reports it.
	bw.WriteString("\n" + `],"displayTimeUnit":"ms"}` + "\n")
	return bw.Flush()
}

// usec renders nanoseconds as microseconds with exactly three
// decimals (Chrome trace timestamps are microseconds).
func usec(ns int64) string {
	neg := ""
	if ns < 0 {
		neg, ns = "-", -ns
	}
	return fmt.Sprintf("%s%d.%03d", neg, ns/1000, ns%1000)
}

// argsJSON renders labels as a trailing `,"args":{...}` fragment, or
// nothing when there are no labels.
func argsJSON(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	out := `,"args":{`
	for i, l := range sortLabels(labels) {
		if i > 0 {
			out += ","
		}
		out += strconv.Quote(l.Key) + ":" + strconv.Quote(l.Value)
	}
	return out + "}"
}
