package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Causal observability: per-track lock-free bounded event rings, the
// one recorder of every run, live or simulated: sequence-stamped
// send/recv/handle/flush events carrying bucket, cycle, and batch ids,
// and the begin and end of each turn, quiescence wait and migration.
// The two clocks share it without a branch on the caller: a live run
// stamps wall-clock nanoseconds, and the simulator (internal/core and
// internal/simnet) calls only Send, Recv, Handle, Mark, BeginCycle and
// EndCycle with simulated ones, so either run dumps to one FlightDump.
// internal/analysis sets a live run's per-cycle aggregates beside the
// simulated cost model's predictions (CompareModelMeasured).
//
// Design constraints, in order:
//
//   - The disabled path (nil *CausalRecorder / nil *TrackRecorder) is
//     zero allocations and a single pointer comparison per event —
//     pinned by a testing.AllocsPerRun regression test.
//   - The enabled path is allocation-free too: each track's ring is a
//     pre-allocated power-of-two buffer of fixed-size value events;
//     recording is one index mask, one struct store, one increment.
//   - Rings are single-producer: each runtime goroutine writes only
//     its own track, so no atomics or locks appear on the hot path.
//     Snapshot/Dump are only legal at quiescence (between match
//     phases, or after Close) — exactly when post-mortem dumps and
//     model-vs-measured reports run.
//   - Retention is bounded (flight-recorder semantics): rings keep the
//     last ringCap events per track and the recorder keeps the last
//     retainCycles per-cycle aggregate records; a dump after a failure
//     contains the recent past, not the whole run.

// EventKind enumerates causal event kinds.
type EventKind uint8

const (
	// EvSend marks a coalesced message batch leaving a track. Dst is
	// the destination track (BroadcastDst for a cycle broadcast),
	// Batch the stamp the receiver's EvRecv will carry, Count the
	// number of messages in the batch.
	EvSend EventKind = iota
	// EvRecv marks a drained batch contribution: one event per
	// contributing send stamp, carrying the sender's Batch id — the
	// cross-track happens-before edge.
	EvRecv
	// EvHandle marks one node activation performed on the track.
	// Bucket is its hash bucket, Depth its position in the cycle's
	// dependency chain (roots are 1), Count the number of successor
	// activations it generated (its fan-out).
	EvHandle
	// EvFlush marks an end-of-handling coalesced flush; Count is the
	// number of messages shipped across all destinations.
	EvFlush
	// EvCycleBegin / EvCycleEnd bracket one match phase on the control
	// track. From here on the kinds come in begin/end pairs (Mark), which
	// the Chrome export joins into one slice per interval; only the end
	// carries counts.
	EvCycleBegin
	EvCycleEnd
	// EvTurnBegin / EvTurnEnd bracket one worker turn on the message
	// plane — a drained batch handled and flushed — on the worker's
	// track, on its own clock. The end's Count is the messages the turn
	// consumed, its Depth the activations it performed. A cycle the
	// driver performs in place has no turns.
	EvTurnBegin
	EvTurnEnd
	// EvWaitBegin / EvWaitEnd bracket the control's wait for quiescence;
	// the end's Count is the detector waves it took (0 for the counting
	// detector).
	EvWaitBegin
	EvWaitEnd
	// EvMigrateBegin / EvMigrateEnd bracket one migration on the control
	// track; the end's Count is the buckets moved, its Depth the memory
	// entries shipped.
	EvMigrateBegin
	EvMigrateEnd
)

var eventKindNames = [...]string{"send", "recv", "handle", "flush", "cycle-begin", "cycle-end",
	"turn-begin", "turn-end", "wait-begin", "wait-end", "migrate-begin", "migrate-end"}

// String names the kind.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalText writes the kind by name, so a dump's events keep their
// meaning when a kind is added.
func (k EventKind) MarshalText() ([]byte, error) {
	if int(k) >= len(eventKindNames) {
		return nil, fmt.Errorf("obs: unknown event kind %d", uint8(k))
	}
	return []byte(eventKindNames[k]), nil
}

// UnmarshalText reads a kind by name; an unknown name is an error.
func (k *EventKind) UnmarshalText(b []byte) error {
	for i, name := range eventKindNames {
		if name == string(b) {
			*k = EventKind(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %q", b)
}

// BroadcastDst is the EvSend Dst value of a cycle broadcast (one send
// stamped into every worker's mailbox).
const BroadcastDst int32 = -1

// NoValue marks an unused int32 event field (Src, Dst, Bucket).
const NoValue int32 = -3

// CausalEvent is one fixed-size, pointer-free ring entry.
type CausalEvent struct {
	// Seq is the per-track sequence number (0-based, monotonically
	// increasing over the track's whole history, including events the
	// bounded ring has since evicted).
	Seq uint64 `json:"seq"`
	// TS is nanoseconds since the owning runtime's epoch (see Absorb).
	// Handle events reuse their turn's drain timestamp (per-activation
	// clock reads would dominate the cost of small activations).
	TS int64 `json:"ts"`
	// Cycle is the 1-based match-phase number.
	Cycle int32 `json:"cycle"`
	// Batch is the send/recv stamp joining the two ends of a message
	// batch (0 = unstamped).
	Batch int32 `json:"batch"`
	// Src / Dst are track ids (NoValue when not applicable;
	// BroadcastDst for broadcast sends).
	Src int32 `json:"src"`
	Dst int32 `json:"dst"`
	// Bucket is the activation's hash bucket (EvHandle; NoValue
	// otherwise).
	Bucket int32 `json:"bucket"`
	// Depth is the activation's dependency depth within its cycle
	// (EvHandle; roots are 1); on an interval's end, see its kind.
	Depth int32 `json:"depth"`
	// Count is the batch size (send/recv/flush) or fan-out (handle); on
	// an interval's end, see its kind.
	Count int32     `json:"count"`
	Kind  EventKind `json:"kind"`
}

// CycleAgg aggregates one track's activity during one cycle. Unlike
// ring events, aggregates are complete: they survive ring eviction, so
// per-cycle totals stay exact on cross-product cycles that overflow
// the bounded rings.
type CycleAgg struct {
	// Handles counts node activations performed.
	Handles int64 `json:"handles"`
	// Sends / Recvs count messages (not batches) sent and received.
	Sends int64 `json:"sends"`
	Recvs int64 `json:"recvs"`
	// Flushes counts coalesced flushes that shipped at least one
	// message.
	Flushes int64 `json:"flushes"`
	// MaxDepth is the deepest dependency chain observed: the track's
	// contribution to the cycle's measured critical path.
	MaxDepth int32 `json:"max_depth"`
}

// add folds o into a.
func (a *CycleAgg) add(o CycleAgg) {
	a.Handles += o.Handles
	a.Sends += o.Sends
	a.Recvs += o.Recvs
	a.Flushes += o.Flushes
	if o.MaxDepth > a.MaxDepth {
		a.MaxDepth = o.MaxDepth
	}
}

// CycleRecord is the committed aggregate of one cycle across tracks.
type CycleRecord struct {
	// Cycle is the 1-based match-phase number.
	Cycle int32 `json:"cycle"`
	// WallNS is the cycle's wall-clock duration on the control track.
	WallNS int64 `json:"wall_ns"`
	// PerTrack holds one aggregate per track (workers first, control
	// last).
	PerTrack []CycleAgg `json:"per_track"`
}

// Total folds the per-track aggregates.
func (c *CycleRecord) Total() CycleAgg {
	var t CycleAgg
	for _, a := range c.PerTrack {
		t.add(a)
	}
	return t
}

// TrackRecorder is one track's event ring plus its current-cycle
// aggregate and cumulative per-bucket activation counters. Exactly one
// goroutine may record into a TrackRecorder; all methods are safe on a
// nil receiver (the zero-overhead disabled path).
type TrackRecorder struct {
	buf  []CausalEvent // power-of-two ring
	mask uint64
	seq  uint64 // events ever recorded; next event's Seq

	agg CycleAgg

	handed   uint64 // seq at the last HandOver
	absorbed int64  // TS of the last event Absorb appended

	name string
}

// record appends one event, evicting the oldest when full.
func (t *TrackRecorder) record(ev CausalEvent) {
	ev.Seq = t.seq
	t.buf[t.seq&t.mask] = ev
	t.seq++
}

// Send records a coalesced batch departure.
func (t *TrackRecorder) Send(ts int64, cycle, batch, dst, count int32) {
	if t == nil {
		return
	}
	t.agg.Sends += int64(count)
	t.record(CausalEvent{Kind: EvSend, TS: ts, Cycle: cycle, Batch: batch, Src: NoValue, Dst: dst, Bucket: NoValue, Count: count})
}

// Recv records one contributing send stamp of a drained batch.
func (t *TrackRecorder) Recv(ts int64, cycle, batch, src, count int32) {
	if t == nil {
		return
	}
	t.agg.Recvs += int64(count)
	t.record(CausalEvent{Kind: EvRecv, TS: ts, Cycle: cycle, Batch: batch, Src: src, Dst: NoValue, Bucket: NoValue, Count: count})
}

// Handle records one node activation with its bucket, dependency
// depth, and fan-out.
func (t *TrackRecorder) Handle(ts int64, cycle, bucket, depth, fanout int32) {
	if t == nil {
		return
	}
	t.agg.Handles++
	if depth > t.agg.MaxDepth {
		t.agg.MaxDepth = depth
	}
	t.record(CausalEvent{Kind: EvHandle, TS: ts, Cycle: cycle, Batch: 0, Src: NoValue, Dst: NoValue, Bucket: bucket, Depth: depth, Count: fanout})
}

// HandOver appends to buf the events since the last hand-over that the
// ring still holds and returns them with the aggregate since, which it
// resets: a wire worker's half of its track (Absorb is the control's).
func (t *TrackRecorder) HandOver(buf []CausalEvent) ([]CausalEvent, CycleAgg) {
	if t == nil {
		return buf, CycleAgg{}
	}
	buf = t.since(t.handed, buf)
	t.handed = t.seq
	agg := t.agg
	t.agg = CycleAgg{}
	return buf, agg
}

// Absorb appends handed-over events, stamped with cycle and shifted so
// the sender's clock at send lands on this one's at arrival (or later,
// lest a turn begin before the last absorbed one ended), and folds agg
// into the cycle's aggregate.
func (t *TrackRecorder) Absorb(evs []CausalEvent, agg CycleAgg, sent, arrived int64, cycle int32) {
	if t == nil {
		return
	}
	t.agg.add(agg)
	if len(evs) == 0 {
		return
	}
	shift := max(arrived-sent, t.absorbed-evs[0].TS)
	for _, ev := range evs {
		ev.TS += shift
		ev.Cycle = cycle
		t.record(ev)
	}
	t.absorbed = evs[len(evs)-1].TS + shift
}

// Flush records a non-empty coalesced flush of count messages.
func (t *TrackRecorder) Flush(ts int64, cycle, count int32) {
	if t == nil {
		return
	}
	t.agg.Flushes++
	t.record(CausalEvent{Kind: EvFlush, TS: ts, Cycle: cycle, Src: NoValue, Dst: NoValue, Bucket: NoValue, Count: count})
}

// Mark records one end of an interval: kind is a begin or end kind,
// count and depth what its end carries. The cycle aggregate is left
// alone — an interval says when, not how much.
func (t *TrackRecorder) Mark(kind EventKind, ts int64, cycle, count, depth int32) {
	if t == nil {
		return
	}
	t.record(CausalEvent{Kind: kind, TS: ts, Cycle: cycle, Src: NoValue, Dst: NoValue, Bucket: NoValue, Depth: depth, Count: count})
}

// since appends to buf the retained events from sequence number from
// on, oldest first.
func (t *TrackRecorder) since(from uint64, buf []CausalEvent) []CausalEvent {
	for s := max(from, t.seq-min(t.seq, uint64(len(t.buf)))); s < t.seq; s++ {
		buf = append(buf, t.buf[s&t.mask])
	}
	return buf
}

// CausalRecorder owns one TrackRecorder per runtime goroutine (workers
// first, control last) plus the bounded per-cycle aggregate history.
// Nil-receiver methods no-op, so an un-observed runtime pays only nil
// checks.
type CausalRecorder struct {
	tracks   []TrackRecorder
	nbuckets int

	// cycles is a bounded ring of committed CycleRecords (the last
	// retainCycles cycles).
	cycles   []CycleRecord
	cycleSeq int // records ever committed
	openTS   int64

	batchSeq atomic.Int32
}

// Default sizing: rings hold the last 8Ki events per track (~400 KiB),
// aggregates the last 1024 cycles.
const (
	DefaultRingCap      = 8192
	DefaultRetainCycles = 1024
)

// NewCausalRecorder creates a recorder with `tracks` event rings of
// ringCap entries each (rounded up to a power of two; 0 means
// DefaultRingCap), retaining aggregates for the last retainCycles
// cycles (0 means DefaultRetainCycles). nbuckets is the run's bucket
// space, which a dump records for the buckets its handle events name.
func NewCausalRecorder(tracks, ringCap, retainCycles, nbuckets int) *CausalRecorder {
	if tracks <= 0 {
		panic(fmt.Sprintf("obs: NewCausalRecorder tracks = %d", tracks))
	}
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	size := 1
	for size < ringCap {
		size *= 2
	}
	if retainCycles <= 0 {
		retainCycles = DefaultRetainCycles
	}
	c := &CausalRecorder{
		tracks:   make([]TrackRecorder, tracks),
		nbuckets: nbuckets,
		cycles:   make([]CycleRecord, 0, retainCycles),
	}
	for i := range c.tracks {
		t := &c.tracks[i]
		t.buf = make([]CausalEvent, size)
		t.mask = uint64(size - 1)
		t.name = fmt.Sprintf("track %d", i)
	}
	return c
}

// RingCap returns the capacity of each track's ring (0 on nil).
func (c *CausalRecorder) RingCap() int {
	if c == nil {
		return 0
	}
	return len(c.tracks[0].buf)
}

// Tracks returns the number of tracks (0 on nil).
func (c *CausalRecorder) Tracks() int {
	if c == nil {
		return 0
	}
	return len(c.tracks)
}

// SetTrackName names a track for dumps.
func (c *CausalRecorder) SetTrackName(i int, name string) {
	if c == nil {
		return
	}
	c.tracks[i].name = name
}

// Track returns track i's recorder, or nil on a nil receiver — so a
// worker caches the result once and every event costs one nil check.
func (c *CausalRecorder) Track(i int) *TrackRecorder {
	if c == nil {
		return nil
	}
	return &c.tracks[i]
}

// NextBatch allocates a fresh batch stamp (stamps start at 1; 0 means
// unstamped). Safe for concurrent use — senders on different tracks
// allocate stamps independently.
func (c *CausalRecorder) NextBatch() int32 {
	if c == nil {
		return 0
	}
	return c.batchSeq.Add(1)
}

// BeginCycle opens a cycle on the control (last) track. Only legal at
// quiescence.
func (c *CausalRecorder) BeginCycle(cycle int32, ts int64) {
	if c == nil {
		return
	}
	c.openTS = ts
	c.tracks[len(c.tracks)-1].Mark(EvCycleBegin, ts, cycle, 0, 0)
}

// EndCycle closes the open cycle: it records EvCycleEnd, collects every
// track's current-cycle aggregate into a committed CycleRecord, and
// resets the aggregates for the next cycle. A record that evicts the
// oldest reuses its storage, so once the history is full a cycle costs
// no allocation. Only legal at quiescence (all tracks' writers parked),
// which the runtime guarantees by calling it after termination
// detection.
func (c *CausalRecorder) EndCycle(cycle int32, ts int64) {
	if c == nil {
		return
	}
	c.tracks[len(c.tracks)-1].Mark(EvCycleEnd, ts, cycle, 0, 0)
	var rec *CycleRecord
	if len(c.cycles) < cap(c.cycles) {
		c.cycles = append(c.cycles, CycleRecord{PerTrack: make([]CycleAgg, len(c.tracks))})
		rec = &c.cycles[len(c.cycles)-1]
	} else {
		rec = &c.cycles[c.cycleSeq%cap(c.cycles)]
	}
	rec.Cycle, rec.WallNS = cycle, ts-c.openTS
	for i := range c.tracks {
		rec.PerTrack[i] = c.tracks[i].agg
		c.tracks[i].agg = CycleAgg{}
	}
	c.cycleSeq++
}

// CycleRecords returns a copy of the retained per-cycle aggregates,
// oldest first. Only legal at quiescence.
func (c *CausalRecorder) CycleRecords() []CycleRecord {
	if c == nil {
		return nil
	}
	n := len(c.cycles)
	out := make([]CycleRecord, 0, n)
	head := c.cycleSeq % max(n, 1)
	out = append(out, c.cycles[head:]...)
	out = append(out, c.cycles[:head]...)
	per := make([]CycleAgg, 0, n*len(c.tracks))
	for i := range out {
		per = append(per, out[i].PerTrack...)
		out[i].PerTrack = per[len(per)-len(c.tracks) : len(per) : len(per)]
	}
	return out
}

// TrackDump is one track's retained state.
type TrackDump struct {
	Name string `json:"name"`
	// Total counts events ever recorded; Dropped is how many the
	// bounded ring has evicted (Total - len(Events)).
	Total   uint64        `json:"total"`
	Dropped uint64        `json:"dropped"`
	Events  []CausalEvent `json:"events"`
}

// FlightDump is a post-mortem snapshot of the recorder: the last-N
// events per track plus the retained per-cycle aggregates.
type FlightDump struct {
	NBuckets int           `json:"nbuckets"`
	Tracks   []TrackDump   `json:"tracks"`
	Cycles   []CycleRecord `json:"cycles"`
}

// Dump snapshots the recorder. Only legal at quiescence: between match
// phases, or after the owning runtime closed — which is exactly when
// post-mortem analysis runs. Nil receivers return nil.
func (c *CausalRecorder) Dump() *FlightDump {
	if c == nil {
		return nil
	}
	d := &FlightDump{NBuckets: c.nbuckets, Cycles: c.CycleRecords()}
	for i := range c.tracks {
		t := &c.tracks[i]
		events := t.since(0, []CausalEvent{})
		d.Tracks = append(d.Tracks, TrackDump{
			Name:    t.name,
			Total:   t.seq,
			Dropped: t.seq - uint64(len(events)),
			Events:  events,
		})
	}
	return d
}

// WriteJSON exports the dump (deterministic field order; events are in
// ring order, tracks in track order).
func (d *FlightDump) WriteJSON(w io.Writer) error {
	return writeJSON(w, d)
}

// WriteChromeTrace exports the dump as Chrome trace-event JSON. An
// interval whose two ends both survive in the ring — a cycle, a worker
// turn, the control's wait, a migration — is one slice of its real
// duration, named for the interval and carrying its end's counts; every
// other retained event is a zero-length slice on its track. Each
// send/recv pair sharing a batch stamp is connected by a flow ("s"/"f"
// events keyed by the stamp), so Perfetto renders the cross-worker
// edges as arrows. The file is the "JSON Array Format" wrapped in a
// traceEvents object, one event per line: the process name, the track
// names in track order, then the events fully ordered by (ts, rank,
// tid, seq, line), so the output is monotonic and deterministic for a
// given dump. A nil dump (no recorder) writes a trace with no events.
func (d *FlightDump) WriteChromeTrace(w io.Writer) error {
	if d == nil {
		d = &FlightDump{}
	}
	// Only draw a flow when both ends of the stamp survive in the
	// retained windows; a dangling arrow renders as clutter.
	sendRetained := map[int32]bool{}
	recvRetained := map[int32]bool{}
	for _, t := range d.Tracks {
		for _, e := range t.Events {
			switch e.Kind {
			case EvSend:
				sendRetained[e.Batch] = true
			case EvRecv:
				recvRetained[e.Batch] = true
			}
		}
	}
	var evs []traceLine
	for tid, t := range d.Tracks {
		slice := func(name string, at, end CausalEvent) {
			evs = append(evs, traceLine{ts: at.TS, tid: tid, seq: at.Seq, line: fmt.Sprintf(
				`{"name":%s,"cat":"causal","ph":"X","ts":%s,"dur":%s,"pid":0,"tid":%d,"args":{"seq":%d,"cycle":%d,"batch":%d,"bucket":%d,"depth":%d,"count":%d}}`,
				strconv.Quote(name), usec(at.TS), usec(end.TS-at.TS), tid, end.Seq, end.Cycle, end.Batch, end.Bucket, end.Depth, end.Count)})
		}
		flow := func(ph string, e CausalEvent) {
			if e.Batch != 0 && sendRetained[e.Batch] && recvRetained[e.Batch] {
				evs = append(evs, traceLine{ts: e.TS, rank: 1, tid: tid, seq: e.Seq, line: fmt.Sprintf(
					`{"name":"batch","cat":"flow","ph":%s,"id":%d,"ts":%s,"pid":0,"tid":%d}`, ph, e.Batch, usec(e.TS), tid)})
			}
		}
		// open[k] is the begin of kind k still waiting for its end; the
		// ring evicts oldest first, so an end can lose its begin but a
		// begin is unpaired only at the tail, in a failed run's dump.
		open := map[EventKind]CausalEvent{}
		for _, e := range t.Events {
			if e.Kind >= EvCycleBegin && (e.Kind-EvCycleBegin)%2 == 0 {
				open[e.Kind] = e
			} else if begin, ok := open[e.Kind-1]; ok {
				delete(open, e.Kind-1)
				slice(strings.TrimSuffix(begin.Kind.String(), "-begin"), begin, e)
			} else {
				slice(e.Kind.String(), e, e)
			}
			switch e.Kind {
			case EvSend:
				flow(`"s"`, e)
			case EvRecv:
				flow(`"f","bp":"e"`, e)
			}
		}
		for _, e := range open {
			slice(e.Kind.String(), e, e)
		}
	}
	sort.Slice(evs, func(i, j int) bool {
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
		}
		return a.line < b.line
	})
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"traceEvents":[` + "\n" + `{"name":"process_name","ph":"M","pid":0,"args":{"name":"mpcrete-causal"}}`)
	for tid, t := range d.Tracks {
		fmt.Fprintf(bw, ",\n"+`{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":%s}}`, tid, strconv.Quote(t.Name))
	}
	for _, e := range evs {
		bw.WriteString(",\n" + e.line)
	}
	// A bufio.Writer's first error is sticky and Flush reports it.
	bw.WriteString("\n" + `],"displayTimeUnit":"ms"}` + "\n")
	return bw.Flush()
}

// traceLine is one rendered trace event under its sort key.
type traceLine struct {
	ts   int64
	rank int // ties at equal ts: a slice before a flow
	tid  int
	seq  uint64
	line string
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
