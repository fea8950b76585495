package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestCausalRecorderNilSafe(t *testing.T) {
	var c *CausalRecorder
	if c.Tracks() != 0 {
		t.Fatalf("nil Tracks = %d", c.Tracks())
	}
	if tr := c.Track(3); tr != nil {
		t.Fatalf("nil Track = %v", tr)
	}
	if b := c.NextBatch(); b != 0 {
		t.Fatalf("nil NextBatch = %d", b)
	}
	c.BeginCycle(1, 0)
	c.EndCycle(1, 10)
	c.SetTrackName(0, "x")
	if d := c.Dump(); d != nil {
		t.Fatalf("nil Dump = %v", d)
	}
	if recs := c.CycleRecords(); recs != nil {
		t.Fatalf("nil CycleRecords = %v", recs)
	}
	var tr *TrackRecorder
	tr.Send(0, 1, 1, 0, 5)
	tr.Recv(0, 1, 1, 0, 5)
	tr.Handle(0, 1, 7, 2, 3)
	tr.Flush(0, 1, 4)
	tr.Mark(EvTurnEnd, 0, 1, 4, 2)
	tr.Absorb([]CausalEvent{{Kind: EvTurnBegin}}, CycleAgg{Handles: 1}, 0, 1, 1)
	if evs, agg := tr.HandOver(nil); evs != nil || agg != (CycleAgg{}) || c.RingCap() != 0 {
		t.Fatalf("nil HandOver = %v, %+v", evs, agg)
	}
}

// TestDisabledPathZeroAlloc pins the acceptance criterion: the
// disabled (nil-recorder) hot path is 0 allocs/event.
func TestDisabledPathZeroAlloc(t *testing.T) {
	var c *CausalRecorder
	tr := c.Track(0)
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Send(1, 1, 1, 2, 3)
		tr.Recv(2, 1, 1, 0, 3)
		tr.Handle(3, 1, 17, 2, 1)
		tr.Flush(4, 1, 2)
		tr.Mark(EvTurnEnd, 5, 1, 3, 1)
		_ = c.NextBatch()
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates: %v allocs/run", allocs)
	}
}

// TestEnabledPathZeroAlloc proves the enabled steady state is also
// allocation-free: rings are pre-allocated and events are value
// stores.
func TestEnabledPathZeroAlloc(t *testing.T) {
	c := NewCausalRecorder(2, 64, 8, 32)
	tr := c.Track(0)
	allocs := testing.AllocsPerRun(1000, func() {
		b := c.NextBatch()
		tr.Mark(EvTurnBegin, 1, 1, 0, 0)
		tr.Send(1, 1, b, 1, 3)
		tr.Recv(2, 1, b, 1, 3)
		tr.Handle(3, 1, 17, 2, 1)
		tr.Flush(4, 1, 2)
		tr.Mark(EvTurnEnd, 5, 1, 3, 1)
	})
	if allocs != 0 {
		t.Fatalf("enabled path allocates: %v allocs/run", allocs)
	}
}

func TestRingWrapAndDroppedAccounting(t *testing.T) {
	c := NewCausalRecorder(1, 8, 4, 0)
	tr := c.Track(0)
	for i := 0; i < 20; i++ {
		tr.Handle(int64(i), 1, int32(i), 1, 0)
	}
	d := c.Dump()
	td := d.Tracks[0]
	if td.Total != 20 {
		t.Fatalf("Total = %d, want 20", td.Total)
	}
	if len(td.Events) != 8 {
		t.Fatalf("retained %d events, want 8", len(td.Events))
	}
	if td.Dropped != 12 {
		t.Fatalf("Dropped = %d, want 12", td.Dropped)
	}
	// Oldest-first, sequence-contiguous, and the retained window is
	// the most recent events.
	for i, ev := range td.Events {
		wantSeq := uint64(12 + i)
		if ev.Seq != wantSeq {
			t.Fatalf("event %d Seq = %d, want %d", i, ev.Seq, wantSeq)
		}
		if ev.Bucket != int32(wantSeq) {
			t.Fatalf("event %d Bucket = %d, want %d", i, ev.Bucket, wantSeq)
		}
	}
}

func TestRingCapRoundsToPowerOfTwo(t *testing.T) {
	c := NewCausalRecorder(1, 100, 4, 0)
	tr := c.Track(0)
	for i := 0; i < 200; i++ {
		tr.Flush(int64(i), 1, 1)
	}
	if got := len(c.Dump().Tracks[0].Events); got != 128 || c.RingCap() != 128 {
		t.Fatalf("retained %d events of a ring of %d, want 128 (rounded-up cap)", got, c.RingCap())
	}
}

// TestHandOverAbsorb: a track kept in two processes. The recording side
// hands over only what it recorded since its last hand-over, at most a
// ring's worth, the newest kept, with the whole aggregate; the absorbing
// side lands each hand-over's send on its arrival, never before the
// last one it absorbed, and stamps the cycle.
func TestHandOverAbsorb(t *testing.T) {
	remote := NewCausalRecorder(1, 4, 1, 0).Track(0)
	c := NewCausalRecorder(2, 16, 4, 0)
	local := c.Track(0)

	remote.Mark(EvTurnBegin, 10, 0, 0, 0)
	for i := range 6 {
		remote.Handle(10, 0, int32(i), int32(i+1), 0)
	}
	remote.Mark(EvTurnEnd, 20, 0, 1, 6)
	evs, agg := remote.HandOver(nil)
	if len(evs) != 4 || evs[0].Bucket != 3 || evs[3].Kind != EvTurnEnd {
		t.Fatalf("handed over %+v, want the newest 4 events", evs)
	}
	if agg != (CycleAgg{Handles: 6, MaxDepth: 6}) {
		t.Fatalf("handed over %+v, want the whole turn's aggregate", agg)
	}
	c.BeginCycle(7, 0)
	local.Absorb(evs, agg, 25, 1000, 7) // sent at 25, arrived at 1000
	if again, agg := remote.HandOver(evs[:0]); len(again) != 0 || agg != (CycleAgg{}) {
		t.Fatalf("a second hand-over repeats %d events, %+v", len(again), agg)
	}

	// A turn whose frame came faster than the last one's would begin
	// before that one ended: it is moved to begin where that one ended.
	remote.Mark(EvTurnBegin, 30, 0, 0, 0)
	remote.Mark(EvTurnEnd, 40, 0, 1, 0)
	evs, agg = remote.HandOver(evs[:0])
	local.Absorb(evs, agg, 40, 990, 7)
	c.EndCycle(7, 2000)

	d := c.Dump()
	var ts []int64
	for _, ev := range d.Tracks[0].Events {
		if ev.Cycle != 7 {
			t.Fatalf("absorbed %+v, want cycle 7", ev)
		}
		ts = append(ts, ev.TS)
	}
	if fmt.Sprint(ts) != "[985 985 985 995 995 1005]" {
		t.Fatalf("absorbed at %v, want [985 985 985 995 995 1005]", ts)
	}
	if got := d.Cycles[0].PerTrack[0]; got != (CycleAgg{Handles: 6, MaxDepth: 6}) {
		t.Fatalf("cycle aggregate %+v", got)
	}
}

func TestCycleAggregatesAndRetention(t *testing.T) {
	c := NewCausalRecorder(2, 16, 3, 0)
	w, ctl := c.Track(0), c.Track(1)
	_ = ctl
	for cyc := int32(1); cyc <= 5; cyc++ {
		c.BeginCycle(cyc, int64(cyc)*100)
		b := c.NextBatch()
		w.Recv(int64(cyc)*100+1, cyc, b, 1, 2)
		w.Handle(int64(cyc)*100+2, cyc, 5, 1, 1)
		w.Handle(int64(cyc)*100+3, cyc, 6, 2, 0)
		w.Send(int64(cyc)*100+4, cyc, c.NextBatch(), 1, 3)
		w.Flush(int64(cyc)*100+5, cyc, 3)
		w.Mark(EvTurnEnd, int64(cyc)*100+6, cyc, 2, 2) // an interval leaves the aggregate alone
		c.EndCycle(cyc, int64(cyc)*100+50)
	}
	recs := c.CycleRecords()
	if len(recs) != 3 {
		t.Fatalf("retained %d cycle records, want 3", len(recs))
	}
	// Oldest-first: cycles 3, 4, 5 survive.
	for i, r := range recs {
		if want := int32(3 + i); r.Cycle != want {
			t.Fatalf("record %d cycle = %d, want %d", i, r.Cycle, want)
		}
		if r.WallNS != 50 {
			t.Fatalf("record %d WallNS = %d, want 50", i, r.WallNS)
		}
		agg := r.Total()
		if agg.Handles != 2 || agg.Recvs != 2 || agg.Sends != 3 || agg.Flushes != 1 {
			t.Fatalf("record %d agg = %+v", i, agg)
		}
		if agg.MaxDepth != 2 {
			t.Fatalf("record %d MaxDepth = %d, want 2", i, agg.MaxDepth)
		}
	}
}

func TestNextBatchMonotonic(t *testing.T) {
	c := NewCausalRecorder(1, 16, 4, 0)
	prev := int32(0)
	for i := 0; i < 10; i++ {
		b := c.NextBatch()
		if b <= prev {
			t.Fatalf("NextBatch not increasing: %d after %d", b, prev)
		}
		prev = b
	}
}

func TestFlightDumpJSONDeterministic(t *testing.T) {
	build := func() *FlightDump {
		c := NewCausalRecorder(2, 16, 4, 16)
		c.SetTrackName(0, "worker 0")
		c.SetTrackName(1, "control")
		c.BeginCycle(1, 0)
		b := c.NextBatch()
		c.Track(1).Send(1, 1, b, BroadcastDst, 4)
		c.Track(0).Recv(2, 1, b, 1, 4)
		c.Track(0).Handle(3, 1, 7, 1, 0)
		c.EndCycle(1, 10)
		return c.Dump()
	}
	var buf1, buf2 bytes.Buffer
	if err := build().WriteJSON(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf1.String() != buf2.String() {
		t.Fatal("dump JSON not deterministic")
	}
	var parsed FlightDump
	if err := json.Unmarshal(buf1.Bytes(), &parsed); err != nil {
		t.Fatalf("dump JSON not parseable: %v", err)
	}
	if parsed.NBuckets != 16 || len(parsed.Tracks) != 2 || len(parsed.Cycles) != 1 {
		t.Fatalf("round-tripped dump = %+v", parsed)
	}
	if parsed.Tracks[1].Name != "control" {
		t.Fatalf("track name = %q", parsed.Tracks[1].Name)
	}
	// Events are snake_case like the document around them, a kind travels
	// by name, and every kind survives the round trip.
	want := CausalEvent{TS: 2, Cycle: 1, Batch: 1, Src: 1, Dst: NoValue, Bucket: NoValue, Count: 4, Kind: EvRecv}
	if got := parsed.Tracks[0].Events[0]; got != want {
		t.Errorf("round-tripped event = %+v, want %+v", got, want)
	}
	if !strings.Contains(buf1.String(), `"kind": "recv"`) || strings.Contains(buf1.String(), `"Seq"`) {
		t.Errorf("events are not self-describing:\n%s", buf1.String())
	}
	for k := range eventKindNames {
		b, err := json.Marshal(CausalEvent{Kind: EventKind(k)})
		if err != nil {
			t.Fatal(err)
		}
		var ev CausalEvent
		if err := json.Unmarshal(b, &ev); err != nil || ev.Kind != EventKind(k) {
			t.Errorf("kind %v round-trips to %v (%v): %s", EventKind(k), ev.Kind, err, b)
		}
	}
	if _, err := json.Marshal(CausalEvent{Kind: EventKind(len(eventKindNames))}); err == nil {
		t.Error("an unknown kind marshals")
	}
	var ev CausalEvent
	if err := json.Unmarshal([]byte(`{"kind":"teleport"}`), &ev); err == nil {
		t.Error("an unknown kind name unmarshals")
	}
	if err := json.Unmarshal([]byte(`{"kind":2}`), &ev); err == nil {
		t.Error("a bare kind number unmarshals")
	}
}

func TestChromeTraceFlowArrows(t *testing.T) {
	c := NewCausalRecorder(2, 16, 4, 0)
	c.SetTrackName(0, "worker 0")
	c.SetTrackName(1, "control")
	c.BeginCycle(1, 0)
	b := c.NextBatch()
	c.Track(1).Send(1000, 1, b, 0, 2)
	c.Track(0).Recv(2000, 1, b, 1, 2)
	c.Track(0).Handle(3000, 1, 9, 1, 1)
	// A send whose recv fell off the ring must NOT draw an arrow.
	c.Track(1).Send(4000, 1, c.NextBatch(), 0, 1)
	// Intervals whose two ends survive are one slice of their duration
	// under the interval's name; an end that lost its begin, or a begin
	// its end, is drawn where it is under its own.
	c.Track(0).Mark(EvTurnEnd, 1500, 1, 1, 1)
	c.Track(0).Mark(EvTurnBegin, 2000, 1, 0, 0)
	c.Track(0).Mark(EvTurnEnd, 3500, 1, 2, 1)
	c.Track(1).Mark(EvWaitBegin, 4100, 1, 0, 0)
	c.Track(1).Mark(EvWaitEnd, 4900, 1, 3, 0)
	c.EndCycle(1, 5000)
	c.Track(1).Mark(EvMigrateBegin, 6000, 1, 0, 0)

	var buf bytes.Buffer
	if err := c.Dump().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v\n%s", err, out)
	}
	if !strings.Contains(out, `"ph":"s"`) || !strings.Contains(out, `"ph":"f"`) {
		t.Fatalf("no flow arrow events in trace:\n%s", out)
	}
	if got := strings.Count(out, `"cat":"flow"`); got != 2 {
		t.Fatalf("flow event count = %d, want 2 (dangling batch must not draw)", got)
	}
	if !strings.Contains(out, `"name":"worker 0"`) || !strings.Contains(out, `"name":"control"`) {
		t.Fatalf("missing thread names:\n%s", out)
	}
	for _, slice := range []string{
		`"name":"send","cat":"causal","ph":"X","ts":1.000,"dur":0.000,`,
		`"name":"recv",`, `"name":"handle",`,
		`"name":"cycle","cat":"causal","ph":"X","ts":0.000,"dur":5.000,"pid":0,"tid":1,`,
		`"name":"turn-end","cat":"causal","ph":"X","ts":1.500,"dur":0.000,"pid":0,"tid":0,`,
		`"name":"turn","cat":"causal","ph":"X","ts":2.000,"dur":1.500,"pid":0,"tid":0,"args":{"seq":4,"cycle":1,"batch":0,"bucket":-3,"depth":1,"count":2}}`,
		`"name":"wait","cat":"causal","ph":"X","ts":4.100,"dur":0.800,"pid":0,"tid":1,"args":{"seq":4,"cycle":1,"batch":0,"bucket":-3,"depth":0,"count":3}}`,
		`"name":"migrate-begin","cat":"causal","ph":"X","ts":6.000,"dur":0.000,`,
	} {
		if !strings.Contains(out, slice) {
			t.Fatalf("missing %s:\n%s", slice, out)
		}
	}
	// The turn slice opens before what happened inside it.
	if strings.Index(out, `"name":"turn",`) > strings.Index(out, `"name":"handle"`) {
		t.Fatalf("turn slice after its handle:\n%s", out)
	}
}

func TestEventKindString(t *testing.T) {
	if EventKind(len(eventKindNames)-1) != EvMigrateEnd {
		t.Fatalf("%d kind names, last kind %d", len(eventKindNames), EvMigrateEnd)
	}
	seen := map[string]bool{}
	for k := range eventKindNames {
		s := EventKind(k).String()
		if seen[s] {
			t.Fatalf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if got := EventKind(200).String(); got != "kind(200)" {
		t.Fatalf("unknown kind = %q", got)
	}
}
