package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"mpcrete/internal/obs"
	"mpcrete/internal/trace"
	"mpcrete/internal/workloads"
)

// obsTrace builds a two-cycle trace with inter-processor traffic.
func obsTrace() *trace.Trace {
	cycle := func() *trace.Cycle {
		return &trace.Cycle{Changes: 1, Roots: []*trace.Activation{
			act('L', '+', 0, 0, act('R', '+', 3, 1)),
			act('R', '+', 1, 0),
			act('L', '+', 2, 1, act('L', '+', 5, 0)),
		}}
	}
	return &trace.Trace{Name: "unit", NBuckets: 8,
		Cycles: []*trace.Cycle{cycle(), cycle()}}
}

// TestFlightRecordingMatchesResult holds a recorded run's flight dump
// to the Result of the same run, on the shapes TestShapeDigestsPinned
// pins and on the three sections at 1, 16 and 32 processors: per track
// the turns sum to the processor's busy time and the handles of each
// cycle to its slot's activations; the sends sum to the messages, and
// every receive carries a send's stamp; each cycle's record lasts its
// cycle time; and under NewFlightRecorder's sizing no ring drops an
// event.
func TestFlightRecordingMatchesResult(t *testing.T) {
	type point struct {
		name string
		tr   *trace.Trace
		cfg  Config
	}
	tourney := workloads.Tourney()
	var pts []point
	for _, sh := range digestShapes() {
		pts = append(pts, point{sh.name, tourney, sh.cfg})
	}
	for _, tr := range []*trace.Trace{workloads.Rubik(), tourney, workloads.Weaver()} {
		for _, procs := range []int{1, 16, 32} {
			pts = append(pts, point{fmt.Sprintf("%s/p%d", tr.Name, procs), tr, NewConfig(procs, WithOverhead(OverheadRuns()[2]))})
		}
	}
	for _, pt := range pts {
		cfg := pt.cfg
		rec, err := NewFlightRecorder(pt.tr, cfg)
		if err != nil {
			t.Fatalf("%s: %v", pt.name, err)
		}
		cfg.Recorder = rec
		res, err := Simulate(pt.tr, cfg)
		if err != nil {
			t.Fatalf("%s: %v", pt.name, err)
		}
		d := rec.Dump()
		procOf := func(track int) int { return (track + 1) % len(d.Tracks) }
		stamps := map[int32]bool{}
		var sends int
		for ti, td := range d.Tracks {
			if td.Dropped != 0 {
				t.Errorf("%s: track %q dropped %d of %d events", pt.name, td.Name, td.Dropped, td.Total)
			}
			var busy, begin int64
			for _, e := range td.Events {
				switch e.Kind {
				case obs.EvTurnBegin:
					begin = e.TS
				case obs.EvTurnEnd:
					busy += e.TS - begin
				case obs.EvSend:
					sends += int(e.Count)
					stamps[e.Batch] = true
				}
			}
			if want := int64(res.Net.Procs[procOf(ti)].Busy); busy != want {
				t.Errorf("%s: track %q turns last %d ns, processor busy %d ns", pt.name, td.Name, busy, want)
			}
		}
		if sends != res.Net.Messages {
			t.Errorf("%s: sends count %d messages, Result %d", pt.name, sends, res.Net.Messages)
		}
		for _, td := range d.Tracks {
			for _, e := range td.Events {
				if e.Kind == obs.EvRecv && !stamps[e.Batch] {
					t.Fatalf("%s: track %q receives stamp %d, which no send carries", pt.name, td.Name, e.Batch)
				}
			}
		}
		if len(d.Cycles) != len(res.CycleTimes) {
			t.Fatalf("%s: %d cycle records for %d cycles", pt.name, len(d.Cycles), len(res.CycleTimes))
		}
		for ci, cr := range d.Cycles {
			if cr.WallNS != int64(res.CycleTimes[ci]) {
				t.Errorf("%s: cycle %d record lasts %d ns, Result %d", pt.name, cr.Cycle, cr.WallNS, res.CycleTimes[ci])
			}
			handles := make([]int, cfg.MatchProcs)
			for ti, agg := range cr.PerTrack {
				if p := procOf(ti); p > 0 {
					handles[slotOf(cfg, p)] += int(agg.Handles)
				} else if agg.Handles != 0 {
					t.Errorf("%s: cycle %d: the control handles %d activations", pt.name, cr.Cycle, agg.Handles)
				}
			}
			if !slices.Equal(handles, res.ActsPerSlot[ci]) {
				t.Errorf("%s: cycle %d handles per slot %v, Result %v", pt.name, cr.Cycle, handles, res.ActsPerSlot[ci])
			}
		}
	}
}

// slotOf is the partition slot of match processor p (1-based).
func slotOf(cfg Config, p int) int {
	if cfg.Pairs {
		return (p - 1) / 2
	}
	return p - 1
}

// TestRecorderTimeline checks the tracks a simulated run records
// on: match processors first, the control last, named for their
// processors; the Chrome export draws turns, handles and cycles; and
// Simulate refuses a recorder built for another machine.
func TestRecorderTimeline(t *testing.T) {
	tr := obsTrace()
	rec, err := NewFlightRecorder(tr, baseCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	d := rec.Dump()
	var names []string
	for _, td := range d.Tracks {
		names = append(names, td.Name)
	}
	if want := []string{"match 0", "match 1", "control"}; !slices.Equal(names, want) {
		t.Errorf("tracks %q, want %q", names, want)
	}
	pairs, err := NewFlightRecorder(tr, NewConfig(1, WithPairs()))
	if err != nil {
		t.Fatal(err)
	}
	if got := pairs.Dump().Tracks[1].Name; got != "slot 0 right" {
		t.Errorf("pair track 1 is %q, want %q", got, "slot 0 right")
	}

	cfg := baseCfg(2)
	cfg.Recorder = rec
	if _, err := Simulate(tr, cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.Dump().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"control"`, `"match 1"`, `"name":"turn"`, `"name":"handle"`, `"name":"cycle"`, `"ph":"s"`, `"ph":"f"`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("chrome trace missing %s", want)
		}
	}

	cfg.MatchProcs = 3
	var ioe *IncompatibleOptionsError
	if _, err := Simulate(tr, cfg); !errors.As(err, &ioe) {
		t.Errorf("a 3-track recorder on a 4-processor machine: got %v, want IncompatibleOptionsError", err)
	}
}

// TestSimulateMetrics checks the registry a run populates: the
// per-cycle series agrees with the Result, and the headline metrics
// are present.
func TestSimulateMetrics(t *testing.T) {
	cfg := baseCfg(2)
	cfg.Metrics = obs.NewRegistry()
	res, err := Simulate(obsTrace(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := cfg.Metrics.LookupSeries("core/per_cycle")
	if s == nil {
		t.Fatal("core/per_cycle series missing")
	}
	rows := s.Rows()
	if len(rows) != len(res.CycleTimes) {
		t.Fatalf("series rows = %d, want %d", len(rows), len(res.CycleTimes))
	}
	for ci, row := range rows {
		acts := 0
		for _, n := range res.ActsPerSlot[ci] {
			acts += n
		}
		if row[1] != float64(acts) || row[2] != float64(res.MsgsPerCycle[ci]) {
			t.Errorf("cycle %d row = %v, want acts=%d msgs=%d", ci+1, row, acts, res.MsgsPerCycle[ci])
		}
	}
	if got := cfg.Metrics.Counter("sim/messages").Value(); got != int64(res.Net.Messages) {
		t.Errorf("sim/messages = %d, want %d", got, res.Net.Messages)
	}
	if v := cfg.Metrics.Gauge("sim/makespan_us").Value(); v != res.Makespan.Microseconds() {
		t.Errorf("sim/makespan_us = %v, want %v", v, res.Makespan.Microseconds())
	}
	if _, _, count, _, _ := cfg.Metrics.Histogram("trace/tokens_per_bucket").Snapshot(); count == 0 {
		t.Error("tokens_per_bucket histogram empty")
	}
}

// TestMsgsPerCycleSumsToTotal pins the new per-cycle message counts to
// the aggregate the simulator already reported.
func TestMsgsPerCycleSumsToTotal(t *testing.T) {
	res, err := Simulate(obsTrace(), baseCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, n := range res.MsgsPerCycle {
		sum += n
	}
	if sum != res.Net.Messages {
		t.Errorf("per-cycle messages sum %d != total %d", sum, res.Net.Messages)
	}
}

// TestBaselineDropsObservers: the baseline helper run must not write
// into the observed run's recorder or registry.
func TestBaselineDropsObservers(t *testing.T) {
	cfg := baseCfg(2)
	rec, err := NewFlightRecorder(obsTrace(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Recorder = rec
	cfg.Metrics = obs.NewRegistry()
	base := Baseline(cfg)
	if base.Recorder != nil || base.Metrics != nil {
		t.Error("Baseline kept the observers")
	}
	_, res, _, err := Speedup(obsTrace(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// After Speedup (which also runs the baseline), the recorder holds
	// exactly one run: its cycles, and the turns on its tracks, which
	// last as long as the observed run's processors were busy.
	d := rec.Dump()
	if len(d.Cycles) != len(res.CycleTimes) {
		t.Errorf("Speedup polluted the recorder: %d cycle records for %d cycles", len(d.Cycles), len(res.CycleTimes))
	}
	var turns int64
	for _, td := range d.Tracks {
		for _, e := range td.Events {
			switch e.Kind {
			case obs.EvTurnBegin:
				turns -= e.TS
			case obs.EvTurnEnd:
				turns += e.TS
			}
		}
	}
	if turns != int64(res.Net.BusyTotal()) {
		t.Errorf("Speedup polluted the recorder: turns last %d ns, the run was busy %d ns", turns, int64(res.Net.BusyTotal()))
	}
}
