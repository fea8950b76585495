package parallel

import (
	"bytes"
	"testing"

	"mpcrete/internal/obs"
	"mpcrete/internal/ops5"
	"mpcrete/internal/rete"
	"mpcrete/internal/sched"
)

// interval is a begin event and the end that closed it.
type interval struct{ begin, end obs.CausalEvent }

// intervals pairs, among one track's events of one cycle, every event of
// kind begin with the end (the next kind) that follows it. A begin left
// open or an end before its begin fails the test.
func intervals(t *testing.T, evs []obs.CausalEvent, begin obs.EventKind, cycle int32) []interval {
	t.Helper()
	var out []interval
	var open *obs.CausalEvent
	for i := range evs {
		ev := &evs[i]
		switch {
		case ev.Cycle != cycle:
		case ev.Kind == begin:
			if open != nil {
				t.Errorf("%v at seq %d while the one at seq %d is open", begin, ev.Seq, open.Seq)
			}
			open = ev
		case ev.Kind == begin+1:
			if open == nil {
				t.Errorf("%v at seq %d closes nothing", ev.Kind, ev.Seq)
				continue
			}
			if ev.TS < open.TS {
				t.Errorf("%v at seq %d ends %d ns before it begins", ev.Kind, ev.Seq, open.TS-ev.TS)
			}
			out = append(out, interval{*open, *ev})
			open = nil
		}
	}
	if open != nil {
		t.Errorf("%v at seq %d never ends", begin, open.Seq)
	}
	return out
}

// pairBurst is n (team, slot) pairs over 8 divisions as Add changes,
// numbering wmes from *id.
func pairBurst(n int, id *int) []rete.Change {
	var changes []rete.Change
	for i := 0; i < n; i++ {
		for _, w := range []*ops5.WME{
			ops5.NewWME("team", "name", i, "div", i%8),
			ops5.NewWME("slot", "id", i, "div", i%8),
		} {
			w.ID, w.TimeTag = *id, *id
			*id++
			changes = append(changes, rete.Change{Tag: rete.Add, WME: w})
		}
	}
	return changes
}

const pairProd = `(p pair (team ^name <t> ^div <d>) (slot ^id <s> ^div <d>) --> (make pairing ^team <t> ^slot <s>))`

// timelineShapes runs two match phases on one runtime under the flight
// recorder and checks what each leaves in the dump. The first stays
// under the in-place budget: handles on the owning workers' tracks, the
// root delivery on the control's, and no turn, no wait and no worker
// send anywhere. The second outgrows the budget: the frontier arrives as
// turn intervals (one per drained mailbox batch, so observability costs
// two events per turn rather than one per message) whose message counts
// add up to it, and the control waits for quiescence exactly once, the
// wait carrying its detector's wave count. Every production of the
// program hangs off one join, so a message is an activation and each is
// one handle.
func timelineShapes(t *testing.T, opts Options) {
	net, _ := compileProds(t, pairProd)
	opts.Workers = 2
	opts.Causal = NewFlightRecorder(2, 0, 0, 0)
	rt, err := New(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ctl := rt.controlTrack()

	// shape reads one cycle out of the dump.
	type shape struct {
		handles     int // on worker tracks
		workerSends int
		turns       []interval
		waits       []interval
		cycles      int
		rootSends   int // the control's sends
		rootMsgs    int32
		broadcast   bool
	}
	read := func(cycle int32) shape {
		var sh shape
		for ti, tr := range rt.FlightDump().Tracks {
			if tr.Dropped > 0 {
				t.Fatalf("track %d dropped %d events", ti, tr.Dropped)
			}
			if ti == ctl {
				sh.waits = intervals(t, tr.Events, obs.EvWaitBegin, cycle)
				sh.cycles = len(intervals(t, tr.Events, obs.EvCycleBegin, cycle))
			} else {
				sh.turns = append(sh.turns, intervals(t, tr.Events, obs.EvTurnBegin, cycle)...)
			}
			for _, ev := range tr.Events {
				switch {
				case ev.Cycle != cycle:
				case ev.Kind == obs.EvHandle && ti != ctl:
					sh.handles++
				case ev.Kind == obs.EvSend && ti != ctl:
					sh.workerSends++
				case ev.Kind == obs.EvSend:
					sh.rootSends++
					sh.rootMsgs += ev.Count
					sh.broadcast = sh.broadcast || ev.Dst == obs.BroadcastDst
				}
			}
		}
		return sh
	}

	// Under the budget: 16 changes, one pairing per division.
	id := 1
	if got := rt.Apply(pairBurst(8, &id)); len(got) != 8 {
		t.Fatalf("conflict set = %d, want 8", len(got))
	}
	sh := read(1)
	if sh.cycles != 1 {
		t.Fatalf("small cycle: %d cycle intervals on the control track, want 1", sh.cycles)
	}
	if sh.handles != 16 {
		t.Errorf("small cycle: %d handles on the worker tracks, want 16", sh.handles)
	}
	if len(sh.turns) != 0 || len(sh.waits) != 0 || sh.workerSends != 0 {
		t.Errorf("small cycle reached the message plane: %d turns, %d waits, %d worker sends",
			len(sh.turns), len(sh.waits), sh.workerSends)
	}
	// The root delivery is one broadcast every worker receives (Fig 3-3)
	// or a run per owner that adds up to the roots (Fig 3-2).
	if opts.RouteRoots {
		if sh.broadcast || sh.rootMsgs != 16 {
			t.Errorf("small cycle, routed: %d sends of %d roots (broadcast %v), want 16 roots", sh.rootSends, sh.rootMsgs, sh.broadcast)
		}
	} else if !sh.broadcast || sh.rootSends != 1 || sh.rootMsgs != 2 {
		t.Errorf("small cycle: %d control sends of %d messages (broadcast %v), want one broadcast to 2 workers", sh.rootSends, sh.rootMsgs, sh.broadcast)
	}
	if st := rt.Stats(); st.InPlace != 1 || st.HandedOff != 0 {
		t.Errorf("after the small cycle: InPlace = %d, HandedOff = %d", st.InPlace, st.HandedOff)
	}

	// Over it: 200 more of each class, 25 to a division — 400 root
	// activations alone, of which the head performs inPlaceActs.
	rt.Apply(pairBurst(200, &id))
	sh = read(2)
	if sh.cycles != 1 {
		t.Fatalf("large cycle: %d cycle intervals on the control track, want 1", sh.cycles)
	}
	if sh.handles != 400 {
		t.Errorf("large cycle: %d handles on the worker tracks, want 400", sh.handles)
	}
	var turnMsgs, turnActs int32
	for _, turn := range sh.turns {
		turnMsgs += turn.end.Count
		turnActs += turn.end.Depth
	}
	// The frontier is activations: no worker sees a cycle packet, and
	// none sends.
	if frontier := int32(400 - inPlaceActs); len(sh.turns) < 1 || turnMsgs != frontier || turnActs != frontier {
		t.Errorf("large cycle: %d turns of %d messages and %d activations, want a frontier of %d",
			len(sh.turns), turnMsgs, turnActs, frontier)
	}
	if sh.workerSends != 0 {
		t.Errorf("large cycle: %d worker sends", sh.workerSends)
	}
	if len(sh.waits) != 1 {
		t.Fatalf("large cycle: %d waits on the control track, want 1", len(sh.waits))
	}
	if waves := sh.waits[0].end.Count; (waves > 0) != (opts.Detector == FourCounterDetector) {
		t.Errorf("large cycle: wait took %d waves under detector %d", waves, opts.Detector)
	}
	if st := rt.Stats(); st.InPlace != 1 || st.HandedOff != 1 {
		t.Errorf("after the large cycle: InPlace = %d, HandedOff = %d", st.InPlace, st.HandedOff)
	}

	var buf bytes.Buffer
	if err := rt.FlightDump().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"worker 0"`, `"worker 1"`, `"control"`, `"name":"cycle"`, `"name":"turn"`, `"name":"wait"`, `"name":"handle"`, `"ph":"s"`, `"ph":"f"`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("chrome trace missing %s", want)
		}
	}
}

// TestRuntimeTimeline checks both shapes of a cycle's recording under
// the broadcast root mode (Fig 3-3) and the four-counter detector.
func TestRuntimeTimeline(t *testing.T) {
	timelineShapes(t, Options{Detector: FourCounterDetector})
}

// TestRuntimeTimelineRouted checks them under routed roots (Fig 3-2),
// whose control track carries one send per owner.
func TestRuntimeTimelineRouted(t *testing.T) {
	timelineShapes(t, Options{RouteRoots: true})
}

// TestMigrationInterval forces one migration and finds it on the control
// track: one interval, after the cycle it follows, carrying the buckets
// and the memory entries it moved.
func TestMigrationInterval(t *testing.T) {
	net, _ := compileProds(t, pairProd)
	rt, err := New(net, Options{
		Workers: 2, NBuckets: 64,
		Causal: NewFlightRecorder(2, 0, 0, 64),
		ForceMigrate: func(cycle int) sched.Partition {
			if cycle != 1 {
				return nil
			}
			p := make(sched.Partition, 64)
			for b := range p {
				p[b] = (b + 1) % 2
			}
			return p
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	id := 1
	rt.Apply(pairBurst(8, &id))
	rt.Apply(pairBurst(8, &id))

	_, buckets, entries := rt.RebalanceStats()
	if buckets != 64 || entries == 0 {
		t.Fatalf("forced rotation moved %d buckets and %d entries", buckets, entries)
	}
	dump := rt.FlightDump()
	evs := dump.Tracks[rt.controlTrack()].Events
	migs := intervals(t, evs, obs.EvMigrateBegin, 1)
	if len(migs) != 1 || len(intervals(t, evs, obs.EvMigrateBegin, 2)) != 0 {
		t.Fatalf("migration intervals after cycle 1 = %d, want 1 (and none after cycle 2)", len(migs))
	}
	if end := migs[0].end; int64(end.Count) != buckets || int64(end.Depth) != entries {
		t.Errorf("migration interval says %d buckets, %d entries; the driver moved %d, %d", end.Count, end.Depth, buckets, entries)
	}
	// The workers' extraction turns fall inside it.
	for w := 0; w < 2; w++ {
		for _, turn := range intervals(t, dump.Tracks[w].Events, obs.EvTurnBegin, 1) {
			if turn.begin.TS < migs[0].begin.TS || turn.end.TS > migs[0].end.TS {
				t.Errorf("worker %d turn [%d, %d] outside the migration [%d, %d]",
					w, turn.begin.TS, turn.end.TS, migs[0].begin.TS, migs[0].end.TS)
			}
		}
	}
}
