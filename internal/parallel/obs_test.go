package parallel

import (
	"bytes"
	"strconv"
	"testing"

	"mpcrete/internal/obs"
	"mpcrete/internal/ops5"
	"mpcrete/internal/rete"
)

// timelineShapes runs two match phases on one runtime under a recorder
// and checks the wall-clock timeline of each. The first stays under the
// in-place budget: one "in-place" span on the control track, each
// step's drains on its worker's track, and neither a batch nor a
// quiescence wait anywhere. The second outgrows the budget: the control
// span says so, the frontier arrives as batch spans (one per drained
// mailbox batch, with per-kind message counts, so observability costs
// one span per turn rather than one per message), and the control
// waits for quiescence. announce is the instant the root mode records
// once per cycle.
func timelineShapes(t *testing.T, opts Options, announce string) {
	net, _ := compileProds(t,
		`(p pair (team ^name <t> ^div <d>) (slot ^id <s> ^div <d>) --> (make pairing ^team <t> ^slot <s>))`)
	rec := obs.NewRecorder()
	opts.Workers, opts.Recorder = 2, rec
	rt, err := New(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	id := 1
	burst := func(n int) []rete.Change {
		var changes []rete.Change
		for i := 0; i < n; i++ {
			for _, w := range []*ops5.WME{
				ops5.NewWME("team", "name", i, "div", i%8),
				ops5.NewWME("slot", "id", i, "div", i%8),
			} {
				w.ID, w.TimeTag = id, id
				id++
				changes = append(changes, rete.Change{Tag: rete.Add, WME: w})
			}
		}
		return changes
	}
	label := func(labels []obs.Label, key string) string {
		for _, l := range labels {
			if l.Key == key {
				return l.Value
			}
		}
		return ""
	}
	count := func(labels []obs.Label, key string) int {
		v := label(labels, key)
		if v == "" {
			return 0
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Errorf("label %s=%q is not a count", key, v)
		}
		return n
	}

	// shape reads the spans and instants recorded since the last call.
	type shape struct {
		head            []obs.Label // the control track's in-place span
		heads           int
		stepActs        int // acts over the worker tracks' in-place spans
		batches         int
		batchMsgs       int
		batchActs       int
		batchCycles     int
		quiesce         int
		announced       int
		announcedLabels []obs.Label
	}
	spansSeen, instantsSeen := 0, 0
	read := func() shape {
		var sh shape
		spans := rec.Spans()
		for _, sp := range spans[spansSeen:] {
			if sp.T1 < sp.T0 {
				t.Errorf("span %v ends before it starts", sp)
			}
			switch {
			case sp.Kind == "in-place" && sp.Proc == rt.controlTrack():
				sh.heads++
				sh.head = sp.Labels
			case sp.Kind == "in-place":
				sh.stepActs += count(sp.Labels, "acts")
			case sp.Kind == "batch":
				sh.batches++
				sh.batchMsgs += count(sp.Labels, "msgs")
				sh.batchActs += count(sp.Labels, "acts")
				sh.batchCycles += count(sp.Labels, "cycles")
			case sp.Kind == "quiesce" && sp.Proc == rt.controlTrack():
				sh.quiesce++
				if len(sp.Labels) != 1 || sp.Labels[0].Key != "waves" {
					t.Errorf("quiesce span labels = %v", sp.Labels)
				}
			}
		}
		spansSeen = len(spans)
		instants := rec.Instants()
		for _, in := range instants[instantsSeen:] {
			if in.Name == announce {
				sh.announced++
				sh.announcedLabels = in.Labels
			}
		}
		instantsSeen = len(instants)
		return sh
	}

	// Under the budget: 16 changes, one pairing per division.
	if got := rt.Apply(burst(8)); len(got) != 8 {
		t.Fatalf("conflict set = %d, want 8", len(got))
	}
	sh := read()
	if sh.heads != 1 {
		t.Fatalf("in-place spans on the control track = %d, want 1", sh.heads)
	}
	if got := label(sh.head, "handed-off"); got != "false" {
		t.Errorf("small cycle: handed-off = %q, want false", got)
	}
	if acts := count(sh.head, "acts"); acts == 0 || acts != sh.stepActs {
		t.Errorf("small cycle: control span says %d acts, the steps' spans %d", acts, sh.stepActs)
	}
	if sh.batches != 0 || sh.quiesce != 0 {
		t.Errorf("small cycle reached the message plane: %d batch spans, %d quiesce spans", sh.batches, sh.quiesce)
	}
	if sh.announced != 1 || label(sh.announcedLabels, "changes") != "16" {
		t.Errorf("small cycle: %d %s instants, labels %v", sh.announced, announce, sh.announcedLabels)
	}
	if st := rt.Stats(); st.InPlace != 1 || st.HandedOff != 0 {
		t.Errorf("after the small cycle: InPlace = %d, HandedOff = %d", st.InPlace, st.HandedOff)
	}

	// Over it: 200 more of each class, 25 to a division — 400 root
	// activations alone.
	rt.Apply(burst(200))
	sh = read()
	if sh.heads != 1 {
		t.Fatalf("in-place spans on the control track = %d, want 1", sh.heads)
	}
	if got := label(sh.head, "handed-off"); got != "true" {
		t.Errorf("large cycle: handed-off = %q, want true", got)
	}
	if acts := count(sh.head, "acts"); acts != inPlaceActs || acts != sh.stepActs {
		t.Errorf("large cycle: control span says %d acts, the steps' spans %d, budget %d", acts, sh.stepActs, inPlaceActs)
	}
	if sh.batches < 1 || sh.batchMsgs < 1 {
		t.Errorf("large cycle: %d batch spans covering %d messages", sh.batches, sh.batchMsgs)
	}
	// The frontier is activations: no worker sees a cycle packet.
	if sh.batchCycles != 0 || sh.batchActs != sh.batchMsgs {
		t.Errorf("large cycle: batch spans count %d cycle packets and %d acts in %d messages",
			sh.batchCycles, sh.batchActs, sh.batchMsgs)
	}
	if sh.quiesce != 1 {
		t.Errorf("large cycle: quiesce spans = %d, want 1", sh.quiesce)
	}
	if sh.announced != 1 || label(sh.announcedLabels, "changes") != "400" {
		t.Errorf("large cycle: %d %s instants, labels %v", sh.announced, announce, sh.announcedLabels)
	}
	if st := rt.Stats(); st.InPlace != 1 || st.HandedOff != 1 {
		t.Errorf("after the large cycle: InPlace = %d, HandedOff = %d", st.InPlace, st.HandedOff)
	}
	if announce == "cycle-route" {
		if roots := label(sh.announcedLabels, "roots"); roots == "" || roots == "0" {
			t.Errorf("cycle-route roots label = %q, want > 0", roots)
		}
	}

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"worker 0"`, `"worker 1"`, `"control"`, `"` + announce + `"`, `"in-place"`, `"batch"`, `"quiesce"`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("chrome trace missing %s", want)
		}
	}
}

// TestRuntimeTimeline checks both shapes of a cycle's timeline under
// the broadcast root mode (Fig 3-3) and the four-counter detector.
func TestRuntimeTimeline(t *testing.T) {
	timelineShapes(t, Options{Detector: FourCounterDetector}, "cycle-broadcast")
}

// TestRuntimeTimelineRouted checks them under routed roots (Fig 3-2),
// whose control-track instant also carries the root count.
func TestRuntimeTimelineRouted(t *testing.T) {
	timelineShapes(t, Options{RouteRoots: true}, "cycle-route")
}
