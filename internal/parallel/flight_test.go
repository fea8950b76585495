package parallel

import (
	"testing"

	"mpcrete/internal/obs"
	"mpcrete/internal/ops5"
	"mpcrete/internal/rete"
)

// flightRun drives a small join workload through an instrumented
// runtime at the given in-place budget (under chaos the driver draws
// its own) and returns the dump plus the number of Apply calls.
func flightRun(t *testing.T, workers int, routed bool, chaosSeed int64, budget int) (*obs.FlightDump, Stats, int) {
	t.Helper()
	srcs := []string{
		`(p join (a ^x <v>) (b ^x <v>) (c ^x <v>) --> (halt))`,
		`(p pair (a ^x <v>) (b ^x <v>) --> (halt))`,
	}
	net, _ := compileProds(t, srcs...)
	cr := NewFlightRecorder(workers, 4096, 64, 64)
	rt, err := New(net, Options{
		Workers: workers, NBuckets: 64, RouteRoots: routed,
		ChaosSeed: chaosSeed, Causal: cr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.budget = budget

	cycles := 0
	id := 1
	for i := 0; i < 12; i++ {
		for _, class := range []string{"a", "b", "c"} {
			w := ops5.NewWME(class, "x", i%4)
			w.ID, w.TimeTag = id, id
			id++
			rt.Apply([]rete.Change{{Tag: rete.Add, WME: w}})
			cycles++
		}
	}
	stats := rt.Stats()
	return rt.FlightDump(), stats, cycles
}

// TestFlightRecorderEndToEnd reconciles a dump with the runtime's own
// counters at every in-place budget: whether the control carried an
// activation in place, handed it off, or never touched it, every handle
// is counted on its owner's track and every recv joins a send.
func TestFlightRecorderEndToEnd(t *testing.T) {
	type flightCase struct {
		name   string
		routed bool
		chaos  int64
		budget int
	}
	cases := []flightCase{
		{"broadcast", false, 0, inPlaceActs},
		{"routed", true, 0, inPlaceActs},
		{"chaos", false, 7, inPlaceActs},
		{"chaos-routed", true, 11, inPlaceActs},
	}
	for _, b := range handOffBudgets {
		cases = append(cases,
			flightCase{"broadcast-b" + budgetName(b), false, 0, b},
			flightCase{"routed-b" + budgetName(b), true, 0, b})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dump, stats, cycles := flightRun(t, 4, tc.routed, tc.chaos, tc.budget)
			if dump == nil {
				t.Fatal("nil dump from instrumented runtime")
			}
			if len(dump.Tracks) != 5 {
				t.Fatalf("tracks = %d, want 5 (4 workers + control)", len(dump.Tracks))
			}
			if dump.Tracks[4].Name != "control" {
				t.Fatalf("last track = %q, want control", dump.Tracks[4].Name)
			}
			if len(dump.Cycles) != cycles {
				t.Fatalf("cycle records = %d, want %d", len(dump.Cycles), cycles)
			}

			// Per-cycle handle totals must reconcile exactly with the
			// runtime's own processed counters: the aggregates survive
			// ring eviction by design.
			var handles, processed int64
			for _, c := range dump.Cycles {
				handles += c.Total().Handles
			}
			for _, p := range stats.Processed {
				processed += p
			}
			if handles != processed {
				t.Fatalf("aggregate handles = %d, Stats processed = %d", handles, processed)
			}

			// Every retained recv joins back to a retained send with the
			// same batch stamp, and message counts agree per stamp.
			sendCount := map[int32]int32{}
			for _, tr := range dump.Tracks {
				for _, ev := range tr.Events {
					if ev.Kind == obs.EvSend && ev.Batch != 0 {
						sendCount[ev.Batch] += ev.Count
					}
				}
			}
			for ti, tr := range dump.Tracks {
				if tr.Dropped > 0 {
					t.Fatalf("track %d dropped %d events with a 4096 ring", ti, tr.Dropped)
				}
				for _, ev := range tr.Events {
					if ev.Kind != obs.EvRecv {
						continue
					}
					if _, ok := sendCount[ev.Batch]; !ok {
						t.Fatalf("track %d recv batch %d has no matching send", ti, ev.Batch)
					}
					sendCount[ev.Batch] -= ev.Count
				}
			}
			// Broadcast sends count one message per worker and each
			// worker recvs one, so every stamp must net to zero.
			for b, n := range sendCount {
				if n != 0 {
					t.Fatalf("batch %d: sends and recvs differ by %d messages", b, n)
				}
			}

			// Depth sanity: handle depths start at 1 and the per-cycle
			// aggregate MaxDepth matches the deepest retained handle.
			maxByCycle := map[int32]int32{}
			for _, tr := range dump.Tracks {
				for _, ev := range tr.Events {
					if ev.Kind != obs.EvHandle {
						continue
					}
					if ev.Depth < 1 {
						t.Fatalf("handle depth %d < 1", ev.Depth)
					}
					if ev.Depth > maxByCycle[ev.Cycle] {
						maxByCycle[ev.Cycle] = ev.Depth
					}
				}
			}
			for _, c := range dump.Cycles {
				if got := c.Total().MaxDepth; got != maxByCycle[c.Cycle] {
					t.Fatalf("cycle %d aggregate MaxDepth = %d, events say %d", c.Cycle, got, maxByCycle[c.Cycle])
				}
			}

			// Nothing was evicted, so the handle events are the whole
			// count too, each naming a bucket of the run's space.
			var handleEvents int64
			for _, tr := range dump.Tracks {
				for _, ev := range tr.Events {
					if ev.Kind == obs.EvHandle {
						handleEvents++
						if ev.Bucket < 0 || int(ev.Bucket) >= dump.NBuckets {
							t.Fatalf("handle event %+v names a bucket outside [0,%d)", ev, dump.NBuckets)
						}
					}
				}
			}
			if handleEvents != processed {
				t.Fatalf("%d handle events, processed = %d", handleEvents, processed)
			}
		})
	}
}

// TestFlightRecorderDisabled pins the disabled path: no recorder, nil
// dump, and Apply stays on the uninstrumented fast path.
func TestFlightRecorderDisabled(t *testing.T) {
	net, _ := compileProds(t, `(p join (a ^x <v>) (b ^x <v>) --> (halt))`)
	rt, err := New(net, Options{Workers: 2, NBuckets: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	w := ops5.NewWME("a", "x", 1)
	w.ID, w.TimeTag = 1, 1
	rt.Apply([]rete.Change{{Tag: rete.Add, WME: w}})
	if d := rt.FlightDump(); d != nil {
		t.Fatalf("FlightDump without recorder = %+v, want nil", d)
	}
}

func TestFlightRecorderTrackMismatch(t *testing.T) {
	net, _ := compileProds(t, `(p join (a ^x <v>) (b ^x <v>) --> (halt))`)
	cr := obs.NewCausalRecorder(2, 64, 8, 0) // wrong: 2 tracks for 2 workers
	if _, err := New(net, Options{Workers: 2, NBuckets: 64, Causal: cr}); err == nil {
		t.Fatal("New accepted a causal recorder with the wrong track count")
	}
}

// TestFlightRecorderRetention forces ring eviction with a tiny ring
// and checks the dump stays bounded while aggregates stay exact.
func TestFlightRecorderRetention(t *testing.T) {
	srcs := []string{`(p pair (a ^x <v>) (b ^x <v>) --> (halt))`}
	net, _ := compileProds(t, srcs...)
	cr := NewFlightRecorder(2, 16, 4, 0)
	rt, err := New(net, Options{Workers: 2, NBuckets: 64, Causal: cr})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	id := 1
	for i := 0; i < 30; i++ {
		w := ops5.NewWME([]string{"a", "b"}[i%2], "x", i%3)
		w.ID, w.TimeTag = id, id
		id++
		rt.Apply([]rete.Change{{Tag: rete.Add, WME: w}})
	}
	dump := rt.FlightDump()
	if len(dump.Cycles) != 4 {
		t.Fatalf("retained %d cycle records, want 4", len(dump.Cycles))
	}
	if got := dump.Cycles[len(dump.Cycles)-1].Cycle; got != 30 {
		t.Fatalf("newest retained cycle = %d, want 30", got)
	}
	for ti, tr := range dump.Tracks {
		if len(tr.Events) > 16 {
			t.Fatalf("track %d retained %d events with a 16 ring", ti, len(tr.Events))
		}
		if tr.Total != tr.Dropped+uint64(len(tr.Events)) {
			t.Fatalf("track %d accounting: total %d != dropped %d + retained %d",
				ti, tr.Total, tr.Dropped, len(tr.Events))
		}
	}
}

func TestFlightRecorderChromeExport(t *testing.T) {
	dump, _, _ := flightRun(t, 2, false, 0, inPlaceActs)
	var n int
	for _, tr := range dump.Tracks {
		n += len(tr.Events)
	}
	if n == 0 {
		t.Fatal("no events to export")
	}
	if err := dump.WriteJSON(discard{}); err != nil {
		t.Fatal(err)
	}
	if err := dump.WriteChromeTrace(discard{}); err != nil {
		t.Fatal(err)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
