package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"mpcrete/internal/obs"
	"mpcrete/internal/ops5"
	"mpcrete/internal/parallel"
	"mpcrete/internal/rete"
)

// startWorkers launches n worker protocol loops (each on its own real
// TCP connection, as separate processes would) against the control's
// listener.
func startWorkers(t *testing.T, addr string, n int) chan error {
	t.Helper()
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			errs <- Serve(addr, 5*time.Second)
		}()
	}
	return errs
}

// TestControlParity holds the multi-process star topology against the
// in-process runtime: same network, same changes, the same deltas once
// netted (netKeys), each instantiation's alternating (foldInsts),
// across add and delete cycles, in both broadcast and routed-roots
// modes, with stamp accounting verified at quiescence and the workers'
// own records of their turns absorbed into the dump.
func TestControlParity(t *testing.T) {
	for _, wl := range []string{"blocks", "rubik-like"} {
		for _, routed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/routed=%v", wl, routed), func(t *testing.T) {
				const workers = 4
				net, changes := compileWorkload(t, wl)
				ref, err := parallel.New(net, parallel.Options{Workers: workers, RouteRoots: routed})
				if err != nil {
					t.Fatal(err)
				}
				defer ref.Close()

				causal := parallel.NewFlightRecorder(workers, 0, 0, rete.DefaultNBuckets)
				ctl, err := Listen(net, "127.0.0.1:0", ControlOptions{
					Workers:    workers,
					RouteRoots: routed,
					Causal:     causal,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer ctl.Close()
				werrs := startWorkers(t, ctl.Addr(), workers)
				if err := ctl.WaitWorkers(); err != nil {
					t.Fatal(err)
				}

				has := map[string]bool{}
				want := netKeys(ref.Apply(changes))
				got, err := ctl.Cycle(changes)
				if err != nil {
					t.Fatal(err)
				}
				foldInsts(t, has, got)
				if len(want) == 0 {
					t.Fatalf("workload %s produced no instantiations; vacuous test", wl)
				}
				if fmt.Sprint(netKeys(got)) != fmt.Sprint(want) {
					t.Fatalf("conflict sets diverge\n ctl: %v\n ref: %v", netKeys(got), want)
				}

				del := []rete.Change{{Tag: rete.Delete, WME: changes[0].WME}}
				want = netKeys(ref.Apply(del))
				got, err = ctl.Cycle(del)
				if err != nil {
					t.Fatal(err)
				}
				foldInsts(t, has, got)
				if fmt.Sprint(netKeys(got)) != fmt.Sprint(want) {
					t.Fatalf("deletion cycle diverges\n ctl: %v\n ref: %v", netKeys(got), want)
				}

				// Flight accounting: every message sent across the wire
				// was received, per the cycle aggregates.
				dump := ctl.FlightDump()
				if len(dump.Cycles) != 2 {
					t.Fatalf("got %d cycle records, want 2", len(dump.Cycles))
				}
				for i, cy := range dump.Cycles {
					tot := cy.Total()
					if tot.Sends != tot.Recvs {
						t.Fatalf("cycle %d: sends=%d recvs=%d; want equal", i, tot.Sends, tot.Recvs)
					}
					if i == 0 && tot.Sends == 0 {
						t.Fatal("first cycle recorded no sends")
					}
				}

				stats := ctl.Stats()
				var processed int64
				for _, p := range stats.Processed {
					processed += p
				}
				if processed == 0 {
					t.Fatal("no worker-side activations reported through turn aggregates")
				}

				// A worker's turns as the worker recorded them: back to back,
				// the activations adding up to the workers' own count, one
				// handle event per activation on each worker's track, and
				// every recv joined to a send with its batch id.
				sends := map[int32]bool{}
				for _, tr := range dump.Tracks {
					for _, ev := range tr.Events {
						if ev.Kind == obs.EvSend {
							sends[ev.Batch] = true
						}
					}
				}
				var turnActs int64
				for w, tr := range dump.Tracks[:workers] {
					if tr.Dropped != 0 {
						t.Fatalf("worker %d: the ring dropped %d events", w, tr.Dropped)
					}
					var begin *obs.CausalEvent
					var lastEnd, handles int64
					for i, ev := range tr.Events {
						switch ev.Kind {
						case obs.EvTurnBegin:
							if begin != nil || ev.TS < lastEnd || ev.TS <= 0 {
								t.Fatalf("worker %d: turn begins at %d; last turn ended at %d, open turn %v", w, ev.TS, lastEnd, begin)
							}
							begin = &tr.Events[i]
						case obs.EvTurnEnd:
							if begin == nil || ev.TS < begin.TS || ev.Count < 1 {
								t.Fatalf("worker %d: turn end %+v after begin %v", w, ev, begin)
							}
							begin, lastEnd = nil, ev.TS
							turnActs += int64(ev.Depth)
						case obs.EvHandle:
							handles++
						case obs.EvRecv:
							if !sends[ev.Batch] {
								t.Fatalf("worker %d: recv %+v joins no send", w, ev)
							}
						}
					}
					if begin != nil || lastEnd == 0 {
						t.Fatalf("worker %d: turn left open (%v) or no turn at all", w, begin)
					}
					if handles != stats.Processed[w] {
						t.Fatalf("worker %d: %d handle events, Stats %d", w, handles, stats.Processed[w])
					}
				}
				if turnActs != processed {
					t.Fatalf("turn intervals carry %d activations, Stats %d", turnActs, processed)
				}

				if err := ctl.Close(); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < workers; i++ {
					if err := <-werrs; err != nil {
						t.Fatalf("worker exit: %v", err)
					}
				}
			})
		}
	}
}

// TestControlWorkerDisconnect kills one worker between cycles and
// checks the next Cycle surfaces a runtime error instead of hanging on
// the termination counter.
func TestControlWorkerDisconnect(t *testing.T) {
	const workers = 2
	netw, changes := compileWorkload(t, "blocks")
	ctl, err := Listen(netw, "127.0.0.1:0", ControlOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	// One real worker, one that handshakes and then drops the link.
	go Serve(ctl.Addr(), 5*time.Second)
	droppedConn := make(chan net.Conn, 1)
	go func() {
		conn, err := net.Dial("tcp", ctl.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		ft, payload, err := readFrame(bufio.NewReader(conn))
		if err != nil || ft != ftHello {
			t.Errorf("fake worker handshake: ft=%v err=%v", ft, err)
			conn.Close()
			return
		}
		h, err := decodeHello(payload)
		if err != nil {
			t.Error(err)
			conn.Close()
			return
		}
		var ready enc
		ready.Int(h.id)
		ready.U64(h.net.Digest())
		if err := writeFrame(conn, ftReady, ready.Buf); err != nil {
			t.Error(err)
			conn.Close()
			return
		}
		droppedConn <- conn
	}()
	if err := ctl.WaitWorkers(); err != nil {
		t.Fatal(err)
	}
	// Drop the fake worker's link mid-topology, then drive a cycle.
	(<-droppedConn).Close()

	done := make(chan error, 1)
	go func() {
		_, err := ctl.Cycle(changes)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Cycle succeeded with a dead worker; want a transport error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Cycle hung on a dead worker")
	}

	// The failure is sticky: later cycles fail fast too.
	if _, err := ctl.Cycle(changes); err == nil {
		t.Fatal("Cycle after failure succeeded; want sticky error")
	}
}

// forgingWorker dials the control, handshakes as a real worker would,
// waits for the first delivery, and answers it with the frames forge
// returns for its hello. It then reads until shutdown, or until the
// control hangs up.
func forgingWorker(t *testing.T, addr string, forge func(h hello) []wireFrame) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Error(err)
		return
	}
	defer conn.Close()
	fr := frameReader{r: bufio.NewReader(conn)}
	ft, payload, err := fr.next()
	if err != nil || ft != ftHello {
		t.Errorf("forging worker handshake: ft=%v err=%v", ft, err)
		return
	}
	h, err := decodeHello(payload)
	if err != nil {
		t.Error(err)
		return
	}
	ready := wireFrame{ftReady, func(e *enc) {
		e.Int(h.id)
		e.U64(h.net.Digest())
	}}
	if err := ready.writeTo(conn, nil); err != nil {
		t.Error(err)
		return
	}
	if _, _, err := fr.next(); err != nil {
		return // the test ended before the first cycle
	}
	for _, f := range forge(h) {
		if err := f.writeTo(conn, h.net.Layouts()); err != nil {
			return
		}
	}
	for ft != ftShutdown && err == nil {
		ft, _, err = fr.next()
	}
}

// cycleAgainstForger runs one cycle of a two-worker control whose
// worker 0 answers it with the given frame and whose worker 1 closes
// its turn honestly, so only the forger's frame decides the cycle. It
// returns what Cycle returned; a Cycle that has not returned in ten
// seconds fails the test, and so does a goroutine left behind once the
// control is closed.
func cycleAgainstForger(t *testing.T, network *rete.Network, changes []rete.Change, frame wireFrame) ([]rete.InstChange, error) {
	t.Helper()
	before := runtime.NumGoroutine()
	defer goroutinesSettle(t, before)
	ctl, err := Listen(network, "127.0.0.1:0", ControlOptions{Workers: faultWorkers, NBuckets: faultBuckets})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	for i := 0; i < faultWorkers; i++ {
		go forgingWorker(t, ctl.Addr(), func(h hello) []wireFrame {
			if h.id != 0 {
				return []wireFrame{{ftTurn, func(e *enc) { e.turn(1, &parallel.Turn{}, nil) }}}
			}
			return []wireFrame{frame}
		})
	}
	if err := ctl.WaitWorkers(); err != nil {
		t.Fatal(err)
	}
	type result struct {
		insts []rete.InstChange
		err   error
	}
	done := make(chan result, 1)
	go func() {
		insts, err := ctl.Cycle(changes)
		done <- result{insts, err}
	}()
	select {
	case r := <-done:
		return r.insts, r.err
	case <-time.After(10 * time.Second):
		t.Fatal("Cycle hung on a forged frame")
		return nil, nil
	}
}

// goroutinesSettle fails the test unless the goroutine count comes back
// to what it was before: a refused frame must not strand a reader, a
// worker or a waiter.
func goroutinesSettle(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines live, %d before the forgery", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// turnOf encodes a turn frame closing one message with one Add delta at
// node, its wme positions written by positions, under a declared total
// of total wme positions.
func turnOf(node *rete.Node, total int, positions func(e *enc)) wireFrame {
	return wireFrame{ftTurn, func(e *enc) {
		e.Int(1)   // messages processed
		e.I64(0)   // handled
		e.Count(1) // deltas
		e.Count(total)
		e.Byte(byte(rete.Add))
		e.Int(node.ID)
		positions(e)
		e.Count(0) // loads
	}}
}

// TestControlRejectsBadReferences is the control's side of the fault
// table: worker 0 answers the first cycle with a relay or a turn frame
// whose second wme position lies about the control's table (wmeFaults),
// or is a definition, which no worker sends, or whose delta names a
// node that is no production's terminal, or overruns the array total
// the frame declared. Cycle must return an error wrapping ErrBadPayload
// — not hang on the turn that never closes, and not hand the engine an
// instantiation over stale content.
func TestControlRejectsBadReferences(t *testing.T) {
	network, changes := compileWorkload(t, "blocks")
	// The control registered the cycle's first change at handle 1.
	const h = 1
	w := changes[0].WME
	sn := shapeNodesOf(t, network)
	// turn is a delta of pick-up, three positive condition elements: an
	// exact reference, second, and an exact reference.
	turn := func(node *rete.Node, total int, second func(e *enc, h int32, w *ops5.WME)) wireFrame {
		return turnOf(node, total, func(e *enc) {
			e.Count(3)
			exactRef(e, h, w)
			second(e, h, w)
			exactRef(e, h, w)
		})
	}
	relay := func(second func(e *enc, h int32, w *ops5.WME)) wireFrame {
		return wireFrame{ftRelay, func(e *enc) {
			e.I32(1) // destination: worker 0 is the forger
			e.Count(1)
			e.I32(3) // bucket
			e.I32(2) // depth
			e.Int(sn.join2.ID)
			e.Byte(byte(rete.Left))
			e.Byte(byte(rete.Add))
			e.Bool(true)
			e.Count(2)
			exactRef(e, h, w)
			second(e, h, w)
			e.Byte(wmeNil)
		}}
	}
	// A definition the worker's own mirror would take: the control takes
	// none.
	def := func(e *enc, h int32, w *ops5.WME) { e.def(h, w) }
	type forgery struct {
		name  string
		frame wireFrame
		sound bool
		why   string // what the error must say, where a row pins it
	}
	rows := []forgery{
		{name: "exact", frame: turn(sn.prod3, 3, exactRef), sound: true},
		{name: "turn-node-not-production", frame: turn(sn.join2, 3, exactRef)},
		{name: "turn-overruns-totals", frame: turn(sn.prod3, 2, exactRef)},
		{name: "turn-short-of-totals", frame: turn(sn.prod3, 4, exactRef)},
		{name: "turn-definition", frame: turn(sn.prod3, 3, def), why: "definition from a worker"},
		{name: "relay-definition", frame: relay(def), why: "definition from a worker"},
	}
	for _, f := range wmeFaults {
		rows = append(rows,
			forgery{name: "turn-" + f.name, frame: turn(sn.prod3, 3, f.bad)},
			forgery{name: "relay-" + f.name, frame: relay(f.bad)})
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			insts, err := cycleAgainstForger(t, network, changes, row.frame)
			switch {
			case row.sound && (err != nil || len(insts) != 1 || insts[0].WMEs[0] != insts[0].WMEs[1] || insts[0].WMEs[1] != insts[0].WMEs[2]):
				t.Fatalf("sound turn: insts=%v err=%v, want one delta over the control's one wme", insts, err)
			case !row.sound && (!errors.Is(err, ErrBadPayload) || !strings.Contains(err.Error(), row.why)):
				t.Fatalf("Cycle returned %v, want ErrBadPayload: ... %s", err, row.why)
			}
		})
	}
}

// TestRingOverflowKeepsAggregates: a worker records into a ring of the
// control's capacity and hands over at most that many events a turn,
// the newest — but always the turn's whole aggregate, so the per-cycle
// aggregates of a run on a 64-entry ring, whose longest turn overflows
// it, equal those of the same run on the default ring.
func TestRingOverflowKeepsAggregates(t *testing.T) {
	const workers, ring = 2, 64
	network, changes := compileWorkload(t, "queens")
	run := func(ringCap int) *obs.FlightDump {
		rt, err := parallel.New(network, parallel.Options{
			Workers:   workers,
			Transport: NewLoopback(network),
			Causal:    parallel.NewFlightRecorder(workers, ringCap, 0, 0),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		for _, cycle := range [][]rete.Change{changes, {{Tag: rete.Delete, WME: changes[0].WME}}} {
			if _, err := rt.Cycle(cycle); err != nil {
				t.Fatal(err)
			}
		}
		return rt.FlightDump()
	}
	full, small := run(0), run(ring)
	longest := 0 // events, turn begin to turn end
	for _, tr := range full.Tracks[:workers] {
		begin := 0
		for i, ev := range tr.Events {
			switch ev.Kind {
			case obs.EvTurnBegin:
				begin = i
			case obs.EvTurnEnd:
				longest = max(longest, i-begin+1)
			}
		}
	}
	if longest <= ring {
		t.Fatalf("the longest turn records %d events, which a %d-entry ring holds", longest, ring)
	}
	if len(full.Cycles) != 2 || len(small.Cycles) != 2 {
		t.Fatalf("%d and %d cycle records, want 2", len(full.Cycles), len(small.Cycles))
	}
	for i := range full.Cycles {
		if got, want := fmt.Sprint(small.Cycles[i].PerTrack), fmt.Sprint(full.Cycles[i].PerTrack); got != want {
			t.Errorf("cycle %d aggregates on a %d-entry ring:\n %s\nwant, as on the default ring:\n %s", i+1, ring, got, want)
		}
	}
}
