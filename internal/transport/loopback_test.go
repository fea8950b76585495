package transport

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"testing"

	"mpcrete/internal/obs"
	"mpcrete/internal/ops5"
	"mpcrete/internal/parallel"
	"mpcrete/internal/rete"
	"mpcrete/internal/workloads"
)

// compileWorkload compiles a named workload and returns its network
// plus the initial changes.
func compileWorkload(t *testing.T, name string) (*rete.Network, []rete.Change) {
	t.Helper()
	wl, err := workloads.Named(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ops5.ParseProgram(wl.Program)
	if err != nil {
		t.Fatal(err)
	}
	wmes, err := ops5.ParseWMEs(wl.WMEs)
	if err != nil {
		t.Fatal(err)
	}
	net, err := rete.Compile(prog.Productions)
	if err != nil {
		t.Fatal(err)
	}
	changes := make([]rete.Change, len(wmes))
	for i, w := range wmes {
		w.ID, w.TimeTag = i+1, i+1
		changes[i] = rete.Change{Tag: rete.Add, WME: w}
	}
	return net, changes
}

// netKeys nets one match phase's deltas by Key and sorts them, as
// difftest's script runs do: "+key" for a net add, "-key" for a net
// delete. Two runtimes agree on a phase when their netKeys are equal,
// whatever order each received its workers' turns in.
func netKeys(deltas []rete.InstChange) []string {
	net := map[string]int{}
	for _, ic := range deltas {
		if ic.Tag == rete.Add {
			net[ic.Key()]++
		} else {
			net[ic.Key()]--
		}
	}
	var keys []string
	for k, n := range net {
		switch {
		case n > 0:
			keys = append(keys, "+"+k)
		case n < 0:
			keys = append(keys, "-"+k)
		}
	}
	slices.Sort(keys)
	return keys
}

// TestLoopbackParity is the parallel.New + Options.Transport wiring:
// the star run in one process against the in-process mailboxes — same
// network, same changes, the same deltas once netted, in both
// broadcast and routed-roots modes — with the work done by the socket
// workers counted in the runtime's Stats.
func TestLoopbackParity(t *testing.T) {
	for _, wl := range []string{"blocks", "rubik-like"} {
		for _, routed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/routed=%v", wl, routed), func(t *testing.T) {
				net, changes := compileWorkload(t, wl)
				ref, err := parallel.New(net, parallel.Options{Workers: 2, RouteRoots: routed})
				if err != nil {
					t.Fatal(err)
				}
				defer ref.Close()
				tcp, err := parallel.New(net, parallel.Options{
					Workers: 2, RouteRoots: routed, Transport: NewLoopback(net),
				})
				if err != nil {
					t.Fatal(err)
				}
				defer tcp.Close()

				has := map[string]bool{}
				want := netKeys(ref.Apply(changes))
				raw := tcp.Apply(changes)
				foldInsts(t, has, raw)
				got := netKeys(raw)
				if len(want) == 0 {
					t.Fatalf("workload %s produced no instantiations; vacuous test", wl)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("conflict sets diverge\n tcp: %v\n ref: %v", got, want)
				}

				// Deletions must net against the stored state too.
				del := []rete.Change{{Tag: rete.Delete, WME: changes[0].WME}}
				want = netKeys(ref.Apply(del))
				raw = tcp.Apply(del)
				foldInsts(t, has, raw)
				got = netKeys(raw)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("deletion cycle diverges\n tcp: %v\n ref: %v", got, want)
				}
				for w, n := range tcp.Stats().Processed {
					if n == 0 {
						t.Errorf("worker %d performed no activation", w)
					}
				}
			})
		}
	}
}

// TestLoopbackStamps verifies causal batch stamps survive the wire:
// with a flight recorder attached, the per-cycle aggregates of a
// loopback run account every sent message as received, and every
// worker track brackets its turns.
func TestLoopbackStamps(t *testing.T) {
	net, changes := compileWorkload(t, "blocks")
	causal := parallel.NewFlightRecorder(2, 0, 0, rete.DefaultNBuckets)
	rt, err := parallel.New(net, parallel.Options{
		Workers: 2, Transport: NewLoopback(net), Causal: causal,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.Apply(changes)
	dump := rt.FlightDump()
	if len(dump.Cycles) != 1 {
		t.Fatalf("got %d cycle records, want 1", len(dump.Cycles))
	}
	tot := dump.Cycles[0].Total()
	if tot.Sends == 0 || tot.Sends != tot.Recvs {
		t.Fatalf("cycle aggregate sends=%d recvs=%d; want equal and nonzero", tot.Sends, tot.Recvs)
	}
	// Each recv event must carry a stamp that joins a send event.
	sends := map[int32]bool{}
	for _, tr := range dump.Tracks {
		for _, ev := range tr.Events {
			if ev.Kind == obs.EvSend && ev.Batch != 0 {
				sends[ev.Batch] = true
			}
		}
	}
	recvs := 0
	for _, tr := range dump.Tracks {
		for _, ev := range tr.Events {
			if ev.Kind == obs.EvRecv {
				recvs++
				if !sends[ev.Batch] {
					t.Fatalf("recv stamp %d has no matching send", ev.Batch)
				}
			}
		}
	}
	if recvs == 0 {
		t.Fatal("no recv events recorded")
	}
	// Every worker's turns are intervals: a begin, then an end no earlier.
	for w, tr := range dump.Tracks[:2] {
		var begin, turns int64 = -1, 0
		for _, ev := range tr.Events {
			switch ev.Kind {
			case obs.EvTurnBegin:
				begin = ev.TS
			case obs.EvTurnEnd:
				if begin < 0 || ev.TS < begin {
					t.Fatalf("worker %d: turn end at %d without a begin before it (%d)", w, ev.TS, begin)
				}
				begin = -1
				turns++
			}
		}
		if turns == 0 {
			t.Errorf("worker %d recorded no turn", w)
		}
	}
}

// garbleShutdown rewrites the one frame a Control writes at Close, the
// shutdown, into a frame of the reserved type 3.
type garbleShutdown struct{ net.Conn }

func (c garbleShutdown) Write(p []byte) (int, error) {
	if len(p) == frameHeader && frameType(p[4]) == ftShutdown {
		p = append([]byte(nil), p...)
		p[4] = 3
	}
	return c.Conn.Write(p)
}

// TestLoopbackWorkerErrorAfterClose: a worker loop that ends in an
// error rather than at the shutdown frame is not lost with it. Worker
// 0 reads a frame of the reserved type where the shutdown should be;
// after Close the driver's sticky Err says so.
func TestLoopbackWorkerErrorAfterClose(t *testing.T) {
	net, changes := compileWorkload(t, "blocks")
	ctl, stop, err := NewLoopback(net).open(parallel.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if _, err := ctl.Cycle(changes); err != nil {
		t.Fatal(err)
	}
	cc := ctl.conns[0]
	cc.mu.Lock()
	cc.c = garbleShutdown{cc.c}
	cc.mu.Unlock()
	stop()
	if err := ctl.Err(); !errors.Is(err, ErrUnknownFrameType) || !strings.Contains(err.Error(), "worker 0") {
		t.Fatalf("Err after Close = %v, want worker 0's ErrUnknownFrameType", err)
	}
}

// TestLoopbackWorkerErrorReachesTheRun: a worker that fails its turn
// fails the run with its own error. Worker 1 is handed an acts frame
// whose bucket is outside the topology's; the next cycle's error is the
// worker's ErrBadPayload, naming its turn, not the control's EOF on the
// connection the worker closed.
func TestLoopbackWorkerErrorReachesTheRun(t *testing.T) {
	net, changes := compileWorkload(t, "blocks")
	ctl, stop, err := NewLoopback(net).open(parallel.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if _, err := ctl.Cycle(changes); err != nil {
		t.Fatal(err)
	}
	err = ctl.conns[1].write(ftActs, func(e *enc) {
		e.I32(0)
		e.I32(2)
		e.Count(1)
		e.I32(1 << 20) // bucket
	})
	if err != nil {
		t.Fatal(err)
	}
	del := []rete.Change{{Tag: rete.Delete, WME: changes[0].WME}}
	_, err = ctl.Cycle(del)
	if !errors.Is(err, ErrBadPayload) || !strings.Contains(err.Error(), "worker 1 acts turn") || !strings.Contains(err.Error(), "bucket 1048576") {
		t.Fatalf("Cycle after worker 1 failed its turn = %v, want worker 1's ErrBadPayload naming its acts turn and the bucket", err)
	}
	if err := ctl.Err(); err == nil || strings.Contains(err.Error(), "EOF") {
		t.Fatalf("the run's Err = %v, want the worker's own error", err)
	}
}

// rightAct builds a minimal right activation for plumbing tests.
func rightAct(net *rete.Network) rete.Activation {
	var node *rete.Node
	for _, n := range net.Nodes {
		if len(n.Succs) == 0 && n.Kind != rete.KindProduction {
			node = n
			break
		}
	}
	if node == nil {
		node = net.Nodes[0]
	}
	return rete.Activation{
		Node: node,
		Side: rete.Right,
		Tag:  rete.Add,
		WME:  probeHandle,
	}
}

// probeWME is rightAct's wme, at probeHandle in fixtureTable.
func probeWME() *ops5.WME {
	w := ops5.NewWME("probe", "v", ops5.N(1))
	w.ID, w.TimeTag = 6, 10
	return w
}
