package simnet

import (
	"testing"
)

// run builds a sim whose payloads are closures and executes it.
type closureTask func(ctx *Ctx)

func closureSim(cfg Config) *Sim {
	return New(cfg, func(ctx *Ctx, p Payload) { p.(closureTask)(ctx) })
}

func TestSingleProcessorSerializes(t *testing.T) {
	s := closureSim(Config{Procs: 1})
	for i := 0; i < 3; i++ {
		s.Inject(0, closureTask(func(ctx *Ctx) { ctx.Busy(US(10)) }), 0)
	}
	end := s.Run()
	if end != US(30) {
		t.Errorf("makespan = %v, want 30µs", end.Microseconds())
	}
	st := s.Stats()
	if st.Procs[0].Busy != US(30) || st.Procs[0].Tasks != 3 {
		t.Errorf("proc stats = %+v", st.Procs[0])
	}
}

func TestTwoProcessorsRunInParallel(t *testing.T) {
	s := closureSim(Config{Procs: 2})
	s.Inject(0, closureTask(func(ctx *Ctx) { ctx.Busy(US(10)) }), 0)
	s.Inject(1, closureTask(func(ctx *Ctx) { ctx.Busy(US(10)) }), 0)
	if end := s.Run(); end != US(10) {
		t.Errorf("makespan = %v, want 10µs", end.Microseconds())
	}
}

func TestMessageTiming(t *testing.T) {
	cfg := Config{Procs: 2, SendOverhead: US(5), RecvOverhead: US(3), Latency: US(0.5), TrackNetwork: true}
	s := closureSim(cfg)
	var receivedAt Time
	recv := closureTask(func(ctx *Ctx) {
		receivedAt = ctx.Now() // after recv overhead
		ctx.Busy(US(2))
	})
	s.Inject(0, closureTask(func(ctx *Ctx) {
		ctx.Busy(US(10)) // compute
		ctx.Send(1, recv)
		ctx.Busy(US(1)) // post-send work
	}), 0)
	end := s.Run()
	// Departure at 10+5=15, arrival 15.5, recv overhead 3 -> task body
	// at 18.5, done 20.5. Sender done at 16.
	if receivedAt != US(18.5) {
		t.Errorf("receive time = %vµs, want 18.5", receivedAt.Microseconds())
	}
	if end != US(20.5) {
		t.Errorf("makespan = %vµs, want 20.5", end.Microseconds())
	}
	st := s.Stats()
	if st.Procs[0].SendOverhead != US(5) || st.Procs[0].MsgsOut != 1 {
		t.Errorf("sender stats = %+v", st.Procs[0])
	}
	if st.Procs[1].RecvOverhead != US(3) || st.Procs[1].MsgsIn != 1 {
		t.Errorf("receiver stats = %+v", st.Procs[1])
	}
	if st.Messages != 1 {
		t.Errorf("messages = %d", st.Messages)
	}
	if st.NetworkBusy != US(0.5) {
		t.Errorf("network busy = %vµs", st.NetworkBusy.Microseconds())
	}
}

func TestZeroOverheadMessaging(t *testing.T) {
	s := closureSim(Config{Procs: 2})
	done := false
	s.Inject(0, closureTask(func(ctx *Ctx) {
		ctx.Send(1, closureTask(func(ctx *Ctx) { done = true }))
	}), 0)
	if end := s.Run(); end != 0 {
		t.Errorf("makespan = %v, want 0 with all-zero costs", end)
	}
	if !done {
		t.Error("message not delivered")
	}
}

func TestBroadcastHardwareVsSoftware(t *testing.T) {
	runBcast := func(software bool) (Time, Time) {
		cfg := Config{Procs: 4, SendOverhead: US(5), RecvOverhead: US(3), Latency: US(0.5), SoftwareBroadcast: software}
		s := closureSim(cfg)
		s.Inject(0, closureTask(func(ctx *Ctx) {
			ctx.Broadcast([]int{1, 2, 3}, closureTask(func(ctx *Ctx) { ctx.Busy(US(1)) }))
		}), 0)
		end := s.Run()
		return end, s.Stats().Procs[0].SendOverhead
	}
	endHW, sendHW := runBcast(false)
	// One overhead: depart 5, arrive 5.5, recv 3, busy 1 -> 9.5.
	if endHW != US(9.5) || sendHW != US(5) {
		t.Errorf("hardware broadcast end=%v send=%v", endHW.Microseconds(), sendHW.Microseconds())
	}
	endSW, sendSW := runBcast(true)
	// Serialized departures at 5,10,15; last arrival 15.5 +3 +1 = 19.5.
	if endSW != US(19.5) || sendSW != US(15) {
		t.Errorf("software broadcast end=%v send=%v", endSW.Microseconds(), sendSW.Microseconds())
	}
}

func TestFIFOOrderPreserved(t *testing.T) {
	s := closureSim(Config{Procs: 1})
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Inject(0, closureTask(func(ctx *Ctx) {
			order = append(order, i)
			ctx.Busy(US(1))
		}), 0)
	}
	s.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestLocalFollowOnTask(t *testing.T) {
	s := closureSim(Config{Procs: 1})
	var childStart Time
	s.Inject(0, closureTask(func(ctx *Ctx) {
		ctx.Busy(US(4))
		ctx.Local(closureTask(func(ctx *Ctx) {
			childStart = ctx.Now()
			ctx.Busy(US(1))
		}))
		ctx.Busy(US(6)) // parent continues after emitting
	}), 0)
	end := s.Run()
	if childStart != US(10) {
		t.Errorf("child start = %vµs, want 10 (after parent completes)", childStart.Microseconds())
	}
	if end != US(11) {
		t.Errorf("makespan = %vµs", end.Microseconds())
	}
}

func TestRunResumesAcrossPhases(t *testing.T) {
	s := closureSim(Config{Procs: 2})
	s.Inject(0, closureTask(func(ctx *Ctx) { ctx.Busy(US(7)) }), 0)
	if end := s.Run(); end != US(7) {
		t.Fatalf("phase 1 end = %v", end.Microseconds())
	}
	// Inject the next phase at the current clock.
	s.Inject(1, closureTask(func(ctx *Ctx) { ctx.Busy(US(5)) }), s.Now())
	if end := s.Run(); end != US(12) {
		t.Errorf("phase 2 end = %v, want 12", end.Microseconds())
	}
}

func TestInjectInPastPanics(t *testing.T) {
	s := closureSim(Config{Procs: 1})
	s.Inject(0, closureTask(func(ctx *Ctx) { ctx.Busy(US(5)) }), 0)
	s.Run()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for inject in the past")
		}
	}()
	s.Inject(0, closureTask(func(ctx *Ctx) {}), 0)
}

func TestNetworkBusyMerging(t *testing.T) {
	// Two overlapping flights and one disjoint: [0,4],[2,6],[10,11].
	got := mergeFlights([]flight{{0, 4}, {2, 6}, {10, 11}})
	if got != 7 {
		t.Errorf("merged = %d, want 7", got)
	}
	if mergeFlights(nil) != 0 {
		t.Error("empty merge should be 0")
	}
	// Identical intervals collapse.
	if mergeFlights([]flight{{5, 6}, {5, 6}, {5, 6}}) != 1 {
		t.Error("identical intervals should merge to length 1")
	}
}

// TestTrackNetworkOptIn pins the gating: without TrackNetwork the
// send path keeps no flight records and Stats reports zero occupancy.
func TestTrackNetworkOptIn(t *testing.T) {
	s := closureSim(Config{Procs: 2, Latency: US(0.5)})
	s.Inject(0, closureTask(func(ctx *Ctx) {
		ctx.Send(1, closureTask(func(ctx *Ctx) {}))
	}), 0)
	s.Run()
	st := s.Stats()
	if st.NetworkBusy != 0 {
		t.Errorf("untracked NetworkBusy = %v, want 0", st.NetworkBusy)
	}
	if st.Messages != 1 {
		t.Errorf("messages = %d", st.Messages)
	}
	if len(s.net.open) != 0 {
		t.Errorf("untracked run buffered %d flights", len(s.net.open))
	}
}

// TestNetAcctBoundedMatchesReference drives the incremental accountant
// past several compaction thresholds with unsorted, overlapping
// flights and checks it against the one-shot reference while its
// buffer stays bounded.
func TestNetAcctBoundedMatchesReference(t *testing.T) {
	var acct netAcct
	var all []flight
	// A deterministic pseudo-random walk: now advances monotonically,
	// departures land in [now, now+40), lengths in [1, 50).
	rnd := uint64(1)
	next := func(n uint64) Time {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		return Time(rnd % n)
	}
	var now Time
	for i := 0; i < 3*netCompactAt; i++ {
		now += next(3)
		dep := now + next(40)
		f := flight{dep, dep + 1 + next(49)}
		all = append(all, f)
		acct.add(f, now)
		if len(acct.open) > netCompactAt {
			t.Fatalf("open buffer grew to %d (threshold %d)", len(acct.open), netCompactAt)
		}
	}
	if got, want := acct.total(now), mergeFlights(all); got != want {
		t.Errorf("incremental union = %d, reference = %d", got, want)
	}
}

func TestDeterminism(t *testing.T) {
	build := func() Time {
		s := closureSim(Config{Procs: 4, SendOverhead: US(2), RecvOverhead: US(1), Latency: US(0.5)})
		var spawn closureTask
		depth := 0
		spawn = func(ctx *Ctx) {
			ctx.Busy(US(3))
			depth++
			if depth < 20 {
				ctx.Send((ctx.Proc()+1)%4, spawn)
				ctx.Send((ctx.Proc()+2)%4, closureTask(func(ctx *Ctx) { ctx.Busy(US(1)) }))
			}
		}
		s.Inject(0, spawn, 0)
		return s.Run()
	}
	a, b := build(), build()
	if a != b {
		t.Errorf("nondeterministic makespan: %v vs %v", a, b)
	}
}

func TestStatsUtilization(t *testing.T) {
	s := closureSim(Config{Procs: 2})
	s.Inject(0, closureTask(func(ctx *Ctx) { ctx.Busy(US(10)) }), 0)
	s.Inject(1, closureTask(func(ctx *Ctx) { ctx.Busy(US(5)) }), 0)
	s.Run()
	st := s.Stats()
	if got := st.AvgUtilization(); got != 0.75 {
		t.Errorf("utilization = %v, want 0.75", got)
	}
	if got := st.NetworkIdleFraction(); got != 1 {
		t.Errorf("network idle = %v, want 1 (no messages)", got)
	}
	if st.BusyTotal() != US(15) {
		t.Errorf("busy total = %v", st.BusyTotal().Microseconds())
	}
}
