package simnet

import "testing"

// TestEventLoopAllocationFree pins the tentpole property of the event
// loop: once the event queue and pending rings are warm, an
// uninstrumented simulation (no recorder, no network tracking)
// performs zero heap allocations — events are keys and slab bodies,
// tasks live in rings, and the Ctx is reused — and so does the Reset
// that starts the next one.
func TestEventLoopAllocationFree(t *testing.T) {
	type ping struct{ n int }
	cfg := Config{Procs: 2, SendOverhead: US(2), RecvOverhead: US(1), Latency: US(0.5)}
	handler := func(ctx *Ctx, p Payload) {
		pg := p.(*ping)
		ctx.Busy(US(3))
		if pg.n > 0 {
			pg.n--
			ctx.Send(1-ctx.Proc(), pg)
		}
	}
	s := New(cfg, handler)
	msg := &ping{}
	var want Time
	run := func() {
		s.Reset(cfg, handler)
		msg.n = 200
		s.Inject(0, msg, 0)
		if end := s.Run(); want != 0 && end != want {
			t.Fatalf("run after Reset ends at %d, first run at %d", end, want)
		}
	}
	run() // warm the queue and the rings
	want = s.Now()
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("event loop allocates %.1f objects per 200-message run, want 0", allocs)
	}
}

// TestEventLoopBoundedAllocsWithTracking checks the bounded accounting
// path: with TrackNetwork set, steady-state allocations stay O(1) per
// run (the compaction buffer is reused), not O(messages).
func TestEventLoopBoundedAllocsWithTracking(t *testing.T) {
	type ping struct{ n int }
	s := New(Config{Procs: 2, Latency: US(0.5), TrackNetwork: true},
		func(ctx *Ctx, p Payload) {
			pg := p.(*ping)
			ctx.Busy(US(3))
			if pg.n > 0 {
				pg.n--
				ctx.Send(1-ctx.Proc(), pg)
			}
		})
	msg := &ping{}
	run := func() {
		msg.n = 2 * netCompactAt // force several compactions over the test
		s.Inject(0, msg, s.Now())
		s.Run()
	}
	run()
	if allocs := testing.AllocsPerRun(5, run); allocs > 1 {
		t.Errorf("tracked event loop allocates %.1f objects per %d-message run, want <= 1", allocs, 2*netCompactAt)
	}
}
