package simnet

import (
	"testing"

	"mpcrete/internal/obs"
)

// TestIdleGapHistogram checks the per-processor idle-gap accounting on
// a hand-built two-processor schedule:
//
//	proc 0: busy [0,10], idle (10,20), busy [20,30], idle (30,35), busy [35,40]
//	proc 1: busy [5,15] only — no gaps
func TestIdleGapHistogram(t *testing.T) {
	s := closureSim(Config{Procs: 2})
	work := func(d Time) closureTask {
		return closureTask(func(ctx *Ctx) { ctx.Busy(d) })
	}
	s.Inject(0, work(US(10)), 0)
	s.Inject(0, work(US(10)), US(20))
	s.Inject(0, work(US(5)), US(35))
	s.Inject(1, work(US(10)), US(5))
	s.Run()
	st := s.Stats()

	p0 := st.Procs[0]
	if p0.IdleGaps != 2 {
		t.Errorf("proc 0 idle gaps = %d, want 2", p0.IdleGaps)
	}
	if p0.IdleGapMax != US(10) {
		t.Errorf("proc 0 max gap = %vµs, want 10", p0.IdleGapMax.Microseconds())
	}
	if p0.IdleGapTotal != US(15) {
		t.Errorf("proc 0 gap total = %vµs, want 15", p0.IdleGapTotal.Microseconds())
	}
	p1 := st.Procs[1]
	if p1.IdleGaps != 0 || p1.IdleGapMax != 0 {
		t.Errorf("proc 1 gaps = %+v, want none (leading/trailing idle is not a gap)", p1)
	}
	if gaps, max := st.IdleGapSummary(); gaps != 2 || max != US(10) {
		t.Errorf("summary = (%d, %vµs), want (2, 10)", gaps, max.Microseconds())
	}
}

// TestIdleGapIgnoresZeroWorkTasks: a zero-busy task in the middle of
// an idle interval must not split the gap in two.
func TestIdleGapIgnoresZeroWorkTasks(t *testing.T) {
	s := closureSim(Config{Procs: 1})
	work := func(d Time) closureTask {
		return closureTask(func(ctx *Ctx) { ctx.Busy(d) })
	}
	s.Inject(0, work(US(10)), 0)
	s.Inject(0, work(0), US(15)) // bookkeeping task, no busy time
	s.Inject(0, work(US(10)), US(30))
	s.Run()
	p := s.Stats().Procs[0]
	if p.IdleGaps != 1 || p.IdleGapMax != US(20) {
		t.Errorf("gaps = %d max = %vµs, want 1 gap of 20µs", p.IdleGaps, p.IdleGapMax.Microseconds())
	}
}

// TestRecorderSpans checks the flight events of a two-processor run:
// the turns sum to the busy total, each carrying the messages it
// consumed and the activations it handled, and one message is a send at
// departure and a receive at arrival, on the tracks the processors were
// given, joined by one stamp.
func TestRecorderSpans(t *testing.T) {
	cfg := Config{Procs: 2, SendOverhead: US(5), RecvOverhead: US(3), Latency: US(0.5)}
	s := closureSim(cfg)
	rec := obs.NewCausalRecorder(2, 64, 0, 8)
	s.SetRecorder(rec, []int32{1, 0})

	recv := closureTask(func(ctx *Ctx) {
		ctx.Handle(7, 2, 0)
		ctx.Busy(US(2))
	})
	s.Inject(0, closureTask(func(ctx *Ctx) {
		ctx.Handle(3, 1, 1)
		ctx.Busy(US(10))
		ctx.Send(1, recv)
	}), 0)
	s.Run()
	st := s.Stats()

	d := rec.Dump()
	var busy int64
	var send, recvEv obs.CausalEvent
	for _, td := range d.Tracks {
		var begin int64
		for _, e := range td.Events {
			switch e.Kind {
			case obs.EvTurnBegin:
				begin = e.TS
			case obs.EvTurnEnd:
				busy += e.TS - begin
			case obs.EvSend:
				send = e
			case obs.EvRecv:
				recvEv = e
			}
		}
	}
	if busy != int64(st.BusyTotal()) {
		t.Errorf("turns last %d ns, busy total %d", busy, int64(st.BusyTotal()))
	}
	// Processor 0 records on track 1: its one turn consumed no message
	// and handled one activation; processor 1's turn consumed the message.
	sender, receiver := d.Tracks[1].Events, d.Tracks[0].Events
	if end := sender[len(sender)-1]; end.Kind != obs.EvTurnEnd || end.Count != 0 || end.Depth != 1 {
		t.Errorf("sender's last event %+v, want a turn end with 0 messages and 1 activation", end)
	}
	if end := receiver[len(receiver)-1]; end.Kind != obs.EvTurnEnd || end.Count != 1 || end.Depth != 1 {
		t.Errorf("receiver's last event %+v, want a turn end with 1 message and 1 activation", end)
	}
	if send.Batch == 0 || recvEv.Batch != send.Batch || send.Dst != 0 || recvEv.Src != 1 {
		t.Errorf("send %+v and receive %+v are not one message from track 1 to track 0", send, recvEv)
	}
	if send.TS != int64(US(15)) || recvEv.TS-send.TS != int64(US(0.5)) {
		t.Errorf("send at %d, receive at %d; want 15 µs and the latency after", send.TS, recvEv.TS)
	}
	if agg := d.Cycles; len(agg) != 0 {
		t.Errorf("simnet committed %d cycle records; cycles are its client's", len(agg))
	}
}

// TestMaxQueueDepth: of three simultaneous tasks on one processor the
// first starts immediately, leaving two queued at the high-water mark.
func TestMaxQueueDepth(t *testing.T) {
	s := closureSim(Config{Procs: 1})
	for i := 0; i < 3; i++ {
		s.Inject(0, closureTask(func(ctx *Ctx) { ctx.Busy(US(1)) }), 0)
	}
	s.Run()
	if d := s.Stats().Procs[0].MaxQueueDepth; d != 2 {
		t.Errorf("max queue depth = %d, want 2", d)
	}
}
