package simnet

import (
	"testing"
)

func TestRouteEnumeration(t *testing.T) {
	cases := []struct {
		topo     Topology
		from, to int
		want     []Link
	}{
		{Crossbar{}, 2, 2, nil},
		{Crossbar{}, 1, 3, []Link{{-1, 3}}},
		{Mesh2D{W: 3, H: 2}, 0, 5, []Link{{0, 1}, {1, 2}, {2, 5}}}, // x first, then y
		{Hypercube{}, 0, 5, []Link{{0, 1}, {1, 5}}},                // bits 0 then 2
		{Ring{N: 5}, 4, 1, []Link{{4, 0}, {0, 1}}},                 // wraps forward
		{Ring{N: 5}, 0, 4, []Link{{0, 4}}},                         // shorter backward
	}
	for _, c := range cases {
		got := c.topo.Route(c.from, c.to, nil)
		if len(got) != len(c.want) {
			t.Errorf("%s.Route(%d,%d) = %v, want %v", c.topo.Name(), c.from, c.to, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s.Route(%d,%d)[%d] = %v, want %v", c.topo.Name(), c.from, c.to, i, got[i], c.want[i])
			}
		}
	}
}

func TestContentionSerializesSharedLink(t *testing.T) {
	// Ring of 3: both messages 0->1 use link (0,1); with PerHop 10µs
	// the second is delayed by 10µs.
	cfg := Config{
		Procs:      3,
		Latency:    US(1),
		Topology:   Ring{N: 3},
		PerHop:     US(10),
		Contention: true,
	}
	s := closureSim(cfg)
	var arrivals []Time
	recv := closureTask(func(ctx *Ctx) { arrivals = append(arrivals, ctx.Now()) })
	s.Inject(0, closureTask(func(ctx *Ctx) {
		ctx.Send(1, recv)
		ctx.Send(1, recv)
	}), 0)
	s.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	// First: dep 0, link busy 0-10, +1 latency = 11.
	// Second: dep 0, waits for link until 10, 10-20, +1 = 21.
	if arrivals[0] != US(11) || arrivals[1] != US(21) {
		t.Errorf("arrivals = %v µs, want [11 21]", []float64{arrivals[0].Microseconds(), arrivals[1].Microseconds()})
	}
	st := s.Stats()
	if st.ContentionDelay != US(10) {
		t.Errorf("contention delay = %vµs, want 10", st.ContentionDelay.Microseconds())
	}
}

func TestContentionDisjointLinksDoNotInterfere(t *testing.T) {
	cfg := Config{
		Procs:      4,
		Latency:    US(1),
		Topology:   Ring{N: 4},
		PerHop:     US(10),
		Contention: true,
	}
	s := closureSim(cfg)
	var a1, a3 Time
	s.Inject(0, closureTask(func(ctx *Ctx) {
		ctx.Send(1, closureTask(func(ctx *Ctx) { a1 = ctx.Now() })) // link (0,1)
		ctx.Send(3, closureTask(func(ctx *Ctx) { a3 = ctx.Now() })) // link (0,3)
	}), 0)
	s.Run()
	if a1 != US(11) || a3 != US(11) {
		t.Errorf("arrivals = %v/%v µs, want 11/11 (disjoint links)", a1.Microseconds(), a3.Microseconds())
	}
	if d := s.Stats().ContentionDelay; d != 0 {
		t.Errorf("contention delay = %v, want 0", d)
	}
}

func TestContentionMultiHopPipeline(t *testing.T) {
	// 1x4 mesh, 0 -> 3 traverses three links back to back.
	cfg := Config{
		Procs:      4,
		Latency:    0,
		Topology:   Mesh2D{W: 4, H: 1},
		PerHop:     US(5),
		Contention: true,
	}
	s := closureSim(cfg)
	var at Time
	s.Inject(0, closureTask(func(ctx *Ctx) {
		ctx.Send(3, closureTask(func(ctx *Ctx) { at = ctx.Now() }))
	}), 0)
	s.Run()
	if at != US(15) {
		t.Errorf("arrival = %vµs, want 15 (3 links x 5µs)", at.Microseconds())
	}
}

func TestContentionRequiresRoutedTopology(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for contention without topology")
		}
	}()
	New(Config{Procs: 2, Contention: true}, func(ctx *Ctx, p Payload) {})
}

func TestContentionDeterministic(t *testing.T) {
	run := func() Time {
		cfg := Config{
			Procs:        8,
			Latency:      US(0.5),
			Topology:     Mesh2D{W: 4, H: 2},
			PerHop:       US(2),
			Contention:   true,
			SendOverhead: US(1),
			RecvOverhead: US(1),
		}
		s := closureSim(cfg)
		var spread closureTask
		n := 0
		spread = func(ctx *Ctx) {
			ctx.Busy(US(3))
			n++
			if n < 40 {
				ctx.Send((ctx.Proc()+3)%8, spread)
				ctx.Send((ctx.Proc()+5)%8, closureTask(func(ctx *Ctx) { ctx.Busy(US(1)) }))
			}
		}
		s.Inject(0, spread, 0)
		return s.Run()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic under contention: %v vs %v", a, b)
	}
}
