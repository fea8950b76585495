package simnet

import "testing"

// TestTopologyHops reads each topology's network distance as the length
// of its route.
func TestTopologyHops(t *testing.T) {
	cases := []struct {
		topo     Topology
		from, to int
		want     int
	}{
		{Crossbar{}, 0, 0, 0},
		{Crossbar{}, 3, 9, 1},
		{Mesh2D{W: 4, H: 4}, 0, 15, 6}, // (0,0)->(3,3)
		{Mesh2D{W: 4, H: 4}, 5, 6, 1},  // (1,1)->(2,1)
		{Mesh2D{W: 4, H: 4}, 2, 2, 0},  // self
		{Hypercube{}, 0, 7, 3},         // 000 -> 111
		{Hypercube{}, 5, 6, 2},         // 101 -> 110
		{Hypercube{}, 4, 4, 0},         // self
		{Ring{N: 8}, 0, 3, 3},          // forward
		{Ring{N: 8}, 0, 6, 2},          // backward is shorter
		{Ring{N: 8}, 1, 1, 0},          // self
	}
	for _, c := range cases {
		if got := len(c.topo.Route(c.from, c.to, nil)); got != c.want {
			t.Errorf("%s route (%d,%d) has %d hops, want %d", c.topo.Name(), c.from, c.to, got, c.want)
		}
	}
}

func TestTopologySymmetry(t *testing.T) {
	topos := []Topology{Crossbar{}, Mesh2D{W: 5, H: 3}, Hypercube{}, Ring{N: 15}}
	for _, topo := range topos {
		for a := 0; a < 15; a++ {
			for b := 0; b < 15; b++ {
				hops := len(topo.Route(a, b, nil))
				if hops != len(topo.Route(b, a, nil)) {
					t.Errorf("%s not symmetric at (%d,%d)", topo.Name(), a, b)
				}
				if a == b && hops != 0 {
					t.Errorf("%s: self distance nonzero at %d", topo.Name(), a)
				}
			}
		}
	}
}

func TestPerHopLatencyAffectsDelivery(t *testing.T) {
	// Two processors 6 hops apart in a 4x4 mesh; per-hop 10µs.
	cfg := Config{
		Procs:    16,
		Latency:  US(1),
		Topology: Mesh2D{W: 4, H: 4},
		PerHop:   US(10),
	}
	s := closureSim(cfg)
	var arrived Time
	s.Inject(0, closureTask(func(ctx *Ctx) {
		ctx.Send(15, closureTask(func(ctx *Ctx) { arrived = ctx.Now() }))
	}), 0)
	s.Run()
	if want := US(61); arrived != want { // 1 + 6*10
		t.Errorf("arrival = %vµs, want 61", arrived.Microseconds())
	}

	// The same send on a crossbar takes base latency + one hop.
	cfg.Topology = Crossbar{}
	s2 := closureSim(cfg)
	var arrived2 Time
	s2.Inject(0, closureTask(func(ctx *Ctx) {
		ctx.Send(15, closureTask(func(ctx *Ctx) { arrived2 = ctx.Now() }))
	}), 0)
	s2.Run()
	if want := US(11); arrived2 != want {
		t.Errorf("crossbar arrival = %vµs, want 11", arrived2.Microseconds())
	}
}

func TestBroadcastPerDestinationDistance(t *testing.T) {
	cfg := Config{
		Procs:    4,
		Latency:  US(1),
		Topology: Ring{N: 4},
		PerHop:   US(5),
	}
	s := closureSim(cfg)
	arrivals := map[int]Time{}
	s.Inject(0, closureTask(func(ctx *Ctx) {
		ctx.Broadcast([]int{1, 2, 3}, closureTask(func(ctx *Ctx) {
			arrivals[ctx.Proc()] = ctx.Now()
		}))
	}), 0)
	s.Run()
	// Distances from 0 on a 4-ring: 1->1 hop, 2->2 hops, 3->1 hop.
	want := map[int]Time{1: US(6), 2: US(11), 3: US(6)}
	for p, at := range want {
		if arrivals[p] != at {
			t.Errorf("proc %d arrival = %vµs, want %vµs", p, arrivals[p].Microseconds(), at.Microseconds())
		}
	}
}
