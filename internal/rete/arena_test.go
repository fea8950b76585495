package rete

import (
	"math/rand"
	"slices"
	"testing"

	"mpcrete/internal/ops5"
)

// poison switches poisonRewind on for the rest of the test.
func poison(t *testing.T) {
	t.Helper()
	t.Cleanup(PoisonRewinds())
}

// holds reports whether run r was carved from the arena's current
// region.
func (ar *arena[T]) holds(r []T) bool {
	region := ar.buf[:cap(ar.buf)]
	for i := range region {
		if len(r) > 0 && &region[i] == &r[0] {
			return true
		}
	}
	return false
}

// TestPoisonedRewinds re-runs, with every rewound token overwritten by
// the sentinel handle and every freed handle quarantined, the tests that would see a delete token used after
// the phase that made it: the randomized differentials against the
// naive matcher (every variant, hashed and linear memories), the
// held-result test, whose deltas must have copied their wmes out of
// their tokens, and a result held past handing it back (Recycle), which
// must read as scrubbed.
func TestPoisonedRewinds(t *testing.T) {
	poison(t)
	t.Run("RandomizedDifferential", TestMatcherRandomizedDifferential)
	t.Run("BoundedDifferential", TestBoundedRandomizedDifferential)
	t.Run("ResultBelongsToCaller", TestApplyResultBelongsToCaller)
	t.Run("HandedBackRecordsAreScrubbed", checkHandedBackScrubbed)
}

// TestDeleteTokensAreNeverStored is the assertion the phase arena rests
// on: whatever the program and the sequence of changes, no left memory
// entry ever holds a token carved from it — neither a delete token nor
// one made for production nodes only. It checks where the token's
// handles live, and — with the poison on — that no stored token reads
// as the sentinel, which is what a phase token stored in an earlier
// phase, or a token naming a deleted wme, would have become. The same
// holds one level up, where every delta's array is lent: no
// instantiation standing in a conflict set, copied out of its Add
// delta as an engine copies it, reads as the sentinel.
func TestDeleteTokensAreNeverStored(t *testing.T) {
	poison(t)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		h := newHarness(t, 1<<uint(rng.Intn(5)), randomProductions(rng, 1+rng.Intn(4))...)
		p := h.matcher.proc
		var live []*ops5.WME
		for step := 0; step < 40; step++ {
			if len(live) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(live))
				h.remove(live[i])
				live = append(live[:i], live[i+1:]...)
			} else {
				live = append(live, h.add([]string{"a", "b", "c"}[rng.Intn(3)], "x", rng.Intn(3), "y", rng.Intn(3)))
			}
			for b, bucket := range p.left.buckets {
				for _, e := range bucket {
					if p.delArena.holds(e.token.H) {
						t.Fatalf("trial %d step %d: left bucket %d stores token %v of node %d from the phase arena", trial, step, b, e.token, e.node.ID)
					}
					for _, h := range e.token.H {
						if p.tab.rows[h] == poisonWME {
							t.Fatalf("trial %d step %d: left bucket %d stores a rewound token at node %d", trial, step, b, e.node.ID)
						}
					}
				}
			}
			for key, wmes := range h.held {
				for _, w := range wmes {
					if w == poisonWME {
						t.Fatalf("trial %d step %d: instantiation %s reads as a rewound array", trial, step, key)
					}
				}
			}
		}
		h.checkNaive()
	}
}

// TestDeleteArenaIsRewoundOnlyWhenAsked: under a Matcher, which calls
// BeginPhase, any number of small delete phases carve from one region;
// under an owner that never calls it, no delete token is ever handed
// out twice — region-amortised allocation, nothing reused.
func TestDeleteArenaIsRewoundOnlyWhenAsked(t *testing.T) {
	m, adds, dels := pairingBurst(t, 3, 3)
	m.Apply(adds)
	m.Apply(dels)
	region := &m.proc.delArena.buf[:1][0]
	perPhase := m.proc.delArena.used
	for i := 0; i < 100; i++ {
		m.Apply(adds)
		m.Apply(dels)
	}
	if perPhase == 0 || perPhase*100 < arenaChunkLen {
		t.Fatalf("%d handles a delete phase: 100 phases would not outgrow a region anyway", perPhase)
	}
	if &m.proc.delArena.buf[:1][0] != region || m.proc.delArena.used != perPhase {
		t.Errorf("after 100 delete phases the delete arena is %d handles into another region, want %d into the first", m.proc.delArena.used, perPhase)
	}

	p := NewProcessor(m.Network(), 16, NewTable())
	seen := map[*int32]bool{}
	handles := 0
	for i := 0; i < 100; i++ {
		for _, a := range rootsT(p, append(append([]Change{}, adds...), dels...)...) {
			if a.Tag != Delete {
				continue
			}
			if seen[&a.Token.H[0]] {
				t.Fatalf("round %d: a delete token was handed out twice with BeginPhase never called", i)
			}
			seen[&a.Token.H[0]] = true
			handles += len(a.Token.H)
		}
	}
	if handles < 2*arenaChunkLen {
		t.Fatalf("only %d handles of delete tokens reached the production node: not past a region boundary", handles)
	}
}

// TestDeleteArenaKeepsItsLargestPhase: a delete phase that outgrows the
// phase arena's region, or the lent arena's, leaves each a region that
// holds the whole phase, and the same phase again is carved from the
// same storage, whatever number of rounds. A wider phase grows each
// once more.
func TestDeleteArenaKeepsItsLargestPhase(t *testing.T) {
	// One matcher and one 60x20 burst; the narrow phase is the burst
	// with half its teams (the changes run phase, teams, slots).
	m, wideAdds, wideDels := pairingBurst(t, 60, 20)
	half := func(chs []Change) []Change { return append(slices.Clone(chs[:31]), chs[61:]...) }
	adds, dels := half(wideAdds), half(wideDels)
	round := func(adds, dels []Change, want int) {
		t.Helper()
		m.Apply(adds)
		if got := len(m.Apply(dels)); got != want {
			t.Fatalf("the delete burst made %d deltas, want %d", got, want)
		}
	}
	type regions struct {
		phase *int32
		lent  **ops5.WME
		sizes [2]int
	}
	held := func() regions {
		ar, la := &m.proc.delArena, &m.proc.lent
		return regions{&ar.buf[:1][0], &la.buf[:1][0], [2]int{cap(ar.buf), cap(la.buf)}}
	}
	round(adds, dels, 600)
	round(adds, dels, 600)
	r := held()
	if r.sizes[0] <= arenaChunkLen || r.sizes[1] < 600*4 {
		t.Fatalf("a 30x20 delete burst left regions of %v, want a phase region past a chunk and a lent one of its 2,400 wmes", r.sizes)
	}
	for i := 0; i < 10; i++ {
		round(adds, dels, 600)
	}
	if r2 := held(); r2 != r {
		t.Fatalf("ten more rounds moved the regions: %v, were %v", r2.sizes, r.sizes)
	}

	round(wideAdds, wideDels, 1200)
	round(wideAdds, wideDels, 1200)
	r3 := held()
	if r3.sizes[0] <= r.sizes[0] || r3.sizes[1] <= r.sizes[1] {
		t.Fatalf("a 60x20 delete burst left regions of %v (30x20: %v), want both larger", r3.sizes, r.sizes)
	}
	round(wideAdds, wideDels, 1200)
	if r4 := held(); r4 != r3 {
		t.Fatalf("the same wide burst again moved the regions: %v, were %v", r4.sizes, r3.sizes)
	}
}

// TestProductionOnlyTokensComeFromThePhaseArena: a token that a join
// emits only to production nodes is read once, by Processor.Build,
// which resolves its wmes out, so it is carved from the phase arena even
// under an Add, and the Add delta built from it reads the same after
// the phase arena has recycled the token (with the poison on, the token
// itself reads as the sentinel): its array is the lent arena's, which
// the next BeginPhase rewinds with it. Adding a production that shares
// the join gives the join a memory successor, and from then on its add
// tokens come from the arena that is never rewound: the choice is made
// per token, not compiled in.
func TestProductionOnlyTokensComeFromThePhaseArena(t *testing.T) {
	poison(t)
	net := compileT(t, []string{`(p pair (a ^x <v>) (b ^x <v>) --> (halt))`})
	p := NewProcessor(net, 16, NewTable())
	run := func(chs ...Change) []Activation { return rootsT(p, chs...) }
	acts := run(Change{Tag: Add, WME: mkWME(1, "a", "x", 5)}, Change{Tag: Add, WME: mkWME(2, "b", "x", 5)})
	if len(acts) != 1 || !p.delArena.holds(acts[0].Token.H) {
		t.Fatalf("a join feeding one production node emitted %v, want one token from the phase arena", acts)
	}
	held := p.Build(acts, nil)
	p.delArena.rewind()
	if p.tab.rows[acts[0].Token.H[0]] != poisonWME {
		t.Fatal("the phase arena's rewind did not recycle the production-only token")
	}
	if got := held[0].Key(); held[0].Tag != Add || got != "pair[1 2]" || !p.lent.holds(held[0].WMEs) {
		t.Fatalf("the Add delta built from a production-only token reads %v %s after its token was recycled, want + pair[1 2] in a lent array", held[0].Tag, got)
	}
	p.BeginPhase()
	if held[0].WMEs[0] != poisonWME {
		t.Fatalf("the Add delta's array reads %v after the next BeginPhase: it was not lent", held[0].WMEs)
	}

	if err := net.AddProduction(mustParse(t, `(p triple (a ^x <v>) (b ^x <v>) (c ^x <v>) --> (halt))`)[0]); err != nil {
		t.Fatal(err)
	}
	wa := mkWME(3, "a", "x", 5)
	acts = run(Change{Tag: Add, WME: wa})
	if len(acts) != 1 || p.delArena.holds(acts[0].Token.H) || !p.arena.holds(acts[0].Token.H) {
		t.Fatalf("a join with a memory successor emitted %v, want one token from the add arena", acts)
	}
	acts = run(Change{Tag: Delete, WME: wa})
	if len(acts) != 1 || acts[0].Tag != Delete || !p.delArena.holds(acts[0].Token.H) {
		t.Fatalf("the same join's delete emitted %v, want one token from the phase arena", acts)
	}
}
