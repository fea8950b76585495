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

// refChunks lists every chunk the arena holds: the current one and the
// ones it keeps.
func (ar *tokenArena) refChunks() [][]*ops5.WME {
	return append(append([][]*ops5.WME{ar.wmes}, ar.fullWMEs...), ar.spareWMEs...)
}

// holds reports whether ref is a slot of one of the arena's chunks.
func (ar *tokenArena) holds(ref **ops5.WME) bool {
	for _, c := range ar.refChunks() {
		for i := range c {
			if &c[i] == ref {
				return true
			}
		}
	}
	return false
}

// TestPoisonedRewinds re-runs, with every rewound token overwritten by
// the sentinel wme, the tests that would see a delete token used after
// the phase that made it: the randomized differentials against the
// naive matcher (every variant, hashed and linear memories), and the
// held-result test, whose deltas must have copied their wmes out of
// their tokens.
func TestPoisonedRewinds(t *testing.T) {
	poison(t)
	t.Run("RandomizedDifferential", TestMatcherRandomizedDifferential)
	t.Run("BoundedDifferential", TestBoundedRandomizedDifferential)
	t.Run("ResultBelongsToCaller", TestApplyResultBelongsToCaller)
}

// TestDeleteTokensAreNeverStored is the assertion the phase arena rests
// on: whatever the program and the sequence of changes, no left memory
// entry ever holds a token carved from it — neither a delete token nor
// one made for production nodes only. It checks where the token's
// references live, and — with the poison on — that no stored token
// reads as the sentinel, which is what a phase token stored in an
// earlier phase would have become. The same holds one level up, where
// a Delete delta's array is lent from that arena: no instantiation
// standing in a conflict set holds one.
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
					if p.delArena.holds(&e.token.WMEs[0]) {
						t.Fatalf("trial %d step %d: left bucket %d stores token %v of node %d from the phase arena", trial, step, b, e.token, e.node.ID)
					}
					for _, w := range e.token.WMEs {
						if w == poisonWME {
							t.Fatalf("trial %d step %d: left bucket %d stores a rewound token at node %d", trial, step, b, e.node.ID)
						}
					}
				}
			}
			for key, wmes := range h.held {
				if p.delArena.holds(&wmes[0]) {
					t.Fatalf("trial %d step %d: instantiation %s holds an array lent from the delete arena", trial, step, key)
				}
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
// BeginPhase, any number of small delete phases carve from one chunk;
// under an owner that never calls it, no delete token is ever handed
// out twice — chunk-amortised allocation, nothing reused.
func TestDeleteArenaIsRewoundOnlyWhenAsked(t *testing.T) {
	m, adds, dels := pairingBurst(t, 3, 3)
	m.Apply(adds)
	m.Apply(dels)
	chunk := &m.proc.delArena.wmes[0]
	perPhase := m.proc.delArena.nWme
	for i := 0; i < 100; i++ {
		m.Apply(adds)
		m.Apply(dels)
	}
	if perPhase == 0 || perPhase*100 < wmeRefChunkLen {
		t.Fatalf("%d references a delete phase: 100 phases would not outgrow a chunk anyway", perPhase)
	}
	if &m.proc.delArena.wmes[0] != chunk || m.proc.delArena.nWme != perPhase {
		t.Errorf("after 100 delete phases the delete arena is %d references into another chunk, want %d into the first", m.proc.delArena.nWme, perPhase)
	}

	p := NewProcessor(m.Network(), 16)
	seen := map[**ops5.WME]bool{}
	refs := 0
	for i := 0; i < 100; i++ {
		for _, ch := range append(append([]Change{}, adds...), dels...) {
			for _, a := range drainT(p, p.RootActivationsInto(ch, nil)) {
				if a.Tag != Delete {
					continue
				}
				if seen[&a.Token.WMEs[0]] {
					t.Fatalf("round %d: a delete token was handed out twice with BeginPhase never called", i)
				}
				seen[&a.Token.WMEs[0]] = true
				refs += len(a.Token.WMEs)
			}
		}
	}
	if refs < 2*wmeRefChunkLen {
		t.Fatalf("only %d references of delete tokens reached the production node: not past a chunk boundary", refs)
	}
}

// chunkSet names every chunk the arena holds by its first element, with
// its length.
func (ar *tokenArena) chunkSet() map[**ops5.WME]int {
	refs := map[**ops5.WME]int{}
	for _, c := range ar.refChunks() {
		if len(c) > 0 {
			refs[&c[0]] = len(c)
		}
	}
	return refs
}

// TestDeleteArenaKeepsItsLargestPhase: a delete phase that outgrows the
// arena's chunks leaves them to it, and the same phase again is carved
// from the same storage — the same chunks, none added, whatever number
// of rounds — with one oversized chunk for the lent delta arrays. A
// wider phase grows the set once, and the oversized chunk that proved
// too small is let go rather than kept beside its replacement.
func TestDeleteArenaKeepsItsLargestPhase(t *testing.T) {
	oversized := func(refs map[**ops5.WME]int) (n int) {
		for _, l := range refs {
			if l > wmeRefChunkLen {
				n++
			}
		}
		return n
	}
	ordinary := func(refs map[**ops5.WME]int) int { return len(refs) - oversized(refs) }
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
	round(adds, dels, 600)
	round(adds, dels, 600)
	refs := m.proc.delArena.chunkSet()
	if ordinary(refs) < 2 || oversized(refs) != 1 {
		t.Fatalf("a 30x20 delete burst holds %d ordinary chunks and %d oversized ones, want several and one", ordinary(refs), oversized(refs))
	}
	for i := 0; i < 10; i++ {
		round(adds, dels, 600)
	}
	refs2 := m.proc.delArena.chunkSet()
	if len(refs2) != len(refs) {
		t.Fatalf("ten more rounds: %d chunks, were %d", len(refs2), len(refs))
	}
	for c := range refs2 {
		if refs[c] == 0 {
			t.Fatal("ten more rounds carved references from a chunk the arena did not hold")
		}
	}

	round(wideAdds, wideDels, 1200)
	round(wideAdds, wideDels, 1200)
	refs3 := m.proc.delArena.chunkSet()
	if ordinary(refs3) <= ordinary(refs) || oversized(refs3) != 1 {
		t.Fatalf("a 60x20 delete burst holds %d ordinary chunks (30x20: %d) and %d oversized ones, want more and one", ordinary(refs3), ordinary(refs), oversized(refs3))
	}
}

// TestProductionOnlyTokensComeFromThePhaseArena: a token that a join
// emits only to production nodes is read once, by InstBuilder.Build,
// which copies its wmes out, so it is carved from the phase arena even
// under an Add, and the Add delta built from it reads the same after
// the next BeginPhase has recycled the token (with the poison on, the
// token itself reads as the sentinel). Adding a production that shares
// the join gives the join a memory successor, and from then on its add
// tokens come from the arena that is never rewound: the choice is made
// per token, not compiled in.
func TestProductionOnlyTokensComeFromThePhaseArena(t *testing.T) {
	poison(t)
	net := compileT(t, []string{`(p pair (a ^x <v>) (b ^x <v>) --> (halt))`})
	p := NewProcessor(net, 16)
	run := func(chs ...Change) []Activation {
		var acts []Activation
		for _, ch := range chs {
			acts = append(acts, drainT(p, p.RootActivationsInto(ch, nil))...)
		}
		return acts
	}
	acts := run(Change{Tag: Add, WME: mkWME(1, "a", "x", 5)}, Change{Tag: Add, WME: mkWME(2, "b", "x", 5)})
	if len(acts) != 1 || !p.delArena.holds(&acts[0].Token.WMEs[0]) {
		t.Fatalf("a join feeding one production node emitted %v, want one token from the phase arena", acts)
	}
	var b InstBuilder
	held := b.Build(p, acts, nil)
	p.BeginPhase()
	if acts[0].Token.WMEs[0] != poisonWME {
		t.Fatal("BeginPhase did not recycle the production-only token")
	}
	if got := held[0].Key(); held[0].Tag != Add || got != "pair[1 2]" {
		t.Fatalf("the Add delta built from a production-only token reads %v %s after the next BeginPhase, want + pair[1 2]", held[0].Tag, got)
	}

	if err := net.AddProduction(mustParse(t, `(p triple (a ^x <v>) (b ^x <v>) (c ^x <v>) --> (halt))`)[0]); err != nil {
		t.Fatal(err)
	}
	wa := mkWME(3, "a", "x", 5)
	acts = run(Change{Tag: Add, WME: wa})
	if len(acts) != 1 || p.delArena.holds(&acts[0].Token.WMEs[0]) || !p.arena.holds(&acts[0].Token.WMEs[0]) {
		t.Fatalf("a join with a memory successor emitted %v, want one token from the add arena", acts)
	}
	acts = run(Change{Tag: Delete, WME: wa})
	if len(acts) != 1 || acts[0].Tag != Delete || !p.delArena.holds(&acts[0].Token.WMEs[0]) {
		t.Fatalf("the same join's delete emitted %v, want one token from the phase arena", acts)
	}
}
