package rete

import (
	"math/rand"
	"reflect"
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
// their tokens, a result held past handing it back (Recycle), which
// must read as scrubbed, and a negative entry's run put back into the
// store in the phase that emitted its token (every pool's own poisoned
// check is TestPool's).
func TestPoisonedRewinds(t *testing.T) {
	poison(t)
	t.Run("RandomizedDifferential", TestMatcherRandomizedDifferential)
	t.Run("BoundedDifferential", TestBoundedRandomizedDifferential)
	t.Run("ResultBelongsToCaller", TestApplyResultBelongsToCaller)
	t.Run("HandedBackRecordsAreScrubbed", checkHandedBackScrubbed)
	t.Run("NegatedFlipThenRemove", TestNegatedFlipThenRemoveInOnePhase)
}

// TestDeleteTokensAreNeverStored is the assertion the phase arena rests
// on: whatever the program and the sequence of changes, no left memory
// entry ever holds a token carved from it — every token an activation
// carries is, and a memory stores a copy from its processor's store.
// It checks where the token's handles live, and — with the poison on —
// that no stored token reads as the sentinel, which is what a phase
// token stored in an earlier phase, a run released to the store while
// its entry still held it, or a token naming a deleted wme, would have
// become. The same
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
					if p.phase.holds(e.token.H) {
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
	region := &m.proc.phase.buf[:1][0]
	perPhase := m.proc.phase.used
	for i := 0; i < 100; i++ {
		m.Apply(adds)
		m.Apply(dels)
	}
	if perPhase == 0 || perPhase*100 < arenaChunkLen {
		t.Fatalf("%d handles a delete phase: 100 phases would not outgrow a region anyway", perPhase)
	}
	if &m.proc.phase.buf[:1][0] != region || m.proc.phase.used != perPhase {
		t.Errorf("after 100 delete phases the delete arena is %d handles into another region, want %d into the first", m.proc.phase.used, perPhase)
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
		ar, la := &m.proc.phase, &m.proc.lent
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
// the join gives the join a memory successor, and its add tokens still
// come from the phase arena: the successor stores a copy from the
// processor's store, which no rewind touches, and the copy goes back to
// the store when the delete removes it.
func TestProductionOnlyTokensComeFromThePhaseArena(t *testing.T) {
	poison(t)
	net := compileT(t, []string{`(p pair (a ^x <v>) (b ^x <v>) --> (halt))`})
	p := NewProcessor(net, 16, NewTable())
	run := func(chs ...Change) []Activation { return rootsT(p, chs...) }
	acts := run(Change{Tag: Add, WME: mkWME(1, "a", "x", 5)}, Change{Tag: Add, WME: mkWME(2, "b", "x", 5)})
	if len(acts) != 1 || !p.phase.holds(acts[0].Token.H) {
		t.Fatalf("a join feeding one production node emitted %v, want one token from the phase arena", acts)
	}
	held := p.Build(acts, nil)
	p.phase.rewind()
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
	stored := func() (n int) {
		t.Helper()
		for _, bucket := range p.left.buckets {
			for _, e := range bucket {
				if p.phase.holds(e.token.H) || !p.store.holds(e.token.H) {
					t.Fatalf("node %d stores %v outside the store", e.node.ID, e.token)
				}
				for _, h := range e.token.H {
					if p.tab.rows[h] == poisonWME {
						t.Fatalf("node %d stores a token that reads as the sentinel", e.node.ID)
					}
				}
				n++
			}
		}
		return n
	}
	acts = run(Change{Tag: Add, WME: wa})
	if len(acts) != 1 || !p.phase.holds(acts[0].Token.H) {
		t.Fatalf("a join with a memory successor emitted %v, want one token from the phase arena", acts)
	}
	// a1 and a3 at the first join, [a3 b2] at the second.
	if n := stored(); n != 3 {
		t.Fatalf("the memories store %d tokens, want 3", n)
	}
	p.BeginPhase()
	if n := stored(); n != 3 {
		t.Fatalf("after the phase arena's rewind the memories store %d tokens, want 3", n)
	}
	acts = run(Change{Tag: Delete, WME: wa})
	if len(acts) != 1 || acts[0].Tag != Delete || !p.phase.holds(acts[0].Token.H) {
		t.Fatalf("the same join's delete emitted %v, want one token from the phase arena", acts)
	}
	if n := stored(); n != 1 {
		t.Fatalf("after the delete the memories store %d tokens, want 1", n)
	}
}

// holds reports whether run r was carved from the pool's current
// chunk.
func (p *pool[T]) holds(r []T) bool {
	for i := range p.chunk[:p.used] {
		if len(r) > 0 && &p.chunk[i] == &r[0] {
			return true
		}
	}
	return false
}

// freeLen counts the elements of the runs on the pool's free lists.
func (p *pool[T]) freeLen() (n int) {
	for w, f := range p.free {
		n += w * len(f)
	}
	return n
}

// listed returns the number of runs of length n on the pool's free
// list.
func (p *pool[T]) listed(n int) int {
	if n >= len(p.free) {
		return 0
	}
	return len(p.free[n])
}

// TestPool checks each of a processor's pools — its store and its two
// sides' regions — on its own chunk length.
func TestPool(t *testing.T) {
	n := &Node{ID: 1, Kind: KindNegative}
	for _, c := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"store", func(t *testing.T) {
			checkPool(t, storeChunkLen, func(i int) int32 { return int32(i) })
		}},
		{"lregs", func(t *testing.T) {
			checkPool(t, regionChunkLen, func(i int) leftEntry { return leftEntry{node: n, token: Token{H: []int32{int32(i)}}, count: i} })
		}},
		{"rregs", func(t *testing.T) {
			checkPool(t, regionChunkLen, func(i int) rightEntry { return rightEntry{node: n, h: int32(i)} })
		}},
	} {
		t.Run(c.name, c.run)
	}
}

// checkPool: a zero pool carves runs, zero and full-capacity-capped,
// from the front of a chunk of chunkLen; a run put back is the next run
// taken at its length, so reuse carves nothing, and it reads zero if
// it is a region while a run of handles keeps its handles; a free list
// is sized once, at the floor; a run over a quarter of a chunk comes
// from the heap and put drops it; reset empties the free lists and
// rewinds the chunk, so the next run is carved, zero, from its front
// again, while a run that does not fit takes a fresh chunk; and under
// the poison a run put back is cleared and never taken again. mk makes
// a nonzero element.
func checkPool[T int32 | leftEntry | rightEntry](t *testing.T, chunkLen int, mk func(int) T) {
	p := new(pool[T])
	var zero T
	_, handles := any(zero).(int32)
	isZero := func(r []T) bool {
		for _, e := range r[:cap(r)] {
			if !reflect.DeepEqual(e, zero) {
				return false
			}
		}
		return true
	}
	fill := func(r []T) []T {
		for i := range r {
			r[i] = mk(i + 1)
		}
		return r
	}
	const widths = 8
	kept := map[int][]T{}
	for w := 1; w <= widths; w++ {
		kept[w] = p.take(w)
		if len(kept[w]) != w || cap(kept[w]) != w || !isZero(kept[w]) {
			t.Fatalf("a %d-run reads %v (capacity %d)", w, kept[w], cap(kept[w]))
		}
		fill(kept[w])
	}
	first, carved := &p.chunk[0], p.carved
	if carved != 36 || &kept[1][0] != first || len(p.chunk) != chunkLen {
		t.Fatalf("eight runs carved %d elements, want 36 from the front of a %d-chunk (got %d)", carved, chunkLen, len(p.chunk))
	}
	for round := 0; round < 3; round++ {
		for w := widths; w >= 1; w-- {
			p.put(kept[w])
			if isZero(kept[w]) == handles {
				t.Fatalf("round %d: a %d-run put back reads %v, want zero exactly for a region", round, w, kept[w])
			}
			got := p.take(w)
			if &got[0] != &kept[w][0] || len(got) != w {
				t.Fatalf("round %d: the %d-run put back is not the next %d-run taken", round, w, w)
			}
			fill(got)
		}
	}
	if p.carved != carved {
		t.Fatalf("reuse carved %d more elements", p.carved-carved)
	}
	for w := 1; w <= widths; w++ {
		if f := p.free[w]; len(f) != 0 || cap(f) != freeListFloor {
			t.Fatalf("the %d-runs' free list is %d/%d, want 0/%d", w, len(f), cap(f), freeListFloor)
		}
	}

	big := fill(p.take(chunkLen/4 + 1))
	if p.carved != carved || p.holds(big) || cap(big) != chunkLen/4+1 {
		t.Fatalf("a run over a quarter chunk was carved (%d more elements)", p.carved-carved)
	}
	p.put(big)
	if p.listed(cap(big)) != 0 || p.freeLen() != 0 {
		t.Fatalf("put listed a heap run: the free lists hold %d elements", p.freeLen())
	}

	p.put(kept[3])
	p.reset()
	if p.used != 0 || p.carved != 0 || p.freeLen() != 0 {
		t.Fatalf("after reset the pool has carved %d (%d in the chunk) and frees %d elements", p.carved, p.used, p.freeLen())
	}
	if r := p.take(3); &r[0] != first || !isZero(r) {
		t.Fatalf("after reset the next run is not carved, zero, from the front of the kept chunk: %v", r)
	}
	for p.used+chunkLen/4 <= chunkLen {
		p.take(chunkLen / 4)
	}
	if r := p.take(chunkLen / 4); &p.chunk[0] == first || &r[0] != &p.chunk[0] || len(p.chunk) != chunkLen {
		t.Fatal("a run longer than the chunk's rest was not carved from the front of a fresh chunk")
	}

	t.Run("poisoned", func(t *testing.T) {
		poison(t)
		r := fill(p.take(2))
		p.put(r)
		if !isZero(r) {
			t.Fatalf("a run put back reads %v under the poison, want zero (handle 0)", r)
		}
		if got := p.take(2); &got[0] == &r[0] || p.listed(2) != 0 {
			t.Fatal("a run put back under the poison was taken again")
		}
	})
}

// TestStoreIsBoundedByLiveEntries: a long-lived matcher running the
// 60x50 add burst then delete burst, pair after pair. After one warm
// pair a further pair carves nothing — every run its adds keep comes off
// a free list the last delete burst filled —, the store never carved
// more handles than the memories held at their peak, and once the
// delete burst has emptied the memories every run carved is back on a
// free list: the store holds no run.
func TestStoreIsBoundedByLiveEntries(t *testing.T) {
	m, adds, dels := pairingBurst(t, 60, 50)
	s := &m.proc.store
	live := func() (n int) {
		for _, bucket := range m.proc.left.buckets {
			for _, e := range bucket {
				n += len(e.token.H)
			}
		}
		return n
	}
	m.Recycle(m.Apply(adds))
	peak := live()
	m.Recycle(m.Apply(dels))
	chunk, used, carved := &s.chunk[0], s.used, s.carved
	if peak == 0 || carved > peak {
		t.Fatalf("the first pair carved %d handles for a peak of %d stored", carved, peak)
	}
	for pair := 0; pair < 3; pair++ {
		m.Recycle(m.Apply(adds))
		if live() != peak {
			t.Fatalf("pair %d: the add burst stores %d handles, want %d", pair, live(), peak)
		}
		m.Recycle(m.Apply(dels))
		if &s.chunk[0] != chunk || s.used != used || s.carved != carved {
			t.Fatalf("pair %d: the store carved %d more handles (%d into another chunk)", pair, s.carved-carved, s.used)
		}
		if n := m.proc.left.Len(); n != 0 {
			t.Fatalf("pair %d: the delete burst left %d entries", pair, n)
		}
		if held := s.carved - s.freeLen(); held != 0 {
			t.Fatalf("pair %d: the store holds %d handles with every memory empty", pair, held)
		}
	}
}

// TestNegatedFlipThenRemoveInOnePhase: in one phase a right change flips
// a negative entry's count, so the node emits the entry's token, and a
// left delete then removes that entry, handing its run back to the
// store, which the phase's next left add takes again. The emitted token
// must be a phase copy: were it the stored run, its delta would be
// built over the later add's wme (or, under the poison, the sentinel).
// Both directions of the flip; the conflict set must equal the naive
// matcher's.
func TestNegatedFlipThenRemoveInOnePhase(t *testing.T) {
	for _, nb := range []int{1, 64} {
		h := newHarness(t, nb, `(p lone (a ^x <v>) -(b ^x <v>) --> (halt))`)
		mk := func(class string, x int) *ops5.WME {
			w := ops5.NewWME(class, "x", x)
			w.ID, w.TimeTag = h.nextID, h.nextID
			h.nextID++
			return w
		}
		a5 := h.add("a", "x", 5)
		h.checkNaive()
		b5, a7 := mk("b", 5), mk("a", 7)
		h.apply(Change{Tag: Add, WME: b5}, Change{Tag: Delete, WME: a5}, Change{Tag: Add, WME: a7})
		h.checkNaive()
		a5 = mk("a", 5)
		h.apply(Change{Tag: Add, WME: a5})
		a9 := mk("a", 9)
		h.apply(Change{Tag: Delete, WME: b5}, Change{Tag: Delete, WME: a5}, Change{Tag: Add, WME: a9})
		h.checkNaive()
		if len(h.cs) != 2 {
			t.Fatalf("buckets=%d: the conflict set holds %v, want lone[7] and lone[9]", nb, keys(h.cs))
		}
	}
}
