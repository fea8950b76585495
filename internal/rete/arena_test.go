package rete

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"mpcrete/internal/alloc"
	"mpcrete/internal/ops5"
)

// poison switches the poison on for the rest of the test.
func poison(t *testing.T) {
	t.Helper()
	t.Cleanup(alloc.Poison())
}

// within reports whether run r starts inside s: a region an arena lent
// it from, or the part of a chunk a pool carved.
func within[T any](s, r []T) bool {
	for i := range s {
		if len(r) > 0 && &s[i] == &r[0] {
			return true
		}
	}
	return false
}

// lent reports whether run r was lent from the arena's current region.
func lent[T any](a *alloc.Arena[T], r []T) bool {
	region := a.Region()
	return within(region[:cap(region)], r)
}

// listed returns the length of key's free list, taking what it holds
// off and putting it back in the order it was.
func listed[T any](p *alloc.Pool[T], key int) int {
	var held []*T
	for x := p.Get(key); x != nil; x = p.Get(key) {
		held = append(held, x)
	}
	for i := len(held) - 1; i >= 0; i-- {
		p.Push(key, held[i])
	}
	return len(held)
}

// freeLen counts the elements of the runs on a pool's free lists.
func freeLen[T any](p *alloc.Pool[T]) (n int) {
	for k := 1; k <= alloc.ChunkLen[T]()/4; k++ {
		n += k * listed(p, k)
	}
	return n
}

// TestPoisonedRewinds re-runs, with every rewound token overwritten by
// the sentinel handle and every freed handle quarantined, the tests that would see a delete token used after
// the phase that made it: the randomized differentials against the
// naive matcher (every variant, hashed and linear memories), the
// held-result test, whose deltas must have copied their wmes out of
// their tokens, a result held past handing it back (Recycle), which
// must read as scrubbed, a negative entry's run put back into the
// store in the phase that emitted its token, and retired wme rows of
// every kind (every pool's own poisoned check is TestPool's).
func TestPoisonedRewinds(t *testing.T) {
	poison(t)
	t.Run("RandomizedDifferential", TestMatcherRandomizedDifferential)
	t.Run("BoundedDifferential", TestBoundedRandomizedDifferential)
	t.Run("ResultBelongsToCaller", TestApplyResultBelongsToCaller)
	t.Run("HandedBackRecordsAreScrubbed", checkHandedBackScrubbed)
	t.Run("NegatedFlipThenRemove", TestNegatedFlipThenRemoveInOnePhase)
	t.Run("RowsRetire", TestRowsRetire)
}

// TestRowsRetire: a retired row goes, blank, on its layout's free list
// and is the next row Reuse refills, while a loose row and one laid out
// before its layout grew are dropped. Under the poison every retired
// row, of all three kinds, reads as the sentinel, and none is refilled.
func TestRowsRetire(t *testing.T) {
	var r Rows
	l := ops5.NewLayout(0, "a", "x")
	stale := l.Conform(ops5.NewWME("a", "x", 1))
	l.Add("y")
	laid := l.Conform(ops5.NewWME("a", "x", 2, "y", 3))
	loose := ops5.NewWME("a", "x", 4)
	rows := map[string]*ops5.WME{"stale": stale, "laid-out": laid, "loose": loose}
	for _, w := range []*ops5.WME{stale, laid, loose} {
		w.ID, w.TimeTag = 9, 9
		r.Retire(w)
	}
	if alloc.Poisoned() {
		for name, w := range rows {
			if !reflect.DeepEqual(*w, *poisonWME) {
				t.Errorf("a %s row retired under the poison reads %d:%d %s", name, w.ID, w.TimeTag, w)
			}
		}
		if w := r.Reuse(l, nil); w != nil {
			t.Fatalf("a row retired under the poison was refilled: %s", w)
		}
		return
	}
	if laid.ID != 0 || laid.TimeTag != 0 || laid.Len() != 0 {
		t.Fatalf("the retired row reads %d:%d %s, want blank", laid.ID, laid.TimeTag, laid)
	}
	if w := r.Reuse(l, nil); w != laid {
		t.Fatalf("Reuse refilled %p, want the laid-out row %p", w, laid)
	}
	if w := r.Reuse(l, nil); w != nil {
		t.Fatalf("a %s row was listed", map[bool]string{true: "stale", false: "loose"}[w == stale])
	}
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
					if lent(&p.phase, e.token.H) {
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
	ar := &m.proc.phase
	region := &ar.Region()[:1][0]
	perPhase := len(ar.Region())
	for i := 0; i < 100; i++ {
		m.Apply(adds)
		m.Apply(dels)
	}
	if perPhase == 0 || perPhase*100 < alloc.ChunkLen[int32]() {
		t.Fatalf("%d handles a delete phase: 100 phases would not outgrow a region anyway", perPhase)
	}
	if &ar.Region()[:1][0] != region || len(ar.Region()) != perPhase {
		t.Errorf("after 100 delete phases the delete arena is %d handles into another region, want %d into the first", len(ar.Region()), perPhase)
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
	if handles < 2*alloc.ChunkLen[int32]() {
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
		return regions{&ar.Region()[:1][0], &la.Region()[:1][0], [2]int{cap(ar.Region()), cap(la.Region())}}
	}
	round(adds, dels, 600)
	round(adds, dels, 600)
	r := held()
	if r.sizes[0] <= alloc.ChunkLen[int32]() || r.sizes[1] < 600*4 {
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
	if len(acts) != 1 || !lent(&p.phase, acts[0].Token.H) {
		t.Fatalf("a join feeding one production node emitted %v, want one token from the phase arena", acts)
	}
	held := p.Build(acts, nil)
	p.phase.Rewind()
	if p.tab.rows[acts[0].Token.H[0]] != poisonWME {
		t.Fatal("the phase arena's rewind did not recycle the production-only token")
	}
	if got := held[0].Key(); held[0].Tag != Add || got != "pair[1 2]" || !lent(&p.lent, held[0].WMEs()) {
		t.Fatalf("the Add delta built from a production-only token reads %v %s after its token was recycled, want + pair[1 2] in a lent array", held[0].Tag, got)
	}
	p.BeginPhase()
	if held[0].WMEs()[0] != poisonWME {
		t.Fatalf("the Add delta's array reads %v after the next BeginPhase: it was not lent", held[0].WMEs())
	}

	if err := net.AddProduction(mustParse(t, `(p triple (a ^x <v>) (b ^x <v>) (c ^x <v>) --> (halt))`)[0]); err != nil {
		t.Fatal(err)
	}
	wa := mkWME(3, "a", "x", 5)
	stored := func() (n int) {
		t.Helper()
		for _, bucket := range p.left.buckets {
			for _, e := range bucket {
				if lent(&p.phase, e.token.H) {
					t.Fatalf("node %d stores %v from the phase arena", e.node.ID, e.token)
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
	if len(acts) != 1 || !lent(&p.phase, acts[0].Token.H) {
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
	var before [][]int32
	for _, bucket := range p.left.buckets {
		for _, e := range bucket {
			before = append(before, e.token.H)
		}
	}
	acts = run(Change{Tag: Delete, WME: wa})
	if len(acts) != 1 || acts[0].Tag != Delete || !lent(&p.phase, acts[0].Token.H) {
		t.Fatalf("the same join's delete emitted %v, want one token from the phase arena", acts)
	}
	if n := stored(); n != 1 {
		t.Fatalf("after the delete the memories store %d tokens, want 1", n)
	}
	// The store scrubs, under the poison, what the delete gives back.
	freed := 0
	for _, h := range before {
		if !slices.ContainsFunc(h, func(h int32) bool { return h != 0 }) {
			freed += len(h)
		}
	}
	if freed != 3 {
		t.Fatalf("the delete gave the store back %d handles, want the 3 of [a3] and [a3 b2]", freed)
	}
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
			checkPool(t, func(i int) int32 { return int32(i) })
		}},
		{"lregs", func(t *testing.T) {
			checkPool(t, func(i int) leftEntry { return leftEntry{node: n, token: Token{H: []int32{int32(i)}}, count: i} })
		}},
		{"rregs", func(t *testing.T) {
			checkPool(t, func(i int) rightEntry { return rightEntry{node: n, h: int32(i)} })
		}},
	} {
		t.Run(c.name, c.run)
	}
}

// checkPool: a zero pool carves runs, zero and full-capacity-capped,
// one after another from the front of a chunk; a run put back reads
// zero and is the next run taken at its length, so reuse carves
// nothing; a run over a quarter of a chunk comes from the heap and put
// drops it; reset empties the free lists and rewinds the chunk, so the
// same runs are carved, zero, where they were, while a run that does
// not fit takes a fresh chunk; and under the poison a run put back is
// cleared and never taken again. mk makes a nonzero element.
func checkPool[T int32 | leftEntry | rightEntry](t *testing.T, mk func(int) T) {
	p, chunkLen := new(alloc.Pool[T]), alloc.ChunkLen[T]()
	var zero T
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
	carve := func() {
		for w := 1; w <= widths; w++ {
			r := p.Take(w)
			if len(r) != w || cap(r) != w || !isZero(r) {
				t.Fatalf("a %d-run reads %v (capacity %d)", w, r, cap(r))
			}
			if k, ok := kept[w]; ok && &r[0] != &k[0] {
				t.Fatalf("after reset the %d-run was not carved where it was", w)
			}
			kept[w] = fill(r)
		}
	}
	carve()
	if !within(unsafe.Slice(&kept[1][0], 36), kept[widths]) {
		t.Fatal("eight runs were not carved one after another")
	}
	for round := 0; round < 3; round++ {
		for w := widths; w >= 1; w-- {
			p.Put(kept[w])
			if !isZero(kept[w]) {
				t.Fatalf("round %d: a %d-run put back reads %v, want zero", round, w, kept[w])
			}
			got := p.Take(w)
			if &got[0] != &kept[w][0] || len(got) != w {
				t.Fatalf("round %d: the %d-run put back is not the next %d-run taken", round, w, w)
			}
			fill(got)
		}
	}
	next := &p.Take(1)[0]

	big := fill(p.Take(chunkLen/4 + 1))
	if cap(big) != chunkLen/4+1 {
		t.Fatalf("a run over a quarter chunk has capacity %d", cap(big))
	}
	p.Put(big)
	if again := p.Take(chunkLen/4 + 1); &again[0] == &big[0] || freeLen(p) != 0 {
		t.Fatalf("put listed a heap run: the free lists hold %d elements", freeLen(p))
	}

	p.Put(kept[3])
	p.Reset()
	if freeLen(p) != 0 {
		t.Fatalf("after reset the pool frees %d elements", freeLen(p))
	}
	carve()
	if &p.Take(1)[0] != next {
		t.Fatal("reuse or a heap run carved from the chunk")
	}
	for used := 37; used+chunkLen/4 <= chunkLen; used += chunkLen / 4 {
		p.Take(chunkLen / 4)
	}
	fresh := p.Take(chunkLen / 4)
	p.Reset()
	if &p.Take(1)[0] != &fresh[0] {
		t.Fatal("a run longer than the chunk's rest was not carved from the front of a fresh chunk")
	}

	t.Run("poisoned", func(t *testing.T) {
		poison(t)
		r := fill(p.Take(2))
		p.Put(r)
		if !isZero(r) {
			t.Fatalf("a run put back reads %v under the poison, want zero (handle 0)", r)
		}
		if got := p.Take(2); &got[0] == &r[0] || listed(p, 2) != 0 {
			t.Fatal("a run put back under the poison was taken again")
		}
	})
}

// TestStoreIsBoundedByLiveEntries: a long-lived matcher running the
// 60x50 add burst then delete burst, pair after pair. After one warm
// pair a further pair carves nothing — every run its adds keep comes off
// a free list the last delete burst filled —, and once the delete burst
// has emptied the memories every run the memories held at their peak is
// back on a free list and no other: the store never carved more handles
// than the memories held at their peak, and holds no run.
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
	if peak == 0 || freeLen(s) != peak {
		t.Fatalf("the first pair freed %d handles for a peak of %d stored", freeLen(s), peak)
	}
	for pair := 0; pair < 3; pair++ {
		m.Recycle(m.Apply(adds))
		if live() != peak {
			t.Fatalf("pair %d: the add burst stores %d handles, want %d", pair, live(), peak)
		}
		m.Recycle(m.Apply(dels))
		if n := m.proc.left.Len(); n != 0 {
			t.Fatalf("pair %d: the delete burst left %d entries", pair, n)
		}
		// Every run is back, so a run the pair carved would be freed
		// beside the peak's.
		if n := freeLen(s); n != peak {
			t.Fatalf("pair %d: the store frees %d handles with every memory empty, want the peak's %d", pair, n, peak)
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
