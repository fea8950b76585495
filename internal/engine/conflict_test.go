package engine

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mpcrete/internal/alloc"
	"mpcrete/internal/ops5"
	"mpcrete/internal/rete"
)

// csHarness drives a conflictSet and, beside it, the structure it
// replaced: a map keyed by InstChange.Key. fired holds what the matcher
// still has and the set does not, refracted; a phase's deltas are
// queued in pending, and had says, per instantiation the phase names,
// whether the matcher has it after the deltas queued so far.
type csHarness struct {
	cs      conflictSet
	ref     map[string]rete.InstChange
	fired   map[string]rete.InstChange
	pending []rete.InstChange
	had     map[string]bool
	infos   []*rete.ProdInfo
	wmes    []*ops5.WME
}

func newCSHarness(t testing.TB, mask uint64) *csHarness {
	h := &csHarness{cs: newConflictSet(), ref: map[string]rete.InstChange{},
		fired: map[string]rete.InstChange{}, had: map[string]bool{}}
	h.cs.mask = mask
	for i, name := range []string{"p", "q", "pq"} {
		p, err := ops5.ParseProduction(fmt.Sprintf(`(p %s (x ^v 1) -(y ^v 1) (z ^v 1) --> (halt))`, name))
		if err != nil {
			t.Fatal(err)
		}
		h.infos = append(h.infos, &rete.ProdInfo{Prod: p, Node: &rete.Node{ID: 100 + i, Kind: rete.KindProduction}, TokenPos: []int{0, -1, 1}})
	}
	for id := 1; id <= 5; id++ {
		w := ops5.NewWME("x", "v", 1)
		w.ID, w.TimeTag = id, id
		h.wmes = append(h.wmes, w)
	}
	return h
}

// delta builds the delta that bytes a and b name: one of three
// productions over one of 25 wme pairs (the negated middle position is
// nil), so a few dozen steps are dense with duplicate adds and with
// deletes of what is not there. The arrays are fresh every time, so the
// reference may keep them; a matcher only lends its.
func (h *csHarness) delta(tag rete.Tag, a, b byte) rete.InstChange {
	w1, w2 := h.wmes[int(a)%5], h.wmes[int(b)%5]
	return rete.NewInstChange(tag, h.infos[int(a/5)%3], []*ops5.WME{w1, nil, w2})
}

// step performs one operation chosen by op: an add (possibly of an
// identity already present), a delete (possibly of one absent), a
// refraction of some member, an excise, or — rarely — a reset, each
// outside a match phase; or it queues a delta into the current phase.
// A queued delta's tag is the next in its instantiation's alternation,
// the first a Delete if the matcher has it (a member, or fired) — the
// condition the parallel driver keeps (parallel.Driver.Cycle). Any
// other operation first absorbs the phase queued so far.
func (h *csHarness) step(op, a, b byte) {
	if op%9 == 8 {
		ic := h.delta(rete.Add, a, b)
		k := ic.Key()
		has, named := h.had[k]
		if !named {
			_, member := h.ref[k]
			_, fired := h.fired[k]
			has = member || fired
		}
		if has {
			ic.Tag = rete.Delete
		}
		h.had[k] = !has
		h.pending = append(h.pending, ic)
		return
	}
	h.phase()
	switch op % 9 {
	case 0, 1, 2:
		ic := h.delta(rete.Add, a, b)
		h.cs.add(&ic)
		h.ref[ic.Key()] = ic
		delete(h.fired, ic.Key())
	case 3, 4:
		ic := h.delta(rete.Delete, a, b)
		h.cs.delete(&ic)
		delete(h.ref, ic.Key())
		delete(h.fired, ic.Key())
	case 5, 6:
		if n := len(h.cs.list); n > 0 {
			in := h.cs.list[int(a)%n]
			h.cs.remove(in)
			h.fired[in.Key()] = h.ref[in.Key()]
			delete(h.ref, in.Key())
		}
	case 7:
		if a%8 == 0 {
			h.cs.reset()
			clear(h.ref)
			clear(h.fired)
			return
		}
		name := h.infos[int(a)%3].Prod.Name
		h.cs.removeProduction(name)
		for _, m := range []map[string]rete.InstChange{h.ref, h.fired} {
			for k, ic := range m {
				if ic.Info.Prod.Name == name {
					delete(m, k)
				}
			}
		}
	}
}

// phase absorbs the queued deltas as one match phase, and moves the
// reference by each instantiation's net: from the membership before
// the phase, a net add makes a member, a net delete takes a member or a
// fired one away, and no net change leaves a member a member and a
// fired one fired — refraction survives a Delete and an Add.
func (h *csHarness) phase() {
	if len(h.pending) == 0 {
		return
	}
	h.cs.absorb(h.pending)
	net, last := map[string]int{}, map[string]rete.InstChange{}
	for _, ic := range h.pending {
		if ic.Tag == rete.Add {
			net[ic.Key()]++
			last[ic.Key()] = ic
		} else {
			net[ic.Key()]--
		}
	}
	for k, n := range net {
		switch {
		case n > 0:
			h.ref[k] = last[k]
		case n < 0:
			delete(h.ref, k)
			delete(h.fired, k)
		}
	}
	h.pending = h.pending[:0]
	clear(h.had)
}

// check holds the set to the reference and to its own invariants.
func (h *csHarness) check(t testing.TB, when string) {
	t.Helper()
	cs := &h.cs
	if len(cs.list) != len(h.ref) {
		t.Fatalf("%s: %d members, reference has %d", when, len(cs.list), len(h.ref))
	}
	for i, in := range cs.list {
		want, ok := h.ref[in.Key()]
		switch {
		case !ok:
			t.Fatalf("%s: member %s is not in the reference", when, in.Key())
		case in.pos != i:
			t.Fatalf("%s: %s at position %d records position %d", when, in.Key(), i, in.pos)
		case !slices.Equal(in.WMEs, want.WMEs()) || in.Prod != want.Info.Prod:
			t.Fatalf("%s: %s does not hold the wmes of the last add of that identity", when, in.Key())
		case &in.WMEs[0] == &want.WMEs()[0]:
			t.Fatalf("%s: %s holds the array its delta lent", when, in.Key())
		}
		// Recency is the set's own work: the sorted tags of the wmes that
		// are there, in an array no other member shares.
		var tags []int
		for _, w := range in.WMEs {
			if w != nil {
				tags = append(tags, w.TimeTag)
			}
		}
		slices.Sort(tags)
		if !slices.Equal(in.TimeTags, tags) || cap(in.TimeTags) != len(tags) {
			t.Fatalf("%s: %s has time tags %v (cap %d), its wmes say %v", when, in.Key(), in.TimeTags, cap(in.TimeTags), tags)
		}
		if got := cs.find(&want, want.Hash()&cs.mask); got != in {
			t.Fatalf("%s: looking up %s finds %v", when, in.Key(), got)
		}
	}
	chained := 0
	for hash, in := range cs.index {
		if in == nil {
			t.Fatalf("%s: hash %#x maps to an empty chain", when, hash)
		}
		for ; in != nil; in = in.next {
			chained++
			if in.hash != hash || in.pos < 0 || in.pos >= len(cs.list) || cs.list[in.pos] != in {
				t.Fatalf("%s: chain %#x holds %s, which is not a member under that hash", when, hash, in.Key())
			}
		}
	}
	if chained != len(cs.list) {
		t.Fatalf("%s: %d instantiations are chained, %d are members", when, chained, len(cs.list))
	}
	if len(cs.graves) != 0 {
		t.Fatalf("%s: %d graves outlived their phase", when, len(cs.graves))
	}
}

// TestConflictSetMatchesKeyedReference holds the conflict set —
// identity by production and wme IDs, hashed and compared without
// building a key — to the map keyed by InstChange.Key it replaced, on
// random sequences of adds, duplicate adds, deletes, deletes of the
// absent, refractions, excises, resets and match phases, checked after
// every step. Two steps in three queue a phase's delta, over a third of
// the identities, so a phase names a few of them several times. It
// runs once with the full hash and once with the hash cut to two bits,
// so that every chain operation (insert at the head, unlink from the
// head, the middle and the tail) runs under collisions.
func TestConflictSetMatchesKeyedReference(t *testing.T) {
	for _, mask := range []uint64{^uint64(0), 3} {
		rng := rand.New(rand.NewSource(23))
		h := newCSHarness(t, mask)
		longest := 0
		for step := 0; step <= 5000; step++ {
			switch {
			case step == 5000:
				h.phase()
			case rng.Intn(3) > 0:
				h.step(8, byte(rng.Intn(5)), byte(rng.Intn(5)))
			default:
				h.step(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
			}
			h.check(t, fmt.Sprintf("mask %#x step %d", mask, step))
			for _, in := range h.cs.index {
				n := 0
				for ; in != nil; in = in.next {
					n++
				}
				longest = max(longest, n)
			}
		}
		if mask == 3 && longest < 4 {
			t.Errorf("two hash bits: the longest chain was %d, want collisions", longest)
		}
	}
}

// FuzzConflictSet is the same check on sequences the fuzzer writes:
// three bytes a step, under the two-bit mask. A step whose first byte
// is 8 (mod 9) queues a delta of a match phase; the script's end
// absorbs what is still queued.
func FuzzConflictSet(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 3, 0, 0, 3, 0, 0})                                     // duplicate add, delete, delete of the absent
	f.Add([]byte{0, 1, 2, 1, 6, 2, 2, 11, 2, 5, 1, 0, 7, 1, 0})                           // three productions, one pair; refract; excise
	f.Add([]byte{0, 1, 2, 0, 2, 1, 0, 3, 4, 7, 8, 0, 0, 1, 2})                            // reset, then use again
	f.Add([]byte{0, 1, 2, 5, 0, 0, 8, 1, 2, 8, 1, 2})                                     // fire one; a phase deletes and adds it: it stays fired
	f.Add([]byte{0, 1, 2, 5, 0, 0, 8, 1, 2, 8, 1, 2, 8, 1, 2})                            // fire one; delete, add, delete: it is gone
	f.Add([]byte{0, 1, 2, 8, 1, 2, 8, 1, 2, 8, 1, 2})                                     // a member: delete, add, delete
	f.Add([]byte{8, 1, 2, 8, 1, 2, 0, 3, 4})                                              // a transient: add then delete
	f.Add([]byte{0, 1, 2, 0, 3, 4, 5, 0, 0, 8, 1, 2, 8, 3, 4, 8, 3, 4, 8, 1, 2, 8, 6, 7}) // two phases' worth interleaved
	f.Fuzz(func(t *testing.T, script []byte) {
		h := newCSHarness(t, 3)
		for i := 0; i+2 < len(script) && i < 3*400; i += 3 {
			h.step(script[i], script[i+1], script[i+2])
			h.check(t, fmt.Sprintf("step %d", i/3))
		}
		h.phase()
		h.check(t, "the last phase")
	})
}

// TestSymmetricTieFiresInKeyOrder pins the last tie-break of conflict
// resolution to the order of the key strings. The two instantiations of
// a self-join over wmes 9 and 10 tie on recency, specificity and name;
// their keys are pair[9 10] and pair[10 9], and as text the second
// sorts first ('1' < '9'), so it fires first. Numeric order would fire
// the other one — and change every transcript with a symmetric join.
func TestSymmetricTieFiresInKeyOrder(t *testing.T) {
	e, err := New(mustProgram(t, `(p pair (item ^v <x>) (item ^v <x>) --> (halt))`), CompileOptions{}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		e.MakeWME("filler", "n", i)
	}
	e.MakeWME("item", "v", 1) // id 9
	e.MakeWME("item", "v", 1) // id 10
	e.match()
	var got []string
	for _, in := range e.ConflictSet() {
		got = append(got, in.Key())
	}
	if want := "[pair[10 10] pair[10 9] pair[9 10] pair[9 9]]"; fmt.Sprint(got) != want {
		t.Errorf("conflict set %v, want %s", got, want)
	}
	// With the self-pairs out of the way the tie itself decides.
	e, err = New(mustProgram(t, `(p pair (item ^v <x>) (item ^v <> <x>) --> (halt))`), CompileOptions{}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		e.MakeWME("filler", "n", i)
	}
	e.MakeWME("item", "v", 1)
	e.MakeWME("item", "v", 2)
	if in, err := e.Step(); err != nil || in == nil || in.Key() != "pair[10 9]" {
		t.Fatalf("the symmetric tie fired %v (%v), want pair[10 9]", in, err)
	}
}

// TestResetLetsGoOfTheLastTenant: a reset session is what the pool
// shelves between clients. Its conflict set keeps the storage of its
// list and index and the unconsumed tails of its two slabs, and nothing
// in any of them still points at, or says anything about, the last
// client's instantiations: every list slot up to capacity is nil, the
// index is empty, and the tails — members and time tags not yet handed
// out — are zero.
func TestResetLetsGoOfTheLastTenant(t *testing.T) {
	prog, err := ops5.ParseProgram(sessionTestProg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(prog, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := c.NewSession(SessionOptions{})
	wmes, err := ops5.ParseWMEs(sessionTestWMEs(5))
	if err != nil {
		t.Fatal(err)
	}
	s.Assert(wmes...)
	s.match()
	cs := &s.conflict
	if len(cs.list) == 0 || cap(cs.recs.Region()) == 0 || cap(cs.tags.Region()) == 0 {
		t.Fatalf("the workload left the conflict set nothing to let go of: %d members", len(cs.list))
	}
	if !s.Reset() {
		t.Fatal("Reset refused")
	}
	for i, in := range cs.list[:cap(cs.list)] {
		if in != nil {
			t.Fatalf("list slot %d of %d still holds %s", i, cap(cs.list), in.Key())
		}
	}
	if len(cs.index) != 0 {
		t.Fatalf("the index still holds %d chains", len(cs.index))
	}
	recs := cs.recs.Region()
	for i, in := range recs[len(recs):cap(recs)] {
		if in.Prod != nil || in.WMEs != nil || in.TimeTags != nil || in.info != nil || in.next != nil {
			t.Fatalf("instantiation %d of the arena's tail is not zero: %+v", i, in)
		}
	}
	tags := cs.tags.Region()
	for i, tag := range tags[len(tags):cap(tags)] {
		if tag != 0 {
			t.Fatalf("time tag %d of the arena's tail is %d", i, tag)
		}
	}
	if cap(tags) > alloc.ChunkLen[int]() {
		t.Fatalf("the time-tag arena's region is %d long: an oversized region outlived its one member", cap(tags))
	}
}

// TestResetScrubsTheFreeLists: what a session recycles — the rows of
// deleted wmes and the instantiations the conflict set retired — stays
// with it across a reset for the next tenant, and none of it reaches a
// value of the last one. After a reset every row the last tenant held
// is blank (no ID, time tag or attribute value), every free
// instantiation holds no wme, and the fired one is let go; the last
// tenant's live and pending wmes are among the free rows. The next
// tenant then runs as on a fresh session.
func TestResetScrubsTheFreeLists(t *testing.T) {
	want := referenceRun(t, sessionTestProg, sessionTestWMEs(5), 100)
	prog, err := ops5.ParseProgram(sessionTestProg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(prog, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := c.NewSession(SessionOptions{})
	wmes, err := ops5.ParseWMEs(sessionTestWMEs(5))
	if err != nil {
		t.Fatal(err)
	}
	// Every row the tenant holds at some point, live or pending.
	seen := map[*ops5.WME]bool{}
	see := func() {
		for w := range s.LiveWMEs {
			seen[w] = true
		}
	}
	s.Assert(wmes...)
	see()
	for i := 0; i < 3; i++ {
		if in, err := s.Step(); err != nil || in == nil {
			t.Fatalf("step %d: %v, %v", i, in, err)
		}
		see()
	}
	seen[s.MakeWME("item", "name", "pending", "state", "raw")] = true
	held := s.WMCount() + 1
	if !s.Reset() {
		t.Fatal("Reset refused")
	}
	for w := range seen {
		if w.ID != 0 || w.TimeTag != 0 || w.Len() != 0 {
			t.Fatalf("row %d:%d %s is not blank", w.ID, w.TimeTag, w)
		}
	}
	// Each layout's free rows are taken off and put back in order.
	rows := 0
	for _, l := range c.Network().Layouts() {
		var free []*ops5.WME
		for w := s.free.Reuse(l, nil); w != nil; w = s.free.Reuse(l, nil) {
			free = append(free, w)
		}
		for i := len(free) - 1; i >= 0; i-- {
			s.free.Retire(free[i])
		}
		rows += len(free)
	}
	if rows < held {
		t.Fatalf("%d free rows after a reset, want at least the %d the last tenant held", rows, held)
	}
	insts := 0
	for _, in := range s.conflict.free {
		for ; in != nil; in = in.next {
			insts++
			for _, w := range in.WMEs {
				if w != nil {
					t.Fatalf("a free %s instantiation still holds %s", in.Prod.Name, w)
				}
			}
		}
	}
	if insts == 0 || s.conflict.fired != nil {
		t.Fatalf("%d free instantiations and fired %v after a reset; want some, and none held", insts, s.conflict.fired)
	}
	var out bytes.Buffer
	s.opts.Output = &out
	runSession(t, s, sessionTestWMEs(5), 100)
	if got := fingerprint(t, s, &out); got != want {
		t.Fatalf("the next tenant ran differently:\n%s\nwant\n%s", got, want)
	}
}

// TestPhaseOfGravesIsLinear: one match phase of n Deletes that find no
// member — n fired instantiations the matcher unmade — then the n Adds
// that remake them, each cancelling against its grave. An Add finds its
// grave through the set's index, so the phase costs O(n); a scan of the
// phase's graves would cost O(n²), 100 times as much for 10 times the
// deltas. Once warmed, the phase allocates nothing, and it leaves the
// set as it found it.
func TestPhaseOfGravesIsLinear(t *testing.T) {
	p, err := ops5.ParseProduction(`(p fire (x ^v 1) -(y ^v 1) (z ^v 1) --> (halt))`)
	if err != nil {
		t.Fatal(err)
	}
	info := &rete.ProdInfo{Prod: p, Node: &rete.Node{ID: 7, Kind: rete.KindProduction}, TokenPos: []int{0, -1, 1}}
	wmes := make([]*ops5.WME, 100)
	for i := range wmes {
		wmes[i] = ops5.NewWME("x", "v", 1)
		wmes[i].ID, wmes[i].TimeTag = i+1, i+1
	}
	phase := func(n int) []rete.InstChange {
		deltas := make([]rete.InstChange, 2*n)
		for i := range n {
			ws := []*ops5.WME{wmes[i/len(wmes)], nil, wmes[i%len(wmes)]}
			deltas[i] = rete.NewInstChange(rete.Delete, info, ws)
			deltas[n+i] = rete.NewInstChange(rete.Add, info, ws)
		}
		return deltas
	}
	cs := newConflictSet()
	best := func(deltas []rete.InstChange) time.Duration {
		cs.absorb(deltas) // warm the free list and the index
		d := time.Duration(math.MaxInt64)
		for range 5 {
			start := time.Now()
			cs.absorb(deltas)
			d = min(d, time.Since(start))
		}
		return d
	}
	small, large := phase(1000), phase(10000)
	ts, tl := best(small), best(large)
	t.Logf("a phase of 1,000 graves and their adds: %v; of 10,000: %v (%.1fx)", ts, tl, float64(tl)/float64(ts))
	if tl > 40*ts {
		t.Errorf("10 times the graves cost %.1f times as much, want about 10", float64(tl)/float64(ts))
	}
	// The index settles after a few phases' rehashes.
	for range 20 {
		cs.absorb(large)
	}
	if avg := testing.AllocsPerRun(10, func() { cs.absorb(large) }); avg != 0 {
		t.Errorf("a warmed phase of 10,000 graves allocates %.0f times, want 0", avg)
	}
	if len(cs.list) != 0 || len(cs.index) != 0 || len(cs.graves) != 0 {
		t.Errorf("after the phase: %d members, %d chains, %d graves; want none", len(cs.list), len(cs.index), len(cs.graves))
	}
}
