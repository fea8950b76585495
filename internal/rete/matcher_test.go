package rete

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"mpcrete/internal/alloc"
	"mpcrete/internal/ops5"
	"mpcrete/internal/raceflag"
)

// harness couples a matcher with an accumulated conflict set and a
// mirror of working memory for naive comparison.
type harness struct {
	t       *testing.T
	prods   []*ops5.Production
	matcher *Matcher
	wm      map[int]*ops5.WME
	cs      map[string]bool
	// held is the conflict set as an engine keeps it: the wmes of the
	// Add delta that put each instantiation there, copied out of the
	// array the matcher lent it.
	held   map[string][]*ops5.WME
	nextID int
}

func newHarness(t *testing.T, nbuckets int, srcs ...string) *harness {
	t.Helper()
	var prods []*ops5.Production
	for _, src := range srcs {
		p, err := ops5.ParseProduction(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		prods = append(prods, p)
	}
	net, err := Compile(prods)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return &harness{
		t:       t,
		prods:   prods,
		matcher: NewMatcher(net, MatcherOptions{NBuckets: nbuckets}),
		wm:      map[int]*ops5.WME{},
		cs:      map[string]bool{},
		held:    map[string][]*ops5.WME{},
		nextID:  1,
	}
}

func (h *harness) apply(changes ...Change) {
	h.t.Helper()
	for _, ch := range changes {
		if ch.Tag == Add {
			h.wm[ch.WME.ID] = ch.WME
		} else {
			delete(h.wm, ch.WME.ID)
		}
	}
	for _, ic := range h.matcher.Apply(changes) {
		key := ic.Key()
		if ic.Tag == Add {
			if h.cs[key] {
				h.t.Fatalf("duplicate instantiation %s", key)
			}
			h.cs[key] = true
			h.held[key] = slices.Clone(ic.WMEs())
		} else {
			if !h.cs[key] {
				h.t.Fatalf("deletion of absent instantiation %s", key)
			}
			delete(h.cs, key)
			delete(h.held, key)
		}
	}
}

func (h *harness) add(class string, pairs ...any) *ops5.WME {
	w := ops5.NewWME(class, pairs...)
	w.ID = h.nextID
	w.TimeTag = h.nextID
	h.nextID++
	h.apply(Change{Tag: Add, WME: w})
	return w
}

func (h *harness) remove(w *ops5.WME) { h.apply(Change{Tag: Delete, WME: w}) }

// checkNaive compares the accumulated conflict set with the
// brute-force reference over the current working memory.
func (h *harness) checkNaive() {
	h.t.Helper()
	wm := make([]*ops5.WME, 0, len(h.wm))
	for _, w := range h.wm {
		wm = append(wm, w)
	}
	want := naiveMatch(h.prods, wm)
	for k := range want {
		if !h.cs[k] {
			h.t.Fatalf("rete missing instantiation %s (have %v)", k, keys(h.cs))
		}
	}
	for k := range h.cs {
		if !want[k] {
			h.t.Fatalf("rete has spurious instantiation %s (want %v)", k, keys(want))
		}
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

const blocksProd = `
(p clear-blue
    (block ^name <b> ^color blue)
    (block ^on <b>)
    (hand ^state free)
    -->
    (remove 2))
`

func TestMatcherBasicJoin(t *testing.T) {
	h := newHarness(t, 64, blocksProd)
	b1 := h.add("block", "name", "b1", "color", "blue", "on", "table")
	h.add("block", "name", "b2", "on", "b1")
	if len(h.cs) != 0 {
		t.Fatalf("premature instantiation: %v", keys(h.cs))
	}
	hand := h.add("hand", "state", "free")
	if len(h.cs) != 1 {
		t.Fatalf("conflict set = %v, want 1 instantiation", keys(h.cs))
	}
	h.checkNaive()

	// Deleting the hand wme must retract the instantiation.
	h.remove(hand)
	if len(h.cs) != 0 {
		t.Fatalf("instantiation not retracted: %v", keys(h.cs))
	}
	h.checkNaive()

	// Re-adding restores it; removing the blue block retracts again.
	h.add("hand", "state", "free")
	if len(h.cs) != 1 {
		t.Fatal("instantiation not restored")
	}
	h.remove(b1)
	if len(h.cs) != 0 {
		t.Fatalf("retraction after block removal failed: %v", keys(h.cs))
	}
	h.checkNaive()
}

func TestMatcherSelfJoinSameWME(t *testing.T) {
	// One wme may match several CEs of the same production.
	h := newHarness(t, 16, `
(p pair (item ^v <x>) (item ^v <x>) --> (halt))
`)
	h.add("item", "v", 1)
	// (w1,w1) is a valid instantiation.
	if len(h.cs) != 1 {
		t.Fatalf("conflict set = %v, want [(w1,w1)]", keys(h.cs))
	}
	h.add("item", "v", 1)
	// (w1,w1) (w1,w2) (w2,w1) (w2,w2).
	if len(h.cs) != 4 {
		t.Fatalf("conflict set size = %d, want 4: %v", len(h.cs), keys(h.cs))
	}
	h.checkNaive()
}

func TestMatcherNegation(t *testing.T) {
	h := newHarness(t, 16, `
(p grab
    (block ^name <b>)
    -(hand ^holding <b>)
    -->
    (halt))
`)
	h.add("block", "name", "b1")
	if len(h.cs) != 1 {
		t.Fatalf("negated CE with empty memory should match, cs=%v", keys(h.cs))
	}
	hold := h.add("hand", "holding", "b1")
	if len(h.cs) != 0 {
		t.Fatalf("instantiation should retract when negation matches, cs=%v", keys(h.cs))
	}
	h.checkNaive()
	h.remove(hold)
	if len(h.cs) != 1 {
		t.Fatal("instantiation should return when blocker removed")
	}
	// A different block is unaffected by a hold on b1.
	h.add("hand", "holding", "b2")
	if len(h.cs) != 1 {
		t.Fatalf("unrelated hold retracted instantiation, cs=%v", keys(h.cs))
	}
	h.checkNaive()
}

func TestMatcherNegationFirstCE(t *testing.T) {
	// A production may begin with a negated CE.
	h := newHarness(t, 16, `
(p idle -(task ^state active) (clock ^t <t>) --> (halt))
`)
	h.add("clock", "t", 0)
	if len(h.cs) != 1 {
		t.Fatal("want instantiation with no active tasks")
	}
	task := h.add("task", "state", "active")
	if len(h.cs) != 0 {
		t.Fatal("active task should block")
	}
	h.remove(task)
	if len(h.cs) != 1 {
		t.Fatal("instantiation should come back")
	}
	h.checkNaive()
}

func TestMatcherPredicates(t *testing.T) {
	h := newHarness(t, 16, `
(p bigger (num ^v <x>) (num ^v > <x> ^v <= 10) --> (halt))
`)
	h.add("num", "v", 3)
	h.add("num", "v", 7)
	h.add("num", "v", 12)
	// pairs (x=3,7): 7>3 ok; (3,12):12>10 fails; (7,12) fails; (7,3) no; ...
	if len(h.cs) != 1 {
		t.Fatalf("cs = %v, want exactly (3,7)", keys(h.cs))
	}
	h.checkNaive()
}

func TestMatcherCrossProductNoEqTests(t *testing.T) {
	// A join with no variable tested hashes everything to one bucket
	// (the Tourney pathology) but must still be correct.
	h := newHarness(t, 64, `
(p cross (a ^x <u>) (b ^y <w>) --> (halt))
`)
	for i := 0; i < 5; i++ {
		h.add("a", "x", i)
	}
	for j := 0; j < 4; j++ {
		h.add("b", "y", j)
	}
	if len(h.cs) != 20 {
		t.Fatalf("cross product size = %d, want 20", len(h.cs))
	}
	h.checkNaive()
	// The join node must have no equality tests.
	net := h.matcher.Network()
	for _, n := range net.Nodes {
		if n.Kind == KindJoin && len(n.EqTests) != 0 {
			t.Errorf("node %d has unexpected eq tests %v", n.ID, n.EqTests)
		}
	}
}

// TestMatcherRandomizedDifferential drives random add/delete sequences
// through randomly generated productions and checks the conflict set
// against the brute-force matcher after every cycle, for both hashed
// and linear (single-bucket) memories.
func TestMatcherRandomizedDifferential(t *testing.T) {
	for _, nbuckets := range []int{1, 64} {
		nbuckets := nbuckets
		t.Run(fmt.Sprintf("buckets=%d", nbuckets), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 30; trial++ {
				srcs := randomProductions(rng, 1+rng.Intn(4))
				h := newHarness(t, nbuckets, srcs...)
				var live []*ops5.WME
				for step := 0; step < 40; step++ {
					if len(live) > 0 && rng.Intn(3) == 0 {
						i := rng.Intn(len(live))
						h.remove(live[i])
						live = append(live[:i], live[i+1:]...)
					} else {
						w := h.add(
							[]string{"a", "b", "c"}[rng.Intn(3)],
							"x", rng.Intn(3), "y", rng.Intn(3),
						)
						live = append(live, w)
					}
					h.checkNaive()
				}
			}
		})
	}
}

// randomProductions generates small random but valid productions over
// classes a/b/c, attributes x/y, variables u/v, and values 0..2.
func randomProductions(rng *rand.Rand, n int) []string {
	classes := []string{"a", "b", "c"}
	vars := []string{"<u>", "<v>"}
	preds := []string{"", "<> ", "> ", "< "}
	var srcs []string
	for i := 0; i < n; i++ {
		nce := 1 + rng.Intn(3)
		src := fmt.Sprintf("(p r%d", i)
		for c := 0; c < nce; c++ {
			neg := c > 0 && rng.Intn(4) == 0
			ce := ""
			if neg {
				ce = "-"
			}
			ce += "(" + classes[rng.Intn(3)]
			for _, attr := range []string{"x", "y"} {
				switch rng.Intn(4) {
				case 0: // skip attribute
				case 1:
					ce += fmt.Sprintf(" ^%s %d", attr, rng.Intn(3))
				default:
					ce += fmt.Sprintf(" ^%s %s%s", attr, preds[rng.Intn(4)], vars[rng.Intn(2)])
				}
			}
			ce += ")"
			src += " " + ce
		}
		src += " --> (halt))"
		srcs = append(srcs, src)
	}
	return srcs
}

// pairingBurst builds the wide-join burst of the tourney workload: a
// phase wme, teams and slots whose cross product instantiates one
// production teams x slots times behind a negated CE, as one add burst
// and the delete burst that unwinds it.
func pairingBurst(t *testing.T, teams, slots int) (m *Matcher, adds, dels []Change) {
	t.Helper()
	net := compileT(t, []string{`(p propose-pairing
		(phase ^name propose) (team ^name <t>) (slot ^round <r> ^field <f>)
		-(pairing ^team <t> ^round <r>)
		--> (make pairing ^team <t> ^round <r> ^field <f>))`})
	wmes := []*ops5.WME{ops5.NewWME("phase", "name", "propose")}
	for i := 1; i <= teams; i++ {
		wmes = append(wmes, ops5.NewWME("team", "name", fmt.Sprintf("t%d", i)))
	}
	for i := 1; i <= slots; i++ {
		wmes = append(wmes, ops5.NewWME("slot", "round", i, "field", fmt.Sprintf("f%d", i%2+1)))
	}
	for i, w := range wmes {
		w.ID, w.TimeTag = i+1, i+1
		adds = append(adds, Change{Tag: Add, WME: w})
		dels = append(dels, Change{Tag: Delete, WME: w})
	}
	return NewMatcher(net, MatcherOptions{}), adds, dels
}

// TestApplyAllocsDoNotGrowWithOutput pins the allocation count of a
// match phase to its arena chunks plus a fixed number of result arrays:
// nothing is allocated per conflict-set delta, and nothing at all for
// the records of a result the caller hands back.
func TestApplyAllocsDoNotGrowWithOutput(t *testing.T) {
	measure := func(teams, slots int, handBack bool) (allocs float64, deltas int) {
		m, adds, dels := pairingBurst(t, teams, slots)
		m.Apply(adds)
		m.Apply(dels) // the hash tables, queue and scratch grow here and never again
		apply := func(chs []Change) int {
			out := m.Apply(chs)
			if handBack {
				m.Recycle(out)
			}
			return len(out)
		}
		allocs = testing.AllocsPerRun(5, func() {
			deltas = apply(adds) + apply(dels)
		})
		return allocs, deltas
	}
	allocs, deltas := measure(60, 50, false)
	if deltas != 6000 {
		t.Fatalf("60x50 add and delete bursts made %d deltas, want 6000", deltas)
	}
	// The two result record arrays, each of exactly its own size because
	// the caller keeps them (TestKeptBurstBytesPerDelta pins their
	// bytes), and nothing else: 2, and 3 in some runs
	// after the package's other tests (12 while the tokens
	// the add burst stored were carved from chunks that no delete gave
	// back, the same while the records were carved from a slab, which
	// gave a result this large an array of its own, and while the Add
	// deltas' array was allocated beside them; 24 while every token also
	// had a header carved from token chunks of its own; 46 before the
	// delete arena kept the chunks a phase outgrew and lent the Delete
	// deltas their arrays; 60 before memory entries moved into their
	// buckets). The add burst stores its tokens in the runs the last
	// delete burst gave back to the store; both bursts' tokens are carved
	// from what the first pair left the phase arena, and their 12,000
	// lent references each from what the lent arena kept, which is what a
	// matcher that once saw the burst holds until it is Reset.
	if allocs > 3 {
		t.Errorf("60x50 burst pair: %.0f allocations for %d deltas, want <= 3", allocs, deltas)
	}
	// Handed back, each burst builds its result in the storage of the one
	// before: the two record arrays are gone (9).
	if back, _ := measure(60, 50, true); back > allocs-2 {
		t.Errorf("60x50 burst pair with its results handed back: %.0f allocations, want <= %.0f: the records are still allocated", back, allocs-2)
	}
	allocs2, deltas2 := measure(120, 50, false)
	if deltas2 != 12000 {
		t.Fatalf("120x50 add and delete bursts made %d deltas, want 12000", deltas2)
	}
	// Twice the output needs the same two result arrays and nothing more,
	// give or take the one allocation above (one more allocation per 750
	// deltas while the add burst carved its stored tokens afresh).
	if extra := allocs2 - allocs; extra > 1 {
		t.Errorf("doubling the burst added %.0f allocations for %d more deltas: allocations grow per delta", extra, deltas2-deltas)
	}
}

// TestNewInstChangeRefusesAnotherLength: a delta is made only over a
// run of one wme per condition element of its production, because
// WMEs reads the run back at exactly that length. A run one short, one
// long or empty panics, naming the production; the right length reads
// back as the very run it was made over.
func TestNewInstChangeRefusesAnotherLength(t *testing.T) {
	net := compileT(t, []string{`(p pair (a ^x <v>) -(c ^x <v>) (b ^y <v>) --> (halt))`})
	info := net.Prods["pair"]
	w1, w2 := ops5.NewWME("a", "x", 1), ops5.NewWME("b", "y", 1)
	w1.ID, w2.ID = 1, 2
	for _, ws := range [][]*ops5.WME{{w1, nil}, {w1, nil, w2, nil}, nil} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, `delta of "pair" over `+strconv.Itoa(len(ws))+` wmes, the production has 3`) {
					t.Errorf("a run of %d made a delta of a 3-element production (recovered %q)", len(ws), msg)
				}
			}()
			NewInstChange(Add, info, ws)
		}()
	}
	ws := []*ops5.WME{w1, nil, w2}
	ic := NewInstChange(Delete, info, ws)
	if got := ic.WMEs(); len(got) != 3 || cap(got) != 3 || &got[0] != &ws[0] || ic.Tag != Delete || ic.Key() != "pair[1 2]" {
		t.Fatalf("the delta reads %v (tag %v, key %s), want the run it was made over", got, ic.Tag, ic.Key())
	}
}

// TestKeptBurstBytesPerDelta pins what a delta costs a caller that
// keeps its result: a 60x50 add burst's 3,000 deltas come in one array
// of 24-byte records and nothing else, so the phase allocates 24 bytes
// a delta plus the allocator's rounding of that array up to whole
// pages (40 bytes a delta and its rounding while a delta carried its
// wme run as a slice header).
func TestKeptBurstBytesPerDelta(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("escape analysis decides differently under the race detector")
	}
	const record = 24
	if size := unsafe.Sizeof(InstChange{}); size != record {
		t.Fatalf("InstChange is %d bytes, want %d", size, record)
	}
	m, adds, dels := pairingBurst(t, 60, 50)
	// The hash tables, queue and arenas grow in the first pair, and the
	// second add burst still grows a few runs of the store.
	for range 2 {
		m.Apply(adds)
		m.Apply(dels)
	}
	// The least of five runs: now and then a burst still grows the match
	// queue by a few objects, which no delta pays for.
	var before, after runtime.MemStats
	bytes := uint64(math.MaxUint64)
	for range 5 {
		runtime.ReadMemStats(&before)
		kept := m.Apply(adds)
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		if len(kept) != 3000 {
			t.Fatalf("60x50 add burst made %d deltas, want 3000", len(kept))
		}
		m.Apply(dels)
	}
	const page = 8 << 10
	array := (3000*record + page - 1) / page * page
	perDelta := float64(bytes) / 3000
	t.Logf("%.2f heap bytes per kept delta", perDelta)
	if want := float64(array) / 3000; perDelta > want {
		t.Errorf("a kept 60x50 add burst allocates %.2f bytes a delta, want at most %.3f (%d-byte records in one page-rounded array)", perDelta, want, record)
	}
}

// frontierPeak is a Listener that computes, for each phase, the most
// activations that were ever queued and not yet performed: the roots,
// plus the successors of every activation performed so far, minus those
// performed.
type frontierPeak struct {
	kids  []int // successors queued by each activation, by Seq
	roots int
	peak  int
}

func (f *frontierPeak) BeginCycle(int, []Change) { f.kids, f.roots = f.kids[:0], 0 }

func (f *frontierPeak) Activation(ev Event) {
	f.kids = append(f.kids, 0)
	if ev.ParentSeq < 0 {
		f.roots++
	} else {
		f.kids[ev.ParentSeq]++
	}
}

func (f *frontierPeak) Instantiation(InstChange, int) {}

func (f *frontierPeak) EndCycle(int) {
	out := f.roots
	for _, k := range f.kids {
		f.peak = max(f.peak, out)
		out += k - 1
	}
}

// TestQueueBoundedByFrontier: the match queue is as long as its
// frontier, not as the phase's activation count — ApplyFiltered drops
// the drained prefix once the head passes half the capacity — so its
// capacity stays within twice its peak outstanding activations plus the
// compaction threshold, and so does the parentage kept beside it for the
// Listener. The 60x50 burst is wide (its frontier peaks at
// 3,060 of 3,232 activations), so a queue that grows to the activation
// count passes there too; the chain is deep — 40 roots, each walking a
// 19-join chain — and a queue as long as its phase (1,024 slots) fails
// it.
func TestQueueBoundedByFrontier(t *testing.T) {
	check := func(t *testing.T, m *Matcher, fp *frontierPeak) {
		t.Helper()
		bound := 2 * (fp.peak + queueCompactMin)
		if cap(m.queue) > bound || cap(m.parents) > bound {
			t.Errorf("queue capacity %d, its parentage %d, peak outstanding %d: want <= %d", cap(m.queue), cap(m.parents), fp.peak, bound)
		}
	}
	t.Run("burst-60x50", func(t *testing.T) {
		m, adds, dels := pairingBurst(t, 60, 50)
		fp := &frontierPeak{}
		m.listener = fp
		for i := 0; i < 2; i++ {
			m.Apply(adds)
			m.Apply(dels)
		}
		check(t, m, fp)
	})
	t.Run("chain", func(t *testing.T) {
		const ces, roots = 20, 40
		src := "(p chain"
		for c := 0; c < ces; c++ {
			src += fmt.Sprintf(" (c%d ^v <x>)", c)
		}
		fp := &frontierPeak{}
		m := NewMatcher(compileT(t, []string{src + " --> (halt))"}), MatcherOptions{Listener: fp})
		// The chains' right inputs go in one value at a time, then every
		// chain's head at once.
		var lefts []Change
		for x := 1; x <= roots; x++ {
			var rights []Change
			for c := 0; c < ces; c++ {
				ch := Change{Tag: Add, WME: mkWME(x*ces+c, fmt.Sprintf("c%d", c), "v", x)}
				if c == 0 {
					lefts = append(lefts, ch)
				} else {
					rights = append(rights, ch)
				}
			}
			m.Apply(rights)
		}
		if got := len(m.Apply(lefts)); got != roots {
			t.Fatalf("the chain made %d instantiations, want %d", got, roots)
		}
		check(t, m, fp)
	})
}

// TestApplyResultBelongsToCaller states what of a result is the
// caller's, and until when (the burst benchmark nets the add burst's
// deltas after the delete burst has run; the engine copies what it
// keeps of a delta into its conflict set). The records — Tag and Info of
// every delta — of a result that is not handed back (Recycle) are never
// written again: they are unchanged after a thousand one-delta phases.
// Every delta's WMEs array, an Add's as much as
// a Delete's, is lent from the lent arena until the next Apply: until
// then it names the delta's wmes, and with the poison on it reads as the
// sentinel right after it.
func TestApplyResultBelongsToCaller(t *testing.T) {
	m, adds, dels := pairingBurst(t, 6, 5)
	type delta struct {
		tag  Tag
		prod string
	}
	snapshot := func(ics []InstChange) []delta {
		out := make([]delta, len(ics))
		for i := range ics {
			out[i] = delta{ics[i].Tag, ics[i].Info.Prod.Name}
		}
		return out
	}
	// lentUntilNextApply holds a result's arrays to the contract across
	// the next Apply, which it makes, of no changes: a phase that carves
	// nothing over them.
	lentUntilNextApply := func(what string, held []InstChange) {
		t.Helper()
		for i := range held {
			// Until the next Apply a lent array is as good as any.
			if !lent(&m.proc.lent, held[i].WMEs()) {
				t.Fatalf("%s delta %d: array %v is not lent from the lent arena", what, i, held[i].WMEs())
			}
		}
		m.Apply(nil)
		if !alloc.Poisoned() {
			return
		}
		for i := range held {
			for _, w := range held[i].WMEs() {
				if w != poisonWME {
					t.Fatalf("held %s delta %d reads %v after the next Apply: its array was not lent from the rewound arena", what, i, held[i].WMEs())
				}
			}
		}
	}
	held := m.Apply(adds)
	want := snapshot(held)
	if len(held) != 30 || held[0].Tag != Add {
		t.Fatalf("6x5 add burst made deltas %v, want 30 adds", want)
	}
	lentUntilNextApply("add", held)
	heldDel := m.Apply(dels)
	wantDel := snapshot(heldDel)
	if len(heldDel) != 30 || heldDel[0].Tag != Delete {
		t.Fatalf("6x5 delete burst made deltas %v, want 30 deletes", wantDel)
	}
	lentUntilNextApply("delete", heldDel)
	m.Apply(adds)
	// A pairing vetoes one proposal; taking it back restores it.
	veto := ops5.NewWME("pairing", "team", "t1", "round", 1)
	veto.ID, veto.TimeTag = 1000, 1000
	one := m.Apply([]Change{{Tag: Add, WME: veto}})
	if len(one) != 1 || one[0].Tag != Delete {
		t.Fatalf("a vetoing pairing made deltas %v, want one delete", snapshot(one))
	}
	back := m.Apply([]Change{{Tag: Delete, WME: veto}})
	wantBack := snapshot(back)
	if len(back) != 1 || back[0].Tag != Add {
		t.Fatalf("taking the veto back made deltas %v, want one add", wantBack)
	}
	for i := 0; i < 500; i++ {
		m.Apply([]Change{{Tag: Add, WME: veto}})
		m.Apply([]Change{{Tag: Delete, WME: veto}})
	}
	m.Apply(dels)
	for i, got := range snapshot(held) {
		if got != want[i] {
			t.Fatalf("the record of held add delta %d changed under later Apply calls: %v, was %v", i, got, want[i])
		}
	}
	if got := snapshot(back); got[0] != wantBack[0] {
		t.Fatalf("a held one-delta result changed under later Apply calls: %v, was %v", got[0], wantBack[0])
	}
	for i, got := range snapshot(heldDel) {
		if got != wantDel[i] {
			t.Fatalf("the record of held delete delta %d changed under later Apply calls: %v, was %v", i, got, wantDel[i])
		}
	}
}

// TestKeptResultOutlivesLaterPhases: a result its caller keeps — the
// add burst, read again after the delete burst — reads the same after
// 50 later phases, all of whose results are handed back, so the
// matcher has storage of its own to build in and must never choose the
// kept result's.
func TestKeptResultOutlivesLaterPhases(t *testing.T) {
	m, adds, dels := pairingBurst(t, 6, 5)
	kept := m.Apply(adds)
	want := make([]string, len(kept))
	for i := range kept {
		want[i] = kept[i].Tag.String() + kept[i].Info.Prod.Name
	}
	for i := 0; i < 50; i++ {
		m.Recycle(m.Apply([][]Change{dels, adds}[i%2]))
	}
	for i := range kept {
		if got := kept[i].Tag.String() + kept[i].Info.Prod.Name; got != want[i] {
			t.Fatalf("kept delta %d reads %s after 50 later phases, was %s", i, got, want[i])
		}
	}
}

// TestHandedBackResultBacksTheNext: the storage of a handed-back
// result is where the next phase with deltas builds its own, an empty
// phase in between leaves it there, and a phase with more deltas than
// it holds grows it, to exactly its own size.
func TestHandedBackResultBacksTheNext(t *testing.T) {
	m, adds, dels := pairingBurst(t, 6, 5)
	first := m.Apply(adds)
	m.Recycle(first)
	m.Recycle(m.Apply(nil))
	next := m.Apply(dels)
	if len(next) != 30 || &next[0] != &first[0] {
		t.Fatalf("the delete burst's %d deltas were not built in the add burst's handed-back storage", len(next))
	}
	m.Recycle(next)
	// A seventh team pairs with every slot: 35 deltas, more than the
	// storage holds.
	team := ops5.NewWME("team", "name", "t7")
	team.ID, team.TimeTag = 1000, 1000
	grown := m.Apply(append(adds[:len(adds):len(adds)], Change{Tag: Add, WME: team}))
	if len(grown) != 35 || cap(grown) != 35 || &grown[0] == &first[0] {
		t.Fatalf("a phase after a handed-back 30-delta result: %d deltas in an array of %d, the handed-back one %v; want 35 in a new one of 35", len(grown), cap(grown), &grown[0] == &first[0])
	}
}

// checkHandedBackScrubbed is a subtest of TestPoisonedRewinds: with the
// poison on, a handed-back result's records read as scrubbed — every
// wme of every delta the sentinel — and the next phase builds its
// result elsewhere, so a reader that held a result past handing it back
// reads the sentinel, not the next phase's deltas.
func checkHandedBackScrubbed(t *testing.T) {
	m, adds, dels := pairingBurst(t, 6, 5)
	back := m.Apply(adds)
	m.Recycle(back)
	next := m.Apply(dels)
	for i := range back {
		for _, w := range back[i].WMEs() {
			if w != poisonWME {
				t.Fatalf("handed-back delta %d reads %v, want every wme the sentinel", i, back[i].WMEs())
			}
		}
	}
	if len(next) != 30 || &next[0] == &back[0] {
		t.Fatalf("under the poison the delete burst's %d deltas were built in the handed-back storage", len(next))
	}
}

// holdsNothing fails if any slot, up to capacity, of the matcher's
// scratch slices, hash buckets, free bucket regions, wme table or lent
// arena still points at a token or a wme, or an arena keeps more than
// one ordinary region.
func holdsNothing(t *testing.T, m *Matcher) {
	t.Helper()
	for name, acts := range map[string][]Activation{"queue": m.queue, "instActs": m.instActs} {
		for i, a := range acts[:cap(acts)] {
			if a.Token.H != nil || a.WME != 0 {
				t.Fatalf("%s slot %d of %d still holds an activation", name, i, cap(acts))
			}
		}
	}
	for i, ic := range m.spare[:cap(m.spare)] {
		if ic != (InstChange{}) {
			t.Fatalf("handed-back result slot %d of %d still holds a delta", i, cap(m.spare))
		}
	}
	for b, bucket := range m.proc.left.buckets {
		for i, e := range bucket[:cap(bucket)] {
			if e.node != nil || e.token.H != nil || e.count != 0 {
				t.Fatalf("left bucket %d slot %d of %d still holds an entry", b, i, cap(bucket))
			}
		}
	}
	for b, bucket := range m.proc.right.buckets {
		for i, e := range bucket[:cap(bucket)] {
			if e != (rightEntry{}) {
				t.Fatalf("right bucket %d slot %d of %d still holds an entry", b, i, cap(bucket))
			}
		}
	}
	freeZero(t, "left regions", &m.proc.lregs)
	freeZero(t, "right regions", &m.proc.rregs)
	if tab := m.tab; len(tab.rows) != 1 || len(tab.byID) != 0 || len(tab.free)+len(tab.retired) != 0 {
		t.Fatalf("the table holds %d rows, %d ids, %d free and %d retired handles", len(tab.rows), len(tab.byID), len(tab.free), len(tab.retired))
	}
	for i, w := range m.tab.rows[1:cap(m.tab.rows)] {
		if w != nil {
			t.Fatalf("table row %d still holds a wme", i+1)
		}
	}
	if n := cap(m.proc.phase.Region()); n > alloc.ChunkLen[int32]() {
		t.Fatalf("phase arena keeps a region of %d", n)
	}
	if n := cap(m.proc.lent.Region()); n > alloc.ChunkLen[*ops5.WME]() {
		t.Fatalf("lent arena keeps a region of %d", n)
	}
	// The store's free lists hold no run (alloc.Pool.Reset).
	if n := freeLen(&m.proc.store); n != 0 {
		t.Fatalf("the store frees %d handles", n)
	}
	for i, w := range m.proc.lent.Region()[:cap(m.proc.lent.Region())] {
		if w != nil {
			t.Fatalf("lent arena: slot %d of the region is still set", i)
		}
	}
}

// TestResetLetsGoOfTheLastTenant: a reset matcher is what a session
// pool shelves between clients, so nothing reachable from it may still
// point at the last client's working memory — not the stored entries,
// and not the scratch slices' backing arrays either, which keep every
// activation of the largest phase so far unless they are cleared to
// their capacity.
func TestResetLetsGoOfTheLastTenant(t *testing.T) {
	m, adds, dels := pairingBurst(t, 12, 10)
	m.Recycle(m.Apply(adds))
	m.Recycle(m.Apply(dels[len(dels)-5:])) // a smaller phase: the big one's tail stays in the arrays
	if cap(m.queue) == 0 || cap(m.instActs) == 0 || cap(m.spare) == 0 || m.proc.left.Len() == 0 || len(m.proc.phase.Region()) == 0 || freeLen(&m.proc.store) == 0 || len(m.tab.rows) < 2 {
		t.Fatalf("the bursts left nothing behind to let go of: queue %d, instActs %d, left %d, phase handles %d, free stored handles %d, table rows %d",
			cap(m.queue), cap(m.instActs), m.proc.left.Len(), len(m.proc.phase.Region()), freeLen(&m.proc.store), len(m.tab.rows))
	}
	m.Reset()
	holdsNothing(t, m)

	// A delete phase wider than a chunk leaves the phase and lent arenas
	// regions that hold it whole; a pooled session must inherit neither.
	wide, wadds, wdels := pairingBurst(t, 30, 20)
	wide.Apply(wadds)
	wide.Apply(wdels)
	wide.Apply(wadds)
	if ar, la := cap(wide.proc.phase.Region()), cap(wide.proc.lent.Region()); ar <= alloc.ChunkLen[int32]() || la <= alloc.ChunkLen[*ops5.WME]() {
		t.Fatalf("a 30x20 delete burst left regions of %d and %d, want both past a chunk", ar, la)
	}
	wide.Reset()
	holdsNothing(t, wide)
	// And it still works, from cycle 1.
	if got := len(m.Apply(adds)); got != 120 || m.Cycle() != 1 {
		t.Errorf("after Reset the add burst made %d deltas in cycle %d, want 120 in cycle 1", got, m.Cycle())
	}

	// The bounded enumerator keeps candidate wmes in scratch of its own.
	prog, err := ops5.ParseProgram(crossChainSrc(3))
	if err != nil {
		t.Fatal(err)
	}
	net, err := CompileVariant(prog.Productions, "bounded")
	if err != nil {
		t.Fatal(err)
	}
	b := NewMatcher(net, MatcherOptions{NBuckets: 16})
	var chain []Change
	for id, cls := range []string{"link0", "link1", "link2", "link0", "link1"} {
		w := ops5.NewWME(cls, "a", id%3+1, "b", id%3+2)
		w.ID, w.TimeTag = id+1, id+1
		chain = append(chain, Change{Tag: Add, WME: w})
	}
	b.Apply(chain)
	if cap(b.proc.bstack) == 0 || cap(b.proc.bmem) == 0 {
		t.Fatal("the bounded burst never reached the enumerator")
	}
	b.Reset()
	holdsNothing(t, b)
}
