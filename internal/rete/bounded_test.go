package rete

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mpcrete/internal/ops5"
)

// crossChainSrc mirrors workloads.CrossChain (which cannot be imported
// here — workloads depends on engine): k chained classes listed in the
// adversarial evens-then-odds textual order.
func crossChainSrc(k int) string {
	src := ""
	for i := 0; i < k; i++ {
		src += fmt.Sprintf("(literalize link%d a b)\n", i)
	}
	src += "(literalize hit lo)\n(p chain\n"
	for i := 0; i < k; i += 2 {
		src += fmt.Sprintf("    (link%d ^a <x%d> ^b <x%d>)\n", i, i, i+1)
	}
	for i := 1; i < k; i += 2 {
		src += fmt.Sprintf("    (link%d ^a <x%d> ^b <x%d>)\n", i, i, i+1)
	}
	return src + "    -->\n    (make hit ^lo <x0>))\n"
}

// tourneySrc/tourneyWMEs mirror workloads.TourneyLike(WMEs): the
// Tourney-shaped cross-product with a negated CE.
const tourneySrc = `
(literalize team name)
(literalize slot round field)
(literalize pairing team round field)
(literalize phase name)

(p propose-pairing
    (phase ^name propose)
    (team ^name <t>)
    (slot ^round <r> ^field <f>)
    -(pairing ^team <t> ^round <r>)
    -->
    (make pairing ^team <t> ^round <r> ^field <f>))

(p done-proposing
    (phase ^name propose)
    -(team)
    -->
    (halt))
`

func tourneyWMEs(t, s int) string {
	out := "(phase ^name propose)\n"
	for i := 1; i <= t; i++ {
		out += fmt.Sprintf("(team ^name t%d)\n", i)
	}
	for i := 1; i <= s; i++ {
		out += fmt.Sprintf("(slot ^round %d ^field f%d)\n", i, i%2+1)
	}
	return out
}

// newBoundedHarness is newHarness over a worst-case-bounded network.
func newBoundedHarness(t *testing.T, nbuckets int, srcs ...string) *harness {
	t.Helper()
	var prods []*ops5.Production
	for _, src := range srcs {
		p, err := ops5.ParseProduction(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		prods = append(prods, p)
	}
	net, err := CompileVariant(prods, "bounded")
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

func TestBoundedBasicJoin(t *testing.T) {
	h := newBoundedHarness(t, 64, blocksProd)
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

	h.remove(hand)
	if len(h.cs) != 0 {
		t.Fatalf("instantiation not retracted: %v", keys(h.cs))
	}
	h.checkNaive()

	h.add("hand", "state", "free")
	h.checkNaive()
	h.remove(b1)
	if len(h.cs) != 0 {
		t.Fatalf("instantiation survived block removal: %v", keys(h.cs))
	}
	h.checkNaive()
}

func TestBoundedNegationTransitions(t *testing.T) {
	h := newBoundedHarness(t, 64, `
(p propose
    (phase ^name propose)
    (team ^name <t>)
    (slot ^round <r>)
    -(pairing ^team <t> ^round <r>)
    -->
    (halt))`)
	h.add("phase", "name", "propose")
	team := h.add("team", "name", "t1")
	h.add("slot", "round", 1)
	if len(h.cs) != 1 {
		t.Fatalf("conflict set = %v, want the unblocked instantiation", keys(h.cs))
	}
	h.checkNaive()

	// Adding the blocking wme retracts; a second blocker is a no-op;
	// removing them in either order revives only at the last removal.
	p1 := h.add("pairing", "team", "t1", "round", 1)
	if len(h.cs) != 0 {
		t.Fatalf("blocker did not retract: %v", keys(h.cs))
	}
	h.checkNaive()
	p2 := h.add("pairing", "team", "t1", "round", 1)
	h.checkNaive()
	h.remove(p1)
	if len(h.cs) != 0 {
		t.Fatalf("revived with one blocker still present: %v", keys(h.cs))
	}
	h.checkNaive()
	h.remove(p2)
	if len(h.cs) != 1 {
		t.Fatalf("did not revive after last blocker left: %v", keys(h.cs))
	}
	h.checkNaive()

	// Removing a positive member while unblocked retracts normally.
	h.remove(team)
	if len(h.cs) != 0 {
		t.Fatalf("instantiation survived team removal: %v", keys(h.cs))
	}
	h.checkNaive()
}

// TestBoundedSameWMEMultipleCollectors pins exactly-once emission when
// one wme reaches several collectors of the same group (same class in
// several CEs).
func TestBoundedSameWMEMultipleCollectors(t *testing.T) {
	h := newBoundedHarness(t, 64, `
(p pair (a ^x <u>) (a ^y <u>) --> (halt))`)
	w := h.add("a", "x", 1, "y", 1)
	h.checkNaive()
	h.add("a", "x", 2, "y", 1)
	h.checkNaive()
	h.remove(w)
	h.checkNaive()
}

// TestBoundedRandomizedDifferential is the property test of the issue:
// bounded-join conflict sets must be byte-identical to the brute-force
// matcher on random programs after every change, for hashed and linear
// memories. The harness additionally faults on duplicate insertions and
// deletes of absent instantiations, so emission multiplicity is checked
// too, not just the final set.
func TestBoundedRandomizedDifferential(t *testing.T) {
	for _, nbuckets := range []int{1, 64} {
		nbuckets := nbuckets
		t.Run(fmt.Sprintf("buckets=%d", nbuckets), func(t *testing.T) {
			rng := rand.New(rand.NewSource(43))
			for trial := 0; trial < 30; trial++ {
				srcs := randomProductions(rng, 1+rng.Intn(4))
				h := newBoundedHarness(t, nbuckets, srcs...)
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

// TestBoundedJoinOrderRecoversChain compiles the adversarial
// cross-product program (CEs listed evens-then-odds) and asserts the
// greedy ordering pass recovers the value chain: join position i holds
// class link<i>, regardless of textual position.
func TestBoundedJoinOrderRecoversChain(t *testing.T) {
	prog, err := ops5.ParseProgram(crossChainSrc(6))
	if err != nil {
		t.Fatal(err)
	}
	net, err := CompileVariant(prog.Productions, "bounded")
	if err != nil {
		t.Fatal(err)
	}
	info := net.Prods["chain"]
	// Textual CE order is link0,link2,link4,link1,link3,link5; the chain
	// order maps textual index -> join position as follows.
	want := []int{0, 2, 4, 1, 3, 5}
	for i, jp := range info.TokenPos {
		if jp != want[i] {
			t.Fatalf("TokenPos = %v, want %v (textual CE %d at join position %d)", info.TokenPos, want, i, jp)
		}
	}
	// Determinism: recompiling yields the identical order.
	net2, err := CompileVariant(prog.Productions, "bounded")
	if err != nil {
		t.Fatal(err)
	}
	for i := range info.TokenPos {
		if net2.Prods["chain"].TokenPos[i] != info.TokenPos[i] {
			t.Fatalf("join order not deterministic: %v vs %v", info.TokenPos, net2.Prods["chain"].TokenPos)
		}
	}
}

// TestBoundedHashKeyClustersGroup asserts every collector of a group
// (and for every wme) hashes to the group's home bucket, the clustering
// HashKey promises for bounded nodes.
func TestBoundedHashKeyClustersGroup(t *testing.T) {
	prog, err := ops5.ParseProgram(crossChainSrc(4))
	if err != nil {
		t.Fatal(err)
	}
	net, err := CompileVariant(prog.Productions, "bounded")
	if err != nil {
		t.Fatal(err)
	}
	var home uint64
	first := true
	for _, n := range net.Nodes {
		if n.Kind != KindBounded {
			continue
		}
		for j := 0; j < 3; j++ {
			w := ops5.NewWME(fmt.Sprintf("link%d", j), "a", j, "b", j+1)
			k := HashKey(nil, n, Right, Token{}, w)
			if first {
				home, first = k, false
			}
			if k != home {
				t.Fatalf("node %d hashes to %x, group home is %x", n.ID, k, home)
			}
		}
	}
	if first {
		t.Fatal("no bounded nodes compiled")
	}
}

func TestBoundedStats(t *testing.T) {
	prog, err := ops5.ParseProgram(crossChainSrc(4))
	if err != nil {
		t.Fatal(err)
	}
	net, err := CompileVariant(prog.Productions, "bounded")
	if err != nil {
		t.Fatal(err)
	}
	s := net.Stats()
	if s.BoundedNodes != 4 || s.JoinNodes != 0 || s.NegativeNodes != 0 {
		t.Fatalf("stats = %+v, want 4 bounded collectors and no two-input nodes", s)
	}
}

// TestBoundedDigestRoundTrip proves a bounded network survives the
// handshake: compiled again from its printed productions under its
// recorded variant, as a worker process does, it has the original's
// digest and matches identically.
func TestBoundedDigestRoundTrip(t *testing.T) {
	prog, err := ops5.ParseProgram(tourneySrc)
	if err != nil {
		t.Fatal(err)
	}
	net, err := CompileVariant(prog.Productions, "bounded")
	if err != nil {
		t.Fatal(err)
	}
	dec := recompile(t, net)
	if net.Variant() != "bounded" || dec.Digest() != net.Digest() {
		t.Fatalf("recompiled %q network has digest %#x, the original (%q) %#x", dec.Variant(), dec.Digest(), net.Variant(), net.Digest())
	}

	wmes, err := ops5.ParseWMEs(tourneyWMEs(5, 4))
	if err != nil {
		t.Fatal(err)
	}
	changes := make([]Change, len(wmes))
	for i, w := range wmes {
		w.ID, w.TimeTag = i+1, i+1
		changes[i] = Change{Tag: Add, WME: w}
	}
	run := func(n *Network) []string {
		m := NewMatcher(n, MatcherOptions{NBuckets: 64})
		var out []string
		for _, ic := range m.Apply(changes) {
			out = append(out, fmt.Sprintf("%v %s", ic.Tag, ic.Key()))
		}
		sort.Strings(out)
		return out
	}
	a, b := run(net), run(dec)
	if len(a) == 0 {
		t.Fatal("no instantiations produced; workload too small to prove anything")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("recompiled network diverges:\n original:   %v\n recompiled: %v", a, b)
	}
}

// TestBoundedAllocsSteadyState pins the enumerator's iterator path to
// O(1) steady-state allocations per activation: with the DFS stack and
// phase arena warm, add/delete cycles that enumerate partial matches
// but complete none must not allocate at all.
func TestBoundedAllocsSteadyState(t *testing.T) {
	prog, err := ops5.ParseProgram(crossChainSrc(4))
	if err != nil {
		t.Fatal(err)
	}
	net, err := CompileVariant(prog.Productions, "bounded")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(net, MatcherOptions{NBuckets: 64})

	// Resident link0/link1 wmes; no link3 ever exists, so the measured
	// activations drive the DFS through real partial enumerations that
	// never complete an instantiation.
	id := 1
	var warm []Change
	for j := 1; j <= 8; j++ {
		for _, cls := range []string{"link0", "link1"} {
			w := ops5.NewWME(cls, "a", j, "b", j+1)
			w.ID, w.TimeTag = id, id
			id++
			warm = append(warm, Change{Tag: Add, WME: w})
		}
	}
	if insts := m.Apply(warm); len(insts) != 0 {
		t.Fatalf("unexpected instantiations from a headless chain: %d", len(insts))
	}

	w := ops5.NewWME("link2", "a", 4, "b", 5)
	w.ID, w.TimeTag = id, id
	adds := []Change{{Tag: Add, WME: w}}
	dels := []Change{{Tag: Delete, WME: w}}
	m.Apply(adds)
	m.Apply(dels) // warm the queue and memory chunks once

	avg := testing.AllocsPerRun(100, func() {
		m.Apply(adds)
		m.Apply(dels)
	})
	if avg > 1 {
		t.Errorf("steady-state bounded activation pair allocates %.1f times, want <= 1", avg)
	}
}
