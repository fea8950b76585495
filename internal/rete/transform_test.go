package rete

import (
	"fmt"
	"math/rand"
	"testing"

	"mpcrete/internal/ops5"
)

// sharedFanoutProds defines three productions sharing the (a,b) join,
// giving that node fan-out 3.
var sharedFanoutProds = []string{
	`(p o1 (a ^x <v>) (b ^x <v>) (c ^k 1) --> (halt))`,
	`(p o2 (a ^x <v>) (b ^x <v>) (c ^k 2) --> (halt))`,
	`(p o3 (a ^x <v>) (b ^x <v>) (c ^k 3) --> (halt))`,
}

func compileT(t *testing.T, srcs []string) *Network {
	t.Helper()
	net, err := Compile(mustParse(t, srcs...))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func sharedJoin(t *testing.T, net *Network) *Node {
	t.Helper()
	for _, n := range net.Nodes {
		if n.IsTwoInput() && len(n.Succs) > 1 {
			return n
		}
	}
	t.Fatal("no shared join found")
	return nil
}

// runConflictSet drives the same wme sequence through a matcher and
// returns the resulting conflict-set key set.
func runConflictSet(t *testing.T, net *Network, wmes []*ops5.WME) map[string]bool {
	t.Helper()
	m := NewMatcher(net, MatcherOptions{NBuckets: 64})
	cs := map[string]bool{}
	for _, w := range wmes {
		for _, ic := range m.Apply([]Change{{Tag: Add, WME: w}}) {
			if ic.Tag == Add {
				cs[ic.Key()] = true
			} else {
				delete(cs, ic.Key())
			}
		}
	}
	return cs
}

func fanoutWMEs() []*ops5.WME {
	var wmes []*ops5.WME
	id := 1
	mk := func(class string, pairs ...any) {
		w := ops5.NewWME(class, pairs...)
		w.ID = id
		w.TimeTag = id
		id++
		wmes = append(wmes, w)
	}
	for i := 0; i < 4; i++ {
		mk("a", "x", i)
		mk("b", "x", i)
	}
	mk("c", "k", 1)
	mk("c", "k", 2)
	mk("c", "k", 3)
	return wmes
}

func conflictSetsEqual(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func TestUnsharePreservesMatches(t *testing.T) {
	wmes := fanoutWMEs()
	base := runConflictSet(t, compileT(t, sharedFanoutProds), wmes)
	if len(base) != 12 {
		t.Fatalf("baseline conflict set = %d, want 12", len(base))
	}

	net := compileT(t, sharedFanoutProds)
	n := sharedJoin(t, net)
	copies, err := net.Unshare(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(copies) != 3 {
		t.Fatalf("unshare produced %d nodes, want 3", len(copies))
	}
	for _, c := range copies {
		if len(c.Succs) != 1 {
			t.Errorf("node %d fan-out = %d, want 1", c.ID, len(c.Succs))
		}
	}
	after := runConflictSet(t, net, wmes)
	if !conflictSetsEqual(base, after) {
		t.Errorf("unshare changed matches: %v vs %v", base, after)
	}
}

func TestCopyAndConstrainPreservesMatches(t *testing.T) {
	// A pure cross-product join: no equality tests.
	srcs := []string{`(p cross (a ^x <u>) (b ^y <w>) --> (halt))`}
	var wmes []*ops5.WME
	id := 1
	for i := 0; i < 6; i++ {
		w := ops5.NewWME("a", "x", i)
		w.ID, w.TimeTag = id, id
		id++
		wmes = append(wmes, w)
		w2 := ops5.NewWME("b", "y", i)
		w2.ID, w2.TimeTag = id, id
		id++
		wmes = append(wmes, w2)
	}
	base := runConflictSet(t, compileT(t, srcs), wmes)
	if len(base) != 36 {
		t.Fatalf("baseline cross product = %d, want 36", len(base))
	}

	net := compileT(t, srcs)
	var join *Node
	for _, n := range net.Nodes {
		if n.Kind == KindJoin {
			join = n
		}
	}
	copies, err := net.CopyAndConstrain(join, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(copies) != 3 {
		t.Fatalf("copies = %d", len(copies))
	}
	after := runConflictSet(t, net, wmes)
	if !conflictSetsEqual(base, after) {
		t.Errorf("copy-and-constraint changed matches (%d vs %d)", len(base), len(after))
	}

	// Right memory must be partitioned: each copy accepts a disjoint
	// subset of wme ids.
	for id := 0; id < 10; id++ {
		w := ops5.NewWME("b", "y", 0)
		w.ID = id
		accepts := 0
		for _, c := range copies {
			if c.AcceptsRight(w) {
				accepts++
			}
		}
		if accepts != 1 {
			t.Errorf("wme %d accepted by %d copies, want exactly 1", id, accepts)
		}
	}
}

func TestCopyAndConstrainValidation(t *testing.T) {
	net := compileT(t, []string{`(p p1 (a ^x <v>) -(b ^x <v>) --> (halt))`})
	var neg *Node
	for _, n := range net.Nodes {
		if n.Kind == KindNegative {
			neg = n
		}
	}
	if _, err := net.CopyAndConstrain(neg, 2); err == nil {
		t.Error("copy-and-constraint on a negative node must fail")
	}
}

// TestTransformsRandomizedEquivalence checks on random workloads, with
// deletions, that each transformation preserves the conflict set.
func TestTransformsRandomizedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	srcs := sharedFanoutProds

	for trial := 0; trial < 10; trial++ {
		// Build a random add/delete schedule.
		type op struct {
			tag Tag
			w   *ops5.WME
		}
		var ops []op
		var live []*ops5.WME
		id := 1
		for step := 0; step < 60; step++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				ops = append(ops, op{Delete, live[i]})
				live = append(live[:i], live[i+1:]...)
			} else {
				var w *ops5.WME
				switch rng.Intn(3) {
				case 0:
					w = ops5.NewWME("a", "x", rng.Intn(3))
				case 1:
					w = ops5.NewWME("b", "x", rng.Intn(3))
				default:
					w = ops5.NewWME("c", "k", 1+rng.Intn(3))
				}
				w.ID, w.TimeTag = id, id
				id++
				ops = append(ops, op{Add, w})
				live = append(live, w)
			}
		}

		run := func(net *Network) map[string]bool {
			m := NewMatcher(net, MatcherOptions{NBuckets: 32})
			cs := map[string]bool{}
			for _, o := range ops {
				for _, ic := range m.Apply([]Change{{Tag: o.tag, WME: o.w}}) {
					if ic.Tag == Add {
						cs[ic.Key()] = true
					} else {
						delete(cs, ic.Key())
					}
				}
			}
			return cs
		}

		base := run(compileT(t, srcs))

		unshared := compileT(t, srcs)
		for _, n := range append([]*Node(nil), unshared.Nodes...) { // Unshare appends its copies
			if n.IsTwoInput() {
				if _, err := unshared.Unshare(n); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := run(unshared); !conflictSetsEqual(base, got) {
			t.Fatalf("trial %d: unsharing diverged: %v vs %v", trial, base, got)
		}

		cc := compileT(t, srcs)
		if _, err := cc.CopyAndConstrain(sharedJoin(t, cc), 2); err != nil {
			t.Fatal(err)
		}
		if got := run(cc); !conflictSetsEqual(base, got) {
			t.Fatalf("trial %d: copy-and-constraint diverged: %v vs %v", trial, base, got)
		}

		fullyUnshared, err := CompileVariant(mustParse(t, srcs...), "unshared")
		if err != nil {
			t.Fatal(err)
		}
		if got := run(fullyUnshared); !conflictSetsEqual(base, got) {
			t.Fatalf("trial %d: the unshared variant diverged: %v vs %v", trial, base, got)
		}
	}
}

func ExampleNetwork_Unshare() {
	prods, _ := ops5.ParseProduction(`(p o1 (a ^x <v>) (b ^x <v>) --> (halt))`)
	net, _ := Compile([]*ops5.Production{prods})
	fmt.Println(net.Stats().JoinNodes)
	// Output: 1
}
