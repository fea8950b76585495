package rete

import (
	"testing"

	"mpcrete/internal/ops5"
)

func TestExciseDetachesAndGarbageCollects(t *testing.T) {
	net := compileT(t, sharedFanoutProds)
	if err := net.Excise("o2"); err != nil {
		t.Fatal(err)
	}
	if _, ok := net.Prods["o2"]; ok {
		t.Error("o2 still registered")
	}
	// The shared (a,b) join survives (o1 and o3 use it) but loses one
	// successor chain.
	shared := sharedJoin(t, net)
	if len(shared.Succs) != 2 {
		t.Errorf("shared join fan-out = %d, want 2", len(shared.Succs))
	}
	// Matching still works for the survivors.
	cs := runConflictSet(t, net, fanoutWMEs())
	for key := range cs {
		if key[:2] == "o2" {
			t.Errorf("excised production matched: %s", key)
		}
	}
	if len(cs) != 8 { // 4 (a,b) pairs x 2 surviving productions
		t.Errorf("conflict set = %d, want 8", len(cs))
	}
}

func TestExciseSingleUserChainFullyCollected(t *testing.T) {
	net := compileT(t, []string{
		`(p solo (a ^x <v>) (b ^x <v>) (c ^k 9) --> (halt))`,
	})
	joins := net.Stats().JoinNodes
	if joins != 2 {
		t.Fatalf("joins = %d", joins)
	}
	if err := net.Excise("solo"); err != nil {
		t.Fatal(err)
	}
	// All two-input nodes are detached and no alpha routes remain.
	for _, n := range net.Nodes {
		if n.IsTwoInput() && !n.Detached() {
			t.Errorf("node %d still attached", n.ID)
		}
	}
	for _, a := range net.Alphas {
		if len(a.Routes) != 0 {
			t.Errorf("alpha %s still routes to %d nodes", a.Class, len(a.Routes))
		}
	}
	// Feeding wmes produces nothing.
	m := NewMatcher(net, MatcherOptions{NBuckets: 16})
	w := ops5.NewWME("a", "x", 1)
	w.ID = 1
	if out := m.Apply([]Change{{Tag: Add, WME: w}}); len(out) != 0 {
		t.Errorf("excised network produced %v", out)
	}
}

func TestExciseUnknownProduction(t *testing.T) {
	net := compileT(t, sharedFanoutProds)
	if err := net.Excise("nope"); err == nil {
		t.Error("unknown production accepted")
	}
}

func TestApplyFilteredPrimesOnlyNewNodes(t *testing.T) {
	net := compileT(t, []string{`(p orig (a ^x <v>) (b ^x <v>) --> (halt))`})
	m := NewMatcher(net, MatcherOptions{NBuckets: 32})
	var wmes []*ops5.WME
	for i := 1; i <= 4; i++ {
		class := "a"
		if i%2 == 0 {
			class = "b"
		}
		w := ops5.NewWME(class, "x", 1)
		w.ID, w.TimeTag = i, i
		wmes = append(wmes, w)
		m.Apply([]Change{{Tag: Add, WME: w}})
	}
	left, right := m.Memories()
	lBefore, rBefore := left.Len(), right.Len()

	p, err := ops5.ParseProduction(`(p added (a ^x <v>) (b ^x <v>) --> (halt))`)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := net.AddProductionPrivate(p)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[*Node]bool{}
	for _, n := range nodes {
		allowed[n] = true
	}
	var changes []Change
	for _, w := range wmes {
		changes = append(changes, Change{Tag: Add, WME: w})
	}
	out := m.ApplyFiltered(changes, func(n *Node) bool { return allowed[n] })
	// 2 a-wmes x 2 b-wmes instantiations for the new production.
	adds := 0
	for _, ic := range out {
		if ic.Info.Prod.Name != "added" {
			t.Errorf("priming produced instantiation for %s", ic.Info.Prod.Name)
		}
		if ic.Tag == Add {
			adds++
		}
	}
	if adds != 4 {
		t.Errorf("primed instantiations = %d, want 4", adds)
	}
	// The original production's node memories grew only by the new
	// nodes' private entries: original join memories unchanged means
	// total growth equals exactly the primed tokens (2 lefts + 2
	// rights at the private join).
	lAfter, rAfter := left.Len(), right.Len()
	if lAfter-lBefore != 2 || rAfter-rBefore != 2 {
		t.Errorf("memory growth = %d/%d, want 2/2 (private nodes only)", lAfter-lBefore, rAfter-rBefore)
	}
}
