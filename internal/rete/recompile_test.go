package rete

import (
	"math/rand"
	"slices"
	"testing"

	"mpcrete/internal/ops5"
)

// recompile compiles net again as a worker process does from its
// hello: each production's printed source, parsed, under the variant
// net records.
func recompile(t *testing.T, net *Network) *Network {
	t.Helper()
	prods := make([]*ops5.Production, len(net.ProdOrder))
	for i, name := range net.ProdOrder {
		p, err := ops5.ParseProduction(net.Prods[name].Prod.String())
		if err != nil {
			t.Fatal(err)
		}
		prods[i] = p
	}
	got, err := CompileVariant(prods, net.Variant())
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestRecompiledStructure: a network compiled again from its printed
// productions has the original's digest, node counts, production order,
// variable definitions and layout table, under every variant.
func TestRecompiledStructure(t *testing.T) {
	for _, variant := range Variants() {
		net, err := CompileVariant(mustParse(t, sharedFanoutProds...), variant)
		if err != nil {
			t.Fatal(err)
		}
		got := recompile(t, net)
		if net.Variant() != variant || got.Variant() != variant {
			t.Fatalf("%s: variants recorded as %q and %q", variant, net.Variant(), got.Variant())
		}
		if got.Digest() != net.Digest() {
			t.Errorf("%s: digest %#x, want %#x", variant, got.Digest(), net.Digest())
		}
		if a, b := net.Stats(), got.Stats(); a != b {
			t.Errorf("%s: stats changed: %+v vs %+v", variant, a, b)
		}
		if !slices.Equal(got.ProdOrder, net.ProdOrder) {
			t.Errorf("%s: prod order = %v, want %v", variant, got.ProdOrder, net.ProdOrder)
		}
		for name, info := range net.Prods {
			gi := got.Prods[name]
			if len(gi.VarDefs) != len(info.VarDefs) {
				t.Errorf("%s: %s: vardefs %v vs %v", variant, name, gi.VarDefs, info.VarDefs)
			}
			for v, d := range info.VarDefs {
				if g := gi.VarDefs[v]; g.OrigCE != d.OrigCE || g.Attr != d.Attr || g.ref.class() != d.ref.class() || g.ref.slot != d.ref.slot {
					t.Errorf("%s: %s: vardef %s = %+v, want %+v", variant, name, v, g, d)
				}
			}
		}
		for i, l := range net.Layouts() {
			if g := got.Layouts()[i]; g.ID() != i || g.Class() != l.Class() || !slices.Equal(g.Names(), l.Names()) {
				t.Errorf("%s: layout %d = %s %v, want %s %v", variant, i, g.Class(), g.Names(), l.Class(), l.Names())
			}
		}
	}
}

func TestRecompiledPreservesMatching(t *testing.T) {
	wmes := fanoutWMEs()
	net := compileT(t, sharedFanoutProds)
	base := runConflictSet(t, net, wmes)
	if after := runConflictSet(t, recompile(t, net), wmes); !conflictSetsEqual(base, after) {
		t.Errorf("recompiled network diverged: %v vs %v", base, after)
	}
}

// TestDigestRefusesTransformations: a network changed after compiling
// is not what its productions compile to, and its digest says so —
// which is what keeps a control from handing a worker process one. The
// copy-and-constraint CompileVariant applies is part of the variant,
// and recompiles alike.
func TestDigestRefusesTransformations(t *testing.T) {
	srcs := append(slices.Clip(sharedFanoutProds), `(p cross (a ^x <u>) (c ^k <w>) --> (halt))`)
	crossJoin := func(net *Network) *Node {
		for _, n := range net.Nodes {
			if n.Kind == KindJoin && len(n.Tests) == 0 && len(n.Succs) == 1 && n.Succs[0].Info != nil && n.Succs[0].Info.Prod.Name == "cross" {
				return n
			}
		}
		t.Fatal("no cross-product join")
		return nil
	}
	rows := []struct {
		name   string
		mutate func(net *Network) error
	}{
		{"unshare", func(net *Network) error { _, err := net.Unshare(sharedJoin(t, net)); return err }},
		{"copy-and-constrain", func(net *Network) error { _, err := net.CopyAndConstrain(crossJoin(net), 3); return err }},
		{"excise", func(net *Network) error { return net.Excise("o2") }},
		{"add-private", func(net *Network) error {
			_, err := net.AddProductionPrivate(mustParse(t, `(p o4 (a ^x <v>) (b ^x <v>) --> (halt))`)[0])
			return err
		}},
	}
	for _, row := range rows {
		net := compileT(t, srcs)
		if recompile(t, net).Digest() != net.Digest() {
			t.Fatalf("%s: the network as compiled does not recompile alike", row.name)
		}
		if err := row.mutate(net); err != nil {
			t.Fatal(err)
		}
		if recompile(t, net).Digest() == net.Digest() {
			t.Errorf("%s: the transformed network has the digest of its productions' compilation", row.name)
		}
	}
	candc, err := CompileVariant(mustParse(t, srcs...), "candc")
	if err != nil {
		t.Fatal(err)
	}
	if recompile(t, candc).Digest() != candc.Digest() || candc.Digest() == compileT(t, srcs).Digest() {
		t.Error("candc: want the digest of its own recompilation, and not the shared network's")
	}
}

func TestRecompiledRandomizedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		srcs := randomProductions(rng, 1+rng.Intn(4))
		net := compileT(t, srcs)
		got := recompile(t, net)
		if got.Digest() != net.Digest() {
			t.Fatalf("trial %d (%v): recompiled digest differs", trial, srcs)
		}

		// Drive both with the same random wme stream.
		var wmes []*ops5.WME
		for id := 1; id <= 30; id++ {
			w := ops5.NewWME([]string{"a", "b", "c"}[rng.Intn(3)], "x", rng.Intn(3), "y", rng.Intn(3))
			w.ID, w.TimeTag = id, id
			wmes = append(wmes, w)
		}
		if !conflictSetsEqual(runConflictSet(t, net, wmes), runConflictSet(t, got, wmes)) {
			t.Fatalf("trial %d (%v): recompiled network diverged", trial, srcs)
		}
	}
}

// TestDigestCoversLayoutTable: the layout table is what lets a wme
// cross the wire as a layout id and a run of values, so two programs
// whose nodes are numbered alike but whose tables are not — another
// slot order, another class name, one more slot — digest apart.
func TestDigestCoversLayoutTable(t *testing.T) {
	const base = `(p p1 (aa ^xx 1 ^yy 2) (bb ^xx <v>) --> (make aa ^yy <v>))`
	net := compileT(t, []string{base})
	for _, other := range []string{
		`(p p1 (aa ^yy 2 ^xx 1) (bb ^xx <v>) --> (make aa ^yy <v>))`,
		`(p p1 (cc ^xx 1 ^yy 2) (bb ^xx <v>) --> (make cc ^yy <v>))`,
		`(p p1 (aa ^xx 1 ^yy 2) (bb ^xx <v>) --> (make aa ^yy <v> ^zz 1))`,
	} {
		o := compileT(t, []string{other})
		if o.Stats() != net.Stats() {
			t.Fatalf("%s: set-up: stats %+v, want %+v", other, o.Stats(), net.Stats())
		}
		if o.Digest() == net.Digest() {
			t.Errorf("%s digests as %s does", other, base)
		}
	}
}
