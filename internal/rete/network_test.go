package rete

import (
	"testing"

	"mpcrete/internal/ops5"
)

func mustParse(t *testing.T, srcs ...string) []*ops5.Production {
	t.Helper()
	var prods []*ops5.Production
	for _, src := range srcs {
		p, err := ops5.ParseProduction(src)
		if err != nil {
			t.Fatal(err)
		}
		prods = append(prods, p)
	}
	return prods
}

func TestCompileSharing(t *testing.T) {
	// Two productions with an identical two-CE prefix share the alpha
	// patterns and the first join node.
	prods := mustParse(t,
		`(p p1 (a ^x <v>) (b ^x <v>) (c ^k 1) --> (halt))`,
		`(p p2 (a ^x <v>) (b ^x <v>) (c ^k 2) --> (halt))`,
	)
	net, err := Compile(prods)
	if err != nil {
		t.Fatal(err)
	}
	s := net.Stats()
	// join(a,b) shared; join(.,c ^k 1) and join(.,c ^k 2) distinct.
	if s.JoinNodes != 3 {
		t.Errorf("join nodes = %d, want 3 (one shared prefix)", s.JoinNodes)
	}
	if s.ProductionNodes != 2 {
		t.Errorf("production nodes = %d, want 2", s.ProductionNodes)
	}
	// Alpha patterns: a, b shared across productions; c^k1, c^k2 distinct.
	if s.AlphaPatterns != 4 {
		t.Errorf("alpha patterns = %d, want 4", s.AlphaPatterns)
	}

	unshared, err := CompileVariant(prods, "unshared")
	if err != nil {
		t.Fatal(err)
	}
	us := unshared.Stats()
	if us.JoinNodes != 4 {
		t.Errorf("unshared join nodes = %d, want 4", us.JoinNodes)
	}
	if us.AlphaPatterns != 6 {
		t.Errorf("unshared alpha patterns = %d, want 6", us.AlphaPatterns)
	}
}

func TestCompileRejectsDuplicateNames(t *testing.T) {
	prods := mustParse(t,
		`(p same (a ^x 1) --> (halt))`,
		`(p same (a ^x 2) --> (halt))`,
	)
	if _, err := Compile(prods); err == nil {
		t.Fatal("expected duplicate-name error")
	}
}

func TestCompileVarDefs(t *testing.T) {
	prods := mustParse(t,
		`(p p1 (a ^x <v> ^y <w>) (b ^x <v> ^y <z>) --> (make c ^x <z> ^y <w>))`,
	)
	net, err := Compile(prods)
	if err != nil {
		t.Fatal(err)
	}
	info := net.Prods["p1"]
	// Slots are assigned on first mention: x then y in both classes.
	a, b := net.Layout("a"), net.Layout("b")
	want := map[string]VarDef{
		"v": {OrigCE: 0, Attr: "x", ref: slotRef{a, 0}},
		"w": {OrigCE: 0, Attr: "y", ref: slotRef{a, 1}},
		"z": {OrigCE: 1, Attr: "y", ref: slotRef{b, 1}},
	}
	for v, d := range want {
		if info.VarDefs[v] != d {
			t.Errorf("VarDefs[%s] = %+v, want %+v", v, info.VarDefs[v], d)
		}
	}
	if info.TokenPos[0] != 0 || info.TokenPos[1] != 1 {
		t.Errorf("TokenPos = %v", info.TokenPos)
	}
}

func TestCompileNegatedTokenPos(t *testing.T) {
	prods := mustParse(t,
		`(p p1 (a ^x <v>) -(b ^x <v>) (c ^x <v>) --> (halt))`,
	)
	net, err := Compile(prods)
	if err != nil {
		t.Fatal(err)
	}
	info := net.Prods["p1"]
	if info.TokenPos[0] != 0 || info.TokenPos[1] != -1 || info.TokenPos[2] != 1 {
		t.Errorf("TokenPos = %v, want [0 -1 1]", info.TokenPos)
	}
	s := net.Stats()
	if s.NegativeNodes != 1 || s.JoinNodes != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestCompileSingleCE(t *testing.T) {
	prods := mustParse(t, `(p solo (a ^x 1) --> (halt))`)
	net, err := Compile(prods)
	if err != nil {
		t.Fatal(err)
	}
	s := net.Stats()
	if s.JoinNodes != 0 || s.ProductionNodes != 1 {
		t.Errorf("stats = %+v, want zero joins", s)
	}
	m := NewMatcher(net, MatcherOptions{NBuckets: 16})
	w := ops5.NewWME("a", "x", 1)
	w.ID = 1
	out := m.Apply([]Change{{Tag: Add, WME: w}})
	if len(out) != 1 || out[0].Tag != Add {
		t.Fatalf("out = %+v", out)
	}
	out = m.Apply([]Change{{Tag: Delete, WME: w}})
	if len(out) != 1 || out[0].Tag != Delete {
		t.Fatalf("out = %+v", out)
	}
}

func TestAlphaConstTests(t *testing.T) {
	prods := mustParse(t,
		`(p p1 (a ^x { <v> > 2 } ^y <v> ^z << red green >>) --> (halt))`,
	)
	net, err := Compile(prods)
	if err != nil {
		t.Fatal(err)
	}
	alphas := net.AlphasForClass("a")
	if len(alphas) != 1 {
		t.Fatalf("alphas = %d", len(alphas))
	}
	a := alphas[0]
	cases := []struct {
		w    *ops5.WME
		want bool
	}{
		{ops5.NewWME("a", "x", 3, "y", 3, "z", "red"), true},
		{ops5.NewWME("a", "x", 2, "y", 2, "z", "red"), false},  // x > 2 fails
		{ops5.NewWME("a", "x", 5, "y", 4, "z", "red"), false},  // x != y (intra-CE)
		{ops5.NewWME("a", "x", 5, "y", 5, "z", "blue"), false}, // disjunction fails
		{ops5.NewWME("b", "x", 5, "y", 5, "z", "red"), false},  // wrong class
	}
	for i, c := range cases {
		if got := a.Matches(c.w); got != c.want {
			t.Errorf("case %d: Matches(%v) = %v, want %v", i, c.w, got, c.want)
		}
	}
}

func TestNetworkTwoInputCount(t *testing.T) {
	prods := mustParse(t,
		`(p p1 (a ^x <v>) (b ^x <v>) -(c ^x <v>) --> (halt))`,
	)
	net, err := Compile(prods)
	if err != nil {
		t.Fatal(err)
	}
	if s := net.Stats(); s.JoinNodes != 1 || s.NegativeNodes != 1 {
		t.Errorf("%d join and %d negative nodes, want 1 and 1", s.JoinNodes, s.NegativeNodes)
	}
}
