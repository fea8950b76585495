package rete

import (
	"math"
	"math/bits"
	"math/rand"
	"strconv"
	"testing"

	"mpcrete/internal/ops5"
)

// joinNodeT returns the network's first join node.
func joinNodeT(t *testing.T, net *Network) *Node {
	t.Helper()
	for _, n := range net.Nodes {
		if n.Kind == KindJoin {
			return n
		}
	}
	t.Fatal("no join node")
	return nil
}

// TestHashKeyConsistentAcrossSides is the contract hashed memories rest
// on: a left token and a right wme that pass a node's equality tests
// hash to the same key — whatever spelling the equal values arrived in.
func TestHashKeyConsistentAcrossSides(t *testing.T) {
	net := compileT(t, []string{`(p x (a ^k <v> ^j <u>) (b ^k <v> ^j <u>) --> (halt))`})
	join, tab := joinNodeT(t, net), NewTable()
	keys := func(l, r *ops5.WME) (uint64, uint64) {
		return HashKey(tab, join, Left, tokenT(tab, l), nil), HashKey(nil, join, Right, Token{}, r)
	}

	// Random values of every kind: whenever the pair passes the tests,
	// the keys agree.
	rng := rand.New(rand.NewSource(1))
	pool := []ops5.Value{
		{}, ops5.S("red"), ops5.S("3"), ops5.N(3), ops5.N(0), ops5.N(math.Copysign(0, -1)),
		ops5.N(-17), ops5.N(2.5), ops5.N(1e300), ops5.N(math.Inf(1)),
	}
	for i := 0; i < 20; i++ {
		pool = append(pool, ops5.N(float64(rng.Intn(64))), ops5.N(rng.NormFloat64()))
	}
	pick := func() ops5.Value { return pool[rng.Intn(len(pool))] }
	// twin returns v, another spelling of v, or (rarely) something else.
	twin := func(v ops5.Value) ops5.Value {
		switch {
		case rng.Intn(8) == 0:
			return pick()
		case v.Kind == ops5.KindNum && v.Num == 0:
			return ops5.N(math.Copysign(0, float64(rng.Intn(2))-0.5))
		}
		return v
	}
	passed := 0
	for i := 0; i < 2000; i++ {
		l := ops5.NewWME("a", "k", pick(), "j", pick())
		r := ops5.NewWME("b", "k", twin(l.Get("k")), "j", twin(l.Get("j")))
		if tok := tokenT(tab, l); !testsPass(join, tab.rows, tok, r) {
			continue
		}
		passed++
		if lk, rk := keys(l, r); lk != rk {
			t.Fatalf("%v joins %v but left key %#x != right key %#x", l, r, lk, rk)
		}
	}
	if passed < 1000 {
		t.Fatalf("only %d of 2000 random pairs passed the tests", passed)
	}

	// The same numbers as source text spells them.
	parsed, err := ops5.ParseWMEs(`(a ^k 3 ^j 0) (b ^k 3.0 ^j -0) (b ^k 3 ^j 0)`)
	if err != nil {
		t.Fatal(err)
	}
	if math.Signbit(parsed[0].Get("j").Num) || !math.Signbit(parsed[1].Get("j").Num) {
		t.Fatalf("fixture: want ^j 0 and ^j -0, have %v and %v", parsed[0], parsed[1])
	}
	for _, r := range parsed[1:] {
		if lk, rk := keys(parsed[0], r); lk != rk {
			t.Errorf("%v and %v are Equal field by field but hash %#x and %#x", parsed[0], r, lk, rk)
		}
	}

	// Kinds never collide: the symbol "3" is not the number 3.
	if lk, rk := keys(ops5.NewWME("a", "k", "3", "j", 0), ops5.NewWME("b", "k", 3, "j", 0)); lk == rk {
		t.Errorf("symbol \"3\" and number 3 share key %#x", lk)
	}
}

// TestHashKeySpread pins why values are mixed before and after they
// are folded. A bucket is the key's low bits and the default owner is
// bucket mod workers; a multiply-and-XOR fold's low bits see only the
// low bits of each folded word. Small integers as float64 differ only in
// their top two bytes: unmixed, 15 of the 16 board coordinates would sit
// on one side of the bucket's low bit, one worker of two doing all the
// work, so numbers are mixed first. Symbols that share a prefix differ
// only in a chunk's upper bytes: unfinalised, 256 of them cover 6 to 24
// of 1,024 buckets, so the key is finalised last.
func TestHashKeySpread(t *testing.T) {
	join := joinNodeT(t, compileT(t, []string{`(p x (a ^k <v>) (b ^k <v>) --> (halt))`}))
	mem := newMemory[rightEntry](1024)
	bucket := func(v any) int {
		return mem.Bucket(HashKey(nil, join, Right, Token{}, ops5.NewWME("b", "k", v)))
	}

	odd := 0
	for i := 1; i <= 16; i++ {
		odd += bucket(i) & 1
	}
	if odd < 4 || odd > 12 {
		t.Errorf("integers 1..16: %d odd buckets, %d even; want at most 12 on either side", odd, 16-odd)
	}

	cover := func(name string, v func(i int) any) {
		var seen [1024 / 64]uint64
		for i := 0; i < 256; i++ {
			b := bucket(v(i))
			seen[b/64] |= 1 << (b % 64)
		}
		distinct := 0
		for _, w := range seen {
			distinct += bits.OnesCount64(w)
		}
		if distinct < 200 {
			t.Errorf("%s cover %d of 1024 buckets, want >= 200", name, distinct)
		}
	}
	cover("integers 0..255", func(i int) any { return i })
	for _, prefix := range []string{"b", "block", "a-long-prefix-"} {
		cover("symbols "+prefix+"0.."+prefix+"255", func(i int) any { return prefix + strconv.Itoa(i) })
	}
}

func TestHashKeyDoesNotAllocate(t *testing.T) {
	join := joinNodeT(t, compileT(t, []string{`(p x (a ^k <v> ^j <u>) (b ^k <v> ^j <u>) --> (halt))`}))
	tab := NewTable()
	tok := tokenT(tab, ops5.NewWME("a", "k", 12345.678, "j", "a-symbol-longer-than-a-word"))
	w := ops5.NewWME("b", "k", -3, "j", "blue")
	var sink uint64
	if n := testing.AllocsPerRun(100, func() {
		sink += HashKey(tab, join, Left, tok, nil) + HashKey(tab, join, Right, Token{}, w)
	}); n != 0 {
		t.Errorf("HashKey allocates %v times per left+right pair, want 0", n)
	}
	_ = sink
}

// TestNegZeroJoins: -0 == 0 under Value.Equal, so a wme carrying one
// joins a token binding the other — with linear memories and with
// hashed ones. -0 reaches working memory as the literal and as the
// product 0 * -1 of a compute action.
func TestNegZeroJoins(t *testing.T) {
	literal, err := ops5.ParseWMEs(`(b ^x -0)`)
	if err != nil {
		t.Fatal(err)
	}
	zero := 0.0
	rights := map[string]ops5.Value{
		"literal -0":      literal[0].Get("x"),
		"compute(0 * -1)": ops5.N(zero * -1),
	}
	const src = `(p j (a ^x <v>) (b ^x <v>) --> (halt))`
	join := joinNodeT(t, compileT(t, []string{src}))
	for name, v := range rights {
		if !math.Signbit(v.Num) || v.Num != 0 {
			t.Fatalf("fixture %s: want -0, have %v", name, v)
		}
		tab := NewTable()
		lk := HashKey(tab, join, Left, tokenT(tab, ops5.NewWME("a", "x", 0)), nil)
		if rk := HashKey(nil, join, Right, Token{}, ops5.NewWME("b", "x", v)); lk != rk {
			t.Errorf("%s: left key of 0 is %#x, right key of -0 is %#x", name, lk, rk)
		}
		for _, nbuckets := range []int{1, 64, 1024} {
			h := newHarness(t, nbuckets, src)
			h.add("a", "x", 0)
			h.add("b", "x", v)
			if len(h.cs) != 1 {
				t.Errorf("%s, %d buckets: %d instantiations of (a ^x 0) (b ^x -0), want 1", name, nbuckets, len(h.cs))
			}
		}
	}
}

// TestHashSeedIsTheFoldedID: HashKey starts from a state folded when
// the node was made, so every way a node comes to be — compiled in each
// variant, cloned by a transformation, compiled again by a worker — must
// leave it the fold of its own id, or of its bounded group's home id. A
// node missed here would hash to other buckets than its peers' copies
// of it, and mis-join silently.
func TestHashSeedIsTheFoldedID(t *testing.T) {
	prods := mustParse(t, append(append([]string{}, sharedFanoutProds...), blocksProd)...)
	for _, variant := range Variants() {
		net, err := CompileVariant(prods, variant)
		if err != nil {
			t.Fatal(err)
		}
		for name, n := range map[string]*Network{"compiled": net, "recompiled": recompile(t, net)} {
			grouped := 0
			for _, nd := range n.Nodes {
				id := nd.ID
				if nd.group != nil {
					id = nd.group.home().ID
					grouped++
				}
				if nd.hashSeed != hashSeedOf(id) {
					t.Errorf("%s/%s: %s node %d starts from %#x, the fold of id %d is %#x", variant, name, nd.Kind, nd.ID, nd.hashSeed, id, hashSeedOf(id))
				}
			}
			if (variant == "bounded") != (grouped > 0) {
				t.Errorf("%s/%s: %d nodes in bounded groups", variant, name, grouped)
			}
		}
	}
}

// TestNodeTakes: the shapes a decoder holds a wire activation to. A
// left token is exactly as wide as the node's left input, and wide
// enough for every position the node indexes; a bounded collector takes
// no left input; only a node with a right memory takes a right one.
func TestNodeTakes(t *testing.T) {
	net := compileT(t, []string{`(p three (a ^x <v>) (b ^x <v> ^y <u>) -(c ^y <u>) --> (halt))`, `(p one (d ^x 1) --> (halt))`})
	for _, n := range net.Nodes {
		for width := 0; width <= 4; width++ {
			want := width == n.LeftLen
			if got := n.TakesLeft(width); got != want {
				t.Errorf("%s node %d (left input %d wide) takes a %d-wide token: %v", n.Kind, n.ID, n.LeftLen, width, got)
			}
		}
		if got, want := n.TakesRight(), n.Kind != KindProduction; got != want {
			t.Errorf("%s node %d takes a right activation: %v", n.Kind, n.ID, got)
		}
	}
	// A network whose LeftLen understates what a test indexes (only a
	// forged one does) is still not indexed past the token.
	join := net.Prods["three"].Node.Parent
	join.LeftLen = 1
	if join.TakesLeft(1) {
		t.Errorf("negative node %d tests position %d and takes a 1-wide token", join.ID, join.Tests[0].LeftPos)
	}
	bounded, err := CompileVariant(mustParse(t, `(p three (a ^x <v>) (b ^x <v>) --> (halt))`), "bounded")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range bounded.Nodes {
		if n.Kind == KindBounded && (n.TakesLeft(n.LeftLen) || !n.TakesRight()) {
			t.Errorf("bounded collector %d: takes left %v, right %v", n.ID, n.TakesLeft(n.LeftLen), n.TakesRight())
		}
		if n.Kind == KindProduction && (!n.TakesLeft(2) || n.TakesRight()) {
			t.Errorf("bounded terminal %d: takes a 2-wide left token %v, a right activation %v", n.ID, n.TakesLeft(2), n.TakesRight())
		}
	}
}
