package rete

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mpcrete/internal/ops5"
)

// draws turns a byte string into the decisions of one generated case,
// so the property below is driven alike by a seeded generator and by
// the fuzzer. An exhausted string draws zeros.
type draws struct {
	b []byte
	i int
}

func (d *draws) n(k int) int {
	if d.i >= len(d.b) {
		return 0
	}
	v := int(d.b[d.i]) % k
	d.i++
	return v
}

// layoutCase is one generated input of the agreement property: the
// class's six attributes in the order network N's two productions
// mention them, and a wme's content as the reference the old map form
// is — name → value, nothing absent.
type layoutCase struct {
	perm  [6]string
	class string
	attrs map[string]ops5.Value
	order []string // the order the loose wme is built in
}

func genLayoutCase(d *draws) layoutCase {
	c := layoutCase{perm: [6]string{"f0", "f1", "f2", "f3", "f4", "f5"}, attrs: map[string]ops5.Value{}}
	for i := len(c.perm) - 1; i > 0; i-- {
		j := d.n(i + 1)
		c.perm[i], c.perm[j] = c.perm[j], c.perm[i]
	}
	// Mostly the class the productions name; sometimes one no
	// production names, which has no layout anywhere.
	c.class = "c0"
	if d.n(8) == 7 {
		c.class = "ghost"
	}
	values := []ops5.Value{ops5.N(1), ops5.N(2), ops5.N(0.5), ops5.N(-3), ops5.S("a"), ops5.S("b"), ops5.S("1")}
	// "aa" and "zz" sort around the f's and are in no layout.
	for _, name := range []string{"aa", "f0", "f1", "f2", "f3", "f4", "f5", "zz"} {
		if pick := d.n(len(values) + 3); pick < len(values) {
			c.attrs[name] = values[pick]
			c.order = append(c.order, name)
		}
	}
	for i := len(c.order) - 1; i > 0; i-- {
		j := d.n(i + 1)
		c.order[i], c.order[j] = c.order[j], c.order[i]
	}
	return c
}

// firstProd mentions perm[0..3]: a constant test, a variable bound and
// joined on, an RHS assignment. laterProd mentions the other two and
// rejoins on perm[0]: an intra-CE test between two attributes, a
// disjunction, a modify.
func (c *layoutCase) firstProd() string {
	p := c.perm
	return fmt.Sprintf(`(p first (c0 ^%s <x> ^%s 1) (c0 ^%s <x>) --> (make c0 ^%s <x>))`, p[0], p[1], p[2], p[3])
}

func (c *layoutCase) laterProd() string {
	p := c.perm
	return fmt.Sprintf(`(p later (c0 ^%s <y> ^%s <y> ^%s << a 2 >>) (c0 ^%s <> <y>) (c0 ^%s <y>) --> (modify 1 ^%s 2))`, p[4], p[5], p[1], p[2], p[0], p[4])
}

// refString renders the reference content the way the map form did:
// names sorted, values through Value.String.
func (c *layoutCase) refString() string {
	names := make([]string, 0, len(c.attrs))
	for name := range c.attrs {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("(" + c.class)
	for _, name := range names {
		fmt.Fprintf(&b, " ^%s %s", name, c.attrs[name])
	}
	b.WriteString(")")
	return b.String()
}

// checkLayoutAgreement is the property: however a wme is held — loose,
// laid out by the network testing it, laid out before that network's
// layout grew, laid out by another network that numbers the class's
// slots in another order, or a clone of any of these, or a recycled
// row of the class refilled from any of them — every reader answers as
// the loose form does, and the loose form answers as the reference map.
// A row laid out before its layout grew refuses to be refilled.
func checkLayoutAgreement(t *testing.T, data []byte) {
	t.Helper()
	c := genLayoutCase(&draws{b: data})

	net := compileT(t, []string{c.firstProd()})
	loose := &ops5.WME{Class: c.class, ID: 7, TimeTag: 9}
	for _, name := range c.order {
		loose.Set(name, c.attrs[name])
	}
	early := net.Conform(loose) // laid out by net, which then grows
	if err := net.AddProduction(mustParse(t, c.laterProd())[0]); err != nil {
		t.Fatal(err)
	}
	other := compileT(t, []string{c.laterProd(), c.firstProd()})
	if l, o := net.Layout("c0"), other.Layout("c0"); l.Len() != 6 || o.Len() != 6 || l.Names()[0] == o.Names()[0] {
		t.Fatalf("layouts %v and %v: want the six attributes in two orders", l.Names(), o.Names())
	}
	recompiled := recompile(t, net)

	forms := map[string]*ops5.WME{
		"loose":              loose,
		"conformed":          net.Conform(loose),
		"before-growth":      early,
		"other-network":      other.Conform(loose),
		"recompiled-network": recompiled.Conform(loose),
		"re-conformed":       net.Conform(other.Conform(early)),
	}
	// A recycled row: a row of the class's layout that held another wme,
	// extras included, refilled from each form (ops5.WME.Refill), its
	// identity then assigned as a working memory assigns it.
	l := net.Layout(c.class)
	for name, w := range forms {
		forms[name+"-clone"] = w.Clone()
		if l == nil {
			continue
		}
		r := l.New()
		for _, attr := range append(l.Names(), "stale", "zz") {
			r.Set(attr, ops5.S("stale"))
		}
		if !r.Refill(w) {
			t.Fatalf("a full-width row of %s refused to refill from %s", c.class, name)
		}
		r.ID, r.TimeTag = w.ID, w.TimeTag
		forms[name+"-refilled"] = r
	}
	if c.class == "c0" {
		if w := forms["before-growth"]; len(w.Slots()) != 4 || w.Layout() != net.Layout("c0") {
			t.Fatalf("before-growth form has %d slots of layout %p, want 4 of the grown layout", len(w.Slots()), w.Layout())
		}
		if w := forms["before-growth"]; w.Refill(nil) {
			t.Fatal("a row laid out before its layout grew was refilled")
		}
	}

	if got, want := loose.String(), c.refString(); got != want {
		t.Fatalf("loose wme prints %s, want %s", got, want)
	}
	probe := []string{"aa", "f0", "f1", "f2", "f3", "f4", "f5", "zz", "absent", "stale", ""}
	// Tokens long enough for any LeftPos, holding one form throughout.
	tab := NewTable()
	tokenOf := func(w *ops5.WME) Token { return tokenT(tab, w, w, w) }
	for name, w := range forms {
		if w.ID != 7 || w.TimeTag != 9 || w.Class != c.class {
			t.Errorf("%s: identity %d/%d/%s lost", name, w.ID, w.TimeTag, w.Class)
		}
		for _, attr := range probe {
			if got, want := w.Get(attr), c.attrs[attr]; got != want {
				t.Errorf("%s: Get(%s) = %v, want %v", name, attr, got, want)
			}
		}
		if l != nil { // ghost has no layout to resolve against
			for slot, attr := range l.Names() {
				if got, want := w.At(l, slot, attr), c.attrs[attr]; got != want {
					t.Errorf("%s: At(%d, %s) = %v, want %v", name, slot, attr, got, want)
				}
			}
		}
		if w.Len() != len(c.attrs) {
			t.Errorf("%s: Len = %d, want %d", name, w.Len(), len(c.attrs))
		}
		if got, want := w.String(), c.refString(); got != want {
			t.Errorf("%s: String = %s, want %s", name, got, want)
		}
		for oname, o := range forms {
			if !w.Equal(o) {
				t.Errorf("%s is not Equal to %s", name, oname)
			}
		}
		for _, a := range net.Alphas {
			if got, want := a.Matches(w), a.Matches(loose); got != want {
				t.Errorf("%s: alpha pattern %s Matches = %v, loose %v", name, a.key(), got, want)
			}
		}
		for _, n := range net.Nodes {
			if !n.IsTwoInput() {
				continue
			}
			if got, want := HashKey(nil, n, Right, Token{}, w), HashKey(nil, n, Right, Token{}, loose); got != want {
				t.Errorf("%s: right HashKey at node %d = %#x, loose %#x", name, n.ID, got, want)
			}
			if got, want := HashKey(tab, n, Left, tokenOf(w), nil), HashKey(tab, n, Left, tokenOf(loose), nil); got != want {
				t.Errorf("%s: left HashKey at node %d = %#x, loose %#x", name, n.ID, got, want)
			}
			for i := range n.Tests {
				if got, want := n.Tests[i].Eval(w, w), n.Tests[i].Eval(loose, loose); got != want {
					t.Errorf("%s: join test %s at node %d = %v, loose %v", name, n.Tests[i].key(), n.ID, got, want)
				}
			}
		}
	}

	// A changed attribute, slotted or not, tells every form apart from
	// the original, and the text follows.
	for _, attr := range []string{"f0", "zz"} {
		for name, w := range forms {
			m := w.Clone()
			m.Set(attr, ops5.S("changed"))
			if m.Equal(loose) || loose.Equal(m) || m.String() == loose.String() {
				t.Errorf("%s: setting %s went unnoticed: %s", name, attr, m)
			}
			m.Set(attr, c.attrs[attr])
			if !m.Equal(loose) || m.String() != loose.String() {
				t.Errorf("%s: restoring %s gave %s, want %s", name, attr, m, loose)
			}
		}
	}
}

// TestLooseAndLaidOutAgree runs the property over a seeded spread of
// cases, and over the two edges a random draw rarely lands on: the
// empty wme and the class with no layout.
func TestLooseAndLaidOutAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	n := 300
	if testing.Short() {
		n = 60
	}
	for i := 0; i < n; i++ {
		data := make([]byte, 32)
		rng.Read(data)
		checkLayoutAgreement(t, data)
		if t.Failed() {
			t.Fatalf("case %d: data %x", i, data)
		}
	}
	for _, data := range layoutSeeds {
		checkLayoutAgreement(t, data)
	}
}

// layoutSeeds: every draw zero (identity order, class c0, every
// attribute 1); the ghost class; nothing set at all.
var layoutSeeds = [][]byte{
	{},
	{0, 0, 0, 0, 0, 7, 1, 2, 3, 4, 5, 6, 0, 1},
	{5, 4, 3, 2, 1, 0, 9, 9, 9, 9, 9, 9, 9, 9},
}

// FuzzLayoutAgreement lets the fuzzer choose the case.
func FuzzLayoutAgreement(f *testing.F) {
	for _, data := range layoutSeeds {
		f.Add(data)
	}
	f.Fuzz(checkLayoutAgreement)
}

// TestMatchReadsDoNotAllocate: a constant test, a join test and a hash
// key over a laid-out wme are indexed loads, and over a loose one a
// scan of its attributes; neither allocates.
func TestMatchReadsDoNotAllocate(t *testing.T) {
	net := compileT(t, []string{`(p j (a ^x <v> ^k 1) (b ^x <v> ^y <> <v>) --> (halt))`})
	var join *Node
	for _, n := range net.Nodes {
		if n.IsTwoInput() && len(n.EqTests) > 0 {
			join = n
		}
	}
	if join == nil {
		t.Fatal("no join with an equality test")
	}
	for _, form := range []string{"laid-out", "loose"} {
		a, b := ops5.NewWME("a", "x", 3, "k", 1), ops5.NewWME("b", "x", 3, "y", "s")
		if form == "laid-out" {
			a, b = net.Conform(a), net.Conform(b)
		}
		tab := NewTable()
		tok := tokenT(tab, a)
		var h uint64
		ok := true
		if n := testing.AllocsPerRun(100, func() {
			h ^= HashKey(tab, join, Left, tok, nil) ^ HashKey(nil, join, Right, Token{}, b)
			for i := range join.Tests {
				ok = ok && join.Tests[i].Eval(a, b)
			}
			for _, ap := range net.Alphas {
				ok = ok && (ap.Matches(a) || ap.Matches(b))
			}
		}); n != 0 || !ok {
			t.Errorf("%s: hash key, join tests and alpha patterns allocate %v times (pass=%v), want 0", form, n, ok)
		}
	}
}
