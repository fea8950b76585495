package rete

import (
	"bytes"
	"strings"
	"testing"
)

func TestSideTagKindStrings(t *testing.T) {
	if Left.String() != "L" || Right.String() != "R" {
		t.Error("side strings")
	}
	if Add.String() != "+" || Delete.String() != "-" {
		t.Error("tag strings")
	}
	for k, want := range map[NodeKind]string{
		KindJoin: "join", KindNegative: "negative", KindProduction: "production", KindBounded: "bounded",
	} {
		if k.String() != want {
			t.Errorf("kind %d = %q, want %q", k, k, want)
		}
	}
}

func TestMatcherCycleCounter(t *testing.T) {
	net := compileT(t, []string{`(p p1 (a ^x 1) --> (halt))`})
	m := NewMatcher(net, MatcherOptions{NBuckets: 4})
	if m.Cycle() != 0 {
		t.Error("fresh matcher cycle != 0")
	}
	m.Apply(nil)
	m.Apply(nil)
	if m.Cycle() != 2 {
		t.Errorf("cycle = %d", m.Cycle())
	}
}

func TestProcessorAccessors(t *testing.T) {
	net := compileT(t, []string{`(p p1 (a ^x 1) --> (halt))`})
	p := NewProcessor(net, 0, NewTable()) // default bucket count
	if p.NBuckets() != DefaultNBuckets {
		t.Errorf("NBuckets = %d", p.NBuckets())
	}
	if p.Network() != net {
		t.Error("Network identity")
	}
	left, right := p.Memories()
	if left.NBuckets() != DefaultNBuckets || right.NBuckets() != DefaultNBuckets {
		t.Error("memory bucket counts")
	}
}

// rootActsT registers ch in p's table and returns its root activations.
func rootActsT(p *Processor, ch Change) []Activation {
	return p.RootActivationsInto(ch, p.tab.Handles([]Change{ch}, nil)[0], nil)
}

// rootsT registers each change in p's table and drains its root
// activations (drainT), returning the production-node activations
// reached.
func rootsT(p *Processor, chs ...Change) (prods []Activation) {
	for _, ch := range chs {
		h := p.tab.Handles([]Change{ch}, nil)[0]
		prods = append(prods, drainT(p, p.RootActivationsInto(ch, h, nil))...)
	}
	return prods
}

// drainT performs queue and every successor it generates on p, in FIFO
// order, and returns the production-node activations reached.
func drainT(p *Processor, queue []Activation) (prods []Activation) {
	for i := 0; i < len(queue); i++ {
		if a := queue[i]; a.Node.Kind == KindProduction {
			prods = append(prods, a)
		} else {
			queue = p.ProcessAt(a, p.Bucket(a), queue)
		}
	}
	return prods
}

func TestExtractInjectBucketDirect(t *testing.T) {
	net := compileT(t, []string{`(p p1 (a ^x <v>) -(b ^x <v>) --> (halt))`})
	tab := NewTable()
	src := NewProcessor(net, 16, tab)
	dst := NewProcessor(net, 16, tab)

	// Populate: one left token (with a negative-node count) and one
	// right wme in some buckets.
	wa := mkWME(1, "a", "x", 5)
	wb := mkWME(2, "b", "x", 5)
	rootsT(src, Change{Tag: Add, WME: wa}, Change{Tag: Add, WME: wb})
	left, right := src.Memories()
	if left.Len() == 0 || right.Len() == 0 {
		t.Fatalf("populate failed: %d/%d", left.Len(), right.Len())
	}

	// Move every bucket's contents to dst.
	total := 0
	for b := 0; b < 16; b++ {
		bc := src.ExtractBucket(b)
		total += bc.Entries()
		dst.InjectBucket(bc)
	}
	if left.Len() != 0 || right.Len() != 0 {
		t.Error("source memories not emptied")
	}
	dl, dr := dst.Memories()
	if dl.Len() == 0 || dr.Len() == 0 {
		t.Error("destination memories not populated")
	}
	if total != dl.Len()+dr.Len() {
		t.Errorf("entries moved %d != stored %d", total, dl.Len()+dr.Len())
	}

	// Negative-node counts survive: deleting the b-wme at dst must
	// re-propagate the left token (count 1 -> 0).
	reborn := 0
	for _, ic := range dst.Build(rootsT(dst, Change{Tag: Delete, WME: wb}), nil) {
		if ic.Tag == Add {
			reborn++
		}
	}
	if reborn != 1 {
		t.Errorf("negation count lost in migration: reborn = %d, want 1", reborn)
	}
}

func TestConstTestString(t *testing.T) {
	prods := mustParse(t, `(p p1 (a ^x { <v> > 2 } ^y <v> ^z << red 3 >>) --> (halt))`)
	net, err := Compile(prods)
	if err != nil {
		t.Fatal(err)
	}
	a := net.AlphasForClass("a")[0]
	keys := make([]string, len(a.Tests))
	for i := range a.Tests {
		keys[i] = a.Tests[i].key()
	}
	joined := strings.Join(keys, " ")
	for _, want := range []string{"^x>", "<<", "@"} {
		if !strings.Contains(joined, want) {
			t.Errorf("alpha keys %q missing %q", joined, want)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	net := compileT(t, sharedFanoutProds)
	var buf bytes.Buffer
	if err := WriteDOT(&buf, net); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph rete", "shape=box", "doubleoctagon", "o1", "o2", "o3", "style=dashed"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
	// Detached nodes disappear from the picture.
	if err := net.Excise("o2"); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteDOT(&buf, net); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "\"o2\"") {
		t.Error("excised production still rendered")
	}
	// Balanced braces make it at least superficially valid DOT.
	if strings.Count(buf.String(), "{") != strings.Count(buf.String(), "}") {
		t.Error("unbalanced braces")
	}
}
