package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"mpcrete/internal/ops5"
	"mpcrete/internal/rete"
)

// buildSample constructs a small hand-made trace.
func buildSample() *Trace {
	leaf := func(side rete.Side, tag rete.Tag, bucket, insts int) *Activation {
		return &Activation{Node: 7, Side: side, Tag: tag, Bucket: bucket, Insts: insts}
	}
	root := &Activation{Node: 3, Side: rete.Right, Tag: rete.Add, Bucket: 5,
		Children: []*Activation{
			leaf(rete.Left, rete.Add, 9, 1),
			leaf(rete.Left, rete.Delete, 9, 0),
		}}
	return &Trace{
		Name:     "sample",
		NBuckets: 16,
		Cycles: []*Cycle{
			{Changes: 2, Roots: []*Activation{root}, RootInsts: 1},
			{Changes: 1}, // an empty cycle
		},
	}
}

func TestTraceStats(t *testing.T) {
	tr := buildSample()
	s := tr.Stats()
	if s.Cycles != 2 || s.Total != 3 || s.LeftActivations != 2 || s.RightActivations != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.Instantiations != 2 {
		t.Errorf("instantiations = %d, want 2 (1 root + 1 nested)", s.Instantiations)
	}
	if s.MaxSuccessors != 2 {
		t.Errorf("max successors = %d, want 2", s.MaxSuccessors)
	}
}

func TestTraceValidate(t *testing.T) {
	tr := buildSample()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	tr.Cycles[0].Roots[0].Bucket = 99
	if err := tr.Validate(); err == nil {
		t.Error("out-of-range bucket not caught")
	}
	tr2 := buildSample()
	tr2.NBuckets = 0
	if err := tr2.Validate(); err == nil {
		t.Error("zero buckets not caught")
	}
}

// TestValidateReportsFirstFault pins which error Validate returns when
// a trace has several faults: the first faulty activation in depth-
// first preorder, and, of an activation both out of range and with a
// negative count, the negative count.
func TestValidateReportsFirstFault(t *testing.T) {
	leaf := &Activation{Bucket: 9, Insts: -1}
	tr := &Trace{Name: "faults", NBuckets: 4, Cycles: []*Cycle{
		{Roots: []*Activation{{Bucket: 1}}},
		{Roots: []*Activation{
			{Bucket: 2, Children: []*Activation{{Bucket: 3}, leaf}},
			{Bucket: 7},
		}},
	}}
	const twoFaults = "trace faults: cycle 1: negative node id or inst count"
	if err := tr.Validate(); err == nil || err.Error() != twoFaults {
		t.Errorf("Validate = %v, want %q", err, twoFaults)
	}
	leaf.Insts = 0
	const outOfRange = "trace faults: cycle 1: bucket 9 out of range [0,4)"
	if err := tr.Validate(); err == nil || err.Error() != outOfRange {
		t.Errorf("Validate = %v, want %q", err, outOfRange)
	}
	leaf.Bucket = 0
	const sibling = "trace faults: cycle 1: bucket 7 out of range [0,4)"
	if err := tr.Validate(); err == nil || err.Error() != sibling {
		t.Errorf("Validate = %v, want %q", err, sibling)
	}
}

func TestCodecRoundTripSample(t *testing.T) {
	tr := buildSample()
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, tr, got)
}

func assertTracesEqual(t *testing.T, a, b *Trace) {
	t.Helper()
	if a.Name != b.Name || a.NBuckets != b.NBuckets || len(a.Cycles) != len(b.Cycles) {
		t.Fatalf("header mismatch: %v vs %v", a, b)
	}
	type flat struct {
		node, bucket, insts, nchildren int
		side                           rete.Side
		tag                            rete.Tag
	}
	flatten := func(tr *Trace) []flat {
		var out []flat
		for _, c := range tr.Cycles {
			out = append(out, flat{node: -1, bucket: c.Changes, insts: c.RootInsts, nchildren: len(c.Roots)})
			c.Walk(func(x *Activation) {
				out = append(out, flat{x.Node, x.Bucket, x.Insts, len(x.Children), x.Side, x.Tag})
			})
		}
		return out
	}
	fa, fb := flatten(a), flatten(b)
	if len(fa) != len(fb) {
		t.Fatalf("flatten length %d vs %d", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("mismatch at %d: %+v vs %+v", i, fa[i], fb[i])
		}
	}
}

// randomTrace generates a random activation forest.
func randomTrace(rng *rand.Rand) *Trace {
	nb := 1 << (2 + rng.Intn(5))
	tr := &Trace{Name: "rnd", NBuckets: nb}
	var gen func(depth int) *Activation
	gen = func(depth int) *Activation {
		a := &Activation{
			Node:   rng.Intn(50),
			Side:   rete.Side(rng.Intn(2)),
			Tag:    rete.Tag(rng.Intn(2)),
			Bucket: rng.Intn(nb),
			Insts:  rng.Intn(3),
		}
		if depth < 3 {
			for i := 0; i < rng.Intn(4); i++ {
				a.Children = append(a.Children, gen(depth+1))
			}
		}
		return a
	}
	for c := 0; c < 1+rng.Intn(5); c++ {
		cy := &Cycle{Changes: rng.Intn(10), RootInsts: rng.Intn(2)}
		for r := 0; r < rng.Intn(6); r++ {
			cy.Roots = append(cy.Roots, gen(0))
		}
		tr.Cycles = append(tr.Cycles, cy)
	}
	return tr
}

func TestCodecRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		tr := randomTrace(rng)
		var buf bytes.Buffer
		if err := Encode(&buf, tr); err != nil {
			t.Fatal(err)
		}
		got, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", i, err, buf.String())
		}
		assertTracesEqual(t, tr, got)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"empty", ""},
		{"bad header", "nonsense\n"},
		{"truncated cycle", "trace \"x\" 16 2\ncycle 1 0 0\n"},
		{"truncated children", "trace \"x\" 16 1\ncycle 1 0 1\na 3 R + 5 0 2\na 4 L + 5 0 0\n"},
		{"bad side", "trace \"x\" 16 1\ncycle 1 0 1\na 3 X + 5 0 0\n"},
		{"bad tag", "trace \"x\" 16 1\ncycle 1 0 1\na 3 L ? 5 0 0\n"},
		{"bucket range", "trace \"x\" 16 1\ncycle 1 0 1\na 3 L + 99 0 0\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Decode(strings.NewReader(c.src)); err == nil {
				t.Errorf("Decode(%q) succeeded, want error", c.src)
			}
		})
	}
}

// TestRecorderAgainstEngineRun records a trace from a real match run
// and checks its shape against the matcher's known behaviour.
func TestRecorderAgainstEngineRun(t *testing.T) {
	prods := []string{
		`(p join2 (a ^x <v>) (b ^x <v>) --> (halt))`,
		`(p join3 (a ^x <v>) (b ^x <v>) (c ^x <v>) --> (halt))`,
	}
	var parsed []*ops5.Production
	for _, src := range prods {
		p, err := ops5.ParseProduction(src)
		if err != nil {
			t.Fatal(err)
		}
		parsed = append(parsed, p)
	}
	net, err := rete.Compile(parsed)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder("unit", 64)
	m := rete.NewMatcher(net, rete.MatcherOptions{NBuckets: 64, Listener: rec})

	mkw := func(id int, class string, x int) *ops5.WME {
		w := ops5.NewWME(class, "x", x)
		w.ID, w.TimeTag = id, id
		return w
	}
	// Cycle 1: a(x=1) -> one root L activation at join(a,b), no matches.
	m.Apply([]rete.Change{{Tag: rete.Add, WME: mkw(1, "a", 1)}})
	// Cycle 2: b(x=1) -> root R activation generating one child
	// (a,b) token, which is a left activation of join(.,c) and an
	// instantiation of join2.
	m.Apply([]rete.Change{{Tag: rete.Add, WME: mkw(2, "b", 1)}})
	// Cycle 3: c(x=1) -> root R activation -> instantiation of join3.
	m.Apply([]rete.Change{{Tag: rete.Add, WME: mkw(3, "c", 1)}})
	// Cycle 4: delete a -> deletion tree mirrors the additions.
	m.Apply([]rete.Change{{Tag: rete.Delete, WME: mkw(1, "a", 1)}})

	tr := rec.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Cycles) != 4 {
		t.Fatalf("cycles = %d", len(tr.Cycles))
	}

	c1 := tr.Cycles[0]
	if len(c1.Roots) != 1 || c1.Roots[0].Side != rete.Left || c1.Roots[0].Successors() != 0 {
		t.Errorf("cycle 1 roots = %+v", c1.Roots)
	}
	c2 := tr.Cycles[1]
	if len(c2.Roots) != 1 || c2.Roots[0].Side != rete.Right {
		t.Fatalf("cycle 2 roots = %+v", c2.Roots)
	}
	if c2.Roots[0].Insts != 1 || len(c2.Roots[0].Children) != 1 {
		t.Errorf("cycle 2 root should generate 1 inst + 1 child, got %d/%d",
			c2.Roots[0].Insts, len(c2.Roots[0].Children))
	}
	if c2.Roots[0].Children[0].Side != rete.Left {
		t.Error("child of a two-input node must be a left activation")
	}
	c3 := tr.Cycles[2]
	if len(c3.Roots) != 1 || c3.Roots[0].Insts != 1 {
		t.Errorf("cycle 3 = %+v", c3.Roots)
	}
	c4 := tr.Cycles[3]
	if got := c4.Roots[0].Tag; got != rete.Delete {
		t.Errorf("cycle 4 root tag = %v", got)
	}

	s := tr.Stats()
	if s.Instantiations != 4 { // +join2, +join3, then both deleted
		t.Errorf("instantiations = %d, want 4", s.Instantiations)
	}

	// Round-trip the recorded trace.
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesEqual(t, tr, got)
}

func TestBucketLoad(t *testing.T) {
	tr := buildSample()
	loads := tr.BucketLoad(false)
	if len(loads) != 2 {
		t.Fatalf("loads = %d cycles", len(loads))
	}
	if loads[0][5] != 1 || loads[0][9] != 2 {
		t.Errorf("cycle 0 load = %v", loads[0])
	}
	leftLoads := tr.BucketLoad(true)
	if leftLoads[0][5] != 0 || leftLoads[0][9] != 2 {
		t.Errorf("left-only load = %v", leftLoads[0])
	}
}
