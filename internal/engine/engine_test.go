package engine

import (
	"bytes"
	"strings"
	"testing"

	"mpcrete/internal/ops5"
	"mpcrete/internal/rete"
)

func mustProgram(t *testing.T, src string) *ops5.Program {
	t.Helper()
	prog, err := ops5.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestEngineCountUp(t *testing.T) {
	prog := mustProgram(t, `
(p count-up
    (counter ^value <v> ^limit <l>)
    (counter ^value < <l>)
    -->
    (modify 1 ^value (compute <v> + 1)))
`)
	var out bytes.Buffer
	e, err := New(prog, CompileOptions{}, SessionOptions{Output: &out})
	if err != nil {
		t.Fatal(err)
	}
	e.MakeWME("counter", "value", 0, "limit", 5)
	fired, err := e.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if fired != 5 {
		t.Errorf("fired = %d, want 5", fired)
	}
	if e.WMCount() != 1 {
		t.Errorf("wm count = %d, want 1", e.WMCount())
	}
}

func TestEngineHalt(t *testing.T) {
	prog := mustProgram(t, `
(p a-once (go) --> (write done) (halt))
(p z-never (go) --> (make extra))
`)
	var out bytes.Buffer
	e, err := New(prog, CompileOptions{}, SessionOptions{Output: &out})
	if err != nil {
		t.Fatal(err)
	}
	e.MakeWME("go")
	fired, err := e.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Errorf("fired = %d, want 1 (halt stops)", fired)
	}
	if !e.Halted() {
		t.Error("engine should be halted")
	}
	if got := strings.TrimSpace(out.String()); got != "done" {
		t.Errorf("output = %q", got)
	}
	// Further steps are no-ops.
	in, err := e.Step()
	if err != nil || in != nil {
		t.Errorf("Step after halt = %v, %v", in, err)
	}
}

func TestEngineRefraction(t *testing.T) {
	// Without refraction this production would fire forever: its RHS
	// does not change working memory.
	prog := mustProgram(t, `
(p noop (thing ^v <x>) --> (write saw <x>))
`)
	var out bytes.Buffer
	e, err := New(prog, CompileOptions{}, SessionOptions{Output: &out})
	if err != nil {
		t.Fatal(err)
	}
	e.MakeWME("thing", "v", 1)
	e.MakeWME("thing", "v", 2)
	fired, err := e.Run(50)
	if err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Errorf("fired = %d, want 2 (one per instantiation)", fired)
	}
}

func TestEngineLEXRecency(t *testing.T) {
	prog := mustProgram(t, `
(p pick (item ^name <n>) --> (write <n>) (remove 1))
`)
	var out bytes.Buffer
	e, err := New(prog, CompileOptions{}, SessionOptions{Output: &out, Strategy: LEX})
	if err != nil {
		t.Fatal(err)
	}
	e.MakeWME("item", "name", "first")
	e.MakeWME("item", "name", "second")
	e.MakeWME("item", "name", "third")
	if _, err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	// LEX fires most recent first.
	want := "third\nsecond\nfirst\n"
	if out.String() != want {
		t.Errorf("order = %q, want %q", out.String(), want)
	}
}

func TestEngineMEAOrdersByFirstCE(t *testing.T) {
	prog := mustProgram(t, `
(p act (goal ^name <g>) (support ^for <g>) --> (write <g>) (remove 1))
`)
	run := func(strategy Strategy) string {
		var out bytes.Buffer
		e, err := New(prog, CompileOptions{}, SessionOptions{Output: &out, Strategy: strategy})
		if err != nil {
			t.Fatal(err)
		}
		// goal g1 is older than g2, but g1's SUPPORT is the most
		// recent wme of all.
		e.MakeWME("goal", "name", "g1")
		e.MakeWME("goal", "name", "g2")
		e.MakeWME("support", "for", "g2")
		e.MakeWME("support", "for", "g1")
		if _, err := e.Run(10); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	// LEX looks at the overall most recent tag: support-for-g1 wins.
	if got := run(LEX); got != "g1\ng2\n" {
		t.Errorf("LEX order = %q, want g1 first", got)
	}
	// MEA keys on the first CE (the goal): g2 is the more recent goal.
	if got := run(MEA); got != "g2\ng1\n" {
		t.Errorf("MEA order = %q, want g2 first", got)
	}
}

func TestEngineSpecificityTieBreak(t *testing.T) {
	prog := mustProgram(t, `
(p loose (sig ^v <x>) --> (write loose) (remove 1))
(p tight (sig ^v <x> ^v > 0) --> (write tight) (remove 1))
`)
	var out bytes.Buffer
	e, err := New(prog, CompileOptions{}, SessionOptions{Output: &out})
	if err != nil {
		t.Fatal(err)
	}
	e.MakeWME("sig", "v", 3)
	if _, err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	// Both match the same single wme (equal recency); the more
	// specific production fires first, removes the wme, and the other
	// instantiation retracts.
	if got := strings.TrimSpace(out.String()); got != "tight" {
		t.Errorf("output = %q, want tight", got)
	}
}

func TestEngineNegationLoop(t *testing.T) {
	// Generates items until the blocker appears.
	prog := mustProgram(t, `
(p spawn
    (gen ^next <n> ^max <m>)
    -(stop)
    -->
    (make item ^n <n>)
    (modify 1 ^next (compute <n> + 1)))
(p stopper
    (gen ^next <n> ^max <m>)
    (item ^n <m>)
    -->
    (make stop))
`)
	e, err := New(prog, CompileOptions{}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e.MakeWME("gen", "next", 1, "max", 4)
	if _, err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	// items 1..4 plus gen plus stop = 6 wmes.
	if e.WMCount() != 6 {
		t.Errorf("wm = %d, want 6", e.WMCount())
	}
}

func TestEngineModifyAssignsNewTimeTag(t *testing.T) {
	prog := mustProgram(t, `
(p bump (c ^v 0) --> (modify 1 ^v 1))
`)
	e, err := New(prog, CompileOptions{}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w := e.MakeWME("c", "v", 0)
	oldTag := w.TimeTag
	if _, err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if e.WMCount() != 1 {
		t.Fatalf("wm = %d", e.WMCount())
	}
	cs := e.ConflictSet()
	if len(cs) != 0 {
		t.Errorf("conflict set should be empty, got %d", len(cs))
	}
	// The surviving wme must be the modified one with a fresh tag.
	for _, in := range cs {
		_ = in
	}
	if e.Fired() != 1 {
		t.Errorf("fired = %d", e.Fired())
	}
	_ = oldTag
}

func TestEngineCycleLimit(t *testing.T) {
	prog := mustProgram(t, `
(p forever (tick ^n <n>) --> (modify 1 ^n (compute <n> + 1)))
`)
	e, err := New(prog, CompileOptions{}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e.MakeWME("tick", "n", 0)
	fired, err := e.Run(20)
	if err != ErrCycleLimit {
		t.Errorf("err = %v, want ErrCycleLimit", err)
	}
	if fired != 20 {
		t.Errorf("fired = %d, want 20", fired)
	}
}

func TestEngineRemoveTwiceIsNoop(t *testing.T) {
	prog := mustProgram(t, `
(p dup (a ^v <x>) (b) --> (remove 1 1))
`)
	e, err := New(prog, CompileOptions{}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e.MakeWME("a", "v", 1)
	e.MakeWME("b")
	if _, err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if e.WMCount() != 1 {
		t.Errorf("wm = %d, want 1 (only b left)", e.WMCount())
	}
}

func TestEngineWriteCrlfAndCompute(t *testing.T) {
	prog := mustProgram(t, `
(p report
    (pair ^a <x> ^b <y>)
    -->
    (bind <s> (compute <x> + <y>))
    (bind <d> (compute <x> * <y> - 1))
    (write sum <s> (crlf) prod-1 <d>)
    (remove 1))
`)
	var out bytes.Buffer
	e, err := New(prog, CompileOptions{}, SessionOptions{Output: &out})
	if err != nil {
		t.Fatal(err)
	}
	e.MakeWME("pair", "a", 3, "b", 4)
	if _, err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "sum 7 \n prod-1 11\n" {
		t.Errorf("output = %q", got)
	}
}

func TestEngineComputeErrors(t *testing.T) {
	cases := []struct {
		name, src string
		wantSub   string
	}{
		{"non-numeric", `(p x (a ^v <s>) --> (make b ^v (compute <s> + 1)))`, "non-numeric"},
		{"div zero", `(p x (a ^v <s>) --> (make b ^v (compute 1 // 0)))`, "division by zero"},
		{"mod zero", `(p x (a ^v <s>) --> (make b ^v (compute 1 mod 0)))`, "mod by zero"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog := mustProgram(t, c.src)
			e, err := New(prog, CompileOptions{}, SessionOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if c.name == "non-numeric" {
				e.MakeWME("a", "v", "sym")
			} else {
				e.MakeWME("a", "v", 1)
			}
			_, err = e.Run(5)
			if err == nil || !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("err = %v, want substring %q", err, c.wantSub)
			}
		})
	}
}

func TestEngineLinearAndUnsharedAgree(t *testing.T) {
	src := `
(p fib-step
    (fib ^i <i> ^a <a> ^b <b> ^n <n>)
    (fib ^i < <n>)
    -->
    (modify 1 ^i (compute <i> + 1) ^a <b> ^b (compute <a> + <b>)))
`
	run := func(variant string, nbuckets int) int {
		prog := mustProgram(t, src)
		e, err := New(prog, CompileOptions{Variant: variant}, SessionOptions{NBuckets: nbuckets})
		if err != nil {
			t.Fatal(err)
		}
		e.MakeWME("fib", "i", 0, "a", 0, "b", 1, "n", 10)
		fired, err := e.Run(100)
		if err != nil {
			t.Fatal(err)
		}
		return fired
	}
	base := run("", 0)
	if linear := run("", 1); linear != base {
		t.Errorf("linear memories fired %d, hashed %d", linear, base)
	}
	if unshared := run("unshared", 0); unshared != base {
		t.Errorf("unshared fired %d, shared %d", unshared, base)
	}
}

func TestConflictSetSorted(t *testing.T) {
	prog := mustProgram(t, `
(p p1 (x ^v <a>) --> (halt))
`)
	e, err := New(prog, CompileOptions{}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e.MakeWME("x", "v", 1)
	e.MakeWME("x", "v", 2)
	e.MakeWME("x", "v", 3)
	// Match without firing.
	e.match()
	cs := e.ConflictSet()
	if len(cs) != 3 {
		t.Fatalf("cs = %d", len(cs))
	}
	for i := 1; i < len(cs); i++ {
		if e.compare(cs[i-1], cs[i]) >= 0 {
			t.Errorf("conflict set not sorted best-first at %d", i)
		}
	}
	if cs[0].TimeTags[0] != 3 {
		t.Errorf("best instantiation tag = %d, want most recent", cs[0].TimeTags[0])
	}
}

func TestEngineWithTransformedNetwork(t *testing.T) {
	src := `
(p o1 (a ^x <v>) (b ^x <v>) --> (make got ^k 1))
(p o2 (a ^x <v>) (b ^x <v>) --> (make got ^k 2))
`
	prog := mustProgram(t, src)
	net, err := rete.Compile(prog.Productions)
	if err != nil {
		t.Fatal(err)
	}
	var shared *rete.Node
	for _, n := range net.Nodes {
		if n.IsTwoInput() && len(n.Succs) > 1 {
			shared = n
		}
	}
	if shared == nil {
		t.Fatal("expected shared join")
	}
	if _, err := net.Unshare(shared); err != nil {
		t.Fatal(err)
	}
	e, err := NewWithNetwork(prog, net, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e.MakeWME("a", "x", 1)
	e.MakeWME("b", "x", 1)
	fired, err := e.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Errorf("fired = %d, want both productions", fired)
	}
	if e.WMCount() != 4 {
		t.Errorf("wm = %d, want 4", e.WMCount())
	}
}

func TestEngineWatchLevels(t *testing.T) {
	src := `(p fire (sig ^v <x>) --> (make echo ^v <x>) (remove 1))`
	run := func(watch int) string {
		prog := mustProgram(t, src)
		var out bytes.Buffer
		e, err := New(prog, CompileOptions{}, SessionOptions{Output: &out, Watch: watch})
		if err != nil {
			t.Fatal(err)
		}
		e.MakeWME("sig", "v", 7)
		if _, err := e.Run(10); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	if out := run(0); out != "" {
		t.Errorf("watch 0 output = %q", out)
	}
	out1 := run(1)
	if !strings.Contains(out1, "1. fire 1") {
		t.Errorf("watch 1 missing firing line: %q", out1)
	}
	if strings.Contains(out1, "=>wm") {
		t.Errorf("watch 1 shows wme changes: %q", out1)
	}
	out2 := run(2)
	for _, want := range []string{"=>wm: 1: (sig ^v 7)", "1. fire 1", "<=wm: 1: (sig ^v 7)", "=>wm: 2: (echo ^v 7)"} {
		if !strings.Contains(out2, want) {
			t.Errorf("watch 2 missing %q in:\n%s", want, out2)
		}
	}
}

func TestEngineAccessorsAndInsertWMEs(t *testing.T) {
	prog := mustProgram(t, `(p p1 (a ^x <v>) --> (remove 1))`)
	e, err := New(prog, CompileOptions{}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Network() == nil || e.Matcher() == nil {
		t.Fatal("nil accessors")
	}
	wmes, err := ops5.ParseWMEs("(a ^x 1)\n(a ^x 2)")
	if err != nil {
		t.Fatal(err)
	}
	e.InsertWMEs(wmes...)
	fired, err := e.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if fired != 2 || e.WMCount() != 0 {
		t.Errorf("fired = %d, wm = %d", fired, e.WMCount())
	}
	// The caller's wmes are cloned: their IDs are untouched.
	if wmes[0].ID != 0 {
		t.Error("InsertWMEs mutated caller's wme")
	}
}

func TestEngineModifyThenRemoveSameCE(t *testing.T) {
	// modify 1 deletes the matched wme and creates a successor; the
	// following remove 1 targets the ORIGINAL (already deleted) wme
	// and must be a harmless no-op. A guard bounds the rematch chain.
	prog := mustProgram(t, `
(p double-touch
    (c ^v { <x> < 3 })
    -->
    (modify 1 ^v (compute <x> + 1))
    (remove 1))
`)
	e, err := New(prog, CompileOptions{}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e.MakeWME("c", "v", 0)
	fired, err := e.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if fired != 3 {
		t.Errorf("fired = %d, want 3 (v: 0->1->2->3)", fired)
	}
	if e.WMCount() != 1 {
		t.Errorf("wm = %d, want the surviving modified wme", e.WMCount())
	}
}

func TestStrategyAndKeyStrings(t *testing.T) {
	if LEX.String() != "LEX" || MEA.String() != "MEA" {
		t.Error("strategy strings")
	}
	prog := mustProgram(t, `(p p1 (a ^x 1) --> (halt))`)
	e, err := New(prog, CompileOptions{}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e.MakeWME("a", "x", 1)
	e.match()
	cs := e.ConflictSet()
	if len(cs) != 1 || !strings.Contains(cs[0].Key(), "p1") {
		t.Errorf("cs = %v", cs)
	}
}
