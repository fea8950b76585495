package engine

import (
	"bytes"
	"strings"
	"testing"

	"mpcrete/internal/ops5"
)

func TestExciseStopsFiring(t *testing.T) {
	prog := mustProgram(t, `
(p chatty (item ^v <x>) --> (write saw <x>))
`)
	var out bytes.Buffer
	e, err := New(prog, CompileOptions{}, SessionOptions{Output: &out})
	if err != nil {
		t.Fatal(err)
	}
	e.MakeWME("item", "v", 1)
	if _, err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "saw"); got != 1 {
		t.Fatalf("fired %d times", got)
	}
	if err := e.ExciseProduction("chatty"); err != nil {
		t.Fatal(err)
	}
	// New matching wmes no longer fire anything.
	e.MakeWME("item", "v", 2)
	fired, err := e.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Errorf("excised production fired %d times", fired)
	}
	if err := e.ExciseProduction("chatty"); err == nil {
		t.Error("double excise should fail")
	}
}

func TestExciseRemovesConflictSetEntries(t *testing.T) {
	prog := mustProgram(t, `
(p a1 (sig ^v <x>) --> (write a1))
(p a2 (sig ^v <x>) --> (write a2))
`)
	e, err := New(prog, CompileOptions{}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e.MakeWME("sig", "v", 1)
	e.match()
	if len(e.ConflictSet()) != 2 {
		t.Fatalf("cs = %d", len(e.ConflictSet()))
	}
	if err := e.ExciseProduction("a1"); err != nil {
		t.Fatal(err)
	}
	cs := e.ConflictSet()
	if len(cs) != 1 || cs[0].Prod.Name != "a2" {
		t.Errorf("cs after excise = %v", cs)
	}
}

func TestExciseRHSAction(t *testing.T) {
	// A production that excises its sibling; the sibling would
	// otherwise also fire on the same wme.
	prog := mustProgram(t, `
(p a-killer (sig) --> (excise z-victim) (make done))
(p z-victim (sig) --> (make never))
`)
	e, err := New(prog, CompileOptions{}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e.MakeWME("sig")
	fired, err := e.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Errorf("fired = %d, want 1 (victim excised before it fires)", fired)
	}
	if e.WMCount() != 2 {
		t.Errorf("wm = %d, want sig + done", e.WMCount())
	}
}

func TestAddProductionLiveMatchesExistingWM(t *testing.T) {
	prog := mustProgram(t, `
(p seed (never) --> (halt))
`)
	var out bytes.Buffer
	e, err := New(prog, CompileOptions{}, SessionOptions{Output: &out})
	if err != nil {
		t.Fatal(err)
	}
	// Build up working memory first.
	e.MakeWME("pair", "a", 1)
	e.MakeWME("pair", "a", 2)
	if _, err := e.Run(5); err != nil {
		t.Fatal(err)
	}

	p, err := ops5.ParseProduction(`(p report (pair ^a <x>) --> (write got <x>))`)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddProductionLive(p); err != nil {
		t.Fatal(err)
	}
	// The new production must see the pre-existing wmes immediately.
	fired, err := e.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Errorf("fired = %d, want 2 instantiations over existing wmes", fired)
	}
	if !strings.Contains(out.String(), "got 1") || !strings.Contains(out.String(), "got 2") {
		t.Errorf("output = %q", out.String())
	}
}

func TestAddProductionLiveSharedPrefixUnaffected(t *testing.T) {
	// An existing production shares the (a,b) join shape; live
	// addition must not double-populate the shared memories.
	prog := mustProgram(t, `
(p orig (a ^x <v>) (b ^x <v>) --> (write orig <v>) (remove 1))
`)
	var out bytes.Buffer
	e, err := New(prog, CompileOptions{}, SessionOptions{Output: &out})
	if err != nil {
		t.Fatal(err)
	}
	e.MakeWME("a", "x", 1)
	e.MakeWME("b", "x", 1)
	e.match()
	if len(e.ConflictSet()) != 1 {
		t.Fatalf("cs = %d", len(e.ConflictSet()))
	}

	p, err := ops5.ParseProduction(`(p twin (a ^x <v>) (b ^x <v>) --> (write twin <v>))`)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddProductionLive(p); err != nil {
		t.Fatal(err)
	}
	// Both productions have exactly one instantiation.
	cs := e.ConflictSet()
	if len(cs) != 2 {
		t.Fatalf("cs after live add = %d, want 2", len(cs))
	}
	// And future matching still works exactly once per production.
	e.MakeWME("a", "x", 2)
	e.MakeWME("b", "x", 2)
	e.match()
	if got := len(e.ConflictSet()); got != 4 {
		t.Errorf("cs = %d, want 4", got)
	}
}

func TestAddProductionLiveDuplicateName(t *testing.T) {
	prog := mustProgram(t, `(p one (a) --> (halt))`)
	e, err := New(prog, CompileOptions{}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ops5.ParseProduction(`(p one (b) --> (halt))`)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddProductionLive(p); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestAddThenExciseRoundTrip(t *testing.T) {
	prog := mustProgram(t, `(p keeper (k) --> (write keeper) (remove 1))`)
	var out bytes.Buffer
	e, err := New(prog, CompileOptions{}, SessionOptions{Output: &out})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		p, err := ops5.ParseProduction(`(p temp (t ^v <x>) --> (write temp <x>) (remove 1))`)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.AddProductionLive(p); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		e.MakeWME("t", "v", round)
		if _, err := e.Run(5); err != nil {
			t.Fatal(err)
		}
		if err := e.ExciseProduction("temp"); err != nil {
			t.Fatal(err)
		}
	}
	if got := strings.Count(out.String(), "temp"); got != 3 {
		t.Errorf("temp fired %d times, want 3\n%s", got, out.String())
	}
}
