package engine

import (
	"testing"

	"mpcrete/internal/ops5"
)

// TestNilBoundMake: a variable bound to an absent attribute carries the
// nil value, and assigning nil makes nothing — the made wme has no ^y,
// rather than a ^y that Get cannot tell from absence, Equal counts and
// a re-parse of the printed text turns into the symbol nil.
func TestNilBoundMake(t *testing.T) {
	prog := mustProgram(t, `(p r (a ^x <v>) --> (make b ^y <v> ^z 1))`)
	e, err := New(prog, CompileOptions{}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seed, err := ops5.ParseWMEs(`(a ^k 1)`)
	if err != nil {
		t.Fatal(err)
	}
	e.InsertWMEs(seed...)
	if fired, err := e.Run(10); err != nil || fired != 1 {
		t.Fatalf("fired %d, err %v", fired, err)
	}
	var made *ops5.WME
	for _, w := range e.WMEs() {
		if w.Class == "b" {
			made = w
		}
	}
	if made == nil {
		t.Fatal("no b made")
	}
	if got := made.String(); got != "(b ^z 1)" {
		t.Errorf("made %s, want (b ^z 1)", got)
	}
	if made.Len() != 1 || !made.Get("y").Nil() || !made.Equal(ops5.NewWME("b", "z", 1)) {
		t.Errorf("made wme counts ^y: Len=%d Get(y)=%v", made.Len(), made.Get("y"))
	}
	// The snapshot round-trips through its text.
	for _, w := range e.WMEs() {
		back, err := ops5.ParseWMEs(w.String())
		if err != nil || len(back) != 1 || !back[0].Equal(w) {
			t.Errorf("%s re-parses to %v (%v)", w, back, err)
		}
	}
}

// TestSessionLaysOutItsOwnCopies: whatever way a wme enters a session
// it is copied into the network's layout of its class — a plain copy
// for a class no production names — and the caller's wme is left as it
// was, so one parsed set can seed any number of sessions over any
// number of networks. Attributes no production mentions ride along
// through a modify.
func TestSessionLaysOutItsOwnCopies(t *testing.T) {
	prog := mustProgram(t, `(p cook (item ^state raw) --> (modify 1 ^state cooked))`)
	c, err := Compile(prog, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	layout := c.Network().Layout("item")
	if layout == nil || c.Network().Layout("ghost") != nil {
		t.Fatalf("layouts: item %v, ghost %v", layout, c.Network().Layout("ghost"))
	}
	seed, err := ops5.ParseWMEs(`(item ^state raw ^note fragile) (ghost ^x 1)`)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ { // the same parsed set, twice
		s := c.NewSession(SessionOptions{})
		s.InsertWMEs(seed[0])
		asserted := s.Assert(seed[1])
		made := s.MakeWME("item", "state", "done", "note", "sturdy")
		for _, w := range seed {
			if w.Layout() != nil || w.ID != 0 || w.TimeTag != 0 {
				t.Fatalf("round %d: the caller's %s was touched (layout %v, id %d)", round, w, w.Layout(), w.ID)
			}
		}
		if asserted[0].Layout() != nil || made.Layout() != layout {
			t.Errorf("round %d: asserted ghost layout %v, made item layout %v", round, asserted[0].Layout(), made.Layout())
		}
		if fired, err := s.Run(10); err != nil || fired != 1 {
			t.Fatalf("round %d: fired %d, err %v", round, fired, err)
		}
		want := []string{"(ghost ^x 1)", "(item ^note sturdy ^state done)", "(item ^note fragile ^state cooked)"}
		got := s.WMEs()
		if len(got) != len(want) {
			t.Fatalf("round %d: %d wmes, want %d", round, len(got), len(want))
		}
		for i, w := range got {
			if w.String() != want[i] {
				t.Errorf("round %d: wme %d = %s, want %s", round, i, w, want[i])
			}
		}
	}
}

// TestLiveAdditionOverOlderLayout: a production added to a running
// engine may mention attributes its classes' layouts had no slot for.
// The wmes already in working memory were laid out before the layout
// grew and keep those attributes beside their slots; the new
// production's tests reach them by name and must match them all the
// same, as they match wmes made afterwards.
func TestLiveAdditionOverOlderLayout(t *testing.T) {
	prog := mustProgram(t, `(p seed (item ^id <i>) --> (make seen ^id <i>))`)
	e, err := New(prog, CompileOptions{}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e.MakeWME("item", "id", 1, "color", "red", "size", 3)
	if _, err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	late, err := ops5.ParseProduction(`(p late (item ^color <c> ^size 3) (seen ^id <i>) --> (make found ^color <c>) (modify 1 ^size 4))`)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddProductionLive(late); err != nil {
		t.Fatal(err)
	}
	if got := e.c.net.Layout("item").Len(); got != 3 {
		t.Fatalf("item layout has %d slots after the addition, want 3", got)
	}
	e.MakeWME("item", "id", 2, "color", "blue", "size", 3)
	if _, err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, w := range e.WMEs() {
		switch w.Class {
		case "found":
			found[w.Get("color").Sym] = true
		case "item":
			if !w.Get("size").Equal(ops5.N(4)) {
				t.Errorf("%s was not modified", w)
			}
		}
	}
	if !found["red"] || !found["blue"] {
		t.Errorf("late fired for %v, want red (laid out before the layout grew) and blue", found)
	}
}

// TestMakeAllocatesOnce pins the act phase's share of the flat form: a
// make builds its wme in place in the class's layout — one allocation,
// no map, no second pass.
func TestMakeAllocatesOnce(t *testing.T) {
	prog := mustProgram(t, `(p r (a ^x <v> ^y <w>) --> (make b ^p <v> ^q (compute <w> + 1) ^r done))`)
	e, err := New(prog, CompileOptions{}, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e.MakeWME("a", "x", 1, "y", 2)
	e.match()
	cs := e.ConflictSet()
	if len(cs) != 1 {
		t.Fatalf("conflict set = %d", len(cs))
	}
	if n := testing.AllocsPerRun(100, func() {
		e.pending = e.pending[:0]
		if err := e.act(cs[0]); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("one make allocates %v times, want 1", n)
	}
	if got := e.pending[0].WME.String(); got != "(b ^p 1 ^q 3 ^r done)" {
		t.Errorf("made %s", got)
	}
}
