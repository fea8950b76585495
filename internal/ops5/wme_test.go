package ops5

import (
	"slices"
	"testing"
)

// TestNilIsAbsence: the nil Value is an absent attribute in every form
// a wme takes. Setting it stores nothing (and removes what was there),
// and Len, Equal and String cannot tell it from never having been set —
// so a printed wme re-parses to an Equal one.
func TestNilIsAbsence(t *testing.T) {
	l := NewLayout(0, "b", "y", "z")
	for name, w := range map[string]*WME{"loose": {Class: "b"}, "laid-out": l.New()} {
		w.Set("y", Value{})
		w.Set("z", N(1))
		w.Set("note", Value{})
		if got := w.String(); got != "(b ^z 1)" {
			t.Errorf("%s: String = %s, want (b ^z 1)", name, got)
		}
		// Only z is held anywhere: in its slot, or as the loose wme's
		// one extra.
		stored := len(w.Extra())
		for _, v := range w.Slots() {
			if !v.Nil() {
				stored++
			}
		}
		if w.Len() != 1 || stored != 1 || !w.Get("y").Nil() {
			t.Errorf("%s: Len=%d stored=%d Get(y)=%v", name, w.Len(), stored, w.Get("y"))
		}
		if !w.Equal(NewWME("b", "z", 1)) || !NewWME("b", "z", 1).Equal(w) {
			t.Errorf("%s: not Equal to (b ^z 1)", name)
		}
		back, err := ParseWMEs(w.String())
		if err != nil || len(back) != 1 || !back[0].Equal(w) {
			t.Errorf("%s: %s does not round-trip: %v %v", name, w, back, err)
		}
		// Setting nil over a value removes it.
		w.Set("z", Value{})
		if w.Len() != 0 || w.String() != "(b)" {
			t.Errorf("%s: after removing z: Len=%d String=%s", name, w.Len(), w)
		}
	}
}

// TestLayoutOrder: slots are numbered by first mention and never move;
// the ascending-name order a printer walks is kept as slots arrive.
func TestLayoutOrder(t *testing.T) {
	l := NewLayout(3, "c", "m", "b", "z")
	if s := l.Add("b"); s != 1 {
		t.Errorf("Add of a held attribute = slot %d, want 1", s)
	}
	if s := l.Add("a"); s != 3 {
		t.Errorf("Add of a new attribute = slot %d, want 3", s)
	}
	if l.ID() != 3 || l.Class() != "c" || l.Len() != 4 || !slices.Equal(l.Names(), []string{"m", "b", "z", "a"}) {
		t.Errorf("layout = %d %s %v", l.ID(), l.Class(), l.Names())
	}
	if !slices.Equal(l.order, []int{3, 1, 0, 2}) {
		t.Errorf("order = %v, want a b m z = [3 1 0 2]", l.order)
	}
	if _, ok := l.Slot("q"); ok {
		t.Error("Slot found an attribute the layout lacks")
	}
	var none *Layout
	if _, ok := none.Slot("m"); ok || none.Len() != 0 {
		t.Error("the nil layout holds a slot")
	}
}

// TestAtNeverReadsTheWrongSlot: At takes the slot only from a wme the
// same layout laid out and that has the slot; everything else goes by
// name: the loose wme has no slots, the other network's layout keeps y
// where l keeps x, and the wme laid out before l grew has no slot for y.
func TestAtNeverReadsTheWrongSlot(t *testing.T) {
	l := NewLayout(0, "c", "x")
	other := NewLayout(0, "c", "y", "x") // another network's layout of the class
	src := NewWME("c", "x", 1, "y", 2)

	early := l.Conform(src) // laid out, then the layout grows
	slot := l.Add("y")
	for name, w := range map[string]*WME{
		"loose": src, "other-layout": other.Conform(src), "before-growth": early, "after-growth": l.Conform(src),
	} {
		if got := w.At(l, 0, "x"); !got.Equal(N(1)) {
			t.Errorf("%s: At(x) = %v, want 1", name, got)
		}
		if got := w.At(l, slot, "y"); !got.Equal(N(2)) {
			t.Errorf("%s: At(y) = %v, want 2", name, got)
		}
		c := w.Clone()
		c.SetAt(l, slot, "y", N(7))
		if !c.Get("y").Equal(N(7)) || !c.Get("x").Equal(N(1)) || !w.Get("y").Equal(N(2)) {
			t.Errorf("%s: SetAt(y, 7) gave %s from %s", name, c, w)
		}
	}
	if len(early.Slots()) != 1 || len(early.Extra()) != 1 {
		t.Errorf("a wme laid out before the layout grew was re-laid: %d slots, %d extras", len(early.Slots()), len(early.Extra()))
	}
}

// TestWMEAllocs pins what the flat form is for: a clone is one
// allocation up to eight slots (two with more, or with extras), and
// reading an attribute — by slot, by name, or by name as the fallback
// of a by-slot read — allocates nothing.
func TestWMEAllocs(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i"}
	var sink *WME
	for _, n := range []int{0, 1, 4, 5, 8, 9} {
		l := NewLayout(0, "c", names[:n]...)
		w := l.New()
		for i, name := range names[:n] {
			w.Set(name, N(float64(i)))
		}
		want := 1.0
		if n > 8 {
			want = 2
		}
		if got := testing.AllocsPerRun(100, func() { sink = w.Clone() }); got != want {
			t.Errorf("Clone of a %d-slot wme allocates %v times, want %v", n, got, want)
		}
		if !sink.Equal(w) || sink.Layout() != l {
			t.Errorf("clone of a %d-slot wme is %s, want %s", n, sink, w)
		}
	}

	l := NewLayout(0, "c", "x", "y")
	laid := l.Conform(NewWME("c", "x", 1, "y", "s", "note", "n"))
	loose := NewWME("c", "x", 1, "y", "s", "note", "n")
	var v Value
	if got := testing.AllocsPerRun(100, func() {
		v = laid.At(l, 1, "y")
		v = loose.At(l, 1, "y")
		v = laid.Get("note")
		v = loose.Get("x")
		v = laid.Get("absent")
	}); got != 0 {
		t.Errorf("At and Get allocate %v times, want 0", got)
	}
	_ = v
}

// TestStringWalksInOrder: slots in mention order and extras interleave
// into one ascending attribute order, the same text the loose form
// prints.
func TestStringWalksInOrder(t *testing.T) {
	l := NewLayout(0, "block", "on", "color")
	src := NewWME("block", "name", "b1", "color", "blue", "on", "table", "weight", 2.5, "age", -3)
	const want = "(block ^age -3 ^color blue ^name b1 ^on table ^weight 2.5)"
	for name, w := range map[string]*WME{"loose": src, "laid-out": l.Conform(src)} {
		if got := w.String(); got != want {
			t.Errorf("%s: String = %s, want %s", name, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = src.String() }); n > 2 {
		t.Errorf("String allocates %v times, want at most the builder's buffer and the result", n)
	}
}

// TestAppendText: the renderer appends after what the buffer holds,
// allocates nothing when the buffer has room, and String — the same
// text through a stack array — is the string and nothing else.
func TestAppendText(t *testing.T) {
	l := NewLayout(0, "block", "on", "color")
	w := l.Conform(NewWME("block", "name", "b1", "color", "blue", "on", "table", "weight", 2.5))
	const want = "(block ^color blue ^name b1 ^on table ^weight 2.5)"
	buf := make([]byte, 0, 256)
	if got := string(w.AppendText(append(buf, "x "...))); got != "x "+want {
		t.Errorf("AppendText = %q, want %q", got, "x "+want)
	}
	if n := testing.AllocsPerRun(100, func() { buf = w.AppendText(buf[:0]) }); n != 0 {
		t.Errorf("AppendText into a buffer with room allocates %v times, want 0", n)
	}
	var s string
	if n := testing.AllocsPerRun(100, func() { s = w.String() }); n != 1 || s != want {
		t.Errorf("String = %q in %v allocations, want %q in 1", s, n, want)
	}
}
