package rete

import (
	"fmt"
	"reflect"
	"testing"

	"mpcrete/internal/ops5"
)

func mkWME(id int, class string, pairs ...any) *ops5.WME {
	w := ops5.NewWME(class, pairs...)
	w.ID, w.TimeTag = id, id
	return w
}

func TestMemoryAddRemoveScan(t *testing.T) {
	m := newMemory[rightEntry](8)
	n1 := &Node{ID: 1, Kind: KindJoin}
	n2 := &Node{ID: 2, Kind: KindJoin}

	w1, w2 := mkWME(1, "a"), mkWME(2, "a")
	m.add(3, rightEntry{node: n1, wme: w1})
	m.add(3, rightEntry{node: n2, wme: w2}) // same bucket, different node
	m.add(5, rightEntry{node: n1, wme: w2})

	if m.Len() != 3 {
		t.Fatalf("len = %d", m.Len())
	}
	// A bucket's entries carry their node, which is what a scan filters on.
	var seen []int
	for _, e := range m.entries(3) {
		if e.node == n1 {
			seen = append(seen, e.wme.ID)
		}
	}
	if len(seen) != 1 || seen[0] != 1 {
		t.Errorf("n1's entries in bucket 3 = %v", seen)
	}
	// Remove is node- and id-specific.
	if removeRight(m, 3, n1, 2) {
		t.Error("removed wrong entry")
	}
	if !removeRight(m, 3, n1, 1) {
		t.Error("failed to remove present entry")
	}
	if m.Len() != 2 {
		t.Errorf("len = %d", m.Len())
	}
	// A second remove finds nothing.
	if removeRight(m, 3, n1, 1) {
		t.Error("double remove found an entry")
	}
}

func TestMemoryLeftTokens(t *testing.T) {
	m := newMemory[leftEntry](4)
	n := &Node{ID: 7, Kind: KindNegative}
	t1 := Token{WMEs: []*ops5.WME{mkWME(1, "a"), mkWME(2, "b")}}
	t2 := Token{WMEs: []*ops5.WME{mkWME(1, "a"), mkWME(3, "b")}}

	m.add(2, leftEntry{node: n, token: t1, count: 5})
	m.add(2, leftEntry{node: n, token: t2})

	// Removal matches by wme-id sequence.
	probe := Token{WMEs: []*ops5.WME{mkWME(1, "a"), mkWME(2, "b")}}
	if count, ok := removeLeft(m, 2, n, probe); !ok || count != 5 {
		t.Fatalf("removeLeft = %d, %v, want 5, true", count, ok)
	}
	if m.Len() != 1 {
		t.Errorf("len = %d", m.Len())
	}
	// Token with different coverage does not match.
	if _, ok := removeLeft(m, 2, n, probe); ok {
		t.Error("removed absent token")
	}
}

// TestMemoryBucketKeepsOrderAndReusesSlots: entries live in their
// bucket by value. Removal closes the gap without reordering what is
// left (scan order is emission order), zeroes the slot it vacates, and
// the next add takes that slot: a warmed bucket's add/remove pair does
// not allocate.
func TestMemoryBucketKeepsOrderAndReusesSlots(t *testing.T) {
	right, left := newMemory[rightEntry](4), newMemory[leftEntry](4)
	n := &Node{ID: 1, Kind: KindJoin}
	var ws []*ops5.WME
	var ts []Token
	for id := 1; id <= 5; id++ {
		ws = append(ws, mkWME(id, "a"))
		ts = append(ts, Token{WMEs: []*ops5.WME{ws[id-1]}})
		right.add(1, rightEntry{node: n, wme: ws[id-1]})
		left.add(1, leftEntry{node: n, token: ts[id-1], count: id})
	}
	removeRight(right, 1, n, 2)
	removeLeft(left, 1, n, ts[3])
	var gotR, gotL []int
	for _, e := range right.entries(1) {
		gotR = append(gotR, e.wme.ID)
	}
	for _, e := range left.entries(1) {
		gotL = append(gotL, e.count)
	}
	if fmt.Sprint(gotR) != "[1 3 4 5]" || fmt.Sprint(gotL) != "[1 2 3 5]" {
		t.Errorf("after removing wme 2 and token 4: right %v, left %v", gotR, gotL)
	}
	rb, lb := right.entries(1), left.entries(1)
	for i, e := range rb[len(rb):cap(rb)] {
		if e != (rightEntry{}) {
			t.Errorf("right bucket: vacated slot %d still holds %+v", len(rb)+i, e)
		}
	}
	for i, e := range lb[len(lb):cap(lb)] {
		if e.node != nil || e.token.WMEs != nil || e.count != 0 {
			t.Errorf("left bucket: vacated slot %d still holds %+v", len(lb)+i, e)
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		right.add(1, rightEntry{node: n, wme: ws[1]})
		left.add(1, leftEntry{node: n, token: ts[3], count: 4})
		removeRight(right, 1, n, 2)
		removeLeft(left, 1, n, ts[3])
	}); avg != 0 {
		t.Errorf("a warmed bucket's add/remove pairs allocate %.1f times, want 0", avg)
	}
}

// TestHotRecordSizes pins the records the match hands around by the
// million: a right entry is its node and wme, a left entry its node,
// token and count, an activation carries its token by value, and a
// conflict-set delta is what PR 26 cut it to.
func TestHotRecordSizes(t *testing.T) {
	for _, c := range []struct {
		name string
		got  uintptr
		want uintptr
	}{
		{"rightEntry", reflect.TypeFor[rightEntry]().Size(), 16},
		{"leftEntry", reflect.TypeFor[leftEntry]().Size(), 40},
		{"Activation", reflect.TypeFor[Activation]().Size(), 48},
		{"InstChange", reflect.TypeFor[InstChange]().Size(), 40},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}

func TestMemoryRejectsBadBucketCount(t *testing.T) {
	for _, n := range []int{0, -4, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newMemory(%d) should panic", n)
				}
			}()
			newMemory[leftEntry](n)
		}()
	}
	// Powers of two are fine, including 1.
	newMemory[leftEntry](1)
	newMemory[rightEntry](4096)
}

func TestTokenOps(t *testing.T) {
	w1, w2 := mkWME(1, "a"), mkWME(2, "b")
	t1 := Token{WMEs: []*ops5.WME{w1}}
	t2 := NewProcessor(compileT(t, nil), 4).extend(t1, w2, Add, nil)
	if len(t1.WMEs) != 1 || len(t2.WMEs) != 2 {
		t.Fatal("extend must not mutate the source token")
	}
	if !t2.Same(Token{WMEs: []*ops5.WME{w1, w2}}) {
		t.Error("Same failed on identical coverage")
	}
	if t2.Same(t1) {
		t.Error("Same true for different lengths")
	}
	if t2.IDKey() != "1,2" {
		t.Errorf("IDKey = %q", t2.IDKey())
	}
	if t2.String() != "[1,2]" {
		t.Errorf("String = %q", t2.String())
	}
}

func TestProcessorRootActivations(t *testing.T) {
	net := compileT(t, []string{
		`(p p1 (a ^x 1) (b ^x <v>) --> (halt))`,
		`(p p2 (a ^x 2) --> (halt))`,
	})
	proc := NewProcessor(net, 16)

	// a^x=1 matches p1's first CE only (left activation).
	acts := proc.RootActivationsInto(Change{Tag: Add, WME: mkWME(1, "a", "x", 1)}, nil)
	if len(acts) != 1 || acts[0].Side != Left || len(acts[0].Token.WMEs) != 1 || acts[0].WME != nil {
		t.Fatalf("acts = %+v", acts)
	}
	// a^x=2 matches p2 (a production-node left activation).
	acts = proc.RootActivationsInto(Change{Tag: Add, WME: mkWME(2, "a", "x", 2)}, nil)
	if len(acts) != 1 || acts[0].Node.Kind != KindProduction {
		t.Fatalf("acts = %+v", acts)
	}
	// b matches p1's join right input.
	acts = proc.RootActivationsInto(Change{Tag: Add, WME: mkWME(3, "b", "x", 9)}, nil)
	if len(acts) != 1 || acts[0].Side != Right || acts[0].WME == nil || acts[0].Token.WMEs != nil {
		t.Fatalf("acts = %+v", acts)
	}
	// Unknown class matches nothing.
	if acts := proc.RootActivationsInto(Change{Tag: Add, WME: mkWME(4, "zzz")}, nil); len(acts) != 0 {
		t.Fatalf("acts = %+v", acts)
	}
}

func TestProcessorProcessEmitsOnlyToCallback(t *testing.T) {
	net := compileT(t, []string{`(p p1 (a ^x <v>) (b ^x <v>) --> (halt))`})
	proc := NewProcessor(net, 16)

	var emitted []Activation

	// Right wme first: stored, no matches.
	for _, a := range proc.RootActivationsInto(Change{Tag: Add, WME: mkWME(1, "b", "x", 5)}, nil) {
		emitted = proc.ProcessAt(a, proc.Bucket(a), emitted)
	}
	if len(emitted) != 0 {
		t.Fatalf("emitted = %v", emitted)
	}
	// Matching left token: emits the joined token to the production
	// node.
	for _, a := range proc.RootActivationsInto(Change{Tag: Add, WME: mkWME(2, "a", "x", 5)}, nil) {
		emitted = proc.ProcessAt(a, proc.Bucket(a), emitted)
	}
	if len(emitted) != 1 || emitted[0].Node.Kind != KindProduction {
		t.Fatalf("emitted = %+v", emitted)
	}
	if got := emitted[0].Token.IDKey(); got != "2,1" {
		t.Errorf("joined token = %q, want \"2,1\" (compiled CE order)", got)
	}
}
