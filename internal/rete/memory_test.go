package rete

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mpcrete/internal/ops5"
)

func mkWME(id int, class string, pairs ...any) *ops5.WME {
	w := ops5.NewWME(class, pairs...)
	w.ID, w.TimeTag = id, id
	return w
}

// tokenT gives each wme a handle of its own in tab, whatever its ID,
// and returns the token of those handles.
func tokenT(tab *Table, wmes ...*ops5.WME) Token {
	t := Token{H: make([]int32, len(wmes))}
	for i, w := range wmes {
		t.H[i] = int32(len(tab.rows))
		tab.Define(t.H[i], w)
	}
	return t
}

// idKeyT renders the ids of t's wmes, resolved in tab, comma-separated.
func idKeyT(tab *Table, t Token) string {
	ids := make([]string, len(t.H))
	for i, h := range t.H {
		ids[i] = strconv.Itoa(tab.WME(h).ID)
	}
	return strings.Join(ids, ",")
}

func TestMemoryAddRemoveScan(t *testing.T) {
	m := newMemory[rightEntry](8)
	n1 := &Node{ID: 1, Kind: KindJoin}
	n2 := &Node{ID: 2, Kind: KindJoin}

	tab := NewTable()
	h := tokenT(tab, mkWME(1, "a"), mkWME(2, "a")).H
	m.add(3, rightEntry{node: n1, h: h[0]})
	m.add(3, rightEntry{node: n2, h: h[1]}) // same bucket, different node
	m.add(5, rightEntry{node: n1, h: h[1]})

	if m.Len() != 3 {
		t.Fatalf("len = %d", m.Len())
	}
	// A bucket's entries carry their node, which is what a scan filters on.
	var seen []int
	for _, e := range m.entries(3) {
		if e.node == n1 {
			seen = append(seen, tab.rows[e.h].ID)
		}
	}
	if len(seen) != 1 || seen[0] != 1 {
		t.Errorf("n1's entries in bucket 3 = %v", seen)
	}
	// Remove is node- and handle-specific.
	if removeRight(m, 3, n1, h[1]) {
		t.Error("removed wrong entry")
	}
	if !removeRight(m, 3, n1, h[0]) {
		t.Error("failed to remove present entry")
	}
	if m.Len() != 2 {
		t.Errorf("len = %d", m.Len())
	}
	// A second remove finds nothing.
	if removeRight(m, 3, n1, h[0]) {
		t.Error("double remove found an entry")
	}
}

func TestMemoryLeftTokens(t *testing.T) {
	m := newMemory[leftEntry](4)
	n := &Node{ID: 7, Kind: KindNegative}
	tab := NewTable()
	t1 := tokenT(tab, mkWME(1, "a"), mkWME(2, "b"))
	t2 := tokenT(tab, mkWME(1, "a"), mkWME(3, "b"))

	m.add(2, leftEntry{node: n, token: t1, count: 5})
	m.add(2, leftEntry{node: n, token: t2})

	// Removal matches by handle sequence: a copy of t1's run.
	probe := Token{H: slices.Clone(t1.H)}
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
	tab := NewTable()
	var ts []Token
	for id := 1; id <= 5; id++ {
		ts = append(ts, tokenT(tab, mkWME(id, "a")))
		right.add(1, rightEntry{node: n, h: ts[id-1].H[0]})
		left.add(1, leftEntry{node: n, token: ts[id-1], count: id})
	}
	removeRight(right, 1, n, ts[1].H[0])
	removeLeft(left, 1, n, ts[3])
	var gotR, gotL []int
	for _, e := range right.entries(1) {
		gotR = append(gotR, tab.rows[e.h].ID)
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
		if e.node != nil || e.token.H != nil || e.count != 0 {
			t.Errorf("left bucket: vacated slot %d still holds %+v", len(lb)+i, e)
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		right.add(1, rightEntry{node: n, h: ts[1].H[0]})
		left.add(1, leftEntry{node: n, token: ts[3], count: 4})
		removeRight(right, 1, n, ts[1].H[0])
		removeLeft(left, 1, n, ts[3])
	}); avg != 0 {
		t.Errorf("a warmed bucket's add/remove pairs allocate %.1f times, want 0", avg)
	}
}

// TestHotRecordSizes pins the records the match hands around by the
// million: a right entry is its node and wme handle, a left entry its
// node, token and count, an activation carries its token by value and
// its wme as a handle in the padding after side and tag, and a
// conflict-set delta is what PR 26 cut it to.
func TestHotRecordSizes(t *testing.T) {
	for _, c := range []struct {
		name string
		got  uintptr
		want uintptr
	}{
		{"rightEntry", reflect.TypeFor[rightEntry]().Size(), 16},
		{"leftEntry", reflect.TypeFor[leftEntry]().Size(), 40},
		{"Activation", reflect.TypeFor[Activation]().Size(), 40},
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
	tab := NewTable()
	w1, w2 := mkWME(1, "a"), mkWME(2, "b")
	t1, h2 := tokenT(tab, w1), tokenT(tab, w2).H[0]
	t2 := NewProcessor(compileT(t, nil), 4, tab).extend(t1, h2, Add, nil)
	if len(t1.H) != 1 || len(t2.H) != 2 {
		t.Fatal("extend must not mutate the source token")
	}
	if !t2.Same(Token{H: []int32{t1.H[0], h2}}) {
		t.Error("Same failed on identical coverage")
	}
	if t2.Same(t1) {
		t.Error("Same true for different lengths")
	}
	if got := idKeyT(tab, t2); got != "1,2" {
		t.Errorf("token ids = %q", got)
	}
}

func TestProcessorRootActivations(t *testing.T) {
	net := compileT(t, []string{
		`(p p1 (a ^x 1) (b ^x <v>) --> (halt))`,
		`(p p2 (a ^x 2) --> (halt))`,
	})
	proc := NewProcessor(net, 16, NewTable())

	// a^x=1 matches p1's first CE only (left activation).
	acts := rootActsT(proc, Change{Tag: Add, WME: mkWME(1, "a", "x", 1)})
	if len(acts) != 1 || acts[0].Side != Left || len(acts[0].Token.H) != 1 || acts[0].WME != 0 {
		t.Fatalf("acts = %+v", acts)
	}
	// a^x=2 matches p2 (a production-node left activation).
	acts = rootActsT(proc, Change{Tag: Add, WME: mkWME(2, "a", "x", 2)})
	if len(acts) != 1 || acts[0].Node.Kind != KindProduction {
		t.Fatalf("acts = %+v", acts)
	}
	// b matches p1's join right input.
	acts = rootActsT(proc, Change{Tag: Add, WME: mkWME(3, "b", "x", 9)})
	if len(acts) != 1 || acts[0].Side != Right || acts[0].WME == 0 || acts[0].Token.H != nil {
		t.Fatalf("acts = %+v", acts)
	}
	// Unknown class matches nothing.
	if acts := rootActsT(proc, Change{Tag: Add, WME: mkWME(4, "zzz")}); len(acts) != 0 {
		t.Fatalf("acts = %+v", acts)
	}
}

func TestProcessorProcessEmitsOnlyToCallback(t *testing.T) {
	net := compileT(t, []string{`(p p1 (a ^x <v>) (b ^x <v>) --> (halt))`})
	proc := NewProcessor(net, 16, NewTable())

	var emitted []Activation

	// Right wme first: stored, no matches.
	for _, a := range rootActsT(proc, Change{Tag: Add, WME: mkWME(1, "b", "x", 5)}) {
		emitted = proc.ProcessAt(a, proc.Bucket(a), emitted)
	}
	if len(emitted) != 0 {
		t.Fatalf("emitted = %v", emitted)
	}
	// Matching left token: emits the joined token to the production
	// node.
	for _, a := range rootActsT(proc, Change{Tag: Add, WME: mkWME(2, "a", "x", 5)}) {
		emitted = proc.ProcessAt(a, proc.Bucket(a), emitted)
	}
	if len(emitted) != 1 || emitted[0].Node.Kind != KindProduction {
		t.Fatalf("emitted = %+v", emitted)
	}
	if got := idKeyT(proc.tab, emitted[0].Token); got != "2,1" {
		t.Errorf("joined token = %q, want \"2,1\" (compiled CE order)", got)
	}
}
