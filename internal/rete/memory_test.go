package rete

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"mpcrete/internal/alloc"
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
	m, r := newMemory[rightEntry](8), new(alloc.Pool[rightEntry])
	n1 := &Node{ID: 1, Kind: KindJoin}
	n2 := &Node{ID: 2, Kind: KindJoin}

	tab := NewTable()
	h := tokenT(tab, mkWME(1, "a"), mkWME(2, "a")).H
	m.add(3, rightEntry{node: n1, h: h[0]}, r)
	m.add(3, rightEntry{node: n2, h: h[1]}, r) // same bucket, different node
	m.add(5, rightEntry{node: n1, h: h[1]}, r)

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
	m, r := newMemory[leftEntry](4), new(alloc.Pool[leftEntry])
	n := &Node{ID: 7, Kind: KindNegative}
	tab := NewTable()
	t1 := tokenT(tab, mkWME(1, "a"), mkWME(2, "b"))
	t2 := tokenT(tab, mkWME(1, "a"), mkWME(3, "b"))

	m.add(2, leftEntry{node: n, token: t1, count: 5}, r)
	m.add(2, leftEntry{node: n, token: t2}, r)

	// Removal matches by handle sequence: a copy of t1's run.
	probe := Token{H: slices.Clone(t1.H)}
	if count, ok := removeLeft(m, 2, n, probe, new(alloc.Pool[int32])); !ok || count != 5 {
		t.Fatalf("removeLeft = %d, %v, want 5, true", count, ok)
	}
	if m.Len() != 1 {
		t.Errorf("len = %d", m.Len())
	}
	// Token with different coverage does not match.
	if _, ok := removeLeft(m, 2, n, probe, new(alloc.Pool[int32])); ok {
		t.Error("removed absent token")
	}
}

// TestMemoryBucketKeepsOrderAndReusesSlots: entries live in their
// bucket by value. Removal closes the gap without reordering what is
// left (scan order is emission order), zeroes the slot it vacates, and
// the next add takes that slot: a warmed bucket's add/remove pair,
// its stored run taken from a store and handed back to it, does not
// allocate.
func TestMemoryBucketKeepsOrderAndReusesSlots(t *testing.T) {
	right, left := newMemory[rightEntry](4), newMemory[leftEntry](4)
	rr, lr := new(alloc.Pool[rightEntry]), new(alloc.Pool[leftEntry])
	s := new(alloc.Pool[int32])
	stored := func(t Token) Token {
		h := s.Take(len(t.H))
		copyHandles(h, t.H)
		return Token{H: h}
	}
	n := &Node{ID: 1, Kind: KindJoin}
	tab := NewTable()
	var ts []Token
	for id := 1; id <= 5; id++ {
		ts = append(ts, tokenT(tab, mkWME(id, "a")))
		right.add(1, rightEntry{node: n, h: ts[id-1].H[0]}, rr)
		left.add(1, leftEntry{node: n, token: stored(ts[id-1]), count: id}, lr)
	}
	removeRight(right, 1, n, ts[1].H[0])
	removeLeft(left, 1, n, ts[3], s)
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
		right.add(1, rightEntry{node: n, h: ts[1].H[0]}, rr)
		left.add(1, leftEntry{node: n, token: stored(ts[3]), count: 4}, lr)
		removeRight(right, 1, n, ts[1].H[0])
		removeLeft(left, 1, n, ts[3], s)
	}); avg != 0 {
		t.Errorf("a warmed bucket's add/remove pairs allocate %.1f times, want 0", avg)
	}
}

// tailZero fails unless every slot of bucket between its length and
// its capacity is the zero entry.
func tailZero[E leftEntry | rightEntry](t *testing.T, what string, bucket []E) {
	t.Helper()
	for i, e := range bucket[len(bucket):cap(bucket)] {
		if !reflect.ValueOf(e).IsZero() {
			t.Fatalf("%s: slot %d of %d holds %+v", what, len(bucket)+i, cap(bucket), e)
		}
	}
}

// freeZero fails unless every run on r's free lists is of its list's
// length and zero. It takes each run off and puts them back in the
// order they were.
func freeZero[E leftEntry | rightEntry](t *testing.T, what string, r *alloc.Pool[E]) {
	t.Helper()
	for n := 1; n <= alloc.ChunkLen[E]()/4; n++ {
		var held [][]E
		for k := listed(r, n); k > 0; k-- {
			region := r.Take(n)
			if len(region) != n || cap(region) != n {
				t.Fatalf("%s: the %d-list holds a region of %d/%d entries", what, n, len(region), cap(region))
			}
			tailZero(t, what, region[:0])
			held = append(held, region)
		}
		for i := len(held) - 1; i >= 0; i-- {
			r.Put(held[i])
		}
	}
}

// TestRegionsKeepTheTailZero: every slot between a bucket's length and
// its capacity reads zero after each growth — through every length and
// into heap-sized regions —, after each removal and after Reset, and
// so does every region on a free list, where each outgrown
// chunk-carved region goes for the next growth to take.
func TestRegionsKeepTheTailZero(t *testing.T) {
	m, r := newMemory[leftEntry](2), new(alloc.Pool[leftEntry])
	n := &Node{ID: 1, Kind: KindNegative}
	tab := NewTable()
	var ts []Token
	for i := 1; i <= 3*alloc.ChunkLen[leftEntry](); i++ {
		ts = append(ts, tokenT(tab, mkWME(i, "a")))
		m.add(i%2, leftEntry{node: n, token: ts[i-1], count: i}, r)
		tailZero(t, fmt.Sprintf("after add %d", i), m.entries(i%2))
		freeZero(t, fmt.Sprintf("after add %d", i), r)
	}
	// Each bucket outgrew regions of 1 to 64 entries: the chunk-carved
	// ones, up to 16, are on the free lists, and the next bucket to grow
	// takes one instead of carving.
	for l := 1; l <= alloc.ChunkLen[leftEntry]()/4; l *= 2 {
		if listed(r, l) != 2 {
			t.Fatalf("the %d-list holds %d regions, want the two the buckets outgrew", l, listed(r, l))
		}
	}
	newMemory[leftEntry](1).add(0, leftEntry{node: n}, r)
	if listed(r, 1) != 1 {
		t.Fatalf("a new bucket's growth left %d 1-entry regions, want 1: it carved instead of taking one", listed(r, 1))
	}
	for i := 1; i <= len(ts); i += 3 {
		if _, ok := removeLeft(m, i%2, n, ts[i-1], new(alloc.Pool[int32])); !ok {
			t.Fatalf("token %d is missing", i)
		}
		tailZero(t, fmt.Sprintf("after removing %d", i), m.entries(i%2))
	}
	m.Reset()
	for b := range m.NBuckets() {
		if bucket := m.entries(b); len(bucket) != 0 || cap(bucket) == 0 {
			t.Fatalf("after Reset bucket %d holds %d/%d entries, want an empty region kept", b, len(bucket), cap(bucket))
		}
		tailZero(t, "after Reset", m.entries(b))
	}
}

// TestExtractInjectKeepsOrderAndReleasesRegion moves a bucket of every
// region length and beyond from one processor to another, over separate
// memories and over one pair both share: every entry arrives, in
// order, with its count, and the source memory keeps no region for the
// bucket it gave up — a chunk-carved one goes, cleared, on the
// extracting processor's free list, a heap-sized one to the collector.
// Each injected token is a copy from the injector's store, not the
// extracted run.
func TestExtractInjectKeepsOrderAndReleasesRegion(t *testing.T) {
	net := compileT(t, []string{`(p p1 (a ^x <v>) -(b ^x <v>) --> (halt))`})
	var neg *Node
	for _, nd := range net.Nodes {
		if nd.Kind == KindNegative {
			neg = nd
		}
	}
	for _, shared := range []bool{false, true} {
		for _, size := range []int{1, 3, 16, 17, 100} {
			tab := NewTable()
			src := NewProcessor(net, 8, tab)
			dst := NewProcessor(net, 8, tab)
			if shared {
				dst = NewProcessorOver(net, tab, src.left, src.right)
			}
			var wantL []leftEntry
			var wantR []rightEntry
			for i := 1; i <= size; i++ {
				tok := tokenT(tab, mkWME(i, "a"))
				wantL = append(wantL, leftEntry{node: neg, token: tok, count: i % 3})
				wantR = append(wantR, rightEntry{node: neg, h: tok.H[0]})
				src.left.add(5, wantL[i-1], &src.lregs)
				src.right.add(5, wantR[i-1], &src.rregs)
			}
			region := cap(src.left.entries(5))
			before := listed(&src.lregs, region)
			bc := src.ExtractBucket(5)
			if src.left.Len()+src.right.Len() != 0 {
				t.Fatalf("shared=%v size %d: the source still holds entries", shared, size)
			}
			if cap(src.left.entries(5))+cap(src.right.entries(5)) != 0 {
				t.Errorf("shared=%v size %d: the source memory kept a region for the bucket it gave up", shared, size)
			}
			if region <= alloc.ChunkLen[leftEntry]()/4 && listed(&src.lregs, region) != before+1 {
				t.Errorf("shared=%v size %d: the extracted %d-entry region is not on the extractor's free list", shared, size, region)
			}
			freeZero(t, "after extract", &src.lregs)
			freeZero(t, "after extract", &src.rregs)
			dst.InjectBucket(bc)
			gotL, gotR := dst.left.entries(5), dst.right.entries(5)
			if !slices.EqualFunc(gotL, wantL, func(a, b leftEntry) bool {
				return a.node == b.node && a.token.Same(b.token) && a.count == b.count
			}) || !slices.Equal(gotR, wantR) {
				t.Errorf("shared=%v size %d: injected %v / %v, want %v / %v", shared, size, gotL, gotR, wantL, wantR)
			}
			// A fresh store carves the copies one after another.
			copies := unsafe.Slice(&gotL[0].token.H[0], len(gotL))
			for i, e := range gotL {
				if &e.token.H[0] == &wantL[i].token.H[0] || !within(copies, e.token.H) {
					t.Fatalf("shared=%v size %d: injected token %d is not a copy from the injector's store", shared, size, i)
				}
			}
			tailZero(t, "injected left", gotL)
			tailZero(t, "injected right", gotR)
		}
	}
}

// TestExtractInjectConcurrentOwners runs two processors over one
// shared memory pair, as the in-process runtime's steps do: each grows
// and shrinks only the buckets it owns, concurrently, then the two
// swap their buckets at a barrier (extract on one, which takes the
// bucket's regions back, inject on the other) and go on growing them.
// Run under the race detector, it shows growth touches nothing but the
// bucket and its processor's regions.
func TestExtractInjectConcurrentOwners(t *testing.T) {
	net := compileT(t, []string{`(p p1 (a ^x <v>) (b ^x <v>) --> (halt))`})
	var join *Node
	for _, nd := range net.Nodes {
		if nd.Kind == KindJoin {
			join = nd
		}
	}
	const nb, per = 16, 40
	tab := NewTable()
	toks := make([]Token, 2*per)
	for i := range toks {
		toks[i] = tokenT(tab, mkWME(i+1, "a"))
	}
	p0 := NewProcessor(net, nb, tab)
	procs := []*Processor{p0, NewProcessorOver(net, tab, p0.left, p0.right)}
	fill := func(p *Processor, owner int, from, to int) {
		for b := owner; b < nb; b += 2 {
			for i := from; i < to; i++ {
				p.addLeft(b, join, toks[i], b)
				p.right.add(b, rightEntry{node: join, h: toks[i].H[0]}, &p.rregs)
			}
			for i := from; i < to; i += 4 {
				removeLeft(p.left, b, join, toks[i], &p.store)
				removeRight(p.right, b, join, toks[i].H[0])
			}
		}
	}
	var wg sync.WaitGroup
	moved := make([][]*BucketContents, 2)
	for id, p := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fill(p, id, 0, per)
			for b := id; b < nb; b += 2 {
				moved[id] = append(moved[id], p.ExtractBucket(b))
			}
		}()
	}
	wg.Wait()
	for id, p := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, bc := range moved[1-id] {
				p.InjectBucket(bc)
			}
			fill(p, 1-id, per, 2*per)
		}()
	}
	wg.Wait()
	for b := range nb {
		var want []int32
		for i := range 2 * per {
			if i%4 != 0 {
				want = append(want, toks[i].H[0])
			}
		}
		var gotR, gotL []int32
		for _, e := range p0.right.entries(b) {
			gotR = append(gotR, e.h)
		}
		for _, e := range p0.left.entries(b) {
			gotL = append(gotL, e.token.H[0])
		}
		if !slices.Equal(gotR, want) || !slices.Equal(gotL, want) {
			t.Fatalf("bucket %d holds %v / %v, want %v", b, gotL, gotR, want)
		}
		tailZero(t, "left", p0.left.entries(b))
		tailZero(t, "right", p0.right.entries(b))
	}
	for _, p := range procs {
		freeZero(t, "left", &p.lregs)
		freeZero(t, "right", &p.rregs)
	}
}

// TestHotRecordSizes pins the records the match hands around by the
// million: a right entry is its node and wme handle, a left entry its
// node, token and count, an activation carries its token by value and
// its wme as a handle in the padding after side and tag, and a
// conflict-set delta is its production, the first element of its wme
// run and its tag.
//
// History of InstChange: 40 bytes while it carried the run as a slice
// header; 24 since the run's length is read off its production
// (InstChange.WMEs).
func TestHotRecordSizes(t *testing.T) {
	for _, c := range []struct {
		name string
		got  uintptr
		want uintptr
	}{
		{"rightEntry", reflect.TypeFor[rightEntry]().Size(), 16},
		{"leftEntry", reflect.TypeFor[leftEntry]().Size(), 40},
		{"Activation", reflect.TypeFor[Activation]().Size(), 40},
		{"InstChange", reflect.TypeFor[InstChange]().Size(), 24},
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
	t2 := NewProcessor(compileT(t, nil), 4, tab).extend(t1, h2)
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
