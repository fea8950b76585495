package alloc

import "testing"

// cell is an element type with a sentinel of its own, as rete gives its
// wme rows and lent arrays one.
type cell struct{ v int }

var cellSentinel = &cell{v: -1}

func init() { Sentinel(cellSentinel) }

// TestPoisonedRewinds re-runs the arena and pool checks with the poison
// on: what a rewind or a Put takes back reads as the sentinel, and a
// pool hands nothing out twice.
func TestPoisonedRewinds(t *testing.T) {
	t.Cleanup(Poison())
	t.Run("Arena", TestArena)
	t.Run("Pool", TestPool)
}

// TestArena: runs are carved, capacity-capped, from the front of a
// ChunkLen region, or one the owner sized (TakeSized); a run that does
// not fit takes a fresh region; a rewind blanks what the current region
// lent — to zero, or to the sentinel under the poison — and leaves one
// region as large as the whole phase, so the same phase again allocates
// nothing; Reset lets an oversized region go.
func TestArena(t *testing.T) {
	var a Arena[*cell]
	c := ChunkLen[*cell]()
	if c != 512 || ChunkLen[int32]() != 1024 {
		t.Fatalf("chunk lengths %d and %d, want 4 KiB of each", c, ChunkLen[int32]())
	}
	first := a.Take(3)
	second := a.Take(2)
	if len(first) != 3 || cap(first) != 3 || &a.Region()[0] != &first[0] || &a.Region()[3] != &second[0] || cap(a.Region()) != c {
		t.Fatalf("two runs were not carved from the front of a %d-region", c)
	}
	x := &cell{v: 7}
	first[0], second[1] = x, x
	a.Rewind()
	want := (*cell)(nil)
	if Poisoned() {
		want = cellSentinel
	}
	if first[0] != want || second[1] != want || len(a.Region()) != 0 {
		t.Fatalf("a rewound run reads %v and %v, want %v", first[0], second[1], want)
	}
	if r := a.Take(1); &r[0] != &first[0] {
		t.Fatal("a rewind did not carve from the front of the region again")
	}

	phase := func() {
		for range 3 {
			a.Take(c / 2)
		}
	}
	a.Rewind()
	phase()
	if cap(a.Region()) != c {
		t.Fatalf("a run past the region's rest took a region of %d, want %d", cap(a.Region()), c)
	}
	a.Rewind()
	if cap(a.Region()) != 3*c/2 {
		t.Fatalf("a phase of %d left a region of %d", 3*c/2, cap(a.Region()))
	}
	if n := testing.AllocsPerRun(10, func() { phase(); a.Rewind() }); n != 0 {
		t.Fatalf("the same phase again allocates %v times, want 0", n)
	}
	if big := a.Take(2 * c); cap(big) != 2*c || cap(a.Region()) != 2*c {
		t.Fatalf("a run of %d took a region of %d", 2*c, cap(a.Region()))
	}
	a.Reset()
	if a.Region() != nil {
		t.Fatalf("Reset kept a region of %d", cap(a.Region()))
	}
	a.Take(1)
	a.Reset()
	if cap(a.Region()) != c {
		t.Fatalf("Reset let an ordinary region go")
	}

	var sized Arena[int32]
	sized.TakeSized(1, 3)
	if cap(sized.Region()) != 3 || &sized.TakeSized(2, 3)[0] != &sized.Region()[1] || cap(sized.TakeSized(4, 3)) != 4 || cap(sized.Region()) != 4 {
		t.Fatalf("sized takes did not carve a 3-region, then a 4-region for a 4-run (now %d)", cap(sized.Region()))
	}
}

// TestPool: a run given back is blanked and is the next run taken at
// its length, a free list starts at freeListFloor, elements pushed
// under a key come back last in, first out, and Reset clears every
// list's slots; under the poison nothing given back is handed out
// again, and an element pushed reads as its sentinel.
func TestPool(t *testing.T) {
	var p Pool[*cell]
	x := &cell{v: 7}
	r := p.Take(4)
	if &r[0] != &p.chunk[0] || len(p.chunk) != ChunkLen[*cell]() || cap(r) != 4 {
		t.Fatal("a zero pool's first run was not carved, capacity-capped, from the front of a ChunkLen chunk")
	}
	r[1] = x
	p.Put(r)
	if Poisoned() {
		if r[1] != cellSentinel || listed(&p, 4) != 0 {
			t.Fatalf("a run put back under the poison reads %v and is listed %d times", r[1], listed(&p, 4))
		}
		if got := p.Take(4); &got[0] == &r[0] {
			t.Fatal("a run put back under the poison was taken again")
		}
		e := &p.Take(1)[0]
		*e = x
		p.Push(9, e)
		if *e != cellSentinel || p.Get(9) != nil {
			t.Fatal("an element pushed under the poison was listed")
		}
		return
	}
	if r[1] != nil || listed(&p, 4) != 1 || cap(p.free[4]) != freeListFloor {
		t.Fatalf("a run put back reads %v; its list holds %d of %d", r[1], listed(&p, 4), cap(p.free[4]))
	}
	if got := p.Take(4); &got[0] != &r[0] || listed(&p, 4) != 0 || p.used != 4 {
		t.Fatal("the run put back is not the next run taken at its length")
	}
	a, b := new(*cell), new(*cell)
	p.Push(9, a)
	p.Push(9, b)
	if p.Get(9) != b || p.Get(9) != a || p.Get(9) != nil || p.Get(100) != nil {
		t.Fatal("elements pushed under a key do not come back last in, first out")
	}
	p.Push(9, a)
	p.Reset()
	if listed(&p, 9) != 0 || p.free[9][:1][0] != nil || p.used != 0 {
		t.Fatal("Reset left a free list holding an element, or a chunk carved")
	}
}

// listed returns the length of key's free list.
func listed[T any](p *Pool[T], key int) int {
	if key >= len(p.free) {
		return 0
	}
	return len(p.free[key])
}
