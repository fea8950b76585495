// Package alloc holds the two allocators of fine-grained match work,
// one per lifetime, and the poison that shows storage used after it was
// given back. An Arena lends runs that a phase, a batch or a frame owns
// and takes them all back at once. A Pool keeps runs and elements that
// an owner gives back one at a time. Both carve from regions of a few
// KiB, so they allocate per region, not per run, and both are
// single-owner.
package alloc

import (
	"slices"
	"unsafe"
)

var poisoned bool

// Poison turns the poison on and returns the function that turns it
// off again: what an Arena rewinds and what a Pool takes back then
// reads as its type's sentinel, and a Pool never hands it out again.
// Tests call both while no owner is running.
func Poison() (restore func()) {
	poisoned = true
	return func() { poisoned = false }
}

// Poisoned reports whether the poison is on, for an owner that
// quarantines storage of its own.
func Poisoned() bool { return poisoned }

// sentinels holds what a value given back under the poison reads as,
// keyed by its type's nil pointer.
var sentinels = map[any]any{}

// Sentinel makes v what a T given back under the poison reads as; a
// type without one reads as its zero value. Call it from an init
// function.
func Sentinel[T any](v T) { sentinels[(*T)(nil)] = v }

// scrub blanks r: to the zero value, or under the poison to the
// sentinel.
func scrub[T any](r []T) {
	clear(r)
	if !poisoned {
		return
	}
	if s, ok := sentinels[(*T)(nil)]; ok {
		v := s.(T)
		for i := range r {
			r[i] = v
		}
	}
}

// ChunkLen is the length of a region no owner sized: 4 KiB of T, 1,024
// handles. T has a size.
func ChunkLen[T any]() int { return 4 << 10 / int(unsafe.Sizeof(*new(T))) }

// An Arena lends runs carved from the front of a region. A run that does
// not fit takes a fresh region, ChunkLen long unless its owner sizes it
// (TakeSized), and the old one lives as long as the runs carved from it. An arena that is never
// rewound is a slab that never reuses a region. The zero Arena is ready.
type Arena[T any] struct {
	buf  []T // the current region; buf[:len(buf)] is lent
	used int // lent since the last rewind, across regions
}

// Take lends a run of n elements, its capacity capped at n so that an
// append cannot reach a neighbour. It reads zero, or the sentinel.
func (a *Arena[T]) Take(n int) []T { return a.TakeSized(n, ChunkLen[T]()) }

// TakeSized is Take for an owner that sizes its regions from a count of
// its own: a run that does not fit takes a fresh region of size, or of
// n if that is more.
func (a *Arena[T]) TakeSized(n, size int) []T {
	a.used += n
	if cap(a.buf)-len(a.buf) < n {
		a.buf = make([]T, 0, max(n, size))
	}
	k := len(a.buf)
	a.buf = a.buf[:k+n]
	return a.buf[k : k+n : k+n]
}

// Rewind takes back every run lent since the last rewind, blanking the
// current region, and keeps one region as large as all of them, so
// steady-state phases of any width allocate nothing. The caller vouches
// that none is still in use.
func (a *Arena[T]) Rewind() {
	scrub(a.buf)
	if a.used > cap(a.buf) {
		a.buf = make([]T, 0, a.used)
	}
	a.buf, a.used = a.buf[:0], 0
}

// Reset is Rewind for an owner that starts over: a region larger than
// ChunkLen is let go, so the next owner does not inherit a wide phase's.
func (a *Arena[T]) Reset() {
	a.Rewind()
	if cap(a.buf) > ChunkLen[T]() {
		a.buf = nil
	}
}

// Region returns the part of the current region lent so far; its
// capacity is the region's.
func (a *Arena[T]) Region() []T { return a.buf }

// A Pool keeps what its owner gives back on free lists by an int key.
// Take and Put serve runs keyed by their length: a run given back is
// the next one taken at its length, and otherwise a run is carved from
// the front of a ChunkLen chunk, a fresh one when it does not fit. A run
// over a quarter of a chunk is a heap allocation of its own, which Put
// leaves to the collector. Push and Get serve single elements under the
// owner's keys. The zero Pool is ready.
type Pool[T any] struct {
	chunk []T
	used  int    // carved from chunk
	free  [][]*T // per key, the first element of each run given back
}

// freeListFloor is the capacity a free list starts at, so that a fresh
// owner's lists do not grow 1, 2, 4…
const freeListFloor = 16

// Take returns a run of n zero elements.
func (p *Pool[T]) Take(n int) []T {
	if x := p.Get(n); x != nil {
		return unsafe.Slice(x, n)
	}
	c := ChunkLen[T]()
	if n > c/4 {
		return make([]T, n)
	}
	if len(p.chunk)-p.used < n {
		p.chunk, p.used = make([]T, c), 0
	}
	p.used += n
	return p.chunk[p.used-n : p.used : p.used]
}

// Put blanks run r, which nothing reads any more, and gives it back; a
// heap run is left to the collector as it is, but for the poison.
func (p *Pool[T]) Put(r []T) {
	n := cap(r)
	heap := n == 0 || n > ChunkLen[T]()/4
	if !heap || poisoned {
		scrub(r[:n])
	}
	if !heap {
		p.Push(n, &r[:1][0])
	}
}

// Push puts x, which nothing reads any more, on key's free list; under
// the poison it reads as the sentinel instead and is dropped.
func (p *Pool[T]) Push(key int, x *T) {
	if poisoned {
		scrub(unsafe.Slice(x, 1))
		return
	}
	if key >= len(p.free) {
		p.free = slices.Grow(p.free, key+1-len(p.free))[:key+1]
	}
	if p.free[key] == nil {
		p.free[key] = make([]*T, 0, freeListFloor)
	}
	p.free[key] = append(p.free[key], x)
}

// Get takes the element last pushed on key's free list, or nil.
func (p *Pool[T]) Get(key int) (x *T) {
	if key < len(p.free) && len(p.free[key]) > 0 {
		f := p.free[key]
		x, f[len(f)-1] = f[len(f)-1], nil
		p.free[key] = f[:len(f)-1]
	}
	return x
}

// Reset empties the free lists, keeping their storage, and clears and
// rewinds the current chunk. The caller vouches that nothing the pool
// handed out is in use.
func (p *Pool[T]) Reset() {
	for k, f := range p.free {
		clear(f[:cap(f)])
		p.free[k] = f[:0]
	}
	clear(p.chunk[:p.used])
	p.used = 0
}
