package rete

// slabMinLen is the length of a slab's first chunk.
const slabMinLen = 16

// slab hands out regions of []T and never hands a region out twice:
// what carve returns is the caller's for as long as the caller keeps
// it, exactly as if it had been allocated for the caller, and becomes
// garbage with the rest of its chunk when nothing points into the chunk
// any more. That is what lets a match phase's result be "fresh and
// caller-owned" without being a heap allocation of its own.
//
// Chunks double from slabMinLen up to the maxLen the caller passes, so
// a short-lived owner does not pay for a long run's chunk. The tail of
// a chunk that cannot hold a request is wasted; a request above a
// quarter of maxLen would waste too much of one and gets an array of
// exactly its own size, leaving the current chunk where it was.
type slab[T any] struct {
	free []T // unconsumed tail of the current chunk
	next int // length of the next chunk
}

// carve returns a zeroed n-element region, capped at its own length so
// an append can never reach a neighbour's.
func (s *slab[T]) carve(n, maxLen int) []T {
	if n > len(s.free) {
		if n > maxLen/4 {
			return make([]T, n)
		}
		size := max(s.next, slabMinLen)
		for size < n {
			size *= 2
		}
		s.free = make([]T, size)
		s.next = min(2*size, maxLen)
	}
	r := s.free[:n:n]
	s.free = s.free[n:]
	return r
}
