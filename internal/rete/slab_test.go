package rete

import "testing"

// TestSlabNeverReuses: every region a slab hands out is zeroed, capped
// at its own length, disjoint from every other, and still holds what
// its caller wrote after the slab has moved through many more chunks.
func TestSlabNeverReuses(t *testing.T) {
	const maxLen = 64
	var s slab[int]
	owner := map[*int]int{}
	var regions [][]int
	for i := 0; i < 300; i++ {
		n := i % 21 // 0..20: above maxLen/4 = 16 a request gets its own array
		r := s.carve(n, maxLen)
		if len(r) != n || cap(r) != n {
			t.Fatalf("carve(%d): len %d cap %d", n, len(r), cap(r))
		}
		for j := range r {
			if r[j] != 0 {
				t.Fatalf("carve %d: element %d is %d, want zero", i, j, r[j])
			}
			if prev, dup := owner[&r[j]]; dup {
				t.Fatalf("carve %d was handed an element of carve %d", i, prev)
			}
			owner[&r[j]] = i
			r[j] = i + 1
		}
		regions = append(regions, r)
	}
	for i, r := range regions {
		for j := range r {
			if r[j] != i+1 {
				t.Fatalf("region %d element %d reads %d after later carves, want %d", i, j, r[j], i+1)
			}
		}
	}
}

// TestSlabChunkSizes: chunks double from slabMinLen to maxLen, and a
// request above a quarter of maxLen that the current chunk cannot hold
// leaves that chunk alone.
func TestSlabChunkSizes(t *testing.T) {
	const maxLen = 64
	var s slab[byte]
	for _, want := range []int{16, 32, 64, 64} {
		s.carve(1, maxLen)
		if got := len(s.free) + 1; got != want {
			t.Fatalf("chunk of %d elements, want %d", got, want)
		}
		s.carve(len(s.free), maxLen) // use it up
	}
	s.carve(1, maxLen) // opens a chunk, which the next request fits
	s.carve(maxLen-11, maxLen)
	if r := s.carve(maxLen/4+1, maxLen); len(r) != maxLen/4+1 || len(s.free) != 10 {
		t.Errorf("a %d-element request left %d of 10 elements free, want its own array", len(r), len(s.free))
	}
	if s.carve(10, maxLen); len(s.free) != 0 {
		t.Errorf("the chunk's tail was not there for the next request that fit")
	}
	// A first request larger than the first chunk still comes from a chunk.
	var big slab[byte]
	if r := big.carve(40, 1024); len(r) != 40 || len(big.free) != 64-40 {
		t.Errorf("carve(40) of a fresh slab left %d free, want a 64-element chunk", len(big.free))
	}
}
