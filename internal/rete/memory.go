package rete

import (
	"fmt"

	"mpcrete/internal/alloc"
)

// leftEntry is one stored token of a left memory, qualified by its
// owning two-input node; count is, at a negative node, the number of
// right wmes matching the token (40 bytes).
type leftEntry struct {
	node  *Node
	token Token
	count int
}

// rightEntry is one stored wme of a right memory, by its handle,
// qualified by its owning two-input node (16 bytes).
type rightEntry struct {
	node *Node
	h    int32
}

// Memory is one of the two global hash tables, of left entries or of
// right entries. Buckets hold entries for many nodes; an activation
// scans only its own bucket, filtering by node identity — exactly the
// paper's data structure.
//
// A bucket holds its entries by value, contiguously, in a region: a
// scan reads the node and the token or wme of each entry without
// chasing a pointer to it, and there is no per-entry object for the
// collector to trace. The regions are not the memory's: an add that
// finds its bucket full moves the entries into a region twice the size
// taken from the pool of the processor that performs it (lregs or
// rregs), and puts the old one back there. A remove closes the gap in
// place and zeroes the slot it vacates, so the next add to that bucket
// reuses the slot and a warmed bucket adds and removes without
// allocating. Every slot between a bucket's length and its capacity is
// zero: no removed entry keeps its token or wme reachable. A left
// entry's token is its own: a run of the store of the processor that
// added it, which nothing but the entry holds and which a remove puts
// back into the store of the processor that performs it (removeLeft).
// No count is kept beside the buckets, and a growth touches only its
// own bucket and its processor's pools, so goroutines may share a
// memory as long as each touches only the buckets it owns.
type Memory[E leftEntry | rightEntry] struct {
	buckets [][]E
}

// ValidNBuckets reports whether n can size a memory: a positive power
// of two, because a hash key picks its bucket by mask. Whatever takes a
// bucket count from outside — an option, a flag, a hello — asks here.
func ValidNBuckets(n int) bool { return n > 0 && n&(n-1) == 0 }

// newMemory creates a memory with the given power-of-two bucket count.
func newMemory[E leftEntry | rightEntry](nbuckets int) *Memory[E] {
	if !ValidNBuckets(nbuckets) {
		panic(fmt.Sprintf("rete: bucket count %d is not a positive power of two", nbuckets))
	}
	return &Memory[E]{buckets: make([][]E, nbuckets)}
}

// NBuckets returns the bucket count.
func (m *Memory[E]) NBuckets() int { return len(m.buckets) }

// Len counts the stored entries, bucket by bucket, at quiescence.
func (m *Memory[E]) Len() (n int) {
	for _, b := range m.buckets {
		n += len(b)
	}
	return n
}

// Bucket reduces a 64-bit hash key to a bucket index.
func (m *Memory[E]) Bucket(key uint64) int { return int(key & uint64(len(m.buckets)-1)) }

// add stores e in bucket b, growing a full bucket into a region from
// r, the regions of the processor performing the add.
func (m *Memory[E]) add(b int, e E, r *alloc.Pool[E]) {
	if bucket := m.buckets[b]; len(bucket) == cap(bucket) {
		m.buckets[b] = append(r.Take(max(1, 2*cap(bucket)))[:0], bucket...)
		r.Put(bucket)
	}
	m.buckets[b] = append(m.buckets[b], e)
}

// removeAt deletes entry i of bucket b. The entries behind it move down
// one slot: bucket order is scan order, scan order is the order
// successors are emitted in, and every recorded trace is made of that
// order, so the last entry is not swapped into the gap.
func (m *Memory[E]) removeAt(b, i int) {
	bucket := m.buckets[b]
	last := len(bucket) - 1
	copy(bucket[i:], bucket[i+1:])
	var zero E
	bucket[last] = zero
	m.buckets[b] = bucket[:last]
}

// entries returns bucket b's entry slice; an activation scans it by
// index for the entries of its own node, and a negative node updates
// the counts of the entries it matches through &es[i]. The slice
// aliases live storage, which is safe because no activation adds to or
// removes from the memory it is scanning: a left activation changes the
// left memory and scans the right, a right activation the reverse.
func (m *Memory[E]) entries(b int) []E { return m.buckets[b] }

// Reset empties every bucket while keeping its region for reuse — the
// session-pool hook. The stored entries are zeroed, so the tokens and
// wmes they referenced become collectible. Only legal at quiescence
// (no scan in progress).
func (m *Memory[E]) Reset() {
	for i, b := range m.buckets {
		clear(b)
		m.buckets[i] = b[:0]
	}
}

// release empties bucket b and puts its region back into r, the
// regions of the processor that extracts the bucket (migration): no
// memory keeps a region for a bucket that has left it, and the
// bucket's next owner grows it from its own regions.
func (m *Memory[E]) release(b int, r *alloc.Pool[E]) {
	r.Put(m.buckets[b])
	m.buckets[b] = nil
}

// removeLeft deletes the entry of left memory m for node n whose token
// covers the same wmes as t, puts the entry's stored run back into s,
// the store of the processor performing the remove, and returns its
// count; ok is false if it is absent. Nothing but its entry holds a
// stored run, so the run is free as soon as the entry is gone.
func removeLeft(m *Memory[leftEntry], b int, n *Node, t Token, s *alloc.Pool[int32]) (count int, ok bool) {
	bucket := m.buckets[b]
	for i := range bucket {
		if e := &bucket[i]; e.node == n && e.token.Same(t) {
			count = e.count
			s.Put(e.token.H)
			m.removeAt(b, i)
			return count, true
		}
	}
	return 0, false
}

// removeRight deletes the entry of right memory m for node n holding
// the wme of handle h and reports whether there was one.
func removeRight(m *Memory[rightEntry], b int, n *Node, h int32) bool {
	bucket := m.buckets[b]
	for i := range bucket {
		if e := &bucket[i]; e.node == n && e.h == h {
			m.removeAt(b, i)
			return true
		}
	}
	return false
}
