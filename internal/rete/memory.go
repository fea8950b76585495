package rete

import (
	"fmt"

	"mpcrete/internal/ops5"
)

// memEntry is one stored token (left side) or wme (right side) in a
// hash bucket, qualified by its owning two-input node. Left entries of
// negative nodes carry the count of matching right tokens.
type memEntry struct {
	node  *Node
	token *Token    // left entries
	wme   *ops5.WME // right entries
	count int       // negative-node left entries: matching right wmes
}

// Memory is one of the two global hash tables (left or right). Buckets
// hold entries for many nodes; an activation scans only its own bucket,
// filtering by node identity — exactly the paper's data structure.
//
// A bucket holds its entries by value, contiguously: a scan reads the
// node, token and wme of each entry without chasing a pointer to it,
// and there is no per-entry object for the collector to trace. An add
// appends; a remove closes the gap in place and zeroes the slot it
// vacates, so the next add to that bucket reuses the slot and a warmed
// bucket adds and removes without allocating. Every slot between a
// bucket's length and its capacity is zero: no removed entry keeps its
// token or wme reachable.
type Memory struct {
	side    Side
	buckets [][]memEntry
	size    int
}

// ValidNBuckets reports whether n can size a memory: a positive power
// of two, because a hash key picks its bucket by mask. Whatever takes a
// bucket count from outside — an option, a flag, a hello — asks here.
func ValidNBuckets(n int) bool { return n > 0 && n&(n-1) == 0 }

// NewMemory creates a memory with the given power-of-two bucket count.
func NewMemory(side Side, nbuckets int) *Memory {
	if !ValidNBuckets(nbuckets) {
		panic(fmt.Sprintf("rete: bucket count %d is not a positive power of two", nbuckets))
	}
	return &Memory{side: side, buckets: make([][]memEntry, nbuckets)}
}

// NBuckets returns the bucket count.
func (m *Memory) NBuckets() int { return len(m.buckets) }

// Len returns the number of stored entries.
func (m *Memory) Len() int { return m.size }

// Bucket reduces a 64-bit hash key to a bucket index.
func (m *Memory) Bucket(key uint64) int { return int(key & uint64(len(m.buckets)-1)) }

// addLeft stores a left token for node n in bucket b; count is the
// number of right wmes matching it when n is a negative node.
func (m *Memory) addLeft(b int, n *Node, t *Token, count int) {
	m.buckets[b] = append(m.buckets[b], memEntry{node: n, token: t, count: count})
	m.size++
}

// addRight stores a right wme for node n in bucket b.
func (m *Memory) addRight(b int, n *Node, w *ops5.WME) {
	m.buckets[b] = append(m.buckets[b], memEntry{node: n, wme: w})
	m.size++
}

// removeLeft deletes the left entry for node n whose token covers the
// same wmes as t and returns its count; ok is false if it is absent.
func (m *Memory) removeLeft(b int, n *Node, t *Token) (count int, ok bool) {
	bucket := m.buckets[b]
	for i := range bucket {
		if e := &bucket[i]; e.node == n && e.token != nil && e.token.Same(t) {
			count = e.count
			m.removeAt(b, i)
			return count, true
		}
	}
	return 0, false
}

// removeRight deletes the right entry for node n holding wme id and
// reports whether there was one.
func (m *Memory) removeRight(b int, n *Node, id int) bool {
	bucket := m.buckets[b]
	for i := range bucket {
		if e := &bucket[i]; e.node == n && e.wme != nil && e.wme.ID == id {
			m.removeAt(b, i)
			return true
		}
	}
	return false
}

// removeAt deletes entry i of bucket b. The entries behind it move down
// one slot: bucket order is scan order, scan order is the order
// successors are emitted in, and every recorded trace is made of that
// order, so the last entry is not swapped into the gap.
func (m *Memory) removeAt(b, i int) {
	bucket := m.buckets[b]
	last := len(bucket) - 1
	copy(bucket[i:], bucket[i+1:])
	bucket[last] = memEntry{}
	m.buckets[b] = bucket[:last]
	m.size--
}

// entries returns bucket b's entry slice; an activation scans it by
// index for the entries of its own node, and a negative node updates
// the counts of the entries it matches through &es[i]. The slice
// aliases live storage, which is safe because no activation adds to or
// removes from the memory it is scanning: a left activation changes the
// left memory and scans the right, a right activation the reverse.
func (m *Memory) entries(b int) []memEntry { return m.buckets[b] }

// Reset empties every bucket while keeping the bucket slices' backing
// arrays for reuse — the session-pool hook. The stored entries are
// zeroed, so the tokens and wmes they referenced become collectible.
// Only legal at quiescence (no scan in progress).
func (m *Memory) Reset() {
	for i, b := range m.buckets {
		clear(b)
		m.buckets[i] = b[:0]
	}
	m.size = 0
}

// extract removes and returns all entries of bucket b (bucket
// migration support).
func (m *Memory) extract(b int) []memEntry {
	entries := m.buckets[b]
	m.buckets[b] = nil
	m.size -= len(entries)
	return entries
}

// inject appends entries to bucket b (bucket migration support).
func (m *Memory) inject(b int, entries []memEntry) {
	m.buckets[b] = append(m.buckets[b], entries...)
	m.size += len(entries)
}
