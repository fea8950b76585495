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

// memEntryChunkLen is the arena chunk size for memEntry allocation.
const memEntryChunkLen = 256

// Memory is one of the two global hash tables (left or right). Buckets
// hold entries for many nodes; an activation scans only its own bucket,
// filtering by node identity — exactly the paper's data structure.
//
// Entries are carved from chunks (chunk holds the current tail) so
// steady-state add/remove churn allocates O(1/memEntryChunkLen) per
// stored token instead of one heap object each. Removed entries are
// never reused, so a chunk becomes garbage only when every entry carved
// from it is unreachable.
type Memory struct {
	side    Side
	buckets [][]*memEntry
	size    int
	chunk   []memEntry
}

// newEntry carves a zeroed entry from the current chunk.
func (m *Memory) newEntry() *memEntry {
	if len(m.chunk) == 0 {
		m.chunk = make([]memEntry, memEntryChunkLen)
	}
	e := &m.chunk[0]
	m.chunk = m.chunk[1:]
	return e
}

// NewMemory creates a memory with the given power-of-two bucket count.
func NewMemory(side Side, nbuckets int) *Memory {
	if nbuckets <= 0 || nbuckets&(nbuckets-1) != 0 {
		panic(fmt.Sprintf("rete: bucket count %d is not a positive power of two", nbuckets))
	}
	return &Memory{side: side, buckets: make([][]*memEntry, nbuckets)}
}

// NBuckets returns the bucket count.
func (m *Memory) NBuckets() int { return len(m.buckets) }

// Len returns the number of stored entries.
func (m *Memory) Len() int { return m.size }

// Bucket reduces a 64-bit hash key to a bucket index.
func (m *Memory) Bucket(key uint64) int { return int(key & uint64(len(m.buckets)-1)) }

// addLeft stores a left token for node n in bucket b and returns the
// entry (so negative nodes can maintain counts).
func (m *Memory) addLeft(b int, n *Node, t *Token) *memEntry {
	e := m.newEntry()
	e.node, e.token = n, t
	m.buckets[b] = append(m.buckets[b], e)
	m.size++
	return e
}

// addRight stores a right wme for node n in bucket b.
func (m *Memory) addRight(b int, n *Node, w *ops5.WME) *memEntry {
	e := m.newEntry()
	e.node, e.wme = n, w
	m.buckets[b] = append(m.buckets[b], e)
	m.size++
	return e
}

// removeLeft deletes the left entry for node n whose token covers the
// same wmes as t; it returns the removed entry or nil if absent.
func (m *Memory) removeLeft(b int, n *Node, t *Token) *memEntry {
	bucket := m.buckets[b]
	for i, e := range bucket {
		if e.node == n && e.token != nil && e.token.Same(t) {
			m.buckets[b] = append(bucket[:i], bucket[i+1:]...)
			m.size--
			return e
		}
	}
	return nil
}

// removeRight deletes the right entry for node n holding wme id; it
// returns the removed entry or nil if absent.
func (m *Memory) removeRight(b int, n *Node, id int) *memEntry {
	bucket := m.buckets[b]
	for i, e := range bucket {
		if e.node == n && e.wme != nil && e.wme.ID == id {
			m.buckets[b] = append(bucket[:i], bucket[i+1:]...)
			m.size--
			return e
		}
	}
	return nil
}

// entries returns bucket b's entry slice; an activation scans it for
// the entries of its own node. Read-only: the slice aliases live
// storage.
func (m *Memory) entries(b int) []*memEntry { return m.buckets[b] }

// Reset empties every bucket while keeping the bucket slices' backing
// arrays for reuse — the session-pool hook. Stored entry pointers are
// nilled out so the entries (and the tokens and wmes they reference)
// become collectible; the unconsumed tail of the current chunk stays
// usable. Only legal at quiescence (no scan in progress).
func (m *Memory) Reset() {
	for i, b := range m.buckets {
		for j := range b {
			b[j] = nil
		}
		m.buckets[i] = b[:0]
	}
	m.size = 0
}

// BucketSizes returns the entry count per bucket (for distribution
// diagnostics).
func (m *Memory) BucketSizes() []int {
	sizes := make([]int, len(m.buckets))
	for i, b := range m.buckets {
		sizes[i] = len(b)
	}
	return sizes
}

// extract removes and returns all entries of bucket b (bucket
// migration support).
func (m *Memory) extract(b int) []*memEntry {
	entries := m.buckets[b]
	m.buckets[b] = nil
	m.size -= len(entries)
	return entries
}

// inject appends entries to bucket b (bucket migration support).
func (m *Memory) inject(b int, entries []*memEntry) {
	m.buckets[b] = append(m.buckets[b], entries...)
	m.size += len(entries)
}
