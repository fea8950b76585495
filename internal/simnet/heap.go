package simnet

import "fmt"

// The event queue is a 4-ary min-heap of 16-byte keys beside a slab of
// event bodies. A key is (at, n): n holds the event's post sequence in
// its high seqBits bits and the slab slot of its body in its low
// slotBits bits. Sequences are unique, so ordering keys by (at, n) is
// ordering events by (at, seq) — a total order that never consults the
// slot, and the pop sequence is independent of heap and slab internals.
//
// The heap is a concrete type over a pointer-free key, so its compare
// is an ordinary method the compiler inlines into the sift loops, a
// sift moves 16 bytes per level, and the garbage collector never scans
// the heap's backing array. The arity is 4: a shallower tree than a
// binary heap (fewer cache lines touched per pop) for three extra
// comparisons per level, which two integer compares make cheap.

const (
	slotBits = 24
	seqBits  = 64 - slotBits
	maxSlots = 1 << slotBits // events pending at once
	maxSeq   = 1 << seqBits  // events posted between two resets
)

// key orders one pending event.
type key struct {
	at Time
	n  uint64 // seq<<slotBits | slot
}

func (a key) less(b key) bool {
	return a.at < b.at || a.at == b.at && a.n < b.n
}

// body is what a pending event carries. There is no boxed task object:
// the task is the (payload, recv) pair, here and, once ready, in the
// processor's pending ring.
type body struct {
	payload Payload
	kind    eventKind
	recv    bool  // message delivery: pay RecvOverhead before running
	proc    int32 // destination processor
	from    int32 // source processor (evDepart)
}

// eventQueue is the simulator's schedule. The zero value is empty and
// ready for use; reset empties it and keeps its storage.
type eventQueue struct {
	keys   []key
	bodies []body   // slab: a slot is live from its push to its pop
	free   []uint32 // slots released by pops, reused first
	seq    uint64   // sequence of the next push
}

func (q *eventQueue) len() int { return len(q.keys) }

// push schedules b at time at.
func (q *eventQueue) push(at Time, b body) {
	if q.seq == maxSeq {
		panic(fmt.Sprintf("simnet: more than %d events posted in one run (the key's %d sequence bits)", uint64(maxSeq), seqBits))
	}
	var slot uint32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.bodies[slot] = b
	} else {
		if len(q.bodies) == maxSlots {
			panic(fmt.Sprintf("simnet: more than %d events pending at once (the key's %d slot bits)", maxSlots, slotBits))
		}
		slot = uint32(len(q.bodies))
		q.bodies = append(q.bodies, b)
	}
	q.keys = append(q.keys, key{at: at, n: q.seq<<slotBits | uint64(slot)})
	q.seq++
	q.up(len(q.keys) - 1)
}

// pop removes the earliest event and releases its slot.
func (q *eventQueue) pop() (Time, body) {
	k := q.keys[0]
	n := len(q.keys) - 1
	q.keys[0] = q.keys[n]
	q.keys = q.keys[:n]
	if n > 1 {
		q.down(0)
	}
	slot := uint32(k.n & (maxSlots - 1))
	b := q.bodies[slot]
	q.bodies[slot] = body{} // release the payload reference
	q.free = append(q.free, slot)
	return k.at, b
}

// reset empties the queue, dropping any payloads still pending (a pop
// has already cleared every slot it released).
func (q *eventQueue) reset() {
	if len(q.keys) > 0 {
		clear(q.bodies)
	}
	q.keys, q.bodies, q.free, q.seq = q.keys[:0], q.bodies[:0], q.free[:0], 0
}

// up sifts the key at i toward the root, moving the hole rather than
// swapping (one write per level instead of three).
func (q *eventQueue) up(i int) {
	s := q.keys
	v := s[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !v.less(s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = v
}

// down sifts the key at i toward the leaves.
func (q *eventQueue) down(i int) {
	s := q.keys
	n := len(s)
	v := s[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := min(c+4, n)
		for j := c + 1; j < end; j++ {
			if s[j].less(s[m]) {
				m = j
			}
		}
		if !s[m].less(v) {
			break
		}
		s[i] = s[m]
		i = m
	}
	s[i] = v
}
