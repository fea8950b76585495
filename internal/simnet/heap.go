package simnet

import "fmt"

// The event queue merges FIFO lanes with a 4-ary min-heap, all of
// 16-byte keys beside one slab of event bodies. A key is (at, n): n
// holds the event's post sequence in its high seqBits bits and the slab
// slot of its body in its low slotBits bits. Sequences are unique, so
// ordering keys by (at, n) is ordering events by (at, seq) — a total
// order that never consults the slot, and the pop sequence is
// independent of lane, heap and slab internals.
//
// Nearly every event is pushed in time order within a stream the
// simulator knows: a processor's own follow-on tasks and frees, and the
// messages it sends. Each such stream is a lane, a power-of-two ring of
// keys. A lane is sorted by (at, seq) because a push joins it only at
// or after its tail's time (and with a later sequence); a push that
// would break that order goes to the heap instead, so correctness never
// rests on a stream being in order. The heads of the non-empty lanes
// sit in a small binary min-heap, and a pop takes the smaller of its
// top and the 4-ary heap's top: the merge of sorted lanes and the heap
// is the (at, seq) order of all pending events.
//
// Both heaps are concrete types over pointer-free entries, so their
// compare is an ordinary method the compiler inlines into the sift
// loops and the garbage collector never scans their backing arrays.
// The out-of-order heap has arity 4: a shallower tree than a binary
// heap for three extra comparisons per level, which two integer
// compares make cheap.

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

// lane is a FIFO of keys in (at, seq) order.
type lane struct {
	buf  []key // ring; len(buf) is a power of two (or zero)
	head int
	n    int
	tail Time // time of the last key pushed; meaningful while n > 0
}

// laneHead is a non-empty lane's first key, as the lane heap orders it.
type laneHead struct {
	k    key
	lane int
}

// eventQueue is the simulator's schedule. The zero value has no lanes
// and is ready for heap pushes; reset sets the lane count, empties the
// queue and keeps its storage.
type eventQueue struct {
	keys   []key      // 4-ary heap: pushes outside any lane
	lanes  []lane     // two per processor (selfLane, outLane)
	heads  []laneHead // binary heap of the non-empty lanes' heads
	bodies []body     // slab: a slot is live from its push to its pop
	free   []uint32   // slots released by pops, reused first
	seq    uint64     // sequence of the next push

	// heapPushes counts pushes to the 4-ary heap, and fallbacks those
	// of them that pushLane diverted from an out-of-order lane.
	heapPushes, fallbacks int
}

// empty reports whether no event is pending.
func (q *eventQueue) empty() bool { return len(q.keys) == 0 && len(q.heads) == 0 }

// store files b in the slab and returns its key at time at.
func (q *eventQueue) store(at Time, b body) key {
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
	k := key{at: at, n: q.seq<<slotBits | uint64(slot)}
	q.seq++
	return k
}

// push schedules b at time at on the heap.
func (q *eventQueue) push(at Time, b body) {
	q.heapPushes++
	q.keys = append(q.keys, q.store(at, b))
	q.up(len(q.keys) - 1)
}

// pushLane schedules b at time at on lane i, or on the heap if at is
// earlier than the lane's tail.
func (q *eventQueue) pushLane(i int, at Time, b body) {
	ln := &q.lanes[i]
	if ln.n > 0 && at < ln.tail {
		q.fallbacks++
		q.push(at, b)
		return
	}
	k := q.store(at, b)
	if ln.n == len(ln.buf) {
		ln.grow()
	}
	ln.buf[(ln.head+ln.n)&(len(ln.buf)-1)] = k
	ln.n++
	ln.tail = at
	if ln.n == 1 {
		q.heads = append(q.heads, laneHead{k: k, lane: i})
		q.headUp(len(q.heads) - 1)
	}
}

// pop removes the earliest event and releases its slot.
func (q *eventQueue) pop() (Time, body) {
	var k key
	if len(q.heads) > 0 && (len(q.keys) == 0 || q.heads[0].k.less(q.keys[0])) {
		k = q.popLane()
	} else {
		k = q.popHeap()
	}
	slot := uint32(k.n & (maxSlots - 1))
	b := q.bodies[slot]
	q.bodies[slot] = body{} // release the payload reference
	q.free = append(q.free, slot)
	return k.at, b
}

// popLane removes the head of the lane heap's top lane.
func (q *eventQueue) popLane() key {
	h := &q.heads[0]
	k := h.k
	ln := &q.lanes[h.lane]
	ln.head = (ln.head + 1) & (len(ln.buf) - 1)
	ln.n--
	if ln.n > 0 {
		h.k = ln.buf[ln.head]
	} else {
		n := len(q.heads) - 1
		q.heads[0] = q.heads[n]
		q.heads = q.heads[:n]
	}
	if len(q.heads) > 1 {
		q.headDown()
	}
	return k
}

// popHeap removes the 4-ary heap's top.
func (q *eventQueue) popHeap() key {
	k := q.keys[0]
	n := len(q.keys) - 1
	q.keys[0] = q.keys[n]
	q.keys = q.keys[:n]
	if n > 1 {
		q.down(0)
	}
	return k
}

// reset empties the queue, dropping any payloads still pending (a pop
// has already cleared every slot it released), and leaves it with
// lanes lanes. Lanes beyond the old count keep their rings in the
// backing array, so a queue that shrinks and grows back regains them.
func (q *eventQueue) reset(lanes int) {
	if !q.empty() {
		clear(q.bodies)
	}
	if n := lanes - cap(q.lanes); n > 0 {
		q.lanes = append(q.lanes[:cap(q.lanes)], make([]lane, n)...)
	}
	q.lanes = q.lanes[:lanes]
	for i := range q.lanes {
		q.lanes[i].head, q.lanes[i].n = 0, 0
	}
	q.keys, q.heads, q.bodies, q.free, q.seq = q.keys[:0], q.heads[:0], q.bodies[:0], q.free[:0], 0
	q.heapPushes, q.fallbacks = 0, 0
}

// grow doubles the lane's ring (to 16 keys at first), unwrapping the
// live region.
func (ln *lane) grow() {
	buf := make([]key, max(16, 2*len(ln.buf)))
	for i := 0; i < ln.n; i++ {
		buf[i] = ln.buf[(ln.head+i)&(len(ln.buf)-1)]
	}
	ln.buf, ln.head = buf, 0
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

// headUp sifts the lane head at i toward the root.
func (q *eventQueue) headUp(i int) {
	s := q.heads
	v := s[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !v.k.less(s[parent].k) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = v
}

// headDown sifts the lane heap's root toward the leaves.
func (q *eventQueue) headDown() {
	s := q.heads
	n := len(s)
	i := 0
	v := s[0]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1].k.less(s[c].k) {
			c++
		}
		if !s[c].k.less(v.k) {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = v
}
