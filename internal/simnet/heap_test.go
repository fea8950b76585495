package simnet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// refEvent is one entry of the container/heap reference the key heap
// is checked against: ordered by (at, seq), textbook implementation.
type refEvent struct {
	at  Time
	seq int
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TestEventQueueMatchesReference drives the event queue and the
// reference through identical randomized push/pop interleavings and
// requires identical pop sequences. Pushes go to random lanes, mostly
// at or after the lane's tail, sometimes before it (those must fall
// back to the heap), and some straight to the heap; times stay in a
// narrow window above the last pop, so most times are shared by
// several pending events in several lanes. A body carries its post
// sequence in from, so a pop that returns the wrong body of the right
// time fails too. Sequences are unique, so the order is total and any
// divergence is a queue bug, not a tie-break artifact.
func TestEventQueueMatchesReference(t *testing.T) {
	fallbacks := 0
	for trial := 0; trial < 20; trial++ {
		rnd := rand.New(rand.NewSource(int64(trial)))
		var q eventQueue
		lanes := 1 + rnd.Intn(8)
		q.reset(lanes)
		var ref refHeap
		seq, direct := 0, 0
		var now Time
		push := func() {
			b := body{from: int32(seq), proc: int32(rnd.Intn(8)), payload: &seq}
			at := now + Time(rnd.Intn(4+trial%4))
			switch l := rnd.Intn(lanes + 1); {
			case l == lanes || rnd.Intn(8) == 0:
				q.push(at, b)
				direct++
			default:
				ln := q.lanes[l]
				if rnd.Intn(6) != 0 && ln.n > 0 {
					at = max(at, ln.tail) // in order, as the simulator's streams mostly are
				}
				before := q.fallbacks
				q.pushLane(l, at, b)
				if want := ln.n > 0 && at < ln.tail; (q.fallbacks > before) != want {
					t.Fatalf("trial %d: push at %d on lane %d (tail %d, %d queued): fell back %v, want %v",
						trial, at, l, ln.tail, ln.n, q.fallbacks > before, want)
				}
			}
			heap.Push(&ref, refEvent{at: at, seq: seq})
			seq++
		}
		check := func(where string) {
			at, b := q.pop()
			want := heap.Pop(&ref).(refEvent)
			if at != want.at || int(b.from) != want.seq {
				t.Fatalf("trial %d %s: pop = (%d, seq %d), reference = (%d, seq %d)", trial, where, at, b.from, want.at, want.seq)
			}
			now = at
		}
		for op := 0; op < 4000; op++ {
			if q.empty() || rnd.Intn(3) != 0 {
				push()
				continue
			}
			check(fmt.Sprintf("op %d", op))
		}
		for !q.empty() {
			check("drain")
		}
		if ref.Len() != 0 {
			t.Fatalf("trial %d: reference has %d leftovers", trial, ref.Len())
		}
		if q.heapPushes != direct+q.fallbacks {
			t.Fatalf("trial %d: %d heap pushes, want %d direct + %d fallbacks", trial, q.heapPushes, direct, q.fallbacks)
		}
		fallbacks += q.fallbacks
		// Every lane is empty, and every slot is back on the free list
		// and holds no payload.
		for i, ln := range q.lanes {
			if ln.n != 0 {
				t.Fatalf("trial %d: lane %d holds %d keys after draining", trial, i, ln.n)
			}
		}
		if len(q.free) != len(q.bodies) {
			t.Fatalf("trial %d: %d of %d slots free after draining", trial, len(q.free), len(q.bodies))
		}
		for i, b := range q.bodies {
			if b != (body{}) {
				t.Fatalf("trial %d: released slot %d still holds %+v", trial, i, b)
			}
		}
	}
	if fallbacks == 0 {
		t.Fatal("no push fell back to the heap")
	}
}

// TestHeap4PopOrderSorted checks the basic min-heap invariant on a
// pathological input: strictly descending times, pushed twice so every
// time has two events, which must pop in posting order.
func TestHeap4PopOrderSorted(t *testing.T) {
	var q eventQueue
	const n = 257 // crosses several 4-ary levels, not a power of 4
	for i := 0; i < 2*n; i++ {
		q.push(Time(n-i%n), body{from: int32(i)})
	}
	prevAt, prev := q.pop()
	for !q.empty() {
		at, b := q.pop()
		if at < prevAt || at == prevAt && b.from < prev.from {
			t.Fatalf("out of order: (%d, %d) after (%d, %d)", at, b.from, prevAt, prev.from)
		}
		prevAt, prev = at, b
	}
	// Reset keeps the storage, lane rings included, and starts the
	// sequence over.
	q.reset(3)
	q.push(1, body{})
	q.pushLane(2, 1, body{})
	q.reset(1)
	q.reset(3)
	if !q.empty() || q.seq != 0 || len(q.bodies) != 0 || cap(q.keys) < 2*n || q.lanes[2].n != 0 || len(q.lanes[2].buf) == 0 {
		t.Fatalf("after reset: %d keys, seq %d, %d bodies, key capacity %d, lane 2 %d keys in a ring of %d",
			len(q.keys), q.seq, len(q.bodies), cap(q.keys), q.lanes[2].n, len(q.lanes[2].buf))
	}
}

// TestEventQueueBudgetsPanic overflows each half of the key: the
// sequence (posts since the last reset) and the slot (events pending at
// once). Each panic must name its limit.
func TestEventQueueBudgetsPanic(t *testing.T) {
	expectPanic := func(name, limit string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: no panic", name)
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, limit) {
				t.Fatalf("%s: panic %q does not name the limit %s", name, msg, limit)
			}
		}()
		f()
	}

	var q eventQueue
	q.seq = maxSeq - 1
	q.push(0, body{}) // the last sequence fits
	if _, b := q.pop(); b != (body{}) {
		t.Fatalf("last sequence popped %+v", b)
	}
	expectPanic("sequence", fmt.Sprint(uint64(maxSeq)), func() { q.push(0, body{}) })

	// A real slot overflow needs 2^24 pending events (768 MiB of keys
	// and bodies), so the slab's length is set to the budget without a
	// backing array. push must panic before it touches an element.
	var full eventQueue
	(*struct {
		data     unsafe.Pointer
		len, cap int
	})(unsafe.Pointer(&full.bodies)).len = maxSlots
	expectPanic("slot", fmt.Sprint(maxSlots), func() { full.push(0, body{}) })
}

func TestTaskRingFIFO(t *testing.T) {
	var r taskRing
	payload := func(i int) Payload { return i }
	next := 0
	for i := 0; i < 100; i++ {
		r.push(pendTask{payload: payload(i)})
		// Drain in bursts to force wrap-around at several sizes.
		for r.len() > i%3 {
			got := r.pop()
			if got.payload.(int) != next {
				t.Fatalf("pop = %v, want %d", got.payload, next)
			}
			next++
		}
	}
	for r.len() > 0 {
		got := r.pop()
		if got.payload.(int) != next {
			t.Fatalf("drain pop = %v, want %d", got.payload, next)
		}
		next++
	}
	if next != 100 {
		t.Fatalf("popped %d of 100", next)
	}
}
