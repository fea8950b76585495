package parallel

import (
	"sync"

	"mpcrete/internal/obs"
)

// recvStamp records the provenance of a contiguous run of enqueued
// messages: the sender's causal batch id, the sending track, and how
// many messages the run contained. Stamps exist only when the mailbox
// was created stamped (a causal recorder is attached); they are the
// receive half of the send->recv happens-before edge.
type recvStamp struct {
	Batch int32
	Src   int32
	Count int32
}

// mailbox is an unbounded FIFO message queue consumed in batches.
// Unbounded matters: with bounded channels, two workers exchanging
// cross-product bursts can fill each other's inboxes and deadlock; the
// paper's cross-product section routinely aims thousands of tokens at
// one bucket owner. Per-sender FIFO order is preserved — pushBatch
// appends a sender's coalesced messages in order, and drain hands the
// queue back in arrival order — which the runtime relies on for
// add-before-delete ordering of same-token activations. A push copies
// the messages before it returns (the Carrier's synchronous capture),
// and they are visible to the draining worker the moment the lock is
// released, so a sender registers them with the driver (Driver.Sending,
// Shipping) before it pushes: Add-before-visible.
//
// The consumer side is batched: drain swaps the whole pending queue
// for an empty buffer donated by the caller, so the owning worker
// takes the lock once per turn no matter how many messages arrived,
// and the two buffers ping-pong between worker and mailbox with no
// per-message allocation in steady state. Stamp buffers ping-pong the
// same way, so causal recording stays allocation-free too.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Message
	stamps []recvStamp
	closed bool
	// stamped enables recvStamp recording (set when the runtime has a
	// causal recorder attached).
	stamped bool
	// dropped counts post-close sends (the parallel.dropped_post_close
	// obs counter; nil is a no-op). Close is only legal on a quiescent
	// runtime, so during normal operation the count stays zero — soak
	// runs assert exactly that.
	dropped *obs.Counter
	// regrown sums the slots of the queues a push grew because it found
	// messages still queued and no room behind them: the growth that
	// depends on whether the receiver drained before the sender pushed.
	regrown int
}

func newMailbox(dropped *obs.Counter, stamped bool) *mailbox {
	m := &mailbox{dropped: dropped, stamped: stamped}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// Push enqueues one message; it never blocks. batch and src stamp the
// message's causal provenance (ignored on unstamped mailboxes). Sends
// on a closed mailbox are dropped (and counted): during shutdown a
// straggler worker flushing its coalescing buffer can race close, and
// by the time Close is legal (the runtime is quiescent) no droppable
// message can carry live work.
func (m *mailbox) Push(msg Message, batch, src int32) {
	one := [1]Message{msg} // stays on the stack: PushBatch copies
	m.PushBatch(one[:], batch, src)
}

// PushBatch enqueues a sender's coalesced messages in order under one
// lock acquisition, recording a single stamp for the whole run on
// stamped mailboxes. The batch is copied, so the caller may reuse its
// buffer immediately. Like Push, it drops (and counts) after close.
func (m *mailbox) PushBatch(msgs []Message, batch, src int32) {
	if len(msgs) == 0 {
		return
	}
	m.mu.Lock()
	m.enqueueLocked(msgs, batch, src)
	m.mu.Unlock()
}

// enqueueLocked is PushBatch with m.mu already held: a wave holds every
// mailbox's lock across all of its pushes (Runtime.Deliver).
func (m *mailbox) enqueueLocked(msgs []Message, batch, src int32) {
	if m.closed {
		m.dropped.Add(int64(len(msgs)))
		return
	}
	grow := len(m.queue) > 0 && len(m.queue)+len(msgs) > cap(m.queue)
	m.queue = append(m.queue, msgs...)
	if grow {
		m.regrown += cap(m.queue)
	}
	if m.stamped {
		m.stamps = append(m.stamps, recvStamp{Batch: batch, Src: src, Count: int32(len(msgs))})
	}
	m.cond.Signal()
}

// Drain blocks until at least one message is pending (or the mailbox
// closes, reported as ok == false), then takes the entire pending
// queue in one swap: the caller receives every queued message (and, on
// stamped mailboxes, the matching stamps) and donates buf/sbuf
// (truncated, capacity kept) as the mailbox's next backing arrays.
// Pending messages are still delivered after close; ok == false means
// closed *and* empty.
func (m *mailbox) Drain(buf []Message, sbuf []recvStamp) (batch []Message, stamps []recvStamp, ok bool) {
	return m.drain(buf, sbuf, true)
}

// TryDrain is the non-blocking drain the chaos layer uses while it
// holds deferred messages: it takes whatever is pending (possibly
// nothing) without waiting. ok == false means closed and empty, as for
// Drain.
func (m *mailbox) TryDrain(buf []Message, sbuf []recvStamp) (batch []Message, stamps []recvStamp, ok bool) {
	return m.drain(buf, sbuf, false)
}

func (m *mailbox) drain(buf []Message, sbuf []recvStamp, wait bool) (batch []Message, stamps []recvStamp, ok bool) {
	buf = buf[:0]
	if sbuf != nil {
		sbuf = sbuf[:0]
	}
	m.mu.Lock()
	for wait && len(m.queue) == 0 && !m.closed {
		m.cond.Wait()
	}
	if len(m.queue) == 0 {
		closed := m.closed
		m.mu.Unlock()
		return buf, sbuf, !closed
	}
	batch = m.queue
	m.queue = buf
	stamps = m.stamps
	m.stamps = sbuf
	m.mu.Unlock()
	return batch, stamps, true
}

// close wakes all blocked readers; pending messages are still
// delivered before drain reports closure, and later sends are dropped.
func (m *mailbox) Close() {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
}
