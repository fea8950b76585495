// Package termdet implements distributed termination detection for
// the parallel match runtime. The paper explicitly did not simulate
// termination detection and deferred scheme selection to future work
// (Section 4, citing Mattern 1987); this package supplies two schemes
// for the real goroutine implementation:
//
//   - Counter: an atomic outstanding-work counter (credit counting):
//     every unit of work is registered before it is made visible and
//     deregistered when fully processed, so reaching zero proves
//     global quiescence. Cheap and exact, at the cost of a shared
//     atomic.
//   - FourCounter: Mattern's four-counter method: a detector polls
//     per-worker (sent, received) counters; two consecutive stable
//     rounds with equal totals prove termination with no shared
//     state on the work path.
package termdet

import (
	"sync"
	"sync/atomic"
)

// Counter tracks outstanding units of work. Add must be called before
// the work becomes visible to another goroutine (before the send), and
// Add(-1) after it has been fully processed (after any work it spawned
// has itself been Added). Wait blocks until the count reaches zero.
//
// Unlike sync.WaitGroup, Counter is reusable across phases and allows
// Add after the count has transiently reached zero only between
// Wait-delimited phases (enforced by the caller's protocol).
type Counter struct {
	mu   sync.Mutex
	cond *sync.Cond
	n    int64
	err  error
}

// NewCounter returns a zero counter.
func NewCounter() *Counter {
	c := &Counter{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Add registers delta units of outstanding work.
func (c *Counter) Add(delta int) {
	c.mu.Lock()
	c.n += int64(delta)
	if c.n < 0 {
		c.mu.Unlock()
		panic("termdet: negative outstanding-work count")
	}
	if c.n == 0 {
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

// Wait blocks until the outstanding count is zero or Fail has been
// called (quiescence can never be reached once work is lost; check Err
// after Wait when failure is possible).
func (c *Counter) Wait() {
	c.mu.Lock()
	for c.n != 0 && c.err == nil {
		c.cond.Wait()
	}
	c.mu.Unlock()
}

// Fail records a fatal error — work has been lost and quiescence is
// unreachable — and wakes every waiter. The first error wins.
func (c *Counter) Fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Err reports the error recorded by Fail, if any.
func (c *Counter) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// ChannelCounts holds one worker's message counters for the
// four-counter method. Workers increment Sent before each send and
// Recv after fully processing each received message (including any
// sends the processing performed).
type ChannelCounts struct {
	sent atomic.Int64
	recv atomic.Int64
}

// IncSent records one message sent. Call BEFORE the send.
func (c *ChannelCounts) IncSent() { c.sent.Add(1) }

// AddSent records n messages sent. Call BEFORE the sends become
// visible — a batching sender accounts a whole coalesced flush with one
// atomic instead of one per message.
func (c *ChannelCounts) AddSent(n int) { c.sent.Add(int64(n)) }

// AddRecv records n messages fully processed. Call AFTER the whole
// batch has been processed (including any sends the processing
// performed).
func (c *ChannelCounts) AddRecv(n int) { c.recv.Add(int64(n)) }

// Snapshot reads the counters.
func (c *ChannelCounts) Snapshot() (sent, recv int64) {
	// Read recv before sent: overcounting sent relative to recv is the
	// conservative direction for the detector.
	r := c.recv.Load()
	s := c.sent.Load()
	return s, r
}

// FourCounter is Mattern's four-counter termination detector over a
// set of workers exposing ChannelCounts. Poll gathers one global
// snapshot; Terminated runs poll rounds until two consecutive rounds
// are identical with sent == recv, which proves that no message was in
// flight between the rounds and no worker was active.
type FourCounter struct {
	workers []*ChannelCounts
}

// NewFourCounter builds a detector over the given workers' counters.
func NewFourCounter(workers []*ChannelCounts) *FourCounter {
	return &FourCounter{workers: workers}
}

// Poll sums one snapshot round across workers.
func (f *FourCounter) Poll() (sent, recv int64) {
	for _, w := range f.workers {
		s, r := w.Snapshot()
		sent += s
		recv += r
	}
	return sent, recv
}

// Check performs the two-round comparison given the previous round's
// totals: it returns the new round plus whether termination is proven:
// both rounds identical and sent == recv.
func (f *FourCounter) Check(prevSent, prevRecv int64) (sent, recv int64, done bool) {
	sent, recv = f.Poll()
	done = sent == recv && sent == prevSent && recv == prevRecv
	return sent, recv, done
}

// WaitTerminated polls until termination is proven, calling yield
// between rounds (e.g. runtime.Gosched or a sleep). An error from
// yield ends the wait and is returned: a caller that knows messages
// were lost, so the totals can never balance, leaves through it.
// Intended for workloads that are already draining; it spins
// otherwise.
func (f *FourCounter) WaitTerminated(yield func() error) error {
	prevS, prevR := int64(-1), int64(-1)
	for {
		s, r, done := f.Check(prevS, prevR)
		if done {
			return nil
		}
		prevS, prevR = s, r
		if err := yield(); err != nil {
			return err
		}
	}
}
