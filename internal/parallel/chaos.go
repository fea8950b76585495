package parallel

// The chaos layer (Options.ChaosSeed != 0) deliberately perturbs the
// runtime's scheduling so that -race stress and the differential
// harness (internal/difftest) explore message interleavings a quiet
// machine never produces:
//
//   - drained activation runs are randomly re-interleaved, preserving
//     only per-bucket FIFO order — the one ordering the hashed
//     memories rely on (a token's add and delete hash to the same
//     bucket, and the netted conflict set is order-independent beyond
//     that);
//   - turns are randomly split, with the tail of a batch carried into
//     a later turn, so end-of-turn bookkeeping (conflict-set delivery,
//     counter publication, termination-detection deregistration) fires
//     at adversarial points;
//   - each cycle's in-place budget (see inPlaceActs) is drawn at
//     random: 0 one time in four — the whole cycle on the message
//     plane — otherwise uniform in [1, inPlaceActs], so cycles hand
//     their frontier to the workers at adversarial points;
//   - workers and the control goroutine's four-counter poll inject
//     yields and microsecond sleeps to stretch race windows.
//
// Everything here is driven by a per-goroutine rand.Rand seeded from
// ChaosSeed and the worker id, so a given (seed, workers) pair replays
// the same perturbation schedule; the budgets have a stream of their
// own, so cycle k draws the same budget however often the four-counter
// poll yielded before it. The invariant the whole layer must
// uphold — and the differential harness asserts — is that the netted
// per-cycle conflict sets and final working memory are identical to an
// unperturbed run.

import (
	"math/rand"
	"runtime"
	"time"
)

type chaos struct {
	rng *rand.Rand

	// carry holds the deferred tail of a split batch; it is processed
	// ahead of newly arrived messages on a later turn (chaos-owned
	// backing array — batch slices are donated back to the mailbox and
	// must not be aliased).
	carry []Message

	// shuffleRun scratch.
	buckets map[int32][]Message
	order   []int32
}

func newChaos(seed int64, id int) *chaos {
	// Mix the id multiplicatively so seed/seed+1 don't collide with
	// worker 1/worker 0 of adjacent seeds.
	return &chaos{
		rng:     rand.New(rand.NewSource(seed + int64(id+1)*0x9e3779b97f4a7c)),
		buckets: map[int32][]Message{},
	}
}

// nextBatch is the chaotic replacement for a plain mailbox drain: it
// assembles the turn's messages from any carried-over tail plus the
// mailbox, perturbs the activation order, and possibly holds back a
// suffix for a later turn. ok == false reports mailbox closure once
// the carry has drained too. Progress is guaranteed: every returned
// batch is non-empty, and a split leaves strictly fewer messages in
// the carry than it took in.
//
// Recv stamps are passed through from the drain that produced them:
// the flight recorder marks arrival (drain time), so a carried message
// is recv'd on its drain turn even if handled on a later one — the
// only causal imprecision the chaos layer introduces.
func (c *chaos) nextBatch(w *worker) ([]Message, []recvStamp, bool) {
	var batch []Message
	var stamps []recvStamp
	if len(c.carry) == 0 {
		b, s, ok := w.inbox.Drain(w.batch, w.stampBuf)
		if !ok {
			return b, s, false
		}
		batch, stamps = b, s
	} else {
		// Deferred messages pending: don't block on the mailbox (no one
		// may ever send again), just take whatever else arrived and
		// process the carry first to preserve arrival order.
		drained, s, _ := w.inbox.TryDrain(w.batch, w.stampBuf)
		combined := make([]Message, 0, len(c.carry)+len(drained))
		combined = append(combined, c.carry...)
		combined = append(combined, drained...)
		c.carry = c.carry[:0]
		batch, stamps = combined, s
	}

	c.perturb(batch)

	// A hand-off's share is one delivery (see worker.loop), and perturb
	// has just spread it over the batch: this turn stays whole.
	whole := w.step.handOffShare > 0
	w.step.handOffShare = 0

	// Randomly split the turn, carrying a strict suffix into a later
	// turn. The suffix must be copied: the batch's backing array is
	// donated back to the mailbox on the next drain.
	if !whole && len(batch) > 1 && c.rng.Intn(3) == 0 {
		cut := 1 + c.rng.Intn(len(batch)-1)
		c.carry = append(c.carry[:0], batch[cut:]...)
		batch = batch[:cut]
	}

	c.jitter()
	return batch, stamps, true
}

// perturb re-interleaves each maximal run of MsgAct messages in place.
// Non-act messages (cycle packets, migrations) act as barriers: they
// carry phase semantics and keep their positions.
func (c *chaos) perturb(batch []Message) {
	i := 0
	for i < len(batch) {
		if batch[i].Kind != MsgAct {
			i++
			continue
		}
		j := i
		for j < len(batch) && batch[j].Kind == MsgAct {
			j++
		}
		if j-i > 1 {
			c.shuffleRun(batch[i:j])
		}
		i = j
	}
}

// shuffleRun writes a random interleaving of the run's messages that
// preserves the relative order of messages sharing a hash bucket. This
// is exactly the reordering freedom real message-passing hardware has:
// different buckets live in different memories with no ordering
// relation, while same-bucket traffic (in particular a token's add
// followed by its delete) is serialized by its owner.
func (c *chaos) shuffleRun(run []Message) {
	clear(c.buckets)
	c.order = c.order[:0]
	for _, m := range run {
		if _, seen := c.buckets[m.Bucket]; !seen {
			c.order = append(c.order, m.Bucket)
		}
		c.buckets[m.Bucket] = append(c.buckets[m.Bucket], m)
	}
	if len(c.order) < 2 {
		return
	}
	for i := range run {
		k := c.rng.Intn(len(c.order))
		b := c.order[k]
		q := c.buckets[b]
		run[i] = q[0]
		if len(q) == 1 {
			c.order[k] = c.order[len(c.order)-1]
			c.order = c.order[:len(c.order)-1]
			delete(c.buckets, b)
		} else {
			c.buckets[b] = q[1:]
		}
	}
}

// budget draws one cycle's in-place budget.
func (c *chaos) budget() int {
	if c.rng.Intn(4) == 0 {
		return 0
	}
	return 1 + c.rng.Intn(inPlaceActs)
}

// jitter stretches race windows between turns.
func (c *chaos) jitter() {
	switch c.rng.Intn(8) {
	case 0:
		time.Sleep(time.Duration(1+c.rng.Intn(20)) * time.Microsecond)
	case 1, 2:
		runtime.Gosched()
	}
}

// yield is the control goroutine's chaotic four-counter poll: mostly
// plain yields, occasionally a sleep long enough for workers to make
// real progress between the detector's two passes.
func (c *chaos) yield() {
	if c.rng.Intn(4) == 0 {
		time.Sleep(time.Duration(1+c.rng.Intn(5)) * time.Microsecond)
	} else {
		runtime.Gosched()
	}
}
