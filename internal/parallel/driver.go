package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mpcrete/internal/obs"
	"mpcrete/internal/rete"
	"mpcrete/internal/sched"
	"mpcrete/internal/termdet"
)

// Carrier is what the cycle driver needs from a message plane: one
// primitive, a wave of runs of messages to the workers. The cycle's
// broadcast is the cycle message in every worker's run; routed roots, a
// hand-off's shares and a migration's orders are the same call with a
// run per worker. The driver's correctness arguments rest on what every
// carrier keeps:
//
//   - Per-sender FIFO: messages from one sender to one worker arrive in
//     send order (add-before-delete ordering of same-token activations
//     relies on it, and so does the order of one instantiation's deltas
//     that the engine's conflict set reads; see Cycle).
//   - Wave first: every run of a wave is in front of its worker before
//     any worker can send to another. Per-sender FIFO orders nothing
//     between two senders, and a hand-off needs the control's add(T) to
//     B queued before A can wake and send B del(T) (Driver.handOff).
//     On the star it also fixes the order in which a worker's mirror
//     meets a cycle's new wmes: in the cycle frame, never first in a
//     faster peer's relay.
//   - Synchronous capture: a call captures the messages and everything
//     they reference before it returns; the driver reuses the cycle
//     packet and its buffers, and the caller the changes slice, as soon
//     as Apply returns.
//   - Add-before-visible: every message is registered with the
//     termination detector (Sending, Shipping) before its receiver can
//     see it, and deregistered (TurnDone) only after the turn that
//     handled it has published what it produced. The driver registers
//     what it delivers itself.
//
// A message is delivered exactly once or the run fails: an error ends
// the cycle, and a carrier that lost a registered message also calls
// Fail, since no later cycle can reach quiescence.
type Carrier interface {
	// Deliver puts runs[w], all of one kind, in front of worker w under
	// causal batch stamp batches[w], for every worker whose run is not
	// empty, as one wave.
	Deliver(runs [][]Message, batches []int32) error
}

// Driver is the cycle driver: the control processor of the paper's
// mapping, written once for every carrier. It owns the termination
// detectors, root broadcast (Fig 3-3) or routing (Fig 3-2), the
// conflict-set intake, the rebalance detector and the
// migration protocol, the causal control track, cycle numbering, and
// the run's statistics. A carrier embeds it: Runtime adds goroutine
// workers over mailboxes, transport.Control adds worker connections.
//
// Cycle is the match phase of the MRA cycle; resolve and act remain the
// caller's job. Carriers report message traffic through Sending,
// Shipping and TurnDone, the only places termination accounting is
// written.
type Driver struct {
	opts    Options // defaults applied; Partition is the current assignment
	carrier Carrier

	counter *termdet.Counter
	counts  []*termdet.ChannelCounts // one per worker + control last
	four    *termdet.FourCounter

	// tab is the run's wme table, shared by proc and the steps in the
	// driver's memory, mirrored by wire workers; handles are the cycle's
	// changes' handles in it.
	tab     *rete.Table
	handles []int32

	// cyclePkt is the broadcast packet, reused across cycles and shared
	// read-only by every worker; cycleRuns are the broadcast wave, the
	// one MsgCycle message that carries it in every worker's run. proc
	// runs routed roots' constant tests, and in process owns the one
	// memory pair every step shares and runs the in-place head. runs are
	// the per-destination runs of the other waves (routed roots, a
	// hand-off's frontier, a migration's orders), and batches the stamps
	// of a wave's runs.
	cyclePkt  *CyclePacket
	cycleRuns [][]Message
	proc      *rete.Processor
	runs      [][]Message
	batches   []int32

	// steps are the workers' steps when they live in the driver's
	// memory (Runtime); nil otherwise, and then every cycle runs on the
	// message plane. budget is how many activations of a cycle the
	// driver performs in place before it hands the rest to the workers:
	// inPlaceActs, except that in-package tests set it and budgets, when
	// non-nil, draws it per cycle.
	steps   []*Step
	budget  int
	budgets *chaos

	// The in-place head's state, reused across cycles: the cycle's match
	// work in FIFO order, as rete.Matcher keeps it, with buckets[i]
	// queue[i]'s bucket; the production-node activations, until their
	// deltas are built; and since the last flush, handled[w] activations
	// performed for owner w and moves[src*W+dst] successors of owner
	// src's made for owner dst (row W is the control's: the roots).
	queue    []rete.Activation
	buckets  []int32
	instActs []rete.Activation
	handled  []int64
	moves    []int32

	// insts is the conflict-set intake, Cycle's result; TurnDone appends
	// each turn's deltas in bulk.
	instMu sync.Mutex
	insts  []rete.InstChange

	// balancer is the online rebalance detector/planner (nil unless
	// Options.Rebalance is enabled); loadMu guards bucketLoad, the
	// per-bucket activation counts TurnDone accumulates and the cycle
	// boundary folds into the balancer. rebSeries is the obs series
	// migrations publish into, and the counters aggregate migration
	// costs across the run (RebalanceStats).
	balancer     *sched.Balancer
	loadMu       sync.Mutex
	bucketLoad   []int64
	rebSeries    *obs.Series
	migrations   atomic.Int64
	bucketsMoved atomic.Int64
	entriesMoved atomic.Int64
	migMsgs      atomic.Int64

	processed []atomic.Int64
	msgsSent  []atomic.Int64
	instCount atomic.Int64
	// cyclesInPlace and cyclesHandedOff count the cycles whose in-place
	// head drained them, and those it handed to the workers.
	cyclesInPlace   atomic.Int64
	cyclesHandedOff atomic.Int64

	epoch time.Time

	// causal is the flight recorder (nil unless Options.Causal), the one
	// recorder a live run writes to;
	// ctlTrack caches its control track, and curCycle publishes the
	// 1-based cycle number workers stamp on their events (workers are
	// quiescent between cycles, so a relaxed load per turn suffices).
	causal   *obs.CausalRecorder
	ctlTrack *obs.TrackRecorder
	curCycle atomic.Int32

	// yield paces the four-counter poll: runtime.Gosched, or the chaos
	// layer's jittered variant, which stretches the window between the
	// detector's two passes — the interval the protocol must tolerate
	// in-flight messages across.
	yield func()

	closed atomic.Bool
}

// NewDriver validates opts, applies their defaults, and builds a cycle
// driver that delivers through c. It ignores Transport; Metrics and
// ChaosSeed may be left zero by carriers that have no use for them.
func NewDriver(net *rete.Network, opts Options, c Carrier) (*Driver, error) {
	if opts.Workers == 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Workers < 1 {
		return nil, fmt.Errorf("parallel: Workers = %d", opts.Workers)
	}
	if opts.NBuckets == 0 {
		opts.NBuckets = rete.DefaultNBuckets
	}
	if !rete.ValidNBuckets(opts.NBuckets) {
		return nil, fmt.Errorf("parallel: NBuckets = %d, want a power of two", opts.NBuckets)
	}
	if opts.Partition == nil {
		opts.Partition = sched.RoundRobin(opts.NBuckets, opts.Workers)
	}
	if len(opts.Partition) != opts.NBuckets {
		return nil, fmt.Errorf("parallel: partition covers %d buckets, want %d", len(opts.Partition), opts.NBuckets)
	}
	if err := opts.Partition.Validate(opts.Workers); err != nil {
		return nil, err
	}

	d := &Driver{
		opts:      opts,
		carrier:   c,
		tab:       rete.NewTable(),
		cycleRuns: make([][]Message, opts.Workers),
		runs:      make([][]Message, opts.Workers),
		batches:   make([]int32, opts.Workers),
		cyclePkt:  &CyclePacket{},
		counter:   termdet.NewCounter(),
		processed: make([]atomic.Int64, opts.Workers),
		msgsSent:  make([]atomic.Int64, opts.Workers),
		epoch:     time.Now(),
		yield:     runtime.Gosched,
	}
	cycleMsg := []Message{{Kind: MsgCycle, Cycle: d.cyclePkt}}
	for w := range d.cycleRuns {
		d.cycleRuns[w] = cycleMsg
	}
	if opts.Causal != nil {
		if got := opts.Causal.Tracks(); got != opts.Workers+1 {
			return nil, fmt.Errorf("parallel: causal recorder has %d tracks, want Workers+1 = %d (use NewFlightRecorder)", got, opts.Workers+1)
		}
		d.causal = opts.Causal
		d.ctlTrack = opts.Causal.Track(opts.Workers)
		for i := 0; i < opts.Workers; i++ {
			d.causal.SetTrackName(i, fmt.Sprintf("worker %d", i))
		}
		d.causal.SetTrackName(opts.Workers, "control")
	}
	if opts.RouteRoots {
		d.proc = rete.NewProcessor(net, opts.NBuckets, d.tab)
	}
	if opts.ChaosSeed != 0 {
		d.yield = newChaos(opts.ChaosSeed, opts.Workers).yield
		d.budgets = newChaos(opts.ChaosSeed, opts.Workers+1)
	}
	if opts.Rebalance.Enabled() {
		d.balancer = sched.NewBalancer(opts.Rebalance, opts.Partition, opts.Workers)
		d.bucketLoad = make([]int64, opts.NBuckets)
		d.rebSeries = opts.Metrics.Series("parallel/rebalance",
			"cycle", "imbalance", "buckets_moved", "entries_moved", "messages")
	}
	for i := 0; i <= opts.Workers; i++ {
		d.counts = append(d.counts, &termdet.ChannelCounts{})
	}
	d.four = termdet.NewFourCounter(d.counts)
	return d, nil
}

// Now is the recorder clock: wall-clock nanoseconds since NewDriver
// under a flight recorder, and 0 without one — an un-observed run never
// reads the clock.
func (d *Driver) Now() int64 {
	if d.causal == nil {
		return 0
	}
	return time.Since(d.epoch).Nanoseconds()
}

// controlTrack is the track of the control side in the flight recorder
// (the workers occupy tracks 0..Workers-1); it is also the control's
// source id in batch stamps and in Sending.
func (d *Driver) controlTrack() int { return d.opts.Workers }

// CurrentCycle is the 1-based number of the cycle in progress (or last
// completed), as stamped on causal events.
func (d *Driver) CurrentCycle() int32 { return d.curCycle.Load() }

// Table returns the run's wme table, which Cycle writes before it
// delivers anything and carriers only read.
func (d *Driver) Table() *rete.Table { return d.tab }

// Partition returns the current bucket-to-worker assignment. The slice
// is shared; callers must not mutate it.
func (d *Driver) Partition() sched.Partition { return d.opts.Partition }

// Sending registers k messages from src (a worker id, or
// Workers for the control side) that are about to become visible to
// their destination — the Add-before-visible half of termination
// accounting. A carrier calls it before the push or socket write that
// delivers them.
func (d *Driver) Sending(src, k int) {
	d.counter.Add(k)
	d.counts[src].AddSent(k)
	if src < len(d.msgsSent) {
		d.msgsSent[src].Add(int64(k))
	}
}

// Shipping registers one migrated bucket of the given entry count that
// worker src is about to make visible to its new owner, and books its
// cost.
func (d *Driver) Shipping(src, entries int) {
	d.counter.Add(1)
	d.counts[src].IncSent()
	d.entriesMoved.Add(int64(entries))
	d.migMsgs.Add(1)
}

// TurnDone reports that worker src finished a turn of n messages that
// produced t — the Done-after-processed half of termination accounting.
// Everything the turn sent must already be registered (Sending,
// Shipping). The deltas, counters and loads are published before the n
// messages are deregistered, so quiescence implies the control side
// sees all of them.
func (d *Driver) TurnDone(src, n int, t *Turn) {
	if len(t.Insts) > 0 {
		d.instMu.Lock()
		d.insts = append(d.insts, t.Insts...)
		d.instMu.Unlock()
		d.instCount.Add(int64(len(t.Insts)))
	}
	if t.Handled > 0 {
		d.processed[src].Add(t.Handled)
	}
	if len(t.Loads) > 0 && d.bucketLoad != nil {
		d.loadMu.Lock()
		for _, l := range t.Loads {
			d.bucketLoad[l.Bucket] += l.N
		}
		d.loadMu.Unlock()
	}
	d.counts[src].AddRecv(n)
	d.counter.Add(-n)
}

// Fail records a fatal error — accepted messages were lost, so
// quiescence is unreachable — and wakes any cycle wait. The first error
// wins and is sticky: every later Cycle returns it.
func (d *Driver) Fail(err error) { d.counter.Fail(err) }

// Err reports the error recorded by Fail, if any.
func (d *Driver) Err() error { return d.counter.Err() }

// Shutdown marks the driver closed and reports whether this call did
// so; a carrier's Close calls it first and proceeds only on true.
func (d *Driver) Shutdown() bool { return d.closed.CompareAndSwap(false, true) }

// Closed reports whether Shutdown has been called.
func (d *Driver) Closed() bool { return d.closed.Load() }

// Apply implements engine.MatchApplier. That interface has no error
// path, so a failed cycle panics; callers needing the error use Cycle.
func (d *Driver) Apply(changes []rete.Change) []rete.InstChange {
	insts, err := d.Cycle(changes)
	if err != nil {
		panic(err)
	}
	return insts
}

// Cycle runs one parallel match phase and returns its intake as it
// stands: the in-place head's deltas, then each turn's as the turns
// ended, valid until the next Cycle. The engine's conflict set settles
// the phase from them in order, which the driver keeps right: every
// delta of one instantiation is made at one bucket (the terminal
// two-input node's for its equality values, or the group's home bucket
// under bounded) by that bucket's single owner in FIFO order; the
// in-place head's deltas come before any hand-off's; and migration
// happens only between cycles. A lost message — a broken connection, a
// malformed frame — is an error, never a hang.
func (d *Driver) Cycle(changes []rete.Change) ([]rete.InstChange, error) {
	if d.Closed() {
		return nil, errors.New("parallel: Cycle after Close")
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	d.insts = d.insts[:0] // quiescent: nobody holds instMu
	// The last cycle's tokens are dead, so its deleted wmes' handles are
	// free; the delivery below orders the workers' reads after these
	// writes.
	d.tab.BeginPhase()
	d.handles = d.tab.Handles(changes, d.handles[:0])
	d.cyclePkt.Handles = d.handles

	cycle := d.curCycle.Add(1)
	d.causal.BeginCycle(cycle, d.Now())
	budget := d.budget // 0 unless the steps live in the driver's memory
	if d.budgets != nil && d.steps != nil {
		budget = d.budgets.budget()
	}
	var err error
	onPlane := true
	switch {
	case budget > 0:
		onPlane = d.inPlaceHead(changes, budget)
	case d.opts.RouteRoots:
		err = d.routeRoots(changes)
	default:
		err = d.broadcast(changes)
	}
	if onPlane && err == nil {
		err = d.quiesce()
	}
	d.cyclePkt.Changes = nil // release the caller's slice
	if err != nil {
		return nil, err
	}
	// Quiescent again: every worker's events for this cycle are recorded,
	// so the aggregate commit observes them all.
	d.causal.EndCycle(cycle, d.Now())
	if d.balancer != nil || d.opts.ForceMigrate != nil {
		if err := d.maybeRebalance(cycle); err != nil {
			return nil, err
		}
	}
	return d.insts, nil
}

// inPlaceActs is how many activations of a cycle the driver performs in
// place before it hands the cycle's frontier to the workers. Waking a
// parked worker and waiting for quiescence costs a cycle 5–20 µs here;
// an activation ~0.3 µs. Sweep (8-queens, 2 workers, 2 shared vCPUs;
// medians of eight interleaved 0.7 s runs; EXPERIMENTS.md):
//
//	budget                      1      16     64     256    1,024  ∞
//	firings/s                   129k   132k   204k   221k   207k   245k
//	cycles of 2,033 handed off  2,033  324    205    1      0      0
//
// From 256 up the differences are inside the host's drift. 256 is not a
// crossover — no workload here has a grain at which two goroutine
// workers beat one sequential matcher — but a bound on serialisation:
// the control performs at most ~75 µs of a cycle before the workers
// have it, so the paper's cross-product cycle (Tourney: one change,
// thousands of tokens) still goes wide on a machine where wide wins.
const inPlaceActs = 256

// inPlaceHead performs the first budget activations of a cycle on the
// caller's goroutine, in the sequential matcher's loop: one FIFO over
// the run's one memory pair, each activation hashed once, where it is
// made. Between cycles the workers are parked, and the counter and
// mailbox mutexes order this goroutine's writes against theirs in both
// directions. A cycle that drains inside the budget sends nothing,
// wakes nobody and waits for nothing; one that outgrows it is handed
// off, and inPlaceHead reports true: the caller waits for quiescence.
//
// What is counted does not depend on who carried it: an activation is
// booked to its bucket's owner, a successor whose owner is not its
// parent's is a message, and Stats, bucket loads and the flight
// recorder's events are written as the workers write them, on the
// owners' tracks, sends coalesced per breadth-first level as a worker
// coalesces them per turn. Only the termination detector is skipped.
// The constant tests run once; the root mode decides whether their
// delivery counts as one broadcast or as a routed run per owner.
func (d *Driver) inPlaceHead(changes []rete.Change, budget int) (handedOff bool) {
	ts, cycle, ctl := d.Now(), d.curCycle.Load(), d.controlTrack()
	// The previous cycle quiesced, so every phase token it made has
	// been performed or built into a delta, and its deltas absorbed: the
	// arenas they came from start over. Only here: a goroutine worker
	// cannot tell where a cycle begins.
	d.proc.BeginPhase()
	for _, s := range d.steps {
		s.BeginPhase()
	}
	// The FIFO and its buckets take about a root per change (Step.reserve).
	d.queue = slices.Grow(d.queue, len(changes))
	d.buckets = slices.Grow(d.buckets, len(changes))
	for i, ch := range changes {
		n := len(d.queue)
		d.queue = d.proc.RootActivationsInto(ch, d.handles[i], d.queue)
		d.file(n, ctl)
	}
	if !d.opts.RouteRoots {
		clear(d.moves[ctl*ctl:]) // the control's row: one broadcast instead
		bcast := d.causal.NextBatch()
		d.ctlTrack.Send(ts, cycle, bcast, obs.BroadcastDst, int32(len(d.steps)))
		for _, s := range d.steps {
			s.ctrack.Recv(ts, cycle, bcast, int32(ctl), 1)
		}
	}

	// level is where the next breadth-first level begins. Unlike the
	// sequential matcher's, the FIFO keeps its drained prefix: it never
	// holds more than the roots and the successors of budget activations.
	part := d.opts.Partition
	head, level, depth := 0, len(d.queue), int32(1)
	for ; head < len(d.queue) && head < budget; head++ {
		if head == level {
			d.flush(ts, cycle)
			ts, level, depth = d.Now(), len(d.queue), depth+1
		}
		act, b := d.queue[head], d.buckets[head]
		w := part[b]
		d.handled[w]++
		if d.bucketLoad != nil {
			d.bucketLoad[b]++ // the workers are parked: no lock
		}
		n := len(d.queue)
		d.queue = d.proc.ProcessAt(act, int(b), d.queue)
		d.steps[w].ctrack.Handle(ts, cycle, b, depth, d.file(n, w))
	}
	d.flush(ts, cycle)
	if n := len(d.instActs); n > 0 {
		d.insts = d.proc.Build(d.instActs, d.insts)
		d.instCount.Add(int64(n))
		d.instActs = d.instActs[:0]
	}
	if handedOff = head < len(d.queue); handedOff {
		d.cyclesHandedOff.Add(1)
		d.handOff(cycle, head, level, depth)
	} else {
		d.cyclesInPlace.Add(1)
	}
	d.queue, d.buckets = d.queue[:0], d.buckets[:0]
	return handedOff
}

// file sorts the activations appended to the queue from index n on,
// made by an activation of owner from (the control, for roots), as the
// sequential matcher files them: match work stays, in order, its bucket
// beside it, and a production-node activation moves to instActs. It
// counts the moves and returns the fan-out, what stayed.
func (d *Driver) file(n, from int) int32 {
	part, row, k := d.opts.Partition, d.moves[from*len(d.steps):], n
	for i := n; i < len(d.queue); i++ {
		act := &d.queue[i]
		if act.Node.Kind == rete.KindProduction {
			d.instActs = append(d.instActs, *act)
			continue
		}
		b := d.proc.Bucket(*act)
		row[part[b]]++ // branch-free: flush ignores the diagonal
		if k != i {
			d.queue[k] = *act
		}
		d.buckets = append(d.buckets, int32(b))
		k++
	}
	d.queue = d.queue[:k]
	return int32(k - n)
}

// flush books what the head did since the last flush as a worker's
// turn books it: its activations in Stats.Processed, and per sender one
// send event and its receiver's recv per destination, one flush event
// and the messages in Stats.MsgsSent. The control's row, routed roots,
// gets the send and recv events only, as a routed delivery does.
func (d *Driver) flush(ts int64, cycle int32) {
	nw := len(d.steps)
	for src := 0; src <= nw; src++ {
		row, total := d.moves[src*nw:(src+1)*nw], int32(0)
		for dst, n := range row {
			if row[dst] = 0; n > 0 && dst != src {
				batch := d.causal.NextBatch()
				d.causal.Track(src).Send(ts, cycle, batch, int32(dst), n)
				d.steps[dst].ctrack.Recv(ts, cycle, batch, int32(src), n)
				total += n
			}
		}
		if src == nw {
			break
		}
		d.processed[src].Add(d.handled[src])
		d.handled[src] = 0
		if total > 0 {
			d.msgsSent[src].Add(int64(total))
			d.steps[src].ctrack.Flush(ts, cycle, total)
		}
	}
}

// handOff gives a cycle that outgrew its in-place budget to the
// workers: the queue from head on is a breadth-first frontier (at depth
// up to level, one deeper after), and each owner's share goes to its
// worker in FIFO order as one exact-size run of MsgAct. Three orderings
// keep the conflict set; the first two were found by breaking them.
// First, the head has written all it writes without a lock — deltas,
// loads, counts, these runs — before the first delivery is visible.
func (d *Driver) handOff(cycle int32, head, level int, depth int32) {
	part := d.opts.Partition
	for _, b := range d.buckets[head:] {
		d.handled[part[b]]++ // free again: it counts the shares
	}
	for w, n := range d.handled {
		d.runs[w] = slices.Grow(d.runs[w][:0], int(n))
		d.handled[w] = 0
	}
	for i := head; i < len(d.queue); i++ {
		b, dep := d.buckets[i], depth
		if i >= level {
			dep++
		}
		d.runs[part[b]] = append(d.runs[part[b]], Message{Kind: MsgAct, Bucket: b, Depth: dep, Act: d.queue[i]})
	}
	total := 0
	for w, s := range d.steps {
		// A turn queues its whole delivery before expanding any of it:
		// the frontier can hold del(P) ahead of add(T) where del(T) will
		// derive from del(P). worker.loop hands Handle a whole drained
		// batch; the chaos layer has to be told.
		s.handOffShare = len(d.runs[w])
		total += s.handOffShare
	}
	d.Sending(d.controlTrack(), total)
	// The control's delivery to B is in B's mailbox before any worker
	// can send to B: add(T) may travel control→B and del(T) A→B, which
	// the carrier's wave-first order keeps apart.
	if err := d.deliverRuns(d.Now(), cycle); err != nil {
		d.Fail(err)
	}
}

// deliverRuns delivers runs as one wave, each non-empty run under a
// stamp of its own, and empties them.
func (d *Driver) deliverRuns(ts int64, cycle int32) error {
	for dst, run := range d.runs {
		if len(run) > 0 {
			d.batches[dst] = d.causal.NextBatch()
			d.ctlTrack.Send(ts, cycle, d.batches[dst], int32(dst), int32(len(run)))
		}
	}
	err := d.carrier.Deliver(d.runs, d.batches)
	for dst := range d.runs {
		d.runs[dst] = d.runs[dst][:0]
	}
	return err
}

// quiesce waits for global quiescence and cross-checks the two
// detectors against each other.
func (d *Driver) quiesce() error {
	d.ctlTrack.Mark(obs.EvWaitBegin, d.Now(), d.curCycle.Load(), 0, 0)
	waves := int32(0)
	if d.opts.Detector == FourCounterDetector {
		// Once messages are lost the four-counter totals can never
		// balance, so a failed driver ends the poll.
		if err := d.four.WaitTerminated(func() error {
			if err := d.Err(); err != nil {
				return err
			}
			waves++
			d.yield()
			return nil
		}); err != nil {
			return err
		}
	}
	if err := d.settle(); err != nil {
		return err
	}
	d.ctlTrack.Mark(obs.EvWaitEnd, d.Now(), d.curCycle.Load(), waves, 0)
	return nil
}

// settle is the barrier of a cycle and of a migration: the credit
// counter drains, then the sticky error, then the channel counts must
// agree (every message registered sent was registered received).
func (d *Driver) settle() error {
	d.counter.Wait()
	if err := d.Err(); err != nil {
		return err
	}
	if sent, recv := d.four.Poll(); sent != recv {
		return fmt.Errorf("parallel: channel counts diverged at quiescence: sent=%d recv=%d", sent, recv)
	}
	return nil
}

// broadcast delivers the cycle packet to every worker (Fig 3-3): one
// pooled packet shared read-only in one message, one outstanding-work
// registration and one sent-counter update for the whole wave.
func (d *Driver) broadcast(changes []rete.Change) error {
	d.cyclePkt.Changes = changes
	d.Sending(d.controlTrack(), d.opts.Workers)
	// One broadcast send event covers the whole wave; every worker
	// receives the same batch stamp, so each recv joins back to this
	// send.
	batch := d.causal.NextBatch()
	d.ctlTrack.Send(d.Now(), d.curCycle.Load(), batch, obs.BroadcastDst, int32(d.opts.Workers))
	for w := range d.batches {
		d.batches[w] = batch
	}
	return d.carrier.Deliver(d.cycleRuns, d.batches)
}

// routeRoots runs the constant tests once, on proc, and hash-routes
// each root activation to its owner (Fig 3-2), coalescing per
// destination so each worker gets at most one run of the wave. The head's
// queue, idle on the message plane, is its scratch.
func (d *Driver) routeRoots(changes []rete.Change) error {
	sent := 0
	for i, ch := range changes {
		d.queue = d.proc.RootActivationsInto(ch, d.handles[i], d.queue[:0])
		for _, act := range d.queue {
			b := d.proc.Bucket(act)
			owner := d.opts.Partition[b]
			d.runs[owner] = append(d.runs[owner], Message{Kind: MsgAct, Bucket: int32(b), Depth: 1, Act: act})
			sent++
		}
	}
	d.queue = d.queue[:0]
	if sent == 0 {
		return nil
	}
	d.Sending(d.controlTrack(), sent)
	return d.deliverRuns(d.Now(), d.curCycle.Load())
}

// Stats reports per-worker work counts (snapshot).
type Stats struct {
	// Processed[w] counts activations performed by worker w.
	Processed []int64
	// MsgsSent[w] counts activation messages worker w sent to other
	// workers.
	MsgsSent []int64
	// Insts counts instantiation deltas delivered to the control side
	// over all cycles.
	Insts int64
	// InPlace counts the cycles the driver performed whole on the
	// caller's goroutine; HandedOff those it began there and handed to
	// the workers when they outgrew the in-place budget. Both stay zero
	// for a carrier whose workers live elsewhere.
	InPlace   int64
	HandedOff int64
}

// Stats snapshots per-worker counters.
func (d *Driver) Stats() Stats {
	s := Stats{
		Processed: make([]int64, len(d.processed)),
		MsgsSent:  make([]int64, len(d.msgsSent)),
		Insts:     d.instCount.Load(),
		InPlace:   d.cyclesInPlace.Load(),
		HandedOff: d.cyclesHandedOff.Load(),
	}
	for i := range d.processed {
		s.Processed[i] = d.processed[i].Load()
		s.MsgsSent[i] = d.msgsSent[i].Load()
	}
	return s
}

// FlightDump snapshots the attached flight recorder: the last-N causal
// events per track plus the retained per-cycle aggregates. Nil when no
// recorder is attached. Only legal at quiescence — between cycles or
// after Close — which is when post-mortem analysis runs.
func (d *Driver) FlightDump() *obs.FlightDump {
	return d.causal.Dump()
}
