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
// primitive, a message to a worker. The cycle's broadcast is that
// message sent to every worker; routed roots, a hand-off's share and a
// migration order are the same call. The driver's correctness
// arguments rest on what every carrier keeps:
//
//   - Per-sender FIFO: messages from one sender to one worker arrive in
//     send order (add-before-delete ordering of same-token activations
//     relies on it).
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
	// Deliver puts ms, all of one kind, in front of worker dst under
	// one causal batch stamp.
	Deliver(dst int, ms []Message, batch int32) error
}

// Driver is the cycle driver: the control processor of the paper's
// mapping, written once for every carrier. It owns the termination
// detectors, root broadcast (Fig 3-3) or routing (Fig 3-2), the
// conflict-set intake and netting, the rebalance detector and the
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

	// tab is the run's wme table, shared by rootProc and the steps in
	// the driver's memory, mirrored by wire workers; handles are the
	// cycle's changes' handles in it.
	tab     *rete.Table
	handles []int32

	// cyclePkt is the broadcast packet, reused across cycles and shared
	// read-only by every worker; cycleMsg is the one MsgCycle message
	// that carries it to each. The root-routing state (RouteRoots
	// mode) is the control side's constant-test processor plus reusable
	// per-destination buffers; a hand-off's frontier travels in the same
	// buffers.
	cyclePkt    *CyclePacket
	cycleMsg    [1]Message
	rootProc    *rete.Processor
	rootBufs    [][]Message
	rootScratch []rete.Activation

	// steps and boxes are the workers' steps and mailboxes when they
	// live in the driver's memory (shareMemory); nil otherwise, and then
	// every cycle runs on the message plane. budget is how many
	// activations of a cycle the driver performs in place before it
	// hands the rest to the workers: inPlaceActs, except that in-package
	// tests set it and budgets, when non-nil, draws it per cycle.
	steps   []*Step
	boxes   []*mailbox
	budget  int
	budgets *chaos

	// insts is the conflict-set intake; TurnDone appends each turn's
	// deltas in bulk. netting holds the netting scratch reused across
	// cycles.
	instMu  sync.Mutex
	insts   []rete.InstChange
	netting netter

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
		cyclePkt:  &CyclePacket{},
		counter:   termdet.NewCounter(),
		processed: make([]atomic.Int64, opts.Workers),
		msgsSent:  make([]atomic.Int64, opts.Workers),
		epoch:     time.Now(),
		yield:     runtime.Gosched,
	}
	d.cycleMsg[0] = Message{Kind: MsgCycle, Cycle: d.cyclePkt}
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
		d.rootProc = rete.NewProcessor(net, opts.NBuckets, d.tab)
		d.rootBufs = make([][]Message, opts.Workers)
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
	d.publish(src, t)
	d.counts[src].AddRecv(n)
	d.counter.Add(-n)
}

// publish books what one of worker src's turns produced: its deltas,
// its activation count and its bucket loads.
func (d *Driver) publish(src int, t *Turn) {
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

// Cycle runs one parallel match phase and returns the conflict-set
// deltas, netted per instantiation and deterministically ordered: by
// production name, then by the matched wmes' IDs compared as numbers,
// condition element by condition element (delivery order across workers
// is not deterministic; the netted set is). The records are the caller's
// for good; every WMEs array is the caller's to read until the next
// Cycle (see netter). A lost message — a broken connection, a malformed
// frame — is an error, never a hang.
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
	budget := 0
	if d.steps != nil {
		budget = d.budget
		if d.budgets != nil {
			budget = d.budgets.budget()
		}
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
	return d.netting.net(d.insts), nil
}

// inPlaceActs is how many activations of a cycle the driver performs in
// place, on the caller's goroutine, before it hands the cycle's frontier
// to the workers. Waking a parked worker and waiting for quiescence
// costs a cycle 5–20 µs here; an activation costs ~0.3 µs. Sweep
// (8-queens at 2 workers on 2 shared vCPUs, 2,033 cycles per run):
//
//	budget                      1     16    64    256      1,024   ∞
//	firings/s                   68k   76k   87k   110–128k 116k    128k
//	cycles of 2,033 handed off  2,033 324   205   1        0       0
//
// 256 activations is ~75 µs of match, 3–4× what dispatching costs a
// mid-size cycle. It is not a measured crossover: on that machine the
// best value is ∞, because no workload in the repository has a grain at
// which two goroutine workers beat one sequential matcher. It is a
// bound on serialisation — the control never performs more than ~75 µs
// of a cycle before the workers have it — so that the paper's
// cross-product cycle (Tourney: one change, thousands of tokens) still
// goes wide on a machine where wide wins.
const inPlaceActs = 256

// shareMemory tells the driver that its carrier's workers live in its
// own memory — steps[w] is worker w's step, boxes[w] its mailbox — and
// so turns the in-place head on.
func (d *Driver) shareMemory(steps []*Step, boxes []*mailbox) {
	d.steps, d.boxes, d.budget = steps, boxes, inPlaceActs
	if d.rootBufs == nil {
		d.rootBufs = make([][]Message, len(steps))
	}
}

// inPlaceHead performs the first budget activations of a cycle on the
// caller's goroutine, against the workers' own steps: between cycles
// the workers are parked and their steps quiescent, and the counter and
// mailbox mutexes order this goroutine's writes against theirs in both
// directions. The cycle's roots are queued on their owners, the steps
// are drained round-robin, and what a step leaves in Out moves to its
// owner's queue by append. A cycle that drains inside the budget
// has sent nothing, woken nobody and waits for nothing; one that
// outgrows it is handed off, and inPlaceHead reports true: the caller
// waits for quiescence as after any delivery.
//
// What is counted does not depend on who carried it: a step-to-step
// move in place is one of the mapping's messages, so Stats, bucket
// loads and the flight recorder's send, recv, flush and handle events
// are written exactly as the workers write them, on the owning worker's
// track. Only the termination detector is skipped, because nothing is
// in flight.
func (d *Driver) inPlaceHead(changes []rete.Change, budget int) (handedOff bool) {
	t0 := d.Now()
	cycle := d.curCycle.Load()
	ctl := int32(d.controlTrack())
	// The previous cycle quiesced, so every phase token it made has
	// been performed or built into a delta, and its deltas absorbed: the
	// arenas they came from start over. Only here: a goroutine worker cannot tell where a cycle
	// begins, and rewinding per turn would recycle tokens that are still
	// queued or in flight.
	if d.rootProc != nil {
		d.rootProc.BeginPhase()
	}
	for _, s := range d.steps {
		s.BeginPhase()
		s.BeginTurn(t0, cycle)
	}
	// The constant tests run once, whichever root mode: under Fig 3-3
	// every step would run them all and keep what it owns, which in
	// place is one goroutine doing the same work once per worker (six
	// alternated par-queens pairs: +5% to +12% work_per_s, all won).
	// Fig 3-3 has no control-side processor, so a parked step lends its
	// own. What the mode still decides is what the delivery counts as:
	// one broadcast every step receives, or a routed run per owner.
	proc := d.rootProc
	if proc == nil {
		proc = d.steps[0].proc
	}
	d.rootsByOwner(proc, changes)
	var bcast int32
	if !d.opts.RouteRoots {
		bcast = d.causal.NextBatch()
		d.ctlTrack.Send(t0, cycle, bcast, obs.BroadcastDst, int32(len(d.steps)))
	}
	for dst, buf := range d.rootBufs {
		s := d.steps[dst]
		if !d.opts.RouteRoots {
			s.ctrack.Recv(t0, cycle, bcast, ctl, 1)
		} else if len(buf) > 0 {
			batch := d.causal.NextBatch()
			d.ctlTrack.Send(t0, cycle, batch, int32(dst), int32(len(buf)))
			s.ctrack.Recv(t0, cycle, batch, ctl, int32(len(buf)))
		}
		s.queue(buf)
		d.rootBufs[dst] = buf[:0]
	}

	acts := 0
	for busy := true; busy && acts < budget; {
		busy = false
		for w, s := range d.steps {
			if len(s.localQ) == 0 {
				continue
			}
			busy = true
			ts := d.Now()
			s.turnTS = ts
			acts += s.Drain(budget - acts)
			d.carryOut(w, s, ts)
			if acts >= budget {
				break
			}
		}
	}

	frontier := 0
	for w, s := range d.steps {
		frontier += len(s.localQ)
		d.publish(w, s.EndTurn(true))
	}
	if frontier == 0 {
		d.cyclesInPlace.Add(1)
	} else {
		d.cyclesHandedOff.Add(1)
		d.handOff(cycle)
	}
	return frontier > 0
}

// carryOut moves what step w's drain left in Out to the owners' queues:
// worker.flush without the mailboxes.
func (d *Driver) carryOut(w int, s *Step, ts int64) {
	if s.Pending == 0 {
		return
	}
	d.msgsSent[w].Add(int64(s.Pending))
	for dst, buf := range s.Out {
		if len(buf) == 0 {
			continue
		}
		batch := d.causal.NextBatch()
		s.ctrack.Send(ts, s.turnCycle, batch, int32(dst), int32(len(buf)))
		d.steps[dst].ctrack.Recv(ts, s.turnCycle, batch, int32(w), int32(len(buf)))
		d.steps[dst].queue(buf)
		s.Out[dst] = buf[:0]
	}
	s.ctrack.Flush(ts, s.turnCycle, int32(s.Pending))
	s.Pending = 0
}

// handOff gives a cycle that outgrew its in-place budget to the
// workers: the steps' queues are a breadth-first frontier, and each
// step's share goes to its own worker as a run of MsgAct from the
// control (a queued activation and a MsgAct carry the same activation,
// bucket and depth). Three orderings keep the conflict set; the first
// two were found by breaking them.
func (d *Driver) handOff(cycle int32) {
	// Empty every step before the first delivery is visible: a woken
	// worker sends to its peers, and a peer's turn appends to the queue
	// this loop would still be reading.
	total := 0
	for w, s := range d.steps {
		buf := d.rootBufs[w][:0]
		for _, qa := range s.localQ {
			buf = append(buf, Message{Kind: MsgAct, Bucket: qa.bucket, Depth: qa.depth, Act: qa.act})
		}
		d.rootBufs[w] = buf
		s.localQ = s.localQ[:0]
		// A turn queues its whole delivery before expanding any of it:
		// the frontier can hold del(P) ahead of add(T) where del(T) will
		// derive from del(P). worker.loop hands Handle a whole drained
		// batch; the chaos layer has to be told.
		s.handOffShare = len(buf)
		total += len(buf)
	}
	d.Sending(d.controlTrack(), total)
	ts := d.Now()
	// The control's delivery to B is in B's mailbox before any worker
	// can send to B: add(T) may travel control→B and del(T) A→B, and
	// per-sender FIFO orders nothing between two senders, so A must not
	// wake until B's share is queued. Hold every mailbox's lock across
	// all the pushes. Workers only ever hold one mailbox lock at a time,
	// so there is no order to deadlock on.
	for _, m := range d.boxes {
		m.mu.Lock()
	}
	for dst, buf := range d.rootBufs {
		if len(buf) == 0 {
			continue
		}
		batch := d.causal.NextBatch()
		d.ctlTrack.Send(ts, cycle, batch, int32(dst), int32(len(buf)))
		d.boxes[dst].enqueueLocked(buf, batch, int32(d.controlTrack()))
		d.rootBufs[dst] = buf[:0]
	}
	for _, m := range d.boxes {
		m.mu.Unlock()
	}
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
	for w := range d.opts.Workers {
		if err := d.carrier.Deliver(w, d.cycleMsg[:], batch); err != nil {
			return err
		}
	}
	return nil
}

// rootsByOwner runs the constant tests once, on proc, and sorts each
// root activation into its owner's buffer (Fig 3-2), coalescing per
// destination so each worker gets at most one delivery. It reports how
// many roots there are.
func (d *Driver) rootsByOwner(proc *rete.Processor, changes []rete.Change) int {
	roots := 0
	for i, ch := range changes {
		d.rootScratch = proc.RootActivationsInto(ch, d.handles[i], d.rootScratch[:0])
		for _, act := range d.rootScratch {
			b := proc.Bucket(act)
			owner := d.opts.Partition[b]
			d.rootBufs[owner] = append(d.rootBufs[owner], Message{Kind: MsgAct, Bucket: int32(b), Depth: 1, Act: act})
			roots++
		}
	}
	return roots
}

// routeRoots hash-routes the cycle's root activations to their owners.
func (d *Driver) routeRoots(changes []rete.Change) error {
	sent := d.rootsByOwner(d.rootProc, changes)
	if sent == 0 {
		return nil
	}
	d.Sending(d.controlTrack(), sent)
	ts := d.Now()
	for dst, buf := range d.rootBufs {
		if len(buf) == 0 {
			continue
		}
		batch := d.causal.NextBatch()
		d.ctlTrack.Send(ts, d.curCycle.Load(), batch, int32(dst), int32(len(buf)))
		if err := d.carrier.Deliver(dst, buf, batch); err != nil {
			return err
		}
		d.rootBufs[dst] = buf[:0]
	}
	return nil
}

// Stats reports per-worker work counts (snapshot).
type Stats struct {
	// Processed[w] counts activations performed by worker w.
	Processed []int64
	// MsgsSent[w] counts activation messages worker w sent to other
	// workers.
	MsgsSent []int64
	// Insts counts instantiation deltas delivered to the control side
	// over all cycles (before netting).
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

// netter nets raw deltas per instantiation: within one match phase an
// instantiation may be added and deleted several times (e.g. through
// negative-node transients whose interleaving is order-dependent); only
// the net effect is meaningful, and netting makes the result
// independent of worker scheduling. An instantiation is its production
// and its wmes' IDs by condition-element position (nil positions
// included): rete.InstChange's Hash and Same. The accumulators, the
// open-addressing index over them and the sort permutation are scratch
// reused across cycles; the returned slice is carved from result and
// never reused (callers may retain it). A netted delta is the last raw
// delta of its instantiation under the net's tag: every raw delta of
// one instantiation names the same wmes, and every array is lent until
// the next cycle (rete.InstBuilder.Build), so which one it carries
// makes no difference to the engine, which copies what it keeps.
type netter struct {
	accs   []netAcc
	index  []int32 // open addressing: 1 + position in accs, 0 for empty
	order  []int32 // the standing accumulators, in output order
	result rete.InstBuilder
}

// netAcc is one instantiation's running net: adds minus deletes, and
// the position in the raw deltas of the last one seen.
type netAcc struct {
	net  int32
	last int32
}

func (n *netter) net(raw []rete.InstChange) []rete.InstChange {
	if len(raw) == 0 {
		return nil
	}
	// At most half full, and cleared only as far as this phase reaches.
	size := 4
	for size < 2*len(raw) {
		size *= 2
	}
	if len(n.index) < size {
		n.index = make([]int32, size)
	}
	index := n.index[:size]
	clear(index)
	n.accs = n.accs[:0]
	for i := range raw {
		ic := &raw[i]
		slot := ic.Hash() & uint64(size-1)
		for index[slot] != 0 && !ic.Same(&raw[n.accs[index[slot]-1].last]) {
			slot = (slot + 1) & uint64(size-1)
		}
		if index[slot] == 0 {
			n.accs = append(n.accs, netAcc{})
			index[slot] = int32(len(n.accs))
		}
		a := &n.accs[index[slot]-1]
		if ic.Tag == rete.Add {
			a.net++
		} else {
			a.net--
		}
		a.last = int32(i)
	}
	n.order = n.order[:0]
	for i := range n.accs {
		if n.accs[i].net != 0 {
			n.order = append(n.order, int32(i))
		}
	}
	if len(n.order) == 0 {
		return nil
	}
	// Sort the permutation, not the deltas.
	if len(n.order) > 1 {
		slices.SortFunc(n.order, func(a, b int32) int {
			return raw[n.accs[a].last].Compare(&raw[n.accs[b].last])
		})
	}
	out := n.result.Result(len(n.order))
	for _, ai := range n.order {
		a := &n.accs[ai]
		ic := raw[a.last]
		ic.Tag = rete.Add
		if a.net < 0 {
			ic.Tag = rete.Delete
		}
		out = append(out, ic)
	}
	return out
}
