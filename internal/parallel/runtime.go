// Package parallel is a real (not simulated) implementation of the
// paper's distributed hash-table mapping: each worker owns a partition
// of the global left/right hash-bucket space. It realizes the Fig 3-3
// variation — the control side broadcasts each cycle's wme changes,
// every worker runs all constant tests and keeps the root activations
// whose buckets it owns, and successor (left) tokens travel to the
// worker owning their bucket. Options.RouteRoots selects the Fig 3-2
// scheme instead: the control side runs the constant tests once and
// hash-routes each root activation to its owner.
//
// The mapping is written once, as two carrier-agnostic types: Driver
// (driver.go) is the control processor's cycle, Step (step.go) a match
// processor's turn. A carrier only moves Message batches between them.
// Runtime, in this file, is the goroutine carrier: workers are
// goroutines and messages are in-process mailbox pushes.
// internal/transport carries the same two types between OS processes,
// and its Loopback runs that star inside one process behind
// Options.Transport.
//
// The message plane is batched, because the paper's central finding is
// that per-message overhead is what makes or breaks MPC speedups:
// workers drain their whole mailbox under one lock per turn, coalesce
// outgoing activations into per-destination buffers flushed once per
// turn, deliver conflict-set deltas in bulk, and account
// termination-detection counters per batch. Steady-state cycles reuse
// the same buffers, the shared cycle packet, and arena-carved tokens.
//
// In process the left and right memories are one pair of hash tables,
// as in the paper's mapping, and the partition alone decides which
// goroutine may touch a bucket. Waking a parked goroutine and waiting
// for quiescence costs 5–20 µs here against ~0.3 µs per activation —
// far past the right edge of the paper's Fig 5-2 — so the driver runs
// the head of every cycle in place, in the sequential matcher's loop
// over that pair, and only a cycle that outgrows the head reaches the
// message plane (Driver.inPlaceHead, inPlaceActs).
//
// This is the "real implementation" the paper planned as future work
// (on Nectar), transplanted to goroutines. It includes the distributed
// termination detection the paper's simulator replaced with oracle
// knowledge: a counting detector by default, or Mattern's four-counter
// method (package termdet).
package parallel

import (
	"errors"
	"runtime"
	"sync"

	"mpcrete/internal/obs"
	"mpcrete/internal/rete"
	"mpcrete/internal/sched"
)

// Detector selects the termination-detection scheme.
type Detector uint8

const (
	// CountingDetector uses an outstanding-work counter.
	CountingDetector Detector = iota
	// FourCounterDetector uses Mattern's four-counter polling method.
	FourCounterDetector
)

// Options configure a Runtime.
type Options struct {
	// Workers is the number of match goroutines (default
	// runtime.GOMAXPROCS(0)).
	Workers int
	// NBuckets sizes the hash-bucket space (default
	// rete.DefaultNBuckets).
	NBuckets int
	// Partition maps bucket -> worker (default round-robin).
	Partition sched.Partition
	// Rebalance, when enabled, turns on the online adaptive
	// repartitioner: workers count activations per bucket, the control
	// goroutine folds the counters into a sched.Balancer at every
	// quiescence, and when the detector arms (threshold, hysteresis,
	// min-interval knobs — see sched.Rebalance) hot buckets migrate to
	// new owners at the cycle boundary through the Repartition
	// machinery. The conflict sets are identical to the static run's —
	// migration moves state, never match semantics.
	Rebalance sched.Rebalance
	// ForceMigrate, when non-nil, is consulted at every cycle boundary
	// (after the cycle's quiescence) with the 1-based number of the
	// cycle just completed; a non-nil returned partition is migrated to
	// before the next cycle. It is the migration-parity test hook: a
	// schedule can force migrations the detector would never choose.
	// When both ForceMigrate and Rebalance are set, a non-nil forced
	// partition wins that boundary and resets the detector.
	ForceMigrate func(cycle int) sched.Partition
	// Detector selects the termination-detection scheme.
	Detector Detector
	// RouteRoots selects the paper's Fig 3-2 scheme: the control
	// goroutine runs the constant tests once per cycle and hash-routes
	// each root activation to the worker owning its bucket, instead of
	// broadcasting the cycle's changes for every worker to filter (the
	// Fig 3-3 default). Routing eliminates the redundant all-workers
	// constant-test pass at the cost of serializing constant tests on
	// the control goroutine; the conflict sets are identical either
	// way.
	RouteRoots bool
	// ChaosSeed, when non-zero, enables the chaos scheduling layer
	// (see chaos.go): workers randomly reorder drained activation runs
	// (preserving per-bucket FIFO order, the only ordering the match
	// relies on), split turns, and jitter timing, and the driver draws
	// each cycle's in-place budget at random, so -race stress explores
	// interleavings and hand-off points a quiet machine never produces.
	// The conflict sets must be unchanged — the differential harness
	// asserts exactly that. Zero (the default) compiles to the
	// unperturbed fast path.
	ChaosSeed int64
	// Metrics, when non-nil, receives runtime counters; currently
	// parallel.dropped_post_close, the number of messages dropped by
	// post-close mailbox sends (normal operation keeps it zero; soak
	// runs assert that).
	Metrics *obs.Registry
	// Transport, when non-nil, carries the run instead of goroutine
	// workers over mailboxes: internal/transport's Loopback runs the
	// star carrier — a transport.Control and socket workers — inside
	// this process. It does not compose with ChaosSeed, which perturbs
	// mailboxes a star does not have.
	Transport Transport
	// Causal, when non-nil, attaches the flight recorder, the one
	// recorder of a live run: every worker records sequence-stamped
	// send/recv/handle/flush events (with bucket, cycle, batch id, and
	// dependency depth) and the begin and end of each turn into its own
	// lock-free bounded ring, and the control track brackets cycles,
	// quiescence waits and migrations and commits per-cycle aggregates.
	// Timestamps are nanoseconds since New. The recorder must have exactly
	// Workers+1 tracks (workers first, control last) — build it with
	// NewFlightRecorder. Nil (the default) keeps the hot path at one
	// nil check per event and zero allocations.
	Causal *obs.CausalRecorder
}

// Transport builds the driver of a carrier whose workers are not this
// package's goroutines (internal/transport's Loopback; parallel cannot
// import it). Open returns the driver running over the carrier, and the
// function that stops the carrier and records what its workers reported
// in the driver's sticky Err.
type Transport interface {
	Open(opts Options) (*Driver, func(), error)
}

// NewFlightRecorder builds a causal recorder sized for a runtime with
// the given worker count: Workers+1 tracks (control last). ringCap,
// retainCycles, and nbuckets follow obs.NewCausalRecorder (0 means the
// obs defaults; nbuckets should match Options.NBuckets).
func NewFlightRecorder(workers, ringCap, retainCycles, nbuckets int) *obs.CausalRecorder {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return obs.NewCausalRecorder(workers+1, ringCap, retainCycles, nbuckets)
}

// CyclePacket is the broadcast payload of one match phase. A single
// packet, owned by the Runtime and reused across cycles, is shared
// read-only by every worker — the control goroutine ships one pooled
// changes slice per cycle rather than per-worker copies.
type CyclePacket struct {
	Changes []rete.Change
	// Handles are the changes' wmes' handles in the run's table.
	Handles []int32
}

// Message is the worker protocol. A mailbox carries it by value; the
// star carrier (internal/transport) gives each kind a frame of its own.
type Message struct {
	Kind   MsgKind
	Bucket int32           // MsgAct: the activation's hash bucket, computed by the sender for routing
	Depth  int32           // MsgAct: dependency depth within the cycle (roots are 1)
	Cycle  *CyclePacket    // MsgCycle: shared, read-only
	Act    rete.Activation // MsgAct
	// Order is a migration order (MsgMigrateOut).
	Order *MigrateOrder
	// Inject carries one extracted bucket pair to its new owner
	// (MsgMigrateIn). In-process the pointer is the live contents, whose
	// handles index the driver's table; a wire worker decodes a copy and
	// fills its mirror from the definitions the control sent it, at the
	// same handles.
	Inject *rete.BucketContents
}

// MigrateOrder is what every worker receives at a migration: the new
// bucket-to-worker assignment, which its step adopts, and the buckets
// it loses, with their new owners, sorted by bucket (empty when it
// loses none).
type MigrateOrder struct {
	Part  sched.Partition
	Moves []BucketMove
}

// BucketMove is one entry of a MigrateOrder: the receiving worker must
// extract Bucket and ship its contents to NewOwner.
type BucketMove struct {
	Bucket   int32
	NewOwner int32
}

type MsgKind uint8

const (
	MsgCycle MsgKind = iota
	MsgAct
	MsgMigrateOut
	MsgMigrateIn
)

// Runtime is the goroutine carrier of the mapping: a cycle driver
// (embedded — Apply, Cycle, Stats, Repartition and the rest are its)
// plus one goroutine per match processor, each running a worker step
// fed from its mailbox. Over Options.Transport it is only the driver
// the transport opened and the function that stops it. Close must be
// called to stop the workers.
type Runtime struct {
	*Driver

	workers []*worker

	// stop ends a Transport's run (nil on the goroutine carrier).
	stop func()
}

// worker is one match goroutine: the carrier loop around a Step.
type worker struct {
	id    int
	rt    *Runtime
	step  *Step
	inbox *mailbox
	done  sync.WaitGroup

	// batch and stampBuf are the drained turn and its recv stamps, reused
	// across turns (donated back to the mailbox on the next drain).
	batch    []Message
	stampBuf []recvStamp

	// chaos is the worker's scheduling perturbator (nil unless
	// Options.ChaosSeed is set).
	chaos *chaos
}

// New creates and starts a runtime. Close must be called to stop the
// worker goroutines.
func New(net *rete.Network, opts Options) (*Runtime, error) {
	if opts.Transport != nil {
		if opts.ChaosSeed != 0 {
			return nil, errors.New("parallel: ChaosSeed and Transport do not compose: chaos perturbs goroutine mailboxes, which a Transport does not have")
		}
		d, stop, err := opts.Transport.Open(opts)
		if err != nil {
			return nil, err
		}
		return &Runtime{Driver: d, stop: stop}, nil
	}
	rt := &Runtime{}
	d, err := NewDriver(net, opts, rt)
	if err != nil {
		return nil, err
	}
	rt.Driver = d
	opts = d.opts

	// The steps and mailboxes live in the driver's memory, which turns
	// its in-place head on, and share the driver's one memory pair.
	if d.proc == nil {
		d.proc = rete.NewProcessor(net, opts.NBuckets, d.tab)
	}
	left, right := d.proc.Memories()
	dropped := opts.Metrics.Counter("parallel.dropped_post_close")
	steps := make([]*Step, opts.Workers)
	for i := range steps {
		proc := rete.NewProcessorOver(net, d.tab, left, right)
		w := &worker{
			id:    i,
			rt:    rt,
			step:  NewStep(proc, i, opts.Workers, opts.Partition, d.balancer != nil, d.causal.Track(i)),
			inbox: newMailbox(dropped, d.causal != nil),
		}
		if opts.ChaosSeed != 0 {
			w.chaos = newChaos(opts.ChaosSeed, i)
		}
		rt.workers = append(rt.workers, w)
		steps[i] = w.step
	}
	d.steps, d.budget = steps, inPlaceActs
	d.handled = make([]int64, opts.Workers)
	d.moves = make([]int32, (opts.Workers+1)*opts.Workers)
	for _, w := range rt.workers {
		w.done.Add(1)
		go w.loop()
	}
	return rt, nil
}

// Deliver implements Carrier. It holds every mailbox's lock across all
// the wave's pushes, so no worker wakes to its run before every run is
// queued. Workers only ever hold one mailbox lock at a time, so there
// is no order to deadlock on.
func (rt *Runtime) Deliver(runs [][]Message, batches []int32) error {
	for _, w := range rt.workers {
		w.inbox.mu.Lock()
	}
	for dst, run := range runs {
		if len(run) > 0 {
			rt.workers[dst].inbox.enqueueLocked(run, batches[dst], int32(rt.controlTrack()))
		}
	}
	for _, w := range rt.workers {
		w.inbox.mu.Unlock()
	}
	return nil
}

// Close stops the workers. The runtime cannot be reused. Any message a
// straggler flushes at a closed mailbox is dropped silently (Close is
// only legal on a quiescent runtime, so no dropped message carries
// live work).
func (rt *Runtime) Close() {
	if rt.stop != nil {
		// The transport's carrier takes Shutdown in its own Close, which
		// would return early, leaking its connections, were it taken here.
		rt.stop()
		return
	}
	if !rt.Shutdown() {
		return
	}
	for _, w := range rt.workers {
		w.inbox.Close()
	}
	for _, w := range rt.workers {
		w.done.Wait()
	}
}

// loop is the worker goroutine: one match processor of the mapping. It
// consumes its mailbox one drained batch at a time — one lock
// acquisition per turn, however many messages arrived — hands the batch
// to the step as one delivery, and flushes the step's coalesced
// outgoing activations once, at the end of the turn. One Handle per
// turn is a correctness condition, not an economy: a hand-off's share
// (Driver.handOff) is a breadth-first frontier, and expanding one of
// its activations before the rest are queued lets a derived delete
// overtake the add it cancels.
func (w *worker) loop() {
	defer w.done.Done()
	rt := w.rt
	for {
		var ok bool
		var stamps []recvStamp
		if w.chaos == nil {
			w.batch, stamps, ok = w.inbox.Drain(w.batch, w.stampBuf)
		} else {
			w.batch, stamps, ok = w.chaos.nextBatch(w)
		}
		if !ok {
			return
		}
		track := w.step.ctrack
		var t0 int64
		var cycle int32
		if track != nil {
			t0, cycle = rt.Now(), rt.curCycle.Load()
			track.Mark(obs.EvTurnBegin, t0, cycle, 0, 0)
			for _, s := range stamps {
				track.Recv(t0, cycle, s.Batch, s.Src, s.Count)
			}
		}
		w.stampBuf = stamps // donate the stamp buffer back next drain
		w.step.BeginTurn(t0, cycle)
		w.step.Handle(w.batch)
		w.flush()
		n, turn := len(w.batch), w.step.EndTurn(true)
		track.Mark(obs.EvTurnEnd, rt.Now(), cycle, int32(n), int32(turn.Handled))
		rt.TurnDone(w.id, n, turn)
	}
}

// flush ships what the turn left behind: the whole flush is registered
// with the driver before any message becomes visible, then each
// destination mailbox is locked once.
func (w *worker) flush() {
	rt, s := w.rt, w.step
	if s.Pending > 0 {
		rt.Sending(w.id, s.Pending)
		total := s.Pending
		s.Pending = 0
		ts := rt.Now()
		for dst, buf := range s.Out {
			if len(buf) == 0 {
				continue
			}
			batch := rt.causal.NextBatch()
			s.ctrack.Send(ts, s.turnCycle, batch, int32(dst), int32(len(buf)))
			rt.workers[dst].inbox.PushBatch(buf, batch, int32(w.id))
			s.Out[dst] = buf[:0]
		}
		s.ctrack.Flush(ts, s.turnCycle, int32(total))
	}
	for _, mv := range s.Moved {
		rt.Shipping(w.id, mv.Contents.Entries())
		batch := rt.causal.NextBatch()
		s.ctrack.Send(rt.Now(), s.turnCycle, batch, mv.Dst, 1)
		rt.workers[mv.Dst].inbox.Push(Message{Kind: MsgMigrateIn, Inject: mv.Contents}, batch, int32(w.id))
	}
	s.Moved = s.Moved[:0]
}
