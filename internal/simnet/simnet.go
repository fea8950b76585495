// Package simnet is a deterministic discrete-event simulator of a
// message-passing computer, the substrate under the paper's Nectar
// simulation (Section 4). It models a set of processors with FIFO task
// queues connected by a network with configurable wire latency and
// per-message send/receive processing overheads (Table 5-1), and it
// accounts busy/idle time per processor and occupancy of the network.
//
// The simulator is generic: clients (the mapping in internal/core)
// provide a Handler that is invoked when a task starts on a processor;
// the handler accrues busy time and emits local tasks and messages
// through the Ctx. Time is int64 nanoseconds, so the paper's 0.5 µs
// latency is exactly representable.
//
// The event loop is built for replaying fine-grained traces (~100
// simulated instructions per task over hundreds of thousands of
// events): an event is a 16-byte key beside a slab of bodies, waiting
// in one of two FIFO lanes per processor — nearly every event is
// pushed in time order within its sender's stream — or, when it comes
// out of order, in a 4-ary min-heap; a pop merges the two. Pending
// tasks live in per-processor ring buffers, and all optional
// accounting (network occupancy, a radix-sorted union of flights;
// flight recording) is gated off the hot path, so a warmed-up
// uninstrumented run performs no allocations at all. Reset
// re-initialises a Sim and keeps that storage, so a client that runs
// many simulations warms it once.
package simnet

import (
	"fmt"
	"slices"

	"mpcrete/internal/obs"
)

// Time is simulated time in nanoseconds.
type Time int64

// Microseconds converts a time to float µs (for reporting).
func (t Time) Microseconds() float64 { return float64(t) / 1000 }

// US builds a Time from microseconds.
func US(us float64) Time { return Time(us * 1000) }

// Config describes the machine.
type Config struct {
	// Procs is the number of processors.
	Procs int
	// SendOverhead is the processor time consumed to send one message.
	SendOverhead Time
	// RecvOverhead is the processor time consumed to receive one
	// message, paid before the message's task runs.
	RecvOverhead Time
	// Latency is the base network transit time of a message.
	Latency Time
	// Topology, when non-nil, adds PerHop per link of the route from
	// src to dst to each message's transit time. A nil topology is distance-insensitive
	// (wormhole-style), as the paper assumes for Nectar.
	Topology Topology
	// PerHop is the additional transit time per network hop; only
	// meaningful with a non-nil Topology.
	PerHop Time
	// Contention, when set, models each network link as carrying one
	// message at a time (PerHop per link per message); requires a
	// Topology. Without it the network has infinite bandwidth,
	// as in the paper's simulator.
	Contention bool
	// SoftwareBroadcast, when set, models Broadcast as one
	// point-to-point send per destination (the sender pays SendOverhead
	// per destination); the default models hardware broadcast (one
	// SendOverhead total), as on Nectar.
	SoftwareBroadcast bool
	// TrackNetwork enables network-occupancy accounting: with it set,
	// Stats reports NetworkBusy (the union of message in-flight
	// intervals — the §5.1 97-98% idleness figure). It is opt-in
	// because the accounting costs memory and time per message; without
	// it (and without a recorder) the send path does no flight
	// bookkeeping at all and Stats reports NetworkBusy = 0.
	TrackNetwork bool
	// PendingHint preallocates each processor's pending-task ring to
	// hold at least this many tasks, sized from trace statistics by
	// clients that know their workload. Zero means a small default;
	// rings grow on demand either way.
	PendingHint int
}

// Payload is an opaque task description interpreted by the Handler.
type Payload any

// Handler runs a task. It must call Ctx methods to accrue busy time
// and to emit follow-on work; a task with zero accrued time is legal.
type Handler func(ctx *Ctx, p Payload)

type eventKind uint8

const (
	evReady  eventKind = iota // task becomes ready on a processor
	evFree                    // processor finishes its current task
	evDepart                  // message enters the network (contention)
)

// Each processor owns two lanes of the event queue (heap.go). Its self
// lane holds its follow-on tasks (Ctx.Local) and its frees: a task's
// follow-ons are at its task-local clock, its free is at its end, and
// the next task on the processor starts no earlier. Its out lane holds
// the messages it sends — the arrivals, or under Contention the
// departures — which follow the same clock and, with a constant
// transit, keep its order.
func selfLane(p int) int { return 2 * p }
func outLane(p int) int  { return 2*p + 1 }

// pendTask is one entry of a processor's FIFO.
type pendTask struct {
	payload Payload
	recv    bool
}

// taskRing is a growable power-of-two ring buffer FIFO. The previous
// implementation re-sliced a shared slice (pending = pending[1:]),
// which leaked capacity and re-allocated continuously; the ring
// reaches a steady state after warm-up and never allocates again.
type taskRing struct {
	buf  []pendTask // len(buf) is a power of two (or zero)
	head int
	n    int
}

func (r *taskRing) len() int { return r.n }

// reset empties the ring and keeps its buffer; a pop has already
// cleared every entry it released.
func (r *taskRing) reset() {
	if r.n > 0 {
		clear(r.buf)
	}
	r.head, r.n = 0, 0
}

func (r *taskRing) push(t pendTask) {
	if r.n == len(r.buf) {
		r.grow(2 * r.n)
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = t
	r.n++
}

func (r *taskRing) pop() pendTask {
	t := r.buf[r.head]
	r.buf[r.head] = pendTask{} // release the payload reference
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return t
}

// grow re-allocates the ring to hold at least want entries (rounded up
// to a power of two), unwrapping the live region.
func (r *taskRing) grow(want int) {
	size := 8
	for size < want {
		size *= 2
	}
	buf := make([]pendTask, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = buf, 0
}

type proc struct {
	id        int
	pending   taskRing // FIFO: ordered by ready-event arrival
	busyUntil Time
	running   bool

	busy     Time // total busy time (work + overheads)
	sendOver Time
	recvOver Time
	tasks    int
	msgsIn   int
	msgsOut  int

	// Idle-gap accounting (the quantitative form of Fig 5-5's busy/idle
	// alternation): a gap is the interval between two non-empty busy
	// spans. Zero-work tasks neither start nor end a gap.
	everBusy bool
	lastEnd  Time
	gaps     int
	gapMax   Time
	gapTotal Time

	maxQueue int // high-water mark of the pending FIFO

	// track is the processor's flight-recorder track and trackID its
	// index, set while a recorder is attached (SetRecorder).
	track   *obs.TrackRecorder
	trackID int32
}

// ProcStats reports one processor's accounting.
type ProcStats struct {
	Busy         Time
	SendOverhead Time
	RecvOverhead Time
	Tasks        int
	MsgsIn       int
	MsgsOut      int
	// IdleGaps counts the gaps between consecutive busy spans;
	// IdleGapMax and IdleGapTotal are the largest and summed gap
	// lengths. Leading idle (before the first task) and trailing idle
	// (after the last) are not gaps.
	IdleGaps     int
	IdleGapMax   Time
	IdleGapTotal Time
	// MaxQueueDepth is the high-water mark of the task FIFO.
	MaxQueueDepth int
}

// Stats reports a completed simulation interval.
type Stats struct {
	Makespan Time
	Procs    []ProcStats
	Messages int
	// NetworkBusy is the union of message in-flight intervals; it is
	// only accounted (and non-zero) with Config.TrackNetwork set.
	NetworkBusy Time
	// ContentionDelay is the total time messages spent waiting for
	// links beyond their uncontended transit (zero unless
	// Config.Contention is set).
	ContentionDelay Time
}

// BusyTotal sums processor busy time.
func (s *Stats) BusyTotal() Time {
	var t Time
	for _, p := range s.Procs {
		t += p.Busy
	}
	return t
}

// NetworkIdleFraction is 1 - NetworkBusy/Makespan (the 97-98% figure
// of Section 5.1).
func (s *Stats) NetworkIdleFraction() float64 {
	if s.Makespan == 0 {
		return 1
	}
	return 1 - float64(s.NetworkBusy)/float64(s.Makespan)
}

// IdleGapSummary aggregates idle gaps over processors: total count
// and the largest single gap.
func (s *Stats) IdleGapSummary() (gaps int, max Time) {
	for _, p := range s.Procs {
		gaps += p.IdleGaps
		if p.IdleGapMax > max {
			max = p.IdleGapMax
		}
	}
	return gaps, max
}

// AvgUtilization is mean busy/makespan over processors.
func (s *Stats) AvgUtilization() float64 {
	if s.Makespan == 0 || len(s.Procs) == 0 {
		return 0
	}
	var busy Time
	for _, p := range s.Procs {
		busy += p.Busy
	}
	return float64(busy) / (float64(s.Makespan) * float64(len(s.Procs)))
}

// Sim is a simulator instance. Drive it by injecting initial tasks and
// calling Run; the clock persists across Run calls, so a client can
// alternate injection and draining to model synchronized phases
// (MRA cycles) with oracle termination detection, as the paper's
// simulator does.
type Sim struct {
	cfg       Config
	handler   Handler
	events    eventQueue
	procs     []proc
	clock     Time
	msgs      int
	processed int64
	net       netAcct
	ctx       Ctx        // reused across tasks; valid only during a handler call
	cont      contention // link reservations; used only with cfg.Contention
	route     []Link     // routing scratch (transit, contention)
	rec       *obs.CausalRecorder
	// phase counts the Run calls since Reset: the cycle number the
	// flight events of the current Run carry.
	phase int32
}

type flight struct{ dep, arr Time }

// New creates a simulator.
func New(cfg Config, handler Handler) *Sim {
	s := new(Sim)
	s.Reset(cfg, handler)
	return s
}

// Reset re-initialises the simulator for a new machine and handler, as
// New would, and detaches any recorder. It keeps the storage the
// simulator has grown — the event queue and its lanes, the pending
// rings and the flight buffers — so a warmed Sim runs again without
// allocating.
func (s *Sim) Reset(cfg Config, handler Handler) {
	if cfg.Procs <= 0 {
		panic(fmt.Sprintf("simnet: Procs = %d", cfg.Procs))
	}
	if handler == nil {
		panic("simnet: nil handler")
	}
	if err := validateContention(cfg); err != nil {
		panic(err.Error())
	}
	s.events.reset(2 * cfg.Procs)
	if cfg.Contention && s.cont.free == nil {
		s.cont.free = map[Link]Time{}
	}
	clear(s.cont.free)
	*s = Sim{
		cfg:     cfg,
		handler: handler,
		events:  s.events,
		procs:   s.procs,
		net:     netAcct{open: s.net.open[:0], spare: s.net.spare},
		cont:    contention{free: s.cont.free},
		route:   s.route,
	}
	// Processors beyond the old length keep their rings in the backing
	// array, so a machine that shrinks and grows back regains them.
	if n := cfg.Procs - cap(s.procs); n > 0 {
		s.procs = append(s.procs[:cap(s.procs)], make([]proc, n)...)
	}
	s.procs = s.procs[:cfg.Procs]
	for i := range s.procs {
		p := &s.procs[i]
		ring := p.pending
		ring.reset()
		if cfg.PendingHint > len(ring.buf) {
			ring.grow(cfg.PendingHint)
		}
		*p = proc{id: i, pending: ring}
	}
}

// Config returns the machine description.
func (s *Sim) Config() Config { return s.cfg }

// Now returns the simulation clock.
func (s *Sim) Now() Time { return s.clock }

// Messages returns the number of messages sent so far (cheap, unlike
// a full Stats snapshot).
func (s *Sim) Messages() int { return s.msgs }

// EventsProcessed returns the number of discrete events the simulator
// has executed — the natural unit of simulation throughput.
func (s *Sim) EventsProcessed() int64 { return s.processed }

// SetRecorder attaches a flight recorder (nil detaches), on which
// processor p records on track tracks[p]. A task is a turn, from the
// start to the end of its busy time; the end's Count is the messages it
// consumed (0 or 1), its Depth the activations it reported through
// Ctx.Handle. A message is a send on its sender's track at departure
// and a receive on its receiver's at arrival, joined by one batch stamp;
// a hardware broadcast is one send to obs.BroadcastDst, whose receives
// all carry its stamp. Every event carries the number of the Run that
// recorded it as its cycle. A receive is recorded when its flight is
// known, ahead of its arrival, so a ring holds its track's events in
// the order the simulator made them, not in time order: size it to
// keep them all (core.NewFlightRecorder does).
func (s *Sim) SetRecorder(rec *obs.CausalRecorder, tracks []int32) {
	s.rec = rec
	for i := range s.procs {
		p := &s.procs[i]
		p.track = nil
		if rec != nil {
			p.track, p.trackID = rec.Track(int(tracks[i])), tracks[i]
		}
	}
}

// Inject schedules a task on processor p at time at (which must not be
// in the past).
func (s *Sim) Inject(p int, payload Payload, at Time) {
	if at < s.clock {
		panic(fmt.Sprintf("simnet: inject at %d before clock %d", at, s.clock))
	}
	s.events.push(at, body{kind: evReady, proc: int32(p), payload: payload})
}

// Run processes events until the machine quiesces, returning the
// clock. Call Stats for accounting.
func (s *Sim) Run() Time {
	s.phase++
	for !s.events.empty() {
		at, e := s.events.pop()
		s.processed++
		s.clock = at
		p := &s.procs[e.proc]
		switch e.kind {
		case evDepart:
			s.route = s.cfg.Topology.Route(int(e.from), int(e.proc), s.route)
			arr := s.cont.traverse(&s.cfg, s.route, at)
			s.trackFlight(int(e.from), int(e.proc), at, arr, e.batch)
			s.events.push(arr, body{kind: evReady, proc: e.proc, payload: e.payload, recv: e.recv})
			continue
		case evReady:
			p.pending.push(pendTask{payload: e.payload, recv: e.recv})
			if n := p.pending.len(); n > p.maxQueue {
				p.maxQueue = n
			}
		case evFree:
			p.running = false
		}
		s.tryStart(p)
	}
	return s.clock
}

func (s *Sim) tryStart(p *proc) {
	if p.running || p.pending.len() == 0 {
		return
	}
	tk := p.pending.pop()
	p.running = true

	start := s.clock
	if p.busyUntil > start {
		// Defensive: cannot happen, the free event releases exactly at
		// busyUntil.
		start = p.busyUntil
	}
	s.ctx = Ctx{sim: s, proc: p, start: start}
	ctx := &s.ctx
	if p.track != nil {
		p.track.Mark(obs.EvTurnBegin, int64(start), s.phase, 0, 0)
	}
	if tk.recv {
		ctx.accum += s.cfg.RecvOverhead
		p.recvOver += s.cfg.RecvOverhead
		p.msgsIn++
	}
	s.handler(ctx, tk.payload)

	end := start + ctx.accum
	p.busyUntil = end
	p.busy += ctx.accum
	p.tasks++
	if ctx.accum > 0 {
		if p.everBusy && start > p.lastEnd {
			gap := start - p.lastEnd
			p.gaps++
			p.gapTotal += gap
			if gap > p.gapMax {
				p.gapMax = gap
			}
		}
		p.everBusy = true
		if end > p.lastEnd {
			p.lastEnd = end
		}
	}
	if p.track != nil {
		var consumed int32
		if tk.recv {
			consumed = 1
		}
		p.track.Mark(obs.EvTurnEnd, int64(end), s.phase, consumed, ctx.handles)
	}
	s.events.pushLane(selfLane(p.id), end, body{kind: evFree, proc: int32(p.id)})
}

// trackFlight feeds a message transit into the opt-in occupancy
// accounting and the flight recorder, whichever are attached: the
// recorder gets the receive, stamped batch, at arrival.
func (s *Sim) trackFlight(from, to int, dep, arr Time, batch int32) {
	if s.cfg.TrackNetwork {
		s.net.add(flight{dep, arr}, s.clock)
	}
	if s.rec != nil {
		s.procs[to].track.Recv(int64(arr), s.phase, batch, s.procs[from].trackID, 1)
	}
}

// Stats snapshots accounting up to the current clock.
func (s *Sim) Stats() Stats {
	st := Stats{Makespan: s.clock, Messages: s.msgs}
	st.Procs = make([]ProcStats, 0, len(s.procs))
	for i := range s.procs {
		p := &s.procs[i]
		st.Procs = append(st.Procs, ProcStats{
			Busy:          p.busy,
			SendOverhead:  p.sendOver,
			RecvOverhead:  p.recvOver,
			Tasks:         p.tasks,
			MsgsIn:        p.msgsIn,
			MsgsOut:       p.msgsOut,
			IdleGaps:      p.gaps,
			IdleGapMax:    p.gapMax,
			IdleGapTotal:  p.gapTotal,
			MaxQueueDepth: p.maxQueue,
		})
	}
	st.NetworkBusy = s.net.total(s.clock)
	st.ContentionDelay = s.cont.delay
	return st
}

// netAcct accumulates the union length of message in-flight intervals
// in bounded memory. Flights arrive unsorted (departure times are
// task-local clocks ahead of the global clock), so they buffer until a
// threshold and are then sorted, merged, and folded: a merged interval
// that ends at or before the current clock can never be extended —
// every future flight departs at or after the clock, and a departure
// exactly at a folded endpoint contributes the same union length as
// its merged continuation would — so its length moves into a running
// total and its slot is reclaimed. The previous implementation kept
// every flight for a terminal sort, which grew without bound on long
// sweeps.
type netAcct struct {
	open   []flight
	spare  []flight // the radix sort's second buffer
	closed Time
}

// netCompactAt bounds the open-flight buffer: 4096 entries is 64 KiB
// per buffer.
const netCompactAt = 4096

func (n *netAcct) add(f flight, now Time) {
	n.open = append(n.open, f)
	if len(n.open) >= netCompactAt {
		n.compact(now)
	}
}

// compact sorts and merges the open buffer in place, folding closed
// intervals into the running total. Afterwards open holds only
// disjoint intervals that extend past now, in sorted order.
func (n *netAcct) compact(now Time) {
	if len(n.open) == 0 {
		return
	}
	n.sortByDep()
	out := n.open[:0]
	cur := n.open[0]
	fold := func(f flight) {
		if f.arr <= now {
			n.closed += f.arr - f.dep
		} else {
			out = append(out, f)
		}
	}
	for _, f := range n.open[1:] {
		if f.dep > cur.arr {
			fold(cur)
			cur = f
		} else if f.arr > cur.arr {
			cur.arr = f.arr
		}
	}
	fold(cur)
	n.open = out
}

// sortByDep orders the open buffer by departure with a least-
// significant-digit radix sort over dep − min(dep), a byte per pass and
// as many passes as the span of departures needs (three up to 16.7 ms,
// eight at most). Each pass moves the
// flights between open and spare, which trade places when it is done.
// The order among equal departures does not matter to the merge.
func (n *netAcct) sortByDep() {
	src := n.open
	lo, hi := src[0].dep, src[0].dep
	for _, f := range src[1:] {
		lo, hi = min(lo, f.dep), max(hi, f.dep)
	}
	span := uint64(hi - lo)
	dst := slices.Grow(n.spare[:0], len(src))[:len(src)]
	var count [256]int
	for shift := uint(0); shift < 64 && span>>shift != 0; shift += 8 {
		clear(count[:])
		for _, f := range src {
			count[uint8(uint64(f.dep-lo)>>shift)]++
		}
		pos := 0
		for d, c := range count {
			count[d] = pos
			pos += c
		}
		for _, f := range src {
			d := uint8(uint64(f.dep-lo) >> shift)
			dst[count[d]] = f
			count[d]++
		}
		src, dst = dst, src
	}
	n.open, n.spare = src, dst[:0]
}

// total returns the union length of all recorded flights.
func (n *netAcct) total(now Time) Time {
	n.compact(now)
	t := n.closed
	for _, f := range n.open {
		t += f.arr - f.dep
	}
	return t
}

// Ctx is the execution context of a running task. It is owned by the
// simulator and valid only for the duration of the handler call; a
// handler must not retain it.
type Ctx struct {
	sim     *Sim
	proc    *proc
	start   Time
	accum   Time
	handles int32 // Handle calls so far
}

// Proc returns the processor id the task runs on.
func (c *Ctx) Proc() int { return c.proc.id }

// Now returns the task-local clock: start time plus accrued busy time.
func (c *Ctx) Now() Time { return c.start + c.accum }

// Busy accrues d of processing time.
func (c *Ctx) Busy(d Time) {
	if d < 0 {
		panic("simnet: negative busy time")
	}
	c.accum += d
}

// Handle records, on the processor's flight-recorder track at the
// task-local clock, one activation the task performs: its bucket, its
// dependency depth and its fan-out. It costs no time, and nothing
// without a recorder.
func (c *Ctx) Handle(bucket, depth, fanout int) {
	if t := c.proc.track; t != nil {
		c.handles++
		t.Handle(int64(c.Now()), c.sim.phase, int32(bucket), int32(depth), int32(fanout))
	}
}

// Local enqueues a follow-on task on this processor, ready at the
// task-local clock, with no communication cost.
func (c *Ctx) Local(payload Payload) {
	c.sim.events.pushLane(selfLane(c.proc.id), c.Now(), body{kind: evReady, proc: int32(c.proc.id), payload: payload})
}

// Send transmits a message to processor `to`. The sender pays
// SendOverhead (busy time); the message arrives Latency later and its
// receiver pays RecvOverhead before the payload task runs. Sending to
// self is modeled with the same costs.
func (c *Ctx) Send(to int, payload Payload) {
	s := c.sim
	c.accum += s.cfg.SendOverhead
	c.proc.sendOver += s.cfg.SendOverhead
	c.proc.msgsOut++
	dep := c.Now()
	s.msgs++
	var batch int32
	if t := c.proc.track; t != nil {
		batch = s.rec.NextBatch()
		t.Send(int64(dep), s.phase, batch, s.procs[to].trackID, 1)
	}
	if s.cfg.Contention {
		s.events.pushLane(outLane(c.proc.id), dep, body{kind: evDepart, proc: int32(to), from: int32(c.proc.id), batch: batch, payload: payload, recv: true})
		return
	}
	arr := dep + s.transit(c.proc.id, to)
	s.trackFlight(c.proc.id, to, dep, arr, batch)
	s.events.pushLane(outLane(c.proc.id), arr, body{kind: evReady, proc: int32(to), payload: payload, recv: true})
}

// Broadcast transmits a message to every processor in dests. With
// hardware broadcast (the default) the sender pays one SendOverhead;
// with Config.SoftwareBroadcast it pays one per destination and the
// departures are serialized.
func (c *Ctx) Broadcast(dests []int, payload Payload) {
	s := c.sim
	if s.cfg.SoftwareBroadcast {
		for _, to := range dests {
			c.Send(to, payload)
		}
		return
	}
	c.accum += s.cfg.SendOverhead
	c.proc.sendOver += s.cfg.SendOverhead
	c.proc.msgsOut += len(dests)
	dep := c.Now()
	var batch int32
	if t := c.proc.track; t != nil {
		batch = s.rec.NextBatch()
		t.Send(int64(dep), s.phase, batch, obs.BroadcastDst, int32(len(dests)))
	}
	for _, to := range dests {
		s.msgs++
		if s.cfg.Contention {
			s.events.pushLane(outLane(c.proc.id), dep, body{kind: evDepart, proc: int32(to), from: int32(c.proc.id), batch: batch, payload: payload, recv: true})
			continue
		}
		arr := dep + s.transit(c.proc.id, to)
		s.trackFlight(c.proc.id, to, dep, arr, batch)
		s.events.pushLane(outLane(c.proc.id), arr, body{kind: evReady, proc: int32(to), payload: payload, recv: true})
	}
}
