package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mpcrete/internal/obs"
	"mpcrete/internal/rete"
	"mpcrete/internal/sched"
	"mpcrete/internal/termdet"
)

// Carrier is what the cycle driver needs from a message plane: a way to
// put messages in front of workers. The driver has registered every
// message with the termination detector before it calls Broadcast or
// Deliver. An error ends the cycle; a carrier that lost a registered
// message also calls Fail, since no later cycle can reach quiescence.
type Carrier interface {
	// Broadcast delivers one MsgCycle message to every worker under one
	// causal batch stamp (Fig 3-3).
	Broadcast(m Message, batch int32) error
	// Deliver ships a coalesced run of root activations to worker dst
	// (Fig 3-2).
	Deliver(dst int, ms []Message, batch int32) error
	// Migrate delivers a migration order on the quiescent machine:
	// newPart to every worker step (SetPartition), and moves[w] — sorted
	// by bucket, nil when w loses nothing — to worker w as a
	// MsgMigrateOut. The carrier registers the messages it sends with
	// Sending; how many that is depends on whether its workers share
	// the driver's memory.
	Migrate(newPart sched.Partition, moves [][]BucketMove) error
}

// Driver is the cycle driver: the control processor of the paper's
// mapping, written once for every carrier. It owns the termination
// detectors, root broadcast (Fig 3-3) or routing (Fig 3-2), the
// conflict-set intake and netting, the rebalance detector and the
// migration protocol, the causal control track, cycle numbering, and
// the run's statistics. A carrier embeds it: Runtime adds goroutine
// workers over a Transport, transport.Control adds worker connections.
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

	// cyclePkt is the broadcast packet, reused across cycles and shared
	// read-only by every worker. The root-routing state (RouteRoots
	// mode) is the control side's constant-test processor plus reusable
	// per-destination buffers.
	cyclePkt    *CyclePacket
	rootProc    *rete.Processor
	rootBufs    [][]Message
	rootScratch []rete.Activation

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

	rec   *obs.Recorder
	epoch time.Time

	// causal is the flight recorder (nil unless Options.Causal);
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
// driver that delivers through c. The Transport, Recorder, Metrics and
// ChaosSeed fields may be left zero by carriers that have no use for
// them.
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
		cyclePkt:  &CyclePacket{},
		counter:   termdet.NewCounter(),
		processed: make([]atomic.Int64, opts.Workers),
		msgsSent:  make([]atomic.Int64, opts.Workers),
		rec:       opts.Recorder,
		epoch:     time.Now(),
		yield:     runtime.Gosched,
	}
	if opts.Causal != nil {
		if got := opts.Causal.Tracks(); got != opts.Workers+1 {
			return nil, fmt.Errorf("parallel: causal recorder has %d tracks, want Workers+1 = %d (use NewFlightRecorder)", got, opts.Workers+1)
		}
		d.causal = opts.Causal
		d.ctlTrack = opts.Causal.Track(opts.Workers)
	}
	if d.causal != nil || d.rec != nil {
		// Both recorders use the same tracks: workers first, control last.
		for i := 0; i <= opts.Workers; i++ {
			name := "control"
			if i < opts.Workers {
				name = fmt.Sprintf("worker %d", i)
			}
			d.causal.SetTrackName(i, name)
			d.rec.SetTrack(i, name)
		}
	}
	if opts.RouteRoots {
		d.rootProc = rete.NewProcessor(net, opts.NBuckets)
		d.rootBufs = make([][]Message, opts.Workers)
	}
	if opts.ChaosSeed != 0 {
		d.yield = newChaos(opts.ChaosSeed, opts.Workers).yield
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

// Now is the recorder clock: wall-clock nanoseconds since NewDriver.
func (d *Driver) Now() int64 { return time.Since(d.epoch).Nanoseconds() }

// controlTrack is the track of the control side in both recorders (the
// workers occupy tracks 0..Workers-1); it is also the control's source
// id in batch stamps and in Sending.
func (d *Driver) controlTrack() int { return d.opts.Workers }

// CurrentCycle is the 1-based number of the cycle in progress (or last
// completed), as stamped on causal events.
func (d *Driver) CurrentCycle() int32 { return d.curCycle.Load() }

// Partition returns the current bucket-to-worker assignment. The slice
// is shared; callers must not mutate it.
func (d *Driver) Partition() sched.Partition { return d.opts.Partition }

// Sending registers k activation messages from src (a worker id, or
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

// Cycle runs one parallel match phase and returns the conflict-set
// deltas, netted per instantiation and deterministically ordered
// (delivery order across workers is not deterministic; the netted set
// is). A lost message — a broken connection, a malformed frame — is an
// error, never a hang.
func (d *Driver) Cycle(changes []rete.Change) ([]rete.InstChange, error) {
	if d.Closed() {
		return nil, errors.New("parallel: Cycle after Close")
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	d.insts = d.insts[:0] // quiescent: nobody holds instMu

	cycle := d.curCycle.Add(1)
	if d.causal != nil {
		d.causal.BeginCycle(cycle, d.Now())
	}
	var err error
	if d.opts.RouteRoots {
		err = d.routeRoots(changes)
	} else {
		err = d.broadcast(changes)
	}
	if err == nil {
		err = d.quiesce()
	}
	d.cyclePkt.Changes = nil // release the caller's slice
	if err != nil {
		return nil, err
	}
	if d.causal != nil {
		// Quiescent again: every worker's events for this cycle are
		// recorded, so the aggregate commit observes them all.
		d.causal.EndCycle(cycle, d.Now())
	}
	if d.balancer != nil || d.opts.ForceMigrate != nil {
		if err := d.maybeRebalance(cycle); err != nil {
			return nil, err
		}
	}
	return d.netting.net(d.insts), nil
}

// quiesce waits for global quiescence and cross-checks the two
// detectors against each other.
func (d *Driver) quiesce() error {
	var waitStart int64
	if d.rec != nil {
		waitStart = d.Now()
	}
	waves := 0
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
	d.counter.Wait()
	if err := d.Err(); err != nil {
		return err
	}
	// At quiescence every message registered as sent must have been
	// registered received, or a carrier's accounting has diverged from
	// the credit counter.
	if sent, recv := d.four.Poll(); sent != recv {
		return fmt.Errorf("parallel: channel counts diverged at quiescence: sent=%d recv=%d", sent, recv)
	}
	if d.rec != nil {
		d.rec.Span(d.controlTrack(), "quiesce", waitStart, d.Now(),
			obs.Label{Key: "waves", Value: strconv.Itoa(waves)})
	}
	return nil
}

// broadcast ships the cycle packet to every worker (Fig 3-3): one
// pooled packet shared read-only, one outstanding-work registration
// and one sent-counter update for the whole wave.
func (d *Driver) broadcast(changes []rete.Change) error {
	if d.rec != nil {
		d.rec.Instant(d.controlTrack(), "cycle-broadcast", d.Now(),
			obs.Label{Key: "changes", Value: strconv.Itoa(len(changes))})
	}
	d.cyclePkt.Changes = changes
	d.Sending(d.controlTrack(), d.opts.Workers)
	// One broadcast send event covers the whole wave; every worker
	// receives the same batch stamp, so each recv joins back to this
	// send.
	batch := d.causal.NextBatch()
	if d.ctlTrack != nil {
		d.ctlTrack.Send(d.Now(), d.curCycle.Load(), batch, obs.BroadcastDst, int32(d.opts.Workers))
	}
	return d.carrier.Broadcast(Message{Kind: MsgCycle, Cycle: d.cyclePkt}, batch)
}

// routeRoots runs the constant tests once on the control side and
// hash-routes each root activation to its owner (Fig 3-2), coalescing
// per destination so each worker gets at most one delivery.
func (d *Driver) routeRoots(changes []rete.Change) error {
	sent := 0
	for _, ch := range changes {
		d.rootScratch = d.rootProc.RootActivationsInto(ch, d.rootScratch[:0])
		for _, act := range d.rootScratch {
			b := d.rootProc.Bucket(act)
			owner := d.opts.Partition[b]
			d.rootBufs[owner] = append(d.rootBufs[owner], Message{Kind: MsgAct, Bucket: int32(b), Depth: 1, Act: act})
			sent++
		}
	}
	if d.rec != nil {
		d.rec.Instant(d.controlTrack(), "cycle-route", d.Now(),
			obs.Label{Key: "changes", Value: strconv.Itoa(len(changes))},
			obs.Label{Key: "roots", Value: strconv.Itoa(sent)})
	}
	if sent == 0 {
		return nil
	}
	d.Sending(d.controlTrack(), sent)
	var ts int64
	if d.ctlTrack != nil {
		ts = d.Now()
	}
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
}

// Stats snapshots per-worker counters.
func (d *Driver) Stats() Stats {
	s := Stats{
		Processed: make([]int64, len(d.processed)),
		MsgsSent:  make([]int64, len(d.msgsSent)),
		Insts:     d.instCount.Load(),
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

// netter nets raw deltas per instantiation key: within one match
// phase an instantiation may be added and deleted several times (e.g.
// through negative-node transients whose interleaving is
// order-dependent); only the net effect is meaningful, and netting
// makes the result independent of worker scheduling. The index map,
// accumulators and key buffer are scratch reused across cycles — a key
// becomes a string only the first time the phase sees it; the returned
// slice is freshly allocated (callers may retain it).
type netter struct {
	idx  map[string]int
	accs []netAcc
	keys []string
	kbuf []byte
}

type netAcc struct {
	net  int
	last rete.InstChange
}

func (n *netter) net(raw []rete.InstChange) []rete.InstChange {
	if len(raw) == 0 {
		return nil
	}
	if n.idx == nil {
		n.idx = make(map[string]int)
	} else {
		clear(n.idx)
	}
	n.accs = n.accs[:0]
	n.keys = n.keys[:0]
	for _, ic := range raw {
		n.kbuf = ic.AppendKey(n.kbuf[:0])
		i, ok := n.idx[string(n.kbuf)]
		if !ok {
			k := string(n.kbuf)
			i = len(n.accs)
			n.idx[k] = i
			n.accs = append(n.accs, netAcc{})
			n.keys = append(n.keys, k)
		}
		a := &n.accs[i]
		if ic.Tag == rete.Add {
			a.net++
		} else {
			a.net--
		}
		a.last = ic
	}
	standing := 0
	for i := range n.accs {
		if n.accs[i].net != 0 {
			standing++
		}
	}
	if standing == 0 {
		return nil
	}
	sort.Strings(n.keys)
	out := make([]rete.InstChange, 0, standing)
	for _, k := range n.keys {
		a := &n.accs[n.idx[k]]
		if a.net == 0 {
			continue
		}
		ic := a.last
		ic.Tag = rete.Add
		if a.net < 0 {
			ic.Tag = rete.Delete
		}
		out = append(out, ic)
	}
	return out
}
