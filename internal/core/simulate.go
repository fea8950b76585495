package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"mpcrete/internal/obs"
	"mpcrete/internal/sched"
	"mpcrete/internal/simnet"
	"mpcrete/internal/trace"
)

// Config describes one simulation run.
type Config struct {
	// MatchProcs is the number of hash-table partitions P. In the
	// default (Fig 3-3) mapping each partition is one processor; with
	// Pairs set (Fig 3-2) each partition is a left/right processor
	// pair, so the machine has 2P match processors.
	MatchProcs int
	// Costs is the node-activation cost model (DefaultCosts()).
	Costs CostModel
	// Overhead is the message-processing overhead setting (Table 5-1).
	Overhead OverheadSetting
	// Latency is the interconnection-network latency (NectarLatency()).
	Latency simnet.Time
	// Topology and PerHop model distance-sensitive networks; nil
	// Topology is the wormhole-style distance-insensitive default.
	Topology simnet.Topology
	// PerHop is the added transit time per hop under Topology.
	PerHop simnet.Time
	// Contention models finite link bandwidth (requires a
	// Topology); the paper's simulator assumed infinite
	// bandwidth, which Section 5.1 justifies by the observed 97-98%
	// network idleness — a claim this switch lets us verify.
	Contention bool
	// Partition maps bucket index -> partition slot; length must equal
	// the trace's NBuckets. Defaults to round-robin when nil.
	Partition sched.Partition
	// PerCycle optionally overrides Partition cycle by cycle (the
	// off-line greedy redistribution experiment).
	PerCycle []sched.Partition
	// Rebalance, when enabled, runs the online adaptive repartitioner:
	// a sched.Balancer observes each cycle's per-bucket load as it
	// completes (no trace foreknowledge — cycle c's partition depends
	// only on cycles < c) and migrates hot buckets at cycle
	// boundaries. Each moved bucket costs two messages (the migrate
	// order to the old owner and the bucket shipment to the new one)
	// plus an extract/inject busy charge on both ends. Incompatible
	// with PerCycle, Pairs, and Replicated.
	Rebalance sched.Rebalance
	// SoftwareBroadcast serializes the cycle-start broadcast into
	// point-to-point sends.
	SoftwareBroadcast bool
	// CentralRoots is an ablation of the multiple-granularity design:
	// instead of every match processor duplicating the constant tests
	// and keeping its own roots, the control processor evaluates the
	// constant tests and ships every root activation as an individual
	// message (the centralized alpha variant of Section 3.2).
	CentralRoots bool
	// Pairs selects the Fig 3-2 processor-pair mapping.
	Pairs bool
	// Recorder, when non-nil, receives the run's flight events, one
	// track per processor: each task a turn, each activation a handle,
	// each message a send and a receive joined by a stamp, and each
	// cycle a CycleRecord, as a live run records them. Build it with
	// NewFlightRecorder; export its Dump with WriteChromeTrace to open
	// the run in Perfetto.
	Recorder *obs.CausalRecorder
	// Metrics, when non-nil, receives the run's metrics: per-cycle
	// activation/message/time series, tokens-per-bucket occupancy,
	// idle-gap and queue-depth distributions, and headline gauges.
	Metrics *obs.Registry
	// Replicated selects the Section 6 continuum's first extreme: every
	// match processor holds a full copy of both hash tables. Tokens
	// are generated once (on the bucket's home processor) but every
	// copy must store every token, so each left token is broadcast and
	// every processor pays its add/delete cost — the "continuous
	// updates among the various copies" the paper anticipates. The
	// other extreme (single master copy) needs no switch: pass a
	// Partition assigning every bucket to slot 0.
	Replicated bool
}

// Result reports a simulated run.
type Result struct {
	Makespan   simnet.Time
	CycleTimes []simnet.Time
	Net        simnet.Stats
	// MsgsPerCycle counts messages sent during each cycle.
	MsgsPerCycle []int
	// LeftActsPerSlot[c][s] counts left activations processed by
	// partition slot s during cycle c (the Fig 5-5 distribution).
	LeftActsPerSlot [][]int
	// ActsPerSlot counts all activations per slot per cycle.
	ActsPerSlot [][]int
	// Insts is the total number of instantiation messages delivered to
	// the control processor.
	Insts int
	// Migrations counts rebalance events (cycle boundaries at which at
	// least one bucket moved); BucketsMoved totals the migrated
	// buckets. Zero unless Config.Rebalance is enabled.
	Migrations   int `json:"migrations,omitempty"`
	BucketsMoved int `json:"buckets_moved,omitempty"`
	// Events counts the discrete events the underlying network
	// simulator executed — the natural unit of simulation throughput
	// (the benchmark's core.ns_per_event divides by it). It is excluded
	// from JSON so the structured experiment documents stay stable.
	Events int64 `json:"-"`
}

// payloads
//
// The hot payloads (actTask, pairCompare — one per node activation)
// travel as pointers drawn from free lists kept with the pooled
// scratch: passing them by value would box one heap object per simnet
// event, which made the allocator the dominant cost of a sweep. A
// payload is recycled by the handler as soon as it has been processed,
// except when the same object was fanned out to several processors
// (Replicated broadcast), which the shared flag marks.

type bcastStart struct{ cycle int } // injected on the control processor
type cyclePacket struct{ cycle int }
type actTask struct {
	cycle  int
	depth  int // in the cycle's dependency chain; roots are 1
	act    *trace.Activation
	shared bool     // delivered to multiple processors; never recycled
	free   *actTask // free-list link
}
type pairCompare struct {
	cycle int
	depth int
	act   *trace.Activation
	free  *pairCompare // free-list link
}
type instMsg struct{}

// migMove is one bucket migration: control orders the old owner to
// extract (first delivery), the old owner ships the contents to the
// new owner (second delivery of the same payload, marked by shipped).
type migMove struct {
	bucket   int
	from, to int
	shipped  bool
}

// simulator carries the run state shared by the handler closures. It
// is pooled scratch: Simulate takes one from the scratch free list,
// runs on it and returns it holding only storage — the simnet.Sim, the
// payload free lists, the owner index, the id lists and the round-robin
// partition — and nothing of the run: no trace, payload, recorder or
// Result.
type simulator struct {
	tr  *trace.Trace
	cfg Config
	sim *simnet.Sim
	res *Result

	// handler is s.handle, bound once: a method value made per run
	// would be an allocation per run.
	handler simnet.Handler

	// matchIDs caches the match-processor id list (it is broadcast to
	// every cycle); others caches, per processor, the list of all other
	// match processors (Replicated fan-out).
	matchIDs []int
	others   [][]int

	// roundRobin is the default partition, filled in place for a run
	// whose Config has none.
	roundRobin sched.Partition
	// owners deals each cycle's roots by owner slot (handlePacket).
	owners ownerIndex

	// bcast and packet are the per-cycle control payloads, reused
	// across cycles: each cycle drains completely before the next is
	// injected, so at most one of each is ever live.
	bcast  bcastStart
	packet cyclePacket

	actFree  *actTask
	pairFree *pairCompare

	// Rebalance precomputation (see planRebalance): the partition in
	// force each cycle and the migrations injected at each cycle start.
	parts []sched.Partition
	migs  [][]migMove

	// tracks maps each processor to its flight-recorder track
	// (trackOf), for a run that records.
	tracks []int32
	// bucketTokens is publishMetrics' count of activations per bucket.
	bucketTokens []int
}

// newAct draws an activation payload from the free list.
func (s *simulator) newAct(cycle, depth int, a *trace.Activation) *actTask {
	t := s.actFree
	if t == nil {
		t = &actTask{}
	} else {
		s.actFree = t.free
	}
	t.cycle, t.depth, t.act, t.shared, t.free = cycle, depth, a, false, nil
	return t
}

// putAct recycles a processed activation payload.
func (s *simulator) putAct(t *actTask) {
	if t.shared {
		return
	}
	t.act = nil
	t.free = s.actFree
	s.actFree = t
}

// newPair / putPair are the pairCompare analogue.
func (s *simulator) newPair(cycle, depth int, a *trace.Activation) *pairCompare {
	t := s.pairFree
	if t == nil {
		t = &pairCompare{}
	} else {
		s.pairFree = t.free
	}
	t.cycle, t.depth, t.act, t.free = cycle, depth, a, nil
	return t
}

func (s *simulator) putPair(t *pairCompare) {
	t.act = nil
	t.free = s.pairFree
	s.pairFree = t
}

// scratch holds simulators between runs. It is a list, not one
// simulator, because the sweep engine's workers call Simulate
// concurrently, and a mutex-guarded list, not a sync.Pool, because a
// collection may empty a pool and the next runs would then grow their
// storage again. It keeps at most GOMAXPROCS simulators, as many as can
// run at once, and sheds the longest idle first: the one just returned
// is sized for the work at hand.
var scratch struct {
	mu   sync.Mutex
	free []*simulator
}

// getScratch takes a simulator from the free list, or makes one.
func getScratch() *simulator {
	scratch.mu.Lock()
	if n := len(scratch.free); n > 0 {
		s := scratch.free[n-1]
		scratch.free[n-1] = nil
		scratch.free = scratch.free[:n-1]
		scratch.mu.Unlock()
		return s
	}
	scratch.mu.Unlock()
	s := new(simulator)
	s.handler = s.handle
	s.sim = simnet.New(simnet.Config{Procs: 1}, s.handler)
	return s
}

// putScratch drops every reference the last run left in s and puts it
// back on the free list.
func putScratch(s *simulator) {
	s.sim.SetRecorder(nil, nil)
	s.tr, s.cfg, s.res = nil, Config{}, nil
	s.parts, s.migs = nil, nil
	scratch.mu.Lock()
	free := append(scratch.free, s)
	if n := len(free) - runtime.GOMAXPROCS(0); n > 0 {
		m := copy(free, free[n:])
		clear(free[m:])
		free = free[:m]
	}
	scratch.free = free
	scratch.mu.Unlock()
}

// Simulate replays a hash-table activity trace against the mapping. It
// is safe for concurrent use, and once the scratch is warm a run
// allocates only what its Result holds.
func Simulate(tr *trace.Trace, cfg Config) (*Result, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return simulate(tr, cfg)
}

// simulate is Simulate on a trace that has passed Validate.
func simulate(tr *trace.Trace, cfg Config) (*Result, error) {
	if err := cfg.Validate(tr); err != nil {
		return nil, err
	}
	s := getScratch()
	res := s.run(tr, cfg)
	putScratch(s)
	return res, nil
}

func (s *simulator) run(tr *trace.Trace, cfg Config) *Result {
	if cfg.Partition == nil {
		s.roundRobin = slices.Grow(s.roundRobin[:0], tr.NBuckets)[:tr.NBuckets]
		for b := range s.roundRobin {
			s.roundRobin[b] = b % cfg.MatchProcs
		}
		cfg.Partition = s.roundRobin
	}

	s.tr, s.cfg, s.res = tr, cfg, &Result{}
	if cfg.Rebalance.Enabled() {
		s.planRebalance()
	}
	nprocs := cfg.machineProcs()
	s.sim.Reset(simnet.Config{
		Procs:             nprocs,
		SendOverhead:      cfg.Overhead.Send,
		RecvOverhead:      cfg.Overhead.Recv,
		Latency:           cfg.Latency,
		Topology:          cfg.Topology,
		PerHop:            cfg.PerHop,
		Contention:        cfg.Contention,
		SoftwareBroadcast: cfg.SoftwareBroadcast,
		TrackNetwork:      true,
		PendingHint:       pendingHint(tr, nprocs),
	}, s.handler)
	s.setMatchProcIDs(nprocs - 1)

	// One backing array per distribution matrix instead of one slice
	// per cycle.
	nc := len(tr.Cycles)
	leftBack := make([]int, nc*cfg.MatchProcs)
	actBack := make([]int, nc*cfg.MatchProcs)
	s.res.LeftActsPerSlot = make([][]int, nc)
	s.res.ActsPerSlot = make([][]int, nc)
	for ci := range tr.Cycles {
		s.res.LeftActsPerSlot[ci] = leftBack[ci*cfg.MatchProcs : (ci+1)*cfg.MatchProcs : (ci+1)*cfg.MatchProcs]
		s.res.ActsPerSlot[ci] = actBack[ci*cfg.MatchProcs : (ci+1)*cfg.MatchProcs : (ci+1)*cfg.MatchProcs]
	}
	s.res.CycleTimes = make([]simnet.Time, 0, nc)
	s.res.MsgsPerCycle = make([]int, 0, nc)

	if cfg.Recorder != nil {
		s.tracks = s.tracks[:0]
		for p := 0; p < nprocs; p++ {
			s.tracks = append(s.tracks, int32(trackOf(p, nprocs)))
		}
		s.sim.SetRecorder(cfg.Recorder, s.tracks)
	}
	for ci := range tr.Cycles {
		start := s.sim.Now()
		msgsBefore := s.sim.Messages()
		cfg.Recorder.BeginCycle(int32(ci+1), int64(start))
		if !cfg.CentralRoots {
			s.owners.deal(tr.Cycles[ci].Roots, s.partition(ci), cfg.MatchProcs)
			if cfg.Replicated {
				s.owners.sumAddDel(tr.Cycles[ci].Roots, cfg.Costs)
			}
		}
		s.bcast.cycle = ci
		s.sim.Inject(0, &s.bcast, start)
		end := s.sim.Run()
		cfg.Recorder.EndCycle(int32(ci+1), int64(end))
		s.res.CycleTimes = append(s.res.CycleTimes, end-start)
		s.res.MsgsPerCycle = append(s.res.MsgsPerCycle, s.sim.Messages()-msgsBefore)
	}
	s.res.Makespan = s.sim.Now()
	s.res.Net = s.sim.Stats()
	s.res.Events = s.sim.EventsProcessed()
	if cfg.Metrics != nil {
		s.publishMetrics(cfg.Metrics)
	}
	return s.res
}

// ownerIndex deals one cycle's roots by owner slot, once per cycle
// before the broadcast, so each match processor walks only its own
// roots instead of every root of the cycle. The layout is CSR: the run
// of slot s is idx[off[s]:off[s+1]], root indices in root order. Its
// slices keep their capacity across runs of any machine size.
type ownerIndex struct {
	off []int32
	idx []int32
	// addDel[i] sums the add/delete cost of roots [0, i); filled only
	// for Replicated tables, whose copies store every root.
	addDel []simnet.Time
}

func (x *ownerIndex) deal(roots []*trace.Activation, part sched.Partition, slots int) {
	x.off = slices.Grow(x.off[:0], slots+1)[:slots+1]
	clear(x.off)
	for _, r := range roots {
		x.off[part[r.Bucket]+1]++
	}
	// off[s+1] becomes the start of slot s's run, and filling the run
	// advances it to the run's end, which is where slot s+1 starts.
	var start int32
	for s := 1; s <= slots; s++ {
		start, x.off[s] = start+x.off[s], start
	}
	x.idx = slices.Grow(x.idx[:0], len(roots))[:len(roots)]
	for i, r := range roots {
		next := &x.off[part[r.Bucket]+1]
		x.idx[*next] = int32(i)
		*next++
	}
}

func (x *ownerIndex) sumAddDel(roots []*trace.Activation, costs CostModel) {
	x.addDel = slices.Grow(x.addDel[:0], len(roots)+1)[:len(roots)+1]
	x.addDel[0] = 0
	for i, r := range roots {
		x.addDel[i+1] = x.addDel[i] + costs.AddDel(r.Side == trace.LeftSide)
	}
}

// run returns the root indices slot owns, in root order.
func (x *ownerIndex) run(slot int) []int32 { return x.idx[x.off[slot]:x.off[slot+1]] }

// NewFlightRecorder builds the flight recorder that a simulated run of
// tr under cfg records into (Config.Recorder), the simulator's counterpart
// of parallel.NewFlightRecorder and the one place that knows its layout:
// one track per processor, the match processors first and the control
// last, as a live run lays out its workers and control, each named for
// its processor. It keeps every cycle's aggregate, and it sizes the rings
// to the busiest track of a dry run into one-event rings, which count
// every event and keep one, so a run records without dropping any.
func NewFlightRecorder(tr *trace.Trace, cfg Config) (*obs.CausalRecorder, error) {
	nprocs := cfg.machineProcs()
	count := obs.NewCausalRecorder(nprocs, 1, 1, tr.NBuckets)
	cfg.Recorder, cfg.Metrics = count, nil
	if _, err := Simulate(tr, cfg); err != nil {
		return nil, err
	}
	ringCap := 1
	for _, t := range count.Dump().Tracks {
		ringCap = max(ringCap, int(t.Total))
	}
	rec := obs.NewCausalRecorder(nprocs, ringCap, len(tr.Cycles), tr.NBuckets)
	rec.SetTrackName(trackOf(0, nprocs), "control")
	for p := 1; p < nprocs; p++ {
		name := fmt.Sprintf("match %d", p-1)
		if cfg.Pairs {
			name = fmt.Sprintf("slot %d %s", (p-1)/2, [2]string{"left", "right"}[(p-1)%2])
		}
		rec.SetTrackName(trackOf(p, nprocs), name)
	}
	return rec, nil
}

// trackOf is the flight-recorder track of processor p on a machine of
// nprocs: match processor p records on track p-1 and the control,
// processor 0, on the last.
func trackOf(p, nprocs int) int { return (p + nprocs - 1) % nprocs }

// countTokens counts a and its descendants into bucketTokens.
func (s *simulator) countTokens(a *trace.Activation) {
	s.bucketTokens[a.Bucket]++
	for _, ch := range a.Children {
		s.countTokens(ch)
	}
}

// publishMetrics fills the registry from the completed run: the
// per-cycle series the -v summaries render, the distributions the
// Section 5.2 analysis reads off (tokens per bucket, idle gaps, queue
// depth), and headline gauges.
func (s *simulator) publishMetrics(reg *obs.Registry) {
	res := s.res
	cycles := reg.Series("core/per_cycle", "cycle", "activations", "messages", "time_us")
	for ci, ct := range res.CycleTimes {
		acts := 0
		for _, n := range res.ActsPerSlot[ci] {
			acts += n
		}
		cycles.Append(float64(ci+1), float64(acts), float64(res.MsgsPerCycle[ci]), ct.Microseconds())
	}

	tokens := reg.Histogram("trace/tokens_per_bucket", 1, 2, 4, 8, 16, 32, 64, 128, 256)
	s.bucketTokens = slices.Grow(s.bucketTokens[:0], s.tr.NBuckets)[:s.tr.NBuckets]
	clear(s.bucketTokens)
	for _, c := range s.tr.Cycles {
		for _, r := range c.Roots {
			s.countTokens(r)
		}
	}
	for _, n := range s.bucketTokens {
		if n > 0 {
			tokens.Observe(float64(n))
		}
	}

	gaps := reg.Histogram("sim/idle_gaps_per_proc", 0, 1, 2, 4, 8, 16, 32, 64, 128)
	queue := reg.Histogram("sim/max_queue_depth", 0, 1, 2, 4, 8, 16, 32, 64, 128)
	var gapMax simnet.Time
	for _, p := range res.Net.Procs {
		gaps.Observe(float64(p.IdleGaps))
		queue.Observe(float64(p.MaxQueueDepth))
		if p.IdleGapMax > gapMax {
			gapMax = p.IdleGapMax
		}
	}
	reg.Gauge("sim/idle_gap_max_us").Set(gapMax.Microseconds())

	reg.Counter("sim/messages").Add(int64(res.Net.Messages))
	reg.Counter("sim/insts").Add(int64(res.Insts))
	if s.cfg.Rebalance.Enabled() {
		reg.Counter("sim/migrations").Add(int64(res.Migrations))
		reg.Counter("sim/buckets_migrated").Add(int64(res.BucketsMoved))
	}
	reg.Gauge("sim/makespan_us").Set(res.Makespan.Microseconds())
	reg.Gauge("sim/avg_utilization").Set(res.Net.AvgUtilization())
	reg.Gauge("sim/network_idle_frac").Set(res.Net.NetworkIdleFraction())
}

// partition returns the bucket map in force for a cycle.
func (s *simulator) partition(cycle int) sched.Partition {
	if s.parts != nil {
		return s.parts[cycle]
	}
	if s.cfg.PerCycle != nil {
		return s.cfg.PerCycle[cycle]
	}
	return s.cfg.Partition
}

// planRebalance replays the trace's per-cycle bucket loads through the
// online Balancer, producing the partition in force for each cycle and
// the bucket migrations injected at each cycle start. The balancer
// only ever sees loads from cycles that have already completed — the
// same information the live runtime's activation counters provide — so
// this is an online policy, not an oracle like PerCycle.
func (s *simulator) planRebalance() {
	nc := len(s.tr.Cycles)
	bl := sched.NewBalancer(s.cfg.Rebalance, s.cfg.Partition, s.cfg.MatchProcs)
	s.parts = make([]sched.Partition, nc)
	s.migs = make([][]migMove, nc)
	for ci := 0; ci < nc; ci++ {
		s.parts[ci] = bl.Partition()
		for _, r := range s.tr.Cycles[ci].Roots {
			observeTokens(bl, r)
		}
		if np, ok := bl.EndCycle(); ok && ci+1 < nc {
			old := s.parts[ci]
			for _, b := range sched.PartitionMoves(old, np) {
				s.migs[ci+1] = append(s.migs[ci+1], migMove{bucket: b, from: old[b], to: np[b]})
			}
		}
	}
	for _, moves := range s.migs {
		if len(moves) > 0 {
			s.res.Migrations++
			s.res.BucketsMoved += len(moves)
		}
	}
}

// observeTokens feeds a and its descendants to bl, one activation each.
func observeTokens(bl *sched.Balancer, a *trace.Activation) {
	bl.Observe(a.Bucket, 1)
	for _, ch := range a.Children {
		observeTokens(bl, ch)
	}
}

// migCost is the busy charge for extracting or injecting one migrated
// bucket pair.
func (s *simulator) migCost() simnet.Time {
	return s.cfg.Costs.LeftAddDel + s.cfg.Costs.RightAddDel
}

// Processor layout: 0 is control. Single mapping: slot s -> proc 1+s.
// Pair mapping: slot s -> left proc 1+2s, right proc 2+2s.

func (s *simulator) leftProcOf(slot int) int {
	if s.cfg.Pairs {
		return 1 + 2*slot
	}
	return 1 + slot
}

func (s *simulator) rightProcOf(slot int) int {
	if s.cfg.Pairs {
		return 2 + 2*slot
	}
	return 1 + slot
}

// slotOfProc inverts the layout for match processors.
func (s *simulator) slotOfProc(proc int) int {
	if s.cfg.Pairs {
		return (proc - 1) / 2
	}
	return proc - 1
}

// isRightMember reports whether proc is the right member of its pair.
func (s *simulator) isRightMember(proc int) bool {
	return s.cfg.Pairs && (proc-1)%2 == 1
}

// otherMatchProcs lists the match processors other than `self`,
// memoized per processor (the Replicated fan-out asks for the same
// list once per successor).
func (s *simulator) otherMatchProcs(self int) []int {
	if out := s.others[self]; len(out) > 0 {
		return out
	}
	out := s.others[self][:0]
	for _, id := range s.matchIDs {
		if id != self {
			out = append(out, id)
		}
	}
	s.others[self] = out
	return out
}

// setMatchProcIDs lists processors 1..n as the match processors and
// empties the otherMatchProcs memo, keeping the storage of both.
func (s *simulator) setMatchProcIDs(n int) {
	s.matchIDs = s.matchIDs[:0]
	for id := 1; id <= n; id++ {
		s.matchIDs = append(s.matchIDs, id)
	}
	s.others = slices.Grow(s.others[:0], n+1)[:n+1]
	for i := range s.others {
		s.others[i] = s.others[i][:0]
	}
}

// pendingHint sizes each processor's pending-task ring from the
// trace's shape: the busiest cycle's root count spread over the
// machine, doubled for the successor waves. A hint is only an initial
// capacity — rings grow on demand.
func pendingHint(tr *trace.Trace, nprocs int) int {
	maxRoots := 0
	for _, cy := range tr.Cycles {
		if len(cy.Roots) > maxRoots {
			maxRoots = len(cy.Roots)
		}
	}
	hint := 2*maxRoots/nprocs + 4
	if hint > 256 {
		hint = 256
	}
	return hint
}

func (s *simulator) handle(ctx *simnet.Ctx, p simnet.Payload) {
	switch v := p.(type) {
	case *bcastStart:
		s.handleCycleStart(ctx, v.cycle)
	case *cyclePacket:
		s.handlePacket(ctx, v.cycle)
	case *actTask:
		s.handleActivation(ctx, v.cycle, v.depth, v.act, false)
		s.putAct(v)
	case *pairCompare:
		s.emitSuccessors(ctx, v.cycle, v.depth, v.act)
		s.putPair(v)
	case instMsg:
		s.res.Insts++ // control bookkeeping; conflict resolution is out of match scope
	case *migMove:
		if !v.shipped {
			// Old owner: extract the bucket pair and ship it.
			v.shipped = true
			ctx.Busy(s.migCost())
			ctx.Send(s.leftProcOf(v.to), v)
		} else {
			// New owner: inject the shipped contents.
			ctx.Busy(s.migCost())
		}
	default:
		panic(fmt.Sprintf("core: unknown payload %T", p))
	}
}

// handleCycleStart runs on the control processor.
func (s *simulator) handleCycleStart(ctx *simnet.Ctx, cycle int) {
	cy := s.tr.Cycles[cycle]
	if s.migs != nil {
		// Migrations planned for this boundary: order each old owner to
		// extract and ship before the cycle's match work lands.
		for i := range s.migs[cycle] {
			mv := &s.migs[cycle][i]
			ctx.Send(s.leftProcOf(mv.from), mv)
		}
	}
	if !s.cfg.CentralRoots {
		s.packet.cycle = cycle
		ctx.Broadcast(s.matchIDs, &s.packet)
		return
	}
	// Centralized-alpha ablation: control evaluates the constant tests
	// itself and ships each root activation to its owner.
	ctx.Busy(s.cfg.Costs.ConstTests)
	part := s.partition(cycle)
	for _, root := range cy.Roots {
		ctx.Send(s.leftProcOf(part[root.Bucket]), s.newAct(cycle, 1, root))
	}
	// Root instantiations (single-CE productions) stay on control.
	ctx.Busy(simnet.Time(cy.RootInsts) * s.cfg.Costs.PerSuccessor)
	s.res.Insts += cy.RootInsts
}

// handlePacket runs on every match processor at cycle start: evaluate
// all constant tests, then process owned roots as one grouped unit.
// The roots come from the owner index, dealt before the broadcast; both
// members of a pair walk their slot's run.
func (s *simulator) handlePacket(ctx *simnet.Ctx, cycle int) {
	cy := s.tr.Cycles[cycle]
	ctx.Busy(s.cfg.Costs.ConstTests)
	me := s.slotOfProc(ctx.Proc())
	rightMember := s.isRightMember(ctx.Proc())
	// Replicated tables: every copy stores every token, even those
	// whose home (generating) processor is elsewhere. The copies stored
	// between two owned roots are charged at once; the busy total at
	// every send is the same as charging them one by one.
	charged := 0 // roots [0, charged) are paid for
	for _, i := range s.owners.run(me) {
		if s.cfg.Replicated {
			ctx.Busy(s.owners.addDel[i] - s.owners.addDel[charged])
			charged = int(i) + 1
		}
		root := cy.Roots[i]
		if !s.cfg.Pairs {
			s.handleActivation(ctx, cycle, 1, root, true)
			continue
		}
		// Pair mapping: both members hold the token already (both ran
		// the constant tests), so no intra-pair forward is needed for
		// roots. The member owning the token's own side stores it; the
		// other member compares against the opposite bucket and
		// generates the successors.
		isLeftToken := root.Side == trace.LeftSide
		switch {
		case isLeftToken && !rightMember:
			s.countAct(ctx, cycle, me, 1, root)
			ctx.Busy(s.cfg.Costs.LeftAddDel)
		case isLeftToken && rightMember:
			s.emitSuccessors(ctx, cycle, 1, root)
		case !isLeftToken && rightMember:
			s.countAct(ctx, cycle, me, 1, root)
			ctx.Busy(s.cfg.Costs.RightAddDel)
		default: // right token, left member
			s.emitSuccessors(ctx, cycle, 1, root)
		}
	}
	if s.cfg.Replicated {
		ctx.Busy(s.owners.addDel[len(cy.Roots)] - s.owners.addDel[charged])
	}
	// Root instantiations are deduplicated onto slot 0 (left member in
	// pair mode), which forwards them to the control processor.
	if me == 0 && !rightMember && cy.RootInsts > 0 {
		for i := 0; i < cy.RootInsts; i++ {
			ctx.Busy(s.cfg.Costs.PerSuccessor)
			ctx.Send(0, instMsg{})
		}
	}
}

// countAct records distribution statistics for an activation, and its
// handle event on a recorded run. In the pair mapping the activation is
// counted, and handled, on the member that stores the token; the member
// that compares it reports no second handle.
func (s *simulator) countAct(ctx *simnet.Ctx, cycle, slot, depth int, a *trace.Activation) {
	s.res.ActsPerSlot[cycle][slot]++
	if a.Side == trace.LeftSide {
		s.res.LeftActsPerSlot[cycle][slot]++
	}
	ctx.Handle(a.Bucket, depth, a.Successors())
}

// handleActivation performs a full node activation in the single-
// processor-per-slot mapping: store the token, compare with the
// opposite bucket, and emit the successors (16 µs each), routing each
// to the processor owning its bucket.
func (s *simulator) handleActivation(ctx *simnet.Ctx, cycle, depth int, a *trace.Activation, grouped bool) {
	me := s.slotOfProc(ctx.Proc())
	if s.cfg.Replicated && !grouped && s.partition(cycle)[a.Bucket] != me {
		// A replica update: store the token, generate nothing.
		ctx.Busy(s.cfg.Costs.AddDel(a.Side == trace.LeftSide))
		return
	}
	if s.cfg.Pairs && !grouped {
		// Non-root left token arriving at the pair's left processor:
		// store locally, forward to the right member for comparison.
		s.countAct(ctx, cycle, me, depth, a)
		ctx.Busy(s.cfg.Costs.LeftAddDel)
		if a.Successors() > 0 {
			ctx.Send(s.rightProcOf(me), s.newPair(cycle, depth, a))
		}
		return
	}
	s.countAct(ctx, cycle, me, depth, a)
	ctx.Busy(s.cfg.Costs.AddDel(a.Side == trace.LeftSide))
	s.emitSuccessors(ctx, cycle, depth, a)
}

// emitSuccessors is the comparison half of an activation at depth: the
// per-successor work plus routing. In the pair mapping it runs on the
// member opposite the stored side.
func (s *simulator) emitSuccessors(ctx *simnet.Ctx, cycle, depth int, a *trace.Activation) {
	part := s.partition(cycle)
	if s.cfg.Replicated {
		for _, child := range a.Children {
			ctx.Busy(s.cfg.Costs.PerSuccessor)
			// Update every copy: one broadcast to the other match
			// processors plus the local store/processing. The payload
			// object is delivered to every copy, so it is marked shared
			// and never recycled.
			t := s.newAct(cycle, depth+1, child)
			t.shared = true
			if dests := s.otherMatchProcs(ctx.Proc()); len(dests) > 0 {
				ctx.Broadcast(dests, t)
			}
			ctx.Local(t)
		}
		for i := 0; i < a.Insts; i++ {
			ctx.Busy(s.cfg.Costs.PerSuccessor)
			ctx.Send(0, instMsg{})
		}
		return
	}
	for _, child := range a.Children {
		ctx.Busy(s.cfg.Costs.PerSuccessor)
		dest := s.leftProcOf(part[child.Bucket])
		if dest == ctx.Proc() {
			ctx.Local(s.newAct(cycle, depth+1, child))
		} else {
			// Left tokens always travel to the owning slot's left
			// processor (communication is restricted to it), even from
			// the right member of the same pair.
			ctx.Send(dest, s.newAct(cycle, depth+1, child))
		}
	}
	for i := 0; i < a.Insts; i++ {
		ctx.Busy(s.cfg.Costs.PerSuccessor)
		ctx.Send(0, instMsg{})
	}
}

// Baseline returns the configuration of the speedup base case: a
// single match processor with zero message-processing overheads (the
// paper's denominator for every speedup figure).
func Baseline(cfg Config) Config {
	base := cfg
	base.MatchProcs = 1
	base.Overhead = OverheadSetting{Name: "base"}
	base.Partition = nil
	base.PerCycle = nil
	base.Rebalance = sched.Rebalance{}
	base.Pairs = false
	base.CentralRoots = false
	base.Replicated = false
	// The baseline is a helper run: it must not write into the
	// configured run's timeline or metrics.
	base.Recorder = nil
	base.Metrics = nil
	return base
}

// Speedup simulates the trace under cfg and under the baseline and
// returns base-makespan / cfg-makespan along with both results. It
// validates the trace once for both runs.
func Speedup(tr *trace.Trace, cfg Config) (float64, *Result, *Result, error) {
	if err := tr.Validate(); err != nil {
		return 0, nil, nil, err
	}
	res, err := simulate(tr, cfg)
	if err != nil {
		return 0, nil, nil, err
	}
	base, err := simulate(tr, Baseline(cfg))
	if err != nil {
		return 0, nil, nil, err
	}
	if res.Makespan == 0 {
		return 1, res, base, nil
	}
	return float64(base.Makespan) / float64(res.Makespan), res, base, nil
}
