package parallel

import (
	"mpcrete/internal/obs"
	"mpcrete/internal/rete"
	"mpcrete/internal/sched"
)

// Step is the worker step: one match processor's share of the mapping,
// with no termination detector, no endpoints and no sockets. It holds
// the worker's rete.Processor, which touches only the buckets the
// worker's view of the bucket-to-worker assignment gives it, and the
// buffers a turn fills. A carrier — the goroutine worker in runtime.go,
// or transport.ServeConn behind a socket — decodes or drains messages,
// hands them to Handle, ships what Handle left in Out and Moved, and
// reports EndTurn's result to the cycle driver.
type Step struct {
	id   int
	proc *rete.Processor
	part sched.Partition

	// localQ is the FIFO of locally-owned activations, drained
	// breadth-first (see Handle); rootScratch is the constant-test
	// scratch and succScratch one activation's successors. instActs
	// holds the turn's production-node activations, in production order,
	// until EndTurn has insts build their deltas in one pass.
	localQ      []queuedAct
	rootScratch []rete.Activation
	succScratch []rete.Activation
	instActs    []rete.Activation
	insts       rete.InstBuilder

	// Out[dst] holds the successor activations bound for worker dst and
	// Pending their total; Moved holds the nonempty buckets a
	// MsgMigrateOut extracted. The carrier ships them and truncates the
	// buffers; the step only appends.
	Out     [][]Message
	Pending int
	Moved   []MovedBucket

	// turn accumulates what the current turn produced. bucketLoad counts
	// activations per bucket for the rebalance detector (nil unless load
	// tracking is on — the hot path then pays one nil check); dirty lists
	// its nonzero entries so EndTurn never scans the whole bucket space.
	turn       Turn
	bucketLoad []int64
	dirty      []int32

	// ctrack is the worker's causal event ring (nil when the flight
	// recorder is off — every recording call is then one nil check; a
	// wire worker's is its own). turnTS and turnCycle are stamped on the
	// turn's handle events, cached by BeginTurn so the hot loop never
	// reads the clock per activation.
	ctrack    *obs.TrackRecorder
	turnTS    int64
	turnCycle int32

	// handOffShare is the length of the step's share of a hand-off
	// (Driver.handOff): the leading messages of its worker's next drained
	// batch, which one Handle must receive whole. The plain worker loop
	// does that by construction; the chaos layer reads and clears it
	// before it would split that turn.
	handOffShare int
}

// queuedAct is one queued unit of locally-owned match work: an
// activation, its hash bucket, and its dependency depth within the
// current cycle.
type queuedAct struct {
	act    rete.Activation
	bucket int32
	depth  int32
}

// MovedBucket is one extracted bucket pair awaiting shipment to its new
// owner as a MsgMigrateIn.
type MovedBucket struct {
	Dst      int32
	Contents *rete.BucketContents
}

// BucketLoad is one bucket's activation count for a turn.
type BucketLoad struct {
	Bucket int32
	N      int64
}

// Turn is what one worker turn produced, in the shape the cycle driver
// accounts it (Driver.TurnDone) and the star carrier's turn frame
// ships it.
type Turn struct {
	// Handled counts the node activations performed.
	Handled int64
	// Insts are the conflict-set deltas produced, in production order.
	Insts []rete.InstChange
	// Acts are the production-node activations the deltas are built
	// from, in the same order: what the star's worker ships instead.
	Acts []rete.Activation
	// Loads lists the buckets that saw activations, when load tracking
	// is on.
	Loads []BucketLoad
}

// NewStep builds worker id's step over proc: in process one sharing the
// driver's memories, behind a socket a private one. part is the initial
// assignment (its length is the bucket-space size); trackLoads turns on
// per-bucket activation counting; ctrack, when non-nil, receives one
// handle event per activation.
func NewStep(proc *rete.Processor, id, workers int, part sched.Partition, trackLoads bool, ctrack *obs.TrackRecorder) *Step {
	s := &Step{
		id:     id,
		proc:   proc,
		part:   part,
		Out:    make([][]Message, workers),
		ctrack: ctrack,
	}
	if trackLoads {
		s.bucketLoad = make([]int64, len(part))
	}
	return s
}

// BeginPhase declares every phase token the step's processor has made
// so far dead — its delete tokens and the tokens only production nodes
// received — and every array it lent a delta read for the last time,
// so that their arenas are rewound and carved again
// (rete.Processor.BeginPhase). It is the carrier's call, made only where
// the carrier can show it: the cycle driver at the top of a cycle it
// heads in place (the last cycle's result was handed to a caller who
// absorbed it), the socket worker at the top of every turn,
// whose predecessor encoded everything it made before it returned. The
// goroutine worker never calls it.
func (s *Step) BeginPhase() { s.proc.BeginPhase() }

// BeginTurn opens a turn: it clears the previous turn's result and
// caches the timestamp and cycle number for the turn's handle events.
func (s *Step) BeginTurn(ts int64, cycle int32) {
	s.turnTS, s.turnCycle = ts, cycle
	s.turn.Handled = 0
	s.turn.Insts = s.turn.Insts[:0]
	s.turn.Loads = s.turn.Loads[:0]
	s.instActs = s.instActs[:0]
}

// EndTurn closes the turn and returns what it produced, valid until
// the next BeginTurn: Acts, and with build their deltas, built here in
// one batch (the star's worker ships Acts unbuilt). Every delta's
// array is lent from the step's processor until the carrier's next
// BeginPhase (rete.InstBuilder.Build) — for good under a carrier that
// never calls it, whose turns of one cycle outlive each other in the
// driver's intake.
func (s *Step) EndTurn(build bool) *Turn {
	s.turn.Acts = s.instActs
	if build {
		s.turn.Insts = s.insts.Build(s.proc, s.instActs, s.turn.Insts)
	}
	for _, b := range s.dirty {
		s.turn.Loads = append(s.turn.Loads, BucketLoad{Bucket: b, N: s.bucketLoad[b]})
		s.bucketLoad[b] = 0
	}
	s.dirty = s.dirty[:0]
	return &s.turn
}

// Handle performs the messages of one delivery. Every activation of
// the delivery — the locally-owned roots of a MsgCycle, or a run of
// MsgAct — is queued before any is expanded, so storage precedes
// discovery, and migration orders are carried out as they come (the
// step adopts the order's partition and extracts the buckets it loses,
// left in Moved). The queue then drains in FIFO order, locally-owned
// successors joining its tail — the zero-message fast path of the fine
// granularity — and successors owned elsewhere are left in Out.
//
// Breadth-first order matches the sequential matcher's queue
// discipline, which keeps the measured depth attribution of join
// discovery comparable to the recorded trace: a depth-first expansion
// could walk a chain into a join node before the sibling roots feeding
// the join's other side have been stored, so the join would later fire
// from the shallow side and the measured activation forest would
// flatten.
func (s *Step) Handle(ms []Message) {
	for i := range ms {
		m := &ms[i]
		switch m.Kind {
		case MsgCycle:
			// Constant tests run on every worker (duplicated work, the
			// coarse granularity of Section 3.2); only locally-owned
			// roots are kept.
			for i, ch := range m.Cycle.Changes {
				s.rootScratch = s.proc.RootActivationsInto(ch, m.Cycle.Handles[i], s.rootScratch[:0])
				for _, act := range s.rootScratch {
					b := s.proc.Bucket(act)
					if s.part[b] == s.id {
						s.localQ = append(s.localQ, queuedAct{act: act, bucket: int32(b), depth: 1})
					}
				}
			}
		case MsgAct:
			s.localQ = append(s.localQ, queuedAct{act: m.Act, bucket: m.Bucket, depth: m.Depth})
		case MsgMigrateOut:
			// Only on a quiescent machine: the migration barrier orders
			// the switch against every activation routed under the old
			// assignment.
			s.part = m.Order.Part
			for _, mv := range m.Order.Moves {
				bc := s.proc.ExtractBucket(int(mv.Bucket))
				if bc.Entries() == 0 {
					continue // nothing stored; ownership transfer is free
				}
				s.Moved = append(s.Moved, MovedBucket{Dst: mv.NewOwner, Contents: bc})
			}
		case MsgMigrateIn:
			s.proc.InjectBucket(m.Inject)
		}
	}
	for i := 0; i < len(s.localQ); i++ {
		la := s.localQ[i]
		s.processOne(la.act, int(la.bucket), la.depth)
	}
	s.localQ = s.localQ[:0]
}

// processOne performs a single activation, queueing locally-owned
// successors on localQ and coalescing remote ones per destination in
// Out. bucket is the activation's hash bucket, already computed by
// whoever routed the activation here; depth is its position in the
// cycle's dependency chain (roots are 1), carried so the flight
// recorder can measure the cycle's critical path.
//
// Production-node activations become instantiation deltas, not handle
// events, and contribute neither depth nor fan-out — mirroring the
// sequential matcher, whose trace listener records Instantiation, not
// Activation, for them. The recorder's per-cycle MaxDepth therefore
// walks the same activation forest as analysis.CriticalPath.
func (s *Step) processOne(act rete.Activation, bucket int, depth int32) {
	if act.Node.Kind == rete.KindProduction {
		// A root activation of a single-CE production.
		s.instActs = append(s.instActs, act)
		return
	}
	s.turn.Handled++
	if s.bucketLoad != nil {
		if s.bucketLoad[bucket] == 0 {
			s.dirty = append(s.dirty, int32(bucket))
		}
		s.bucketLoad[bucket]++
	}

	fanout := int32(0)
	s.succScratch = s.proc.ProcessAt(act, bucket, s.succScratch[:0])
	for _, child := range s.succScratch {
		if child.Node.Kind == rete.KindProduction {
			s.instActs = append(s.instActs, child)
			continue
		}
		fanout++
		b := s.proc.Bucket(child)
		owner := s.part[b]
		if owner == s.id {
			s.localQ = append(s.localQ, queuedAct{act: child, bucket: int32(b), depth: depth + 1})
			continue
		}
		s.Out[owner] = append(s.Out[owner], Message{Kind: MsgAct, Bucket: int32(b), Depth: depth + 1, Act: child})
		s.Pending++
	}
	s.ctrack.Handle(s.turnTS, s.turnCycle, int32(bucket), depth, fanout)
}
