package transport

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"mpcrete/internal/obs"
	"mpcrete/internal/parallel"
	"mpcrete/internal/rete"
	"mpcrete/internal/sched"
	"mpcrete/internal/wire"
)

// ControlOptions configure a multi-process control plane.
type ControlOptions struct {
	// Workers is the number of worker processes the topology expects.
	Workers int
	// NBuckets sizes the hash-bucket space (default
	// rete.DefaultNBuckets).
	NBuckets int
	// Partition maps bucket -> worker (default round-robin).
	Partition sched.Partition
	// RouteRoots selects Fig 3-2 root routing: the control process runs
	// the constant tests once per cycle and routes each root to its
	// owner, instead of broadcasting the changes (Fig 3-3).
	RouteRoots bool
	// Rebalance, when enabled, turns on the online adaptive
	// repartitioner across OS processes: workers report per-bucket
	// activation counts in their turn frames, the cycle driver folds
	// them into a sched.Balancer at every quiescence, and armed replans
	// migrate buckets over the wire (ftRepart/ftBucketRelay/ftBucket)
	// at cycle boundaries. The conflict sets are identical to the
	// static run's.
	Rebalance sched.Rebalance
	// ForceMigrate is parallel.Options.ForceMigrate: consulted at every
	// quiescent cycle boundary with the 1-based completed cycle number;
	// a non-nil partition is migrated to before the next cycle (and
	// wins over the detector, resetting it).
	ForceMigrate func(cycle int) sched.Partition
	// Causal, when non-nil, attaches a flight recorder with Workers+1
	// tracks (workers first, control last; build it with
	// parallel.NewFlightRecorder). A worker process records its own
	// turns into a ring of the recorder's capacity and hands them over in
	// its turn frames, which the control absorbs into the worker's track;
	// the control records the sends of the relays it forwards, since it
	// mints their batch ids.
	Causal *obs.CausalRecorder
	// HandshakeTimeout bounds WaitWorkers (default 30s).
	HandshakeTimeout time.Duration
}

// Control is the control process of the multi-process runtime: the
// star carrier of parallel.Driver. The embedded driver owns the MRA
// cycle — root delivery, termination detection, the conflict-set
// intake, rebalancing
// (Cycle, Apply, Stats, RebalanceStats, FlightDump and Err are its
// methods). Control is the hub that moves its messages: it encodes the
// driver's deliveries into frames, forwards worker-to-worker traffic,
// and reports each relay and turn frame to the driver's accounting
// calls, while N worker processes (ServeConn) own the match state.
//
// A worker disconnect or malformed frame mid-cycle surfaces as an error
// from Cycle, not a hang: the conn reader fails the driver, which wakes
// the cycle's wait.
type Control struct {
	*parallel.Driver
	network  *rete.Network
	program  []byte           // what every hello ships of the network (appendProgram)
	digest   uint64           // network.Digest(), which every ready frame must echo
	nbuckets int              // len(Partition()): NBuckets with its default applied
	opts     parallel.Options // Workers with its default applied
	timeout  time.Duration    // bounds WaitWorkers
	ring     int              // the ring capacity every hello carries (0: no recorder)
	ln       net.Listener
	conns    []*ctlConn
	readers  sync.WaitGroup
}

// ctlConn is one worker's connection: the conn reader goroutine is the
// single consumer of its frames (fr and dec) and the single producer of
// its causal track; writers (the driver's waves and other readers'
// relay forwarding) serialize on mu.
type ctlConn struct {
	id  int
	c   net.Conn
	fr  frameReader
	dec dec

	// mu orders the connection's outgoing bytes, and with them the send
	// state behind enc: a frame is encoded and written under one hold, so
	// the worker's mirror sees definitions in the order they were made.
	// A wave holds every connection's mu until all its frames are out
	// (Deliver), so a cycle's new wmes reach a worker's mirror in the
	// cycle frame's order, never first in a faster peer's relay.
	mu  sync.Mutex
	enc enc
}

// write encodes one frame with fill and writes it, under the conn's
// write mutex.
func (cc *ctlConn) write(ft frameType, fill func(*enc)) error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.writeLocked(ft, fill)
}

// writeLocked is write with cc.mu held.
func (cc *ctlConn) writeLocked(ft frameType, fill func(*enc)) error {
	e := &cc.enc
	e.begin()
	if fill != nil {
		fill(e)
	}
	if err := e.end(ft); err != nil {
		return err
	}
	return e.flush(cc.c)
}

// Listen starts a control plane for the given compiled network on
// addr ("127.0.0.1:0" for an ephemeral port). Call WaitWorkers next;
// the returned Control is not usable for cycles until it completes.
func Listen(network *rete.Network, addr string, opts ControlOptions) (*Control, error) {
	if opts.Workers < 1 {
		return nil, fmt.Errorf("transport: Workers = %d", opts.Workers)
	}
	return listen(network, addr, parallel.Options{
		Workers:      opts.Workers,
		NBuckets:     opts.NBuckets,
		Partition:    opts.Partition,
		RouteRoots:   opts.RouteRoots,
		Rebalance:    opts.Rebalance,
		ForceMigrate: opts.ForceMigrate,
		Causal:       opts.Causal,
	}, opts.HandshakeTimeout)
}

// listen builds a Control whose driver runs with opts — Listen's, or
// the goroutine runtime's when a Loopback opens one — and starts
// listening.
func listen(network *rete.Network, addr string, opts parallel.Options, timeout time.Duration) (*Control, error) {
	if opts.Workers == 0 {
		opts.Workers = runtime.GOMAXPROCS(0) // parallel.Options' default
	}
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	c := &Control{network: network, digest: network.Digest(), opts: opts, timeout: timeout,
		ring: min(opts.Causal.RingCap(), maxRing)}
	printed.Lock()
	if printed.net != network || printed.digest != c.digest {
		printed.net, printed.digest, printed.program = network, c.digest, appendProgram(nil, network)
	}
	c.program = printed.program
	printed.Unlock()
	d, err := parallel.NewDriver(network, opts, c)
	if err != nil {
		return nil, err
	}
	c.Driver = d
	c.nbuckets = len(d.Partition())
	if c.ln, err = net.Listen("tcp", addr); err != nil {
		return nil, fmt.Errorf("transport: control listen: %w", err)
	}
	return c, nil
}

// printed is the program the last Control printed (appendProgram),
// one entry keyed by the network and its digest: a Control over the
// network the one before it held ships the same bytes without printing
// them again, and a network transformed since (Unshare,
// CopyAndConstrain, AddProductionPrivate) has another digest and is
// printed anew. The entry keeps its network alive, so no other network
// can take its address. Hellos only read the bytes.
var printed struct {
	sync.Mutex
	net     *rete.Network
	digest  uint64
	program []byte
}

// Addr returns the listener's address for worker processes to dial.
func (c *Control) Addr() string { return c.ln.Addr().String() }

// WaitWorkers accepts and handshakes all worker connections (worker
// ids are assigned in accept order) and starts the conn readers. It
// must complete before the first Cycle.
func (c *Control) WaitWorkers() error {
	deadline := time.Now().Add(c.timeout)
	if tl, ok := c.ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}
	for id := 0; id < c.opts.Workers; id++ {
		conn, err := c.ln.Accept()
		if err != nil {
			return fmt.Errorf("transport: accepting worker %d/%d: %w", id, c.opts.Workers, err)
		}
		cc := &ctlConn{
			id:  id,
			c:   conn,
			fr:  frameReader{r: conn},
			dec: dec{nbuckets: c.nbuckets, workers: c.opts.Workers, ring: c.ring, tab: c.Table(), layouts: c.network.Layouts()},
			enc: enc{tab: c.Table(), layouts: c.network.Layouts()},
		}
		conn.SetReadDeadline(deadline)
		if err := c.handshake(cc); err != nil {
			conn.Close()
			return err
		}
		conn.SetReadDeadline(time.Time{})
		c.conns = append(c.conns, cc)
	}
	for _, cc := range c.conns {
		c.readers.Add(1)
		go c.readLoop(cc)
	}
	return nil
}

// handshake sends worker cc its hello — topology slice plus the program
// — and checks the ready reply echoes its id and the digest of the
// network this control holds: a worker that compiled another graph
// (the control's network was transformed after compiling, or the two
// compilers number nodes differently) would mis-join, so it is refused.
func (c *Control) handshake(cc *ctlConn) error {
	if err := cc.write(ftHello, func(e *enc) {
		encodeHello(e, hello{
			id:         cc.id,
			workers:    c.opts.Workers,
			nbuckets:   c.nbuckets,
			trackLoads: c.opts.Rebalance.Enabled(),
			ring:       c.ring,
			partition:  c.Partition(),
		}, c.program)
	}); err != nil {
		return fmt.Errorf("transport: hello to worker %d: %w", cc.id, err)
	}
	ft, rp, err := cc.fr.next()
	if err != nil {
		return fmt.Errorf("transport: ready from worker %d: %w", cc.id, err)
	}
	if ft != ftReady {
		return fmt.Errorf("%w: expected ready from worker %d, got %s", ErrBadPayload, cc.id, ft)
	}
	d := wire.Dec{B: rp}
	gotID, digest := d.Int(), d.U64()
	if d.Done() != nil || gotID != cc.id {
		return fmt.Errorf("%w: worker %d echoed id %d", ErrBadPayload, cc.id, gotID)
	}
	if digest != c.digest {
		return fmt.Errorf("%w: worker %d compiled the hello's program to digest %#x, not to this control's network (%#x): a network changed after compiling cannot be shipped", ErrBadPayload, cc.id, digest, c.digest)
	}
	return nil
}

// kindFrames is the frame each kind of message travels in.
var kindFrames = [...]frameType{
	parallel.MsgCycle:      ftCycle,
	parallel.MsgAct:        ftActs,
	parallel.MsgMigrateOut: ftRepart,
	parallel.MsgMigrateIn:  ftBucket,
}

// Deliver implements parallel.Carrier: each worker's run of the
// driver's messages in the frame of their kind, from the control. It
// holds every connection's write mutex until the last frame is out, so
// a relay a worker sends in reply waits for the whole wave.
func (c *Control) Deliver(runs [][]parallel.Message, batches []int32) error {
	for _, cc := range c.conns {
		cc.mu.Lock()
	}
	defer func() {
		for _, cc := range c.conns {
			cc.mu.Unlock()
		}
	}()
	for dst, run := range runs {
		if len(run) == 0 {
			continue
		}
		if err := c.deliver(c.conns[dst], int32(c.opts.Workers), run, batches[dst]); err != nil {
			return err
		}
	}
	return nil
}

// deliver writes worker cc, whose write mutex the caller holds, one
// frame that a turn frame will answer:
// messages from src — the driver's, or another worker's relay
// forwarded — all of one kind, behind their causal stamp, the batch id
// and the source. The payload is encoded with cc's send state, because
// each connection has defined its own set of wmes. A cycle, an order
// or a bucket is one message; a run of activations is coalesced.
func (c *Control) deliver(cc *ctlConn, src int32, ms []parallel.Message, batch int32) error {
	ft := kindFrames[ms[0].Kind]
	err := cc.writeLocked(ft, func(e *enc) {
		e.I32(batch)
		e.I32(src)
		switch m := &ms[0]; ft {
		case ftCycle:
			e.changes(m.Cycle.Changes, m.Cycle.Handles)
		case ftActs:
			e.actList(ms)
		case ftRepart:
			e.partition(m.Order.Part)
			e.moves(m.Order.Moves)
		case ftBucket:
			e.bucketContents(m.Inject)
		}
	})
	if err != nil {
		err = fmt.Errorf("transport: %s frame to worker %d: %w", ft, cc.id, err)
		c.Fail(err) // the message was registered and is lost
	}
	return err
}

// readLoop consumes one worker's frames: relays are registered and
// forwarded to their destination conn, turn frames deliver the turn's
// result to the driver and deregister its messages. It is the single
// producer of the worker's causal track.
func (c *Control) readLoop(cc *ctlConn) {
	defer c.readers.Done()
	if err := c.read(cc); err != nil && !c.Closed() {
		c.Fail(err)
	}
}

func (c *Control) read(cc *ctlConn) error {
	track := c.opts.Causal.Track(cc.id)
	d := &cc.dec
	var msgs []parallel.Message
	var tf turnFrame
	var tfCycle int32
	for {
		ft, payload, err := cc.fr.next()
		if err != nil {
			return fmt.Errorf("transport: worker %d connection: %w", cc.id, err)
		}
		d.Reset(payload)
		switch ft {
		case ftRelay, ftBucketRelay:
			// A relay is decoded into messages, registered and delivered
			// with the sender as source, whatever it carries: references
			// resolve in the control's table and leave as references or,
			// where the destination has not been sent the wme at this
			// handle, definitions.
			dst := d.worker()
			if d.Err == nil && int(dst) == cc.id {
				d.Fail(fmt.Sprintf("worker %d sent a %s frame to itself", cc.id, ft))
			}
			// A relay is re-encoded before the next frame is read and
			// nothing of it is kept, so every relay's tokens are carved
			// from the same region.
			d.tokens.Rewind()
			if ft == ftRelay {
				msgs = d.actList(c.network, msgs)
			} else {
				msgs = append(msgs[:0], parallel.Message{Kind: parallel.MsgMigrateIn, Inject: d.bucketContents(c.network)})
			}
			if err := d.Done(); err != nil {
				return err
			}
			if len(msgs) == 0 {
				continue
			}
			// Register the forwarded work BEFORE it becomes visible to
			// the destination — the wire form of Add-before-send — and
			// before the sender's closing turn frame deregisters its own.
			if ft == ftRelay {
				c.Sending(cc.id, len(msgs))
			} else {
				c.Shipping(cc.id, msgs[0].Inject.Entries())
			}
			batch := c.opts.Causal.NextBatch()
			track.Send(c.Now(), c.CurrentCycle(), batch, dst, int32(len(msgs)))
			out := c.conns[dst]
			out.mu.Lock()
			err := c.deliver(out, int32(cc.id), msgs, batch)
			out.mu.Unlock()
			if err != nil {
				return err
			}
		case ftTurn:
			// The control's cycle advances only after the engine has
			// absorbed the last one's result, so the arrays this
			// connection lent its deltas are free again.
			if cycle := c.CurrentCycle(); cycle != tfCycle {
				tf.lent.Rewind()
				tfCycle = cycle
			}
			if err := d.turn(c.network, &tf); err != nil {
				return err
			}
			track.Absorb(tf.rec.events, tf.rec.agg, tf.rec.sent, c.Now(), c.CurrentCycle())
			// Everything the turn sent arrived earlier on this stream and
			// is registered; now its own messages can be deregistered.
			c.TurnDone(cc.id, tf.n, &tf.turn)
		default:
			return fmt.Errorf("%w: control got unexpected %s frame from worker %d", ErrBadPayload, ft, cc.id)
		}
	}
}

// Close shuts the topology down: a shutdown frame to every worker,
// then the connections and listener. Safe to call more than once.
func (c *Control) Close() error {
	if !c.Shutdown() {
		return nil
	}
	for _, cc := range c.conns {
		cc.write(ftShutdown, nil)
	}
	// Give readers their EOF: workers close their end on shutdown; the
	// conn close below unblocks any reader whose worker won't.
	for _, cc := range c.conns {
		cc.c.SetReadDeadline(time.Now().Add(2 * time.Second))
	}
	c.readers.Wait()
	for _, cc := range c.conns {
		cc.c.Close()
	}
	c.ln.Close()
	return nil
}
