package transport

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"time"

	"mpcrete/internal/obs"
	"mpcrete/internal/ops5"
	"mpcrete/internal/parallel"
	"mpcrete/internal/rete"
	"mpcrete/internal/sched"
	"mpcrete/internal/wire"
)

// The worker half of the star carrier: parallel.Step behind a socket.
// A worker process dials the control process, receives the program and
// its slice of the topology in the hello handshake, compiles the
// network it matches over, once per process per program (decodeHello),
// and then turns frames into step calls: each
// incoming ftCycle, ftActs, ftRepart or ftBucket frame is decoded into
// parallel.Messages, handed to Step.Handle as one turn, and answered
// with what the step left behind — one coalesced ftRelay frame per
// remote destination, one ftBucketRelay per extracted bucket, and a
// closing ftTurn frame carrying the processed count and the
// parallel.Turn (activation count, conflict-set deltas, bucket loads)
// — and, when the hello's ring capacity is nonzero, the turn as the
// worker recorded it on its own clock (turnRecord). What a turn
// computes is the step's business; this file only decodes, encodes,
// records and orders frames.
//
// Frame order is the termination-detection argument: relays precede
// the turn frame on the same TCP stream, so the control process
// registers forwarded work (Driver.Sending, Driver.Shipping) before it
// deregisters the turn's processed messages (Driver.TurnDone) — the
// exact Add-before-visible / Done-after-processed discipline the
// goroutine carrier keeps with function-call ordering.

// protoVersion is the handshake protocol version; a mismatch aborts
// the handshake rather than mis-decoding frames. What each changed:
//
//	2   migration frames, the trackLoads flag, ftTurn's bucket loads
//	3   rete.HashKey's number fold: no frame changes, but ftActs carries
//	    the sender's bucket, so peers that hash apart would mis-join
//	4   every wme position a definition or an (ID, TimeTag) reference; a
//	    delta names its production by terminal node id
//	5   a definition is a layout id and a row of values
//	6   no time tags in ftTurn: the control computes recency
//	7   the hello ships program text; ready answers with its digest
//	8   rete.HashKey's word fold (no frame changes)
//	9   a wme is named by the control's handle; a worker mirrors the
//	    control's table
//	10  every delivery opens with the causal stamp; workers never define
//	11  the hello carries the control's ring capacity; ftTurn drops the
//	    echoed recv stamps, flush count and depth, which only the
//	    control's recorder read, and under a recorder ends with the
//	    worker's own events and the turn's aggregate
//	12  a number's float bits cross byte-reversed (wire.Enc.F64)
const protoVersion = 12

// maxRing bounds the ring capacity a hello asks for: 64Ki events.
const maxRing = 1 << 16

// hello is the decoded handshake.
type hello struct {
	id       int
	workers  int
	nbuckets int
	// trackLoads asks the worker to count activations per bucket and
	// report nonzero counts in each ftTurn frame (the control plane's
	// rebalance detector feeds on them).
	trackLoads bool
	// ring is the control's flight-recorder ring capacity (0: none).
	ring      int
	partition sched.Partition
	// net is compiled from the hello's program, or shared with every
	// worker of the process handed the same program (decodeHello), so
	// nothing on a worker may change it.
	net *rete.Network
}

// appendProgram appends what a hello ships of a network: its variant,
// then each production's source text in definition order — everything
// rete.CompileVariant needs to compile it again.
func appendProgram(buf []byte, net *rete.Network) []byte {
	e := wire.Enc{Buf: buf}
	e.Str(net.Variant())
	e.Count(len(net.ProdOrder))
	for _, name := range net.ProdOrder {
		e.Str(net.Prods[name].Prod.String())
	}
	return e.Buf
}

// encodeHello appends a hello: the worker's slice of the topology, then
// program, as appendProgram wrote it (Control prints it once for all its
// workers).
func encodeHello(e *enc, h hello, program []byte) {
	e.U64(protoVersion)
	e.Int(h.id)
	e.Int(h.workers)
	e.Int(h.nbuckets)
	e.Bool(h.trackLoads)
	e.Int(h.ring)
	e.partition(h.partition)
	e.Raw(program)
}

// decodeHello reads a hello and compiles its program, once per process
// per program: a hello whose program bytes are those of the last one
// that compiled takes that network (helloCache), so every worker of a
// process handed one program shares one read-only network, as
// parallel.Runtime's workers do. Every count is held to the bytes that
// remain, so a forged hello costs what its length can buy; source that
// does not parse, or a variant the compiler does not know, is
// ErrBadPayload like any other payload, and is never cached.
func decodeHello(payload []byte) (hello, error) {
	d := dec{Dec: wire.Dec{B: payload}}
	if ver := d.U64(); d.Err == nil && ver != protoVersion {
		return hello{}, fmt.Errorf("%w: protocol version %d, want %d", ErrBadPayload, ver, protoVersion)
	}
	h := hello{id: d.Int(), workers: d.Int(), nbuckets: d.Int(), trackLoads: d.Bool(), ring: d.Int()}
	if d.Err == nil && (h.id < 0 || h.workers < 1 || h.id >= h.workers || !rete.ValidNBuckets(h.nbuckets)) {
		return h, fmt.Errorf("%w: topology id=%d workers=%d nbuckets=%d", ErrBadPayload, h.id, h.workers, h.nbuckets)
	}
	if d.Err == nil && (h.ring < 0 || h.ring > maxRing) {
		return h, fmt.Errorf("%w: ring capacity %d out of range [0,%d]", ErrBadPayload, h.ring, maxRing)
	}
	d.nbuckets, d.workers = h.nbuckets, h.workers
	h.partition = d.partition()
	if d.Err != nil {
		return h, d.Err
	}
	c := &helloCache
	c.Lock()
	defer c.Unlock()
	if c.net != nil && bytes.Equal(d.B, c.program) {
		h.net = c.net
		return h, nil
	}
	program := d.B
	var err error
	if h.net, err = compileProgram(&d); err != nil {
		return h, err
	}
	c.program, c.net = append(c.program[:0], program...), h.net
	return h, nil
}

// helloCache is decodeHello's one entry: the program bytes of the last
// hello that compiled cleanly, and the network they compiled to. Its
// lock is held across a compile, so workers of one process that
// handshake together compile their common program once.
var helloCache struct {
	sync.Mutex
	program []byte
	net     *rete.Network
}

// compileProgram parses and compiles the program d holds to its end,
// as appendProgram wrote it, past the cache.
func compileProgram(d *dec) (*rete.Network, error) {
	variant := d.Str()
	prods := make([]*ops5.Production, d.Count(1<<20))
	for i := 0; i < len(prods) && d.Err == nil; i++ {
		var err error
		if prods[i], err = ops5.ParseProduction(d.Str()); err != nil {
			d.Fail(fmt.Sprintf("production %d: %v", i, err))
		}
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	net, err := rete.CompileVariant(prods, variant)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	return net, nil
}

// Serve dials the control address, retrying until the timeout (worker
// processes typically race the control's Listen), and runs the worker
// protocol until shutdown (nil) or a fatal error.
func Serve(addr string, dialTimeout time.Duration) error {
	deadline := time.Now().Add(dialTimeout)
	var conn net.Conn
	var err error
	for {
		conn, err = net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("transport: dialing control at %s: %w", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	return ServeConn(conn)
}

// ServeConn runs the worker protocol on an established control
// connection and closes it. It returns nil on a clean shutdown frame.
func ServeConn(conn net.Conn) error {
	defer conn.Close()
	return serveConn(conn)
}

// serveConn is ServeConn leaving the connection open.
func serveConn(conn net.Conn) error {
	fr := frameReader{r: conn}

	ft, payload, err := fr.next()
	if err != nil {
		return fmt.Errorf("transport: worker handshake: %w", err)
	}
	if ft != ftHello {
		return fmt.Errorf("%w: worker expected hello, got %s", ErrBadPayload, ft)
	}
	h, err := decodeHello(payload)
	if err != nil {
		return fmt.Errorf("transport: worker handshake: %w", err)
	}
	mirror := rete.NewTable()
	var track *obs.TrackRecorder
	if h.ring > 0 {
		track = obs.NewCausalRecorder(1, h.ring, 1, 0).Track(0)
	}
	w := &starWorker{
		hello: h,
		step:  parallel.NewStep(rete.NewProcessor(h.net, len(h.partition), mirror), h.id, h.workers, h.partition, h.trackLoads, track),
		track: track,
		epoch: time.Now(),
		conn:  conn,
		dec: dec{nbuckets: h.nbuckets, workers: h.workers, tab: mirror, mirror: true,
			made: ops5.Carver{Floor: mirrorRowsPerChunk}, layouts: h.net.Layouts()},
		enc: enc{tab: mirror, refsOnly: true, layouts: h.net.Layouts()},
	}

	w.enc.begin()
	w.enc.Int(h.id)
	w.enc.U64(h.net.Digest())
	if err := w.send(ftReady); err != nil {
		return fmt.Errorf("transport: worker ready: %w", err)
	}

	for {
		ft, payload, err := fr.next()
		if err != nil {
			return fmt.Errorf("transport: worker %d read: %w", h.id, err)
		}
		if ft == ftShutdown {
			return nil
		}
		if err := w.turn(ft, payload); err != nil {
			return fmt.Errorf("transport: worker %d %s turn: %w", h.id, ft, err)
		}
	}
}

// starWorker is one worker process's carrier state: the step, the
// decoder that fills the step's mirror of the control's wme table and
// the encoder that references it, and the message buffers reused
// across turns; under a recorder, its own ring, timed from epoch.
type starWorker struct {
	hello
	step  *parallel.Step
	track *obs.TrackRecorder
	epoch time.Time
	conn  net.Conn
	dec   dec
	enc   enc

	pkt   parallel.CyclePacket
	order parallel.MigrateOrder
	msgs  []parallel.Message
	rec   turnRecord
}

// clock is the recorder clock; a worker that records nothing reads none.
func (w *starWorker) clock() int64 {
	if w.track == nil {
		return 0
	}
	return time.Since(w.epoch).Nanoseconds()
}

// send closes the open frame and writes everything encoded since the
// last send — a turn's relays and its turn frame — with one Write.
func (w *starWorker) send(ft frameType) error {
	if err := w.enc.end(ft); err != nil {
		return err
	}
	return w.enc.flush(w.conn)
}

// turn handles one incoming protocol frame end to end: decode it into
// messages, run them through the step as one turn, and write the relay,
// bucket-relay and turn frames.
func (w *starWorker) turn(ft frameType, payload []byte) error {
	d := &w.dec
	d.Reset(payload)
	// The previous turn's decoded tokens are dead, as its phase tokens
	// are (BeginPhase below): every memory it added to stored copies.
	d.tokens.Rewind()
	// Every delivery opens with its causal stamp, which its recv names.
	batch, src, n := d.I32(), d.I32(), int32(1)
	switch ft {
	case ftCycle:
		d.changes(&w.pkt)
		w.msgs = append(w.msgs[:0], parallel.Message{Kind: parallel.MsgCycle, Cycle: &w.pkt})
	case ftActs:
		w.msgs = d.actList(w.net, w.msgs)
		n = int32(len(w.msgs))
	case ftRepart:
		w.order = parallel.MigrateOrder{Part: d.partition(), Moves: d.moves()}
		w.msgs = append(w.msgs[:0], parallel.Message{Kind: parallel.MsgMigrateOut, Order: &w.order})
	case ftBucket:
		w.msgs = append(w.msgs[:0], parallel.Message{Kind: parallel.MsgMigrateIn, Inject: d.bucketContents(w.net)})
	default:
		return fmt.Errorf("%w: worker got unexpected %s frame", ErrBadPayload, ft)
	}
	if err := d.Done(); err != nil {
		return err
	}

	s := w.step
	// The previous turn's phase tokens and lent delta arrays are dead:
	// its queue drained, and its relays and deltas were built and encoded
	// before it returned.
	s.BeginPhase()
	// The cycle is the control's to stamp (Absorb).
	ts := w.clock()
	w.track.Mark(obs.EvTurnBegin, ts, 0, 0, 0)
	w.track.Recv(ts, 0, batch, src, n)
	s.BeginTurn(ts, 0)
	s.Handle(w.msgs)

	// One coalesced relay frame per destination and one bucket relay per
	// extracted bucket, then the turn frame — in that order, on this one
	// stream (see the comment on termination accounting above).
	e := &w.enc
	if s.Pending > 0 {
		w.track.Flush(w.clock(), 0, int32(s.Pending))
		for dst, buf := range s.Out {
			if len(buf) == 0 {
				continue
			}
			e.begin()
			e.I32(int32(dst))
			e.actList(buf)
			if err := e.end(ftRelay); err != nil {
				return err
			}
			s.Out[dst] = buf[:0]
		}
		s.Pending = 0
	}
	for _, mv := range s.Moved {
		e.begin()
		e.I32(mv.Dst)
		e.bucketContents(mv.Contents)
		if err := e.end(ftBucketRelay); err != nil {
			return err
		}
	}
	s.Moved = s.Moved[:0]

	t := s.EndTurn(false)
	var rec *turnRecord
	if w.track != nil {
		w.track.Mark(obs.EvTurnEnd, w.clock(), 0, n, int32(t.Handled))
		w.rec.events, w.rec.agg = w.track.HandOver(w.rec.events[:0])
		w.rec.sent = w.clock()
		rec = &w.rec
	}
	e.begin()
	e.turn(int(n), t, rec)
	return w.send(ftTurn)
}
