package transport

import (
	"fmt"

	"mpcrete/internal/ops5"
	"mpcrete/internal/parallel"
	"mpcrete/internal/rete"
	"mpcrete/internal/sched"
	"mpcrete/internal/wire"
)

// Payload codec: varint-encoded values over the frame payloads, on the
// primitives of internal/wire. The in-process transport
// moves pointers; the wire moves a wme's content once per directed
// connection and names it afterwards. Every wme position on the wire
// opens with a form byte: a definition or a reference (ID, TimeTag)
// that the receiver resolves in its mirror of the sender's wmeCache. A
// token, an activation or a conflict-set delta over wmes the connection
// has already carried is a vector of references and decodes without
// allocating a wme.
//
// A definition is a row of the class's layout, which both ends hold
// because both compiled the same productions, and the handshake's
// digest proves they numbered the layout table alike
// (rete.Network.Layouts; a layout's id is its index on both sides):
//
//	ID, TimeTag
//	class reference: layout id + 1, or 0 and the class name for a class
//	    the network has no layout for
//	count and values of the leading slots, trailing absent ones trimmed
//	    (a nil value is an absent attribute)
//	count and (name, value) pairs of the attributes outside the layout,
//	    in ascending name order
//
// There is one way to say each wme, so the encoding is canonical. The
// decoder refuses, with ErrBadPayload, a layout id outside the table, a
// named class the table does have a layout for, more slots than the
// layout has attributes, and extras that are out of order, nil, or name
// an attribute the layout gives a slot.
//
// The identity contract: (ID, TimeTag) names one immutable content for
// the life of a connection. The engine guarantees it — a fresh ID and a
// fresh time tag per make, no Reset on a wire-backed matcher — tokens
// already compare by ID alone (Token.Same), and joins read values,
// never pointer identity, so every reference to a wme may resolve to
// the one decoded copy. A sender that breaks the contract is answered
// with the content it first defined, or, where the two ends have come
// apart, with ErrBadPayload; never with a guess.
//
// The two ends of a cache stay in step because the byte stream is the
// only thing that changes either: the encoder updates its table in the
// order the bytes leave (under the connection's write mutex) and the
// decoder in the order they arrive. There is no invalidation message
// and no cycle boundary in it; an evicted wme costs a second
// definition. A frame that a process forwards without decoding
// (ftBucketRelay to ftBucket) therefore may not touch a cache — the
// forwarder's tables would never see it — and bucketContents encodes
// and decodes with the cache off: definitions only, none stored.
//
// Decoding resolves graph references against the receiver's compiled
// network: node ids are bounds-checked into net.Nodes, and a
// production travels as its terminal node's id, which must name a
// production node, so a frame cross-wired from a different program
// fails with ErrBadPayload instead of corrupting the match state.

// wmeCacheSlots sizes a connection's wme cache: direct-mapped on the
// low bits of WME.ID, which the engine hands out densely and in
// increasing order, so a slot is evicted only when ids a multiple of
// the size apart are in use together. 8-queens (571 wmes at load,
// 2,061 ids by the halt 2,033 firings later) fits without one eviction:
// over the star, two workers, broadcast, 6,544 definitions against
// 57,435 references (TestWireBytesPerFiring logs the split per
// connection). A constant, not an option: eviction changes the byte
// count, never the answer (TestEvictionParity).
const wmeCacheSlots = 4096

// wmeCache is one end of a directed connection's cache: slot ID mod
// wmeCacheSlots holds the wme last defined there. The sending end
// probes it to choose between a definition and a reference; the
// receiving end resolves references in it. Each end is owned by
// whoever orders the connection's bytes on that side: the holder of
// the write mutex, or the one reader goroutine.
type wmeCache struct {
	slots [wmeCacheSlots]*ops5.WME
	// defs and refs count the wmes that crossed in each form.
	defs, refs int64
}

func (c *wmeCache) slot(id int) **ops5.WME { return &c.slots[uint64(id)%wmeCacheSlots] }

// The forms a wme position takes on the wire.
const (
	wmeNil byte = iota // no wme: a conflict-set delta's negated CE
	wmeDef             // content by value; stored when the stream is cached
	wmeRef             // (ID, TimeTag) of a wme the stream defined earlier
)

// enc is an append-only frame encoder over wire's primitives. One lives
// as long as its connection: Buf collects whole frames (begin, payload,
// end — see frame.go) until flush writes them with a single Write, cache
// is the connection's send cache (nil encodes every wme as an unstored
// definition), and layouts is the network's layout table, which
// definitions are rows of.
type enc struct {
	wire.Enc
	start   int // offset of the open frame's header in Buf
	cache   *wmeCache
	layouts []*ops5.Layout
}

// dec is a payload decoder over wire's sticky, bounds-checked
// primitives. One lives as long as its reader and is Reset per payload.
// nbuckets and workers are the topology's index bounds: every
// wire-supplied bucket and worker index is held to them here (bucket,
// worker), the one place such indices enter the process, so the worker
// step and the cycle driver can index with them unchecked. The zero
// bounds reject every index. cache is the connection's receive cache;
// without one every wme reference is refused. layouts is the network's
// layout table; without one every definition by layout id is.
type dec struct {
	wire.Dec
	nbuckets, workers int
	cache             *wmeCache
	layouts           []*ops5.Layout

	// refs is the unconsumed tail of the slab decoded tokens are carved
	// from (token), as rete's token arena carves the match's own.
	refs []*ops5.WME
}

// index decodes an index into a space of the given size.
func (d *dec) index(size int, what string) int32 {
	v := d.I64()
	if d.Err != nil || v < 0 || v >= int64(size) {
		d.Fail(fmt.Sprintf("%s %d out of range [0,%d)", what, v, size))
		return 0
	}
	return int32(v)
}

func (d *dec) bucket() int32 { return d.index(d.nbuckets, "bucket") }
func (d *dec) worker() int32 { return d.index(d.workers, "worker") }

// --- wmes ---

// wme encodes a wme position: a reference when the connection's cache
// holds this (ID, TimeTag), otherwise a definition, which takes the
// slot.
func (e *enc) wme(w *ops5.WME) {
	if c := e.cache; c != nil {
		slot := c.slot(w.ID)
		if s := *slot; s != nil && s.ID == w.ID && s.TimeTag == w.TimeTag {
			c.refs++
			e.Byte(wmeRef)
			e.Int(w.ID)
			e.Int(w.TimeTag)
			return
		}
		c.defs++
		*slot = w
	}
	e.def(w)
}

// layoutOf finds a class's layout in a table by name — the slow path of
// both ends: a wme the table did not lay out, a class it does not hold.
func layoutOf(table []*ops5.Layout, class string) *ops5.Layout {
	for _, l := range table {
		if l.Class() == class {
			return l
		}
	}
	return nil
}

// def encodes a definition, leaving the cache alone. A wme the
// network's own layout did not lay out in full — a loose one a test or
// a script handed the matcher, one laid out by another network — is
// conformed first, so the row on the wire is always the table's.
func (e *enc) def(w *ops5.WME) {
	e.Byte(wmeDef)
	e.Int(w.ID)
	e.Int(w.TimeTag)
	l := w.Layout()
	if l == nil || l.ID() >= len(e.layouts) || e.layouts[l.ID()] != l || len(w.Slots()) != l.Len() {
		tl := layoutOf(e.layouts, w.Class)
		if tl != nil || l != nil {
			w = tl.Conform(w) // the nil layout's row is the loose form
		}
		l = tl
	}
	if l == nil {
		e.U64(0)
		e.Str(w.Class)
	} else {
		e.U64(uint64(l.ID()) + 1)
	}
	slots := w.Slots()
	for len(slots) > 0 && slots[len(slots)-1].Nil() {
		slots = slots[:len(slots)-1]
	}
	e.Count(len(slots))
	for _, v := range slots {
		e.Value(v)
	}
	e.Count(len(w.Extra()))
	for _, a := range w.Extra() {
		e.Str(a.Name)
		e.Value(a.Value)
	}
}

// optWME encodes a possibly-nil wme (InstChange entries for negated
// CEs are nil).
func (e *enc) optWME(w *ops5.WME) {
	if w == nil {
		e.Byte(wmeNil)
		return
	}
	e.wme(w)
}

// optWME decodes a wme position in any of its three forms (nil when
// absent, and after a failure). A reference must name exactly what its
// slot holds: an empty slot, another ID or another time tag means the
// two ends of the cache have come apart, or the frame is forged.
func (d *dec) optWME() *ops5.WME {
	switch form := d.Byte(); form {
	case wmeNil:
	case wmeDef:
		w := d.def()
		if c := d.cache; c != nil && d.Err == nil {
			c.defs++
			*c.slot(w.ID) = w
		}
		return w
	case wmeRef:
		id, tag := d.Int(), d.Int()
		if d.Err != nil {
			return nil
		}
		if d.cache == nil {
			d.Fail("wme reference on a stream without a cache")
			return nil
		}
		if w := *d.cache.slot(id); w != nil && w.ID == id && w.TimeTag == tag {
			d.cache.refs++
			return w
		}
		d.Fail(fmt.Sprintf("wme reference (%d, %d) names nothing the stream defined", id, tag))
	default:
		d.Fail(fmt.Sprintf("wme form %d", form))
	}
	return nil
}

// def decodes a definition's body into a wme laid out by the table's
// layout of its class (a loose one for a class the table lacks). After
// a failure the result is not to be used.
func (d *dec) def() *ops5.WME {
	id, tag := d.Int(), d.Int()
	var l *ops5.Layout
	var w *ops5.WME
	if ref := d.U64(); ref == 0 {
		w = &ops5.WME{Class: d.Str()}
		if tl := layoutOf(d.layouts, w.Class); tl != nil {
			d.Fail(fmt.Sprintf("class %q defined by name, but layout %d is its", w.Class, tl.ID()))
			return nil
		}
	} else if ref > uint64(len(d.layouts)) {
		d.Fail(fmt.Sprintf("layout id %d outside the table of %d", ref-1, len(d.layouts)))
		return nil
	} else {
		l = d.layouts[ref-1]
		w = l.New()
	}
	w.ID, w.TimeTag = id, tag
	slots := w.Slots()
	n := d.Count(1 << 16)
	if n > len(slots) {
		d.Fail(fmt.Sprintf("%d slots in a definition of class %q, whose layout has %d", n, w.Class, len(slots)))
		return nil
	}
	for i := 0; i < n; i++ {
		slots[i] = d.Value()
	}
	prev := ""
	for i, n := 0, d.Count(1<<16); i < n; i++ {
		name, v := d.Str(), d.Value()
		if d.Err != nil {
			return nil
		}
		var fault string
		if _, slotted := l.Slot(name); slotted {
			fault = "has a slot in the layout"
		} else if v.Nil() {
			fault = "is nil"
		} else if i > 0 && name <= prev {
			fault = "is out of order after " + prev
		}
		if fault != "" {
			d.Fail(fmt.Sprintf("extra attribute %q of class %q %s", name, w.Class, fault))
			return nil
		}
		w.Set(name, v)
		prev = name
	}
	return w
}

// wme decodes a wme position that must hold one.
func (d *dec) wme() *ops5.WME {
	w := d.optWME()
	if w == nil {
		d.Fail("absent wme")
	}
	return w
}

// wmes encodes a counted list of wmes (a token's).
func (e *enc) wmes(ws []*ops5.WME) {
	e.Count(len(ws))
	for _, w := range ws {
		e.wme(w)
	}
}

// Decoded tokens are carved from slabs of this many references
// (rete's arena chunk size): a token a worker stores keeps its slab
// alive, and a slab costs one allocation per ~300 tokens.
const refSlab = 1024

// token decodes a counted list of wmes into a token carved from the
// decoder's slab.
func (d *dec) token() rete.Token {
	n := d.Count(1 << 16)
	if len(d.refs) < n {
		d.refs = make([]*ops5.WME, max(n, refSlab))
	}
	t := rete.Token{WMEs: d.refs[:n:n]}
	d.refs = d.refs[n:]
	for i := range t.WMEs {
		t.WMEs[i] = d.wme()
	}
	return t
}

// --- changes, activations, instantiations ---

func (e *enc) change(ch rete.Change) {
	e.Byte(byte(ch.Tag))
	e.wme(ch.WME)
}

func (e *enc) changes(chs []rete.Change) {
	e.Count(len(chs))
	for _, ch := range chs {
		e.change(ch)
	}
}

// changes decodes a cycle's wme changes into buf.
func (d *dec) changes(buf []rete.Change) []rete.Change {
	n := d.Count(1 << 24)
	if cap(buf) < n {
		buf = make([]rete.Change, 0, n)
	}
	buf = buf[:0]
	for i := 0; i < n; i++ {
		buf = append(buf, rete.Change{Tag: d.tag(), WME: d.wme()})
	}
	return buf
}

func (d *dec) tag() rete.Tag {
	b := d.Byte()
	if t := rete.Tag(b); t == rete.Add || t == rete.Delete {
		return t
	}
	d.Fail(fmt.Sprintf("tag %d", b))
	return 0
}

func (e *enc) activation(a rete.Activation) {
	e.Int(a.Node.ID)
	e.Byte(byte(a.Side))
	e.Byte(byte(a.Tag))
	// The token flag is the side: a left activation carries a token, a
	// right one does not.
	e.Bool(a.Side == rete.Left)
	if a.Side == rete.Left {
		e.wmes(a.Token.WMEs)
	}
	e.optWME(a.WME)
}

// node decodes a compiled-network node reference (nil on failure).
func (d *dec) node(net *rete.Network) *rete.Node {
	id := d.Int()
	if d.Err != nil || id < 0 || id >= len(net.Nodes) {
		d.Fail(fmt.Sprintf("node id %d out of range [0,%d)", id, len(net.Nodes)))
		return nil
	}
	return net.Nodes[id]
}

// activation decodes one activation and holds it to the shape its node
// takes, so that a step can perform whatever decodes: a left activation
// brings a token as wide as the node's left input and no wme, a right
// one a wme and no token, at a node that has that input.
func (d *dec) activation(net *rete.Network) rete.Activation {
	a := rete.Activation{Node: d.node(net)}
	side := d.Byte()
	if side != byte(rete.Left) && side != byte(rete.Right) {
		d.Fail(fmt.Sprintf("side %d", side))
	}
	a.Side = rete.Side(side)
	a.Tag = d.tag()
	hasToken := d.Bool()
	if hasToken {
		a.Token = d.token()
	}
	a.WME = d.optWME()
	if d.Err != nil {
		return a
	}
	switch {
	case a.Side == rete.Left && (!hasToken || a.WME != nil || !a.Node.TakesLeft(len(a.Token.WMEs))):
		d.Fail(fmt.Sprintf("left activation of %s node %d needs a %d-wme token and no wme", a.Node.Kind, a.Node.ID, a.Node.LeftLen))
	case a.Side == rete.Right && (a.WME == nil || hasToken || !a.Node.TakesRight()):
		d.Fail(fmt.Sprintf("right activation of %s node %d needs a wme and no token", a.Node.Kind, a.Node.ID))
	}
	return a
}

// actList encodes a run of MsgAct messages with their routing
// metadata — the body of the ftActs and ftRelay frames.
func (e *enc) actList(ms []parallel.Message) {
	e.Count(len(ms))
	for i := range ms {
		e.I32(ms[i].Bucket)
		e.I32(ms[i].Depth)
		e.activation(ms[i].Act)
	}
}

func (d *dec) actList(net *rete.Network, buf []parallel.Message) []parallel.Message {
	n := d.Count(1 << 24)
	buf = buf[:0]
	for i := 0; i < n; i++ {
		buf = append(buf, parallel.Message{Kind: parallel.MsgAct, Bucket: d.bucket(), Depth: d.I32(), Act: d.activation(net)})
	}
	return buf
}

// instChange encodes one conflict-set delta: its tag, its production as
// the terminal node's compiled id, and one wme position per condition
// element. Recency does not travel: the control derives it from the
// wmes it resolves the positions to.
func (e *enc) instChange(ic rete.InstChange) {
	e.Byte(byte(ic.Tag))
	e.Int(ic.Info.Node.ID)
	e.Count(len(ic.WMEs))
	for _, w := range ic.WMEs {
		e.optWME(w)
	}
}

// instChange decodes one delta of a turn frame, carving its array from
// the frame's slab, and holds it to its production's shape — a position
// per condition element, empty exactly at the negated ones — which the
// engine indexes by.
func (d *dec) instChange(net *rete.Network, tf *turnFrame) rete.InstChange {
	ic := rete.InstChange{Tag: d.tag()}
	n := d.node(net)
	if n == nil {
		return ic
	}
	if n.Kind != rete.KindProduction || n.Info == nil {
		d.Fail(fmt.Sprintf("node %d is not a production's terminal", n.ID))
		return ic
	}
	ic.Info = n.Info
	nw := d.Count(len(tf.wmes))
	if d.Err == nil && nw != len(n.Info.TokenPos) {
		d.Fail(fmt.Sprintf("delta of %q carries %d wme positions, the production has %d condition elements", n.Info.Prod.Name, nw, len(n.Info.TokenPos)))
		return ic
	}
	ic.WMEs, tf.wmes = tf.wmes[:nw:nw], tf.wmes[nw:]
	for i := range ic.WMEs {
		ic.WMEs[i] = d.optWME()
		if d.Err == nil && (ic.WMEs[i] == nil) != (n.Info.TokenPos[i] < 0) {
			d.Fail(fmt.Sprintf("delta of %q: position %d is empty, or filled at a negated condition element", n.Info.Prod.Name, i))
		}
	}
	return ic
}

// --- migration payloads: move lists, partitions, bucket contents ---

func (e *enc) moves(mvs []parallel.BucketMove) {
	e.Count(len(mvs))
	for _, mv := range mvs {
		e.I32(mv.Bucket)
		e.I32(mv.NewOwner)
	}
}

func (d *dec) moves() []parallel.BucketMove {
	mvs := make([]parallel.BucketMove, d.Count(1<<24))
	for i := range mvs {
		mvs[i] = parallel.BucketMove{Bucket: d.bucket(), NewOwner: d.worker()}
	}
	return mvs
}

func (e *enc) partition(p sched.Partition) {
	e.Count(len(p))
	for _, owner := range p {
		e.Int(owner)
	}
}

// partition decodes a bucket-to-worker assignment covering exactly the
// decoder's bucket space.
func (d *dec) partition() sched.Partition {
	n := d.Count(1 << 24)
	if n != d.nbuckets {
		d.Fail(fmt.Sprintf("partition covers %d buckets, want %d", n, d.nbuckets))
		return nil
	}
	p := make(sched.Partition, n)
	for i := range p {
		p[i] = int(d.worker())
	}
	return p
}

// bucketContents encodes one extracted hash-bucket pair. Node
// references travel as compiled-network ids; tokens and wmes travel by
// value with the cache off, because the control process forwards the
// frame without decoding it (see the header). The decoded copy is safe
// to inject on the receiver because memory removal matches by value
// (wme ID / Token.Same), never by pointer identity.
func (e *enc) bucketContents(bc *rete.BucketContents) {
	cache := e.cache
	e.cache = nil
	e.Int(bc.Bucket)
	e.Count(len(bc.LeftTokens))
	for i, tok := range bc.LeftTokens {
		e.Int(bc.LeftNodes[i].ID)
		e.Int(bc.LeftCounts[i])
		e.wmes(tok.WMEs)
	}
	e.Count(len(bc.RightWMEs))
	for i, w := range bc.RightWMEs {
		e.Int(bc.RightNodes[i].ID)
		e.wme(w)
	}
	e.cache = cache
}

func (d *dec) bucketContents(net *rete.Network) *rete.BucketContents {
	cache := d.cache
	d.cache = nil
	bc := &rete.BucketContents{Bucket: int(d.bucket())}
	for i, n := 0, d.Count(1<<24); i < n; i++ {
		bc.LeftNodes = append(bc.LeftNodes, d.node(net))
		bc.LeftCounts = append(bc.LeftCounts, d.Int())
		bc.LeftTokens = append(bc.LeftTokens, d.token())
	}
	for i, n := 0, d.Count(1<<24); i < n; i++ {
		bc.RightNodes = append(bc.RightNodes, d.node(net))
		bc.RightWMEs = append(bc.RightWMEs, d.wme())
	}
	d.cache = cache
	return bc
}

// --- turn frames (the star carrier's ftTurn payload) ---

// turnFrame is a decoded ftTurn payload: how many protocol messages the
// worker fully processed, the recv stamps it drained, how many times it
// flushed, and what the step produced. wmes is the unconsumed tail of
// the frame's slab: the deltas' WMEs arrays, which the engine retains,
// are allocated once per frame at the total the frame declares, as
// rete.InstBuilder carves them once per match phase.
type turnFrame struct {
	n       int
	stamps  []parallel.RecvStamp
	flushes int64
	turn    parallel.Turn
	wmes    []*ops5.WME
}

func (e *enc) turn(n int, stamps []parallel.RecvStamp, flushes int64, t *parallel.Turn) {
	e.Int(n)
	e.Count(len(stamps))
	for _, s := range stamps {
		e.I32(s.Batch)
		e.I32(s.Src)
		e.I32(s.Count)
	}
	e.I64(t.Handled)
	e.I64(flushes)
	e.I32(t.MaxDepth)
	e.Count(len(t.Insts))
	nw := 0
	for i := range t.Insts {
		nw += len(t.Insts[i].WMEs)
	}
	e.Count(nw)
	for i := range t.Insts {
		e.instChange(t.Insts[i])
	}
	e.Count(len(t.Loads))
	for _, l := range t.Loads {
		e.I32(l.Bucket)
		e.I64(l.N)
	}
}

// turn decodes an ftTurn payload into tf, reusing its slices.
func (d *dec) turn(net *rete.Network, tf *turnFrame) error {
	if tf.n = d.Int(); tf.n < 0 {
		d.Fail("negative turn count")
	}
	tf.stamps = tf.stamps[:0]
	for i, n := 0, d.Count(1<<16); i < n; i++ {
		tf.stamps = append(tf.stamps, parallel.RecvStamp{Batch: d.I32(), Src: d.I32(), Count: d.I32()})
	}
	tf.turn.Handled, tf.flushes, tf.turn.MaxDepth = d.I64(), d.I64(), d.I32()
	tf.turn.Insts = tf.turn.Insts[:0]
	n := d.Count(1 << 24)
	// Every wme position costs a byte, so count holds the total to the
	// frame's size.
	tf.wmes = make([]*ops5.WME, d.Count(1<<24))
	for i := 0; i < n; i++ {
		tf.turn.Insts = append(tf.turn.Insts, d.instChange(net, tf))
	}
	if len(tf.wmes) != 0 {
		d.Fail("instantiations fall short of the frame's declared totals")
	}
	tf.turn.Loads = tf.turn.Loads[:0]
	for i, n := 0, d.Count(1<<24); i < n; i++ {
		tf.turn.Loads = append(tf.turn.Loads, parallel.BucketLoad{Bucket: d.bucket(), N: d.I64()})
	}
	return d.Done()
}
