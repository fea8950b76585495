package transport

import (
	"fmt"
	"math"
	"slices"

	"mpcrete/internal/alloc"
	"mpcrete/internal/obs"
	"mpcrete/internal/ops5"
	"mpcrete/internal/parallel"
	"mpcrete/internal/rete"
	"mpcrete/internal/sched"
	"mpcrete/internal/wire"
)

// Payload codec: varint-encoded values over the frame payloads, on the
// primitives of internal/wire. A wme is named by the control's handle
// (rete.Table), and every wme position opens with a form byte: a
// definition, carrying the handle and the content, or a reference
// (handle, TimeTag). A worker's table mirrors the control's: the
// control defines a wme to a worker the first time the worker needs it
// at its handle, and references it after. Workers never define: every
// position a worker sends, migrated bucket contents included, is a
// reference the control resolves in its own table. A token, an
// activation or a conflict-set delta over wmes the receiver holds
// decodes without allocating a wme.
//
// A definition is the handle, then a row of the class's layout, which
// both ends hold because both compiled the same productions, and the
// handshake's digest proves they numbered the layout table alike
// (rete.Network.Layouts; a layout's id is its index on both sides):
//
//	handle, ID, TimeTag
//	class reference: layout id + 1, or 0 and the class name for a class
//	    the network has no layout for
//	count and values of the leading slots, trailing absent ones trimmed
//	    (a nil value is an absent attribute)
//	count and (name, value) pairs of the attributes outside the layout,
//	    in ascending name order
//
// A value is wire.Enc.Value's: its kind byte, then a symbol's string or
// a number's float bits byte-reversed, so a small integer takes at most
// three bytes.
//
// There is one way to say each wme, so the encoding is canonical. The
// decoder refuses, with ErrBadPayload, a layout id outside the table, a
// named class the table does have a layout for, more slots than the
// layout has attributes, and extras that are out of order, nil, or name
// an attribute the layout gives a slot.
//
// The identity contract: (handle, TimeTag) names one immutable content
// for the life of a connection. The control's table gives a handle to
// one wme at a time and frees it only at the next cycle, and the engine
// gives every make a fresh time tag, so a recycled handle is defined
// again. A control connection's send state (enc.sent) changes in the
// order its bytes leave, under the write mutex, and the worker's mirror
// in the order they arrive. A reference to an empty row, another time
// tag, or a handle past mirrorMax is ErrBadPayload, and so is a
// definition anywhere the control reads one.
//
// So a definition at a handle the mirror already fills replaces a wme
// the control has freed, which no frame will name again: the mirror
// retires its row (rete.Rows, as the engine retires a deleted wme's),
// and a definition refills a retired row of its layout, or else takes
// the next row of the decoder's chunk of its width (dec.made). A worker
// therefore holds about as many rows as the control's table has
// handles, however many definitions cross, in a few chunks. A
// definition's symbols come from the decoder's table (dec.value): a
// symbol that crossed before costs no string.
//
// Decoding resolves graph references against the receiver's compiled
// network: node ids are bounds-checked into net.Nodes, and a
// production travels as its terminal node's id, which must name a
// production node, so a frame cross-wired from a different program
// fails with ErrBadPayload instead of corrupting the match state.
//
// The reservation rule: a buffer a frame fills is sized once, from the
// count the frame declares, before the first element is decoded — a
// cycle frame's changes (and the mirror's rows they define), an
// activation list, a turn frame's deltas, a move list — and never from
// a count alone: dec.fits holds it to the elements the payload's unread
// bytes could encode at their smallest (the min*Bytes constants), so a
// forged count buys no more memory than a few times its frame's own
// bytes. Nothing on the wire says how large a buffer is.

// mirrorMax bounds the handles on the wire, and with them a worker's
// mirror: 2^20 rows, 8 MiB of references. A run whose control table
// outgrows it cannot be served over the star; nothing in the repository
// comes near (8-queens peaks at 571 live wmes).
const mirrorMax = 1 << 20

// The forms a wme position takes on the wire.
const (
	wmeNil byte = iota // no wme: a conflict-set delta's negated CE
	wmeDef             // handle and content by value
	wmeRef             // (handle, TimeTag) of a wme the receiver holds
)

// enc is an append-only frame encoder over wire's primitives. One lives
// as long as its connection: Buf collects whole frames (begin, payload,
// end — see frame.go) until flush writes them with a single Write. tab
// is the control's table or a worker's mirror; definitions are rows of
// layouts.
type enc struct {
	wire.Enc
	start   int // offset of the open frame's header in Buf
	tab     *rete.Table
	layouts []*ops5.Layout
	// sent is a control connection's send state: the time tag last
	// defined at each handle (noTag where none was). A worker's encoder
	// has refsOnly set instead and never defines.
	sent     []int
	refsOnly bool
	// defs and refs count the wmes that crossed in each form.
	defs, refs int64
	// err is sticky: the first handle the encoder was asked for that
	// tab does not hold, which end reports for every frame after it.
	err error
}

// noTag marks a handle a connection has not defined.
const noTag = math.MinInt

// dec is a payload decoder over wire's sticky, bounds-checked
// primitives. One lives as long as its reader and is Reset per payload.
// nbuckets and workers are the topology's index bounds: every
// wire-supplied bucket and worker index is held to them here (bucket,
// worker), the one place such indices enter the process, so the worker
// step and the cycle driver can index with them unchecked. The zero
// bounds reject every index. tab resolves references: the control's
// table, or — with mirror set — a worker's mirror, whose rows
// definitions fill, drawn from rows. layouts is the network's layout
// table; without one every definition by layout id is refused. ring is
// the hello's ring capacity, the most events a turnRecord holds (0:
// frames carry none).
type dec struct {
	wire.Dec
	nbuckets, workers int
	ring              int
	tab               *rete.Table
	mirror            bool
	rows              rete.Rows         // the mirror's retired rows, by layout
	made              ops5.Carver       // the mirror's fresh rows, by the chunk
	syms              map[string]string // the symbols definitions name, interned (value)
	layouts           []*ops5.Layout
	defs, refs        int64

	// tokens is the arena decoded tokens are carved from (token), as
	// rete's phase arena carves the match's own. No decoded token
	// outlives the handling of its frame — a memory stores a copy of its
	// own — so the owner rewinds it before each frame that carries
	// tokens.
	tokens alloc.Arena[int32]
}

// The fewest bytes an element of each counted list takes on the wire,
// by which dec.fits holds a reservation to its frame: a wme reference
// is its form byte, handle and time tag; a change its tag and a wme
// position, a reference at the least; an activation its bucket, depth,
// node, side, tag and token flag and a wme position's form byte; a
// delta its tag, production, position count and a position for its
// first condition element; a move its bucket and new owner.
const (
	minRefBytes        = 3
	minChangeBytes     = 1 + minRefBytes
	minActivationBytes = 7
	minDeltaBytes      = 4
	minMoveBytes       = 2
)

// fits holds n, a count the frame declares, to the elements of at least
// minSize bytes each that the payload's unread rest could encode: what
// a decoder may reserve for them. Every buffer sized from a wire count
// is sized through it.
func (d *dec) fits(n, minSize int) int { return min(n, len(d.B)/minSize) }

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

// handle decodes a wme handle: never 0, and below mirrorMax.
func (d *dec) handle() int32 {
	h := d.index(mirrorMax, "wme handle")
	if d.Err == nil && h == 0 {
		d.Fail("wme handle 0")
	}
	return h
}

// --- wmes ---

// wme encodes the wme at handle h: a reference when the receiver holds
// it at this time tag, otherwise a definition. A handle tab does not
// hold — 0, or one never filled — encodes nothing and fails the frame
// (end).
func (e *enc) wme(h int32) {
	w := e.tab.WME(h)
	if w == nil {
		if e.err == nil {
			e.err = fmt.Errorf("transport: encoding wme handle %d, which the table does not hold", h)
		}
		return
	}
	if e.refsOnly || int(h) < len(e.sent) && e.sent[h] == w.TimeTag {
		e.refs++
		e.Byte(wmeRef)
		e.Int(int(h))
		e.Int(w.TimeTag)
		return
	}
	if int(h) >= len(e.sent) {
		// Grow once to every handle the table has given out, not to h.
		n := e.tab.Len()
		e.sent = slices.Grow(e.sent, n-len(e.sent))
		for len(e.sent) < n {
			e.sent = append(e.sent, noTag)
		}
	}
	e.sent[h] = w.TimeTag
	e.defs++
	e.def(h, w)
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

// def encodes a definition of w at handle h, leaving the send state
// alone. A wme the network's own layout did not lay out in full — a
// loose one a test or a script handed the matcher, one laid out by
// another network — is conformed first, so the row on the wire is
// always the table's.
func (e *enc) def(h int32, w *ops5.WME) {
	e.Byte(wmeDef)
	e.Int(int(h))
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

// optWME encodes a possibly-absent wme position: handle 0 (an
// activation's absent wme) is wmeNil.
func (e *enc) optWME(h int32) {
	if h == 0 {
		e.Byte(wmeNil)
		return
	}
	e.wme(h)
}

// optWME decodes a wme position in any of its three forms to a handle
// in d.tab (0 when absent, and after a failure). A definition fills the
// mirror's row, retiring the wme it held to d.rows; a reference must
// name exactly what its row holds.
func (d *dec) optWME() int32 {
	switch form := d.Byte(); form {
	case wmeNil:
	case wmeDef:
		if !d.mirror {
			d.Fail("a wme definition from a worker, which only references")
			return 0
		}
		h := d.handle()
		if old := d.tab.WME(h); old != nil {
			// The row at h is dead: the control defines a handle again
			// only after freeing it, a cycle later, and on a worker only
			// the mirror and the last cycle packet hold rows. A definition
			// that fails leaves h empty.
			d.rows.Retire(old)
			d.tab.Define(h, nil)
		}
		w := d.def()
		if d.Err != nil {
			return 0
		}
		d.defs++
		d.tab.Define(h, w)
		return h
	case wmeRef:
		h, tag := d.handle(), d.Int()
		if d.Err != nil {
			return 0
		}
		if w := d.tab.WME(h); w != nil && w.ID >= 0 && w.TimeTag == tag {
			d.refs++
			return h
		}
		d.Fail(fmt.Sprintf("wme reference (%d, %d) names nothing the stream defined", h, tag))
	default:
		d.Fail(fmt.Sprintf("wme form %d", form))
	}
	return 0
}

// def decodes a definition's body into a row of the table's layout of
// its class, a retired one refilled where d.rows has one (a fresh loose
// wme for a class the table lacks). After a failure the result is not
// to be used.
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
		w = d.rows.Row(&d.made, l, nil)
	}
	w.ID, w.TimeTag = id, tag
	slots := w.Slots()
	n := d.Count(1 << 16)
	if n > len(slots) {
		d.Fail(fmt.Sprintf("%d slots in a definition of class %q, whose layout has %d", n, w.Class, len(slots)))
		return nil
	}
	for i := 0; i < n; i++ {
		slots[i] = d.value()
	}
	prev := ""
	for i, n := 0, d.Count(1<<16); i < n; i++ {
		name, v := d.Str(), d.value()
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

// mirrorRowsPerChunk is the floor of a worker's mirror carver
// (dec.made): a definition that finds no retired row of its layout
// takes the next row of a chunk of 24 of its width. 8-queens' mirror
// holds 676 rows in three widths.
const mirrorRowsPerChunk = 24

// symbolTableCap bounds a decoder's symbol table (dec.syms): past it a
// new symbol is a string of its own.
const symbolTableCap = 4096

// value decodes a value as wire.Dec.Value does, taking a symbol's
// string from the decoder's table, so a symbol that crosses again
// costs no string.
func (d *dec) value() ops5.Value {
	if len(d.B) == 0 || ops5.Kind(d.B[0]) != ops5.KindSym {
		return d.Value()
	}
	d.Byte()
	b := d.Bytes(d.Count(1<<20), "string bytes")
	if s, ok := d.syms[string(b)]; ok {
		return ops5.S(s)
	}
	s := string(b)
	if d.Err == nil && len(d.syms) < symbolTableCap {
		if d.syms == nil {
			d.syms = make(map[string]string)
		}
		d.syms[s] = s
	}
	return ops5.S(s)
}

// wme decodes a wme position that must hold one.
func (d *dec) wme() int32 {
	h := d.optWME()
	if h == 0 {
		d.Fail("absent wme")
	}
	return h
}

// token encodes a token: a counted list of its wmes.
func (e *enc) token(t rete.Token) {
	e.Count(len(t.H))
	for _, h := range t.H {
		e.wme(h)
	}
}

// token decodes a counted list of wmes into a token carved from the
// decoder's arena. A count the payload cannot hold as references fails
// before the arena grows for it.
func (d *dec) token() rete.Token {
	n := d.Count(1 << 16)
	if d.fits(n, minRefBytes) < n {
		d.Fail(fmt.Sprintf("token of %d wmes in %d bytes", n, len(d.B)))
		return rete.Token{}
	}
	t := rete.Token{H: d.tokens.Take(n)}
	for i := range t.H {
		t.H[i] = d.wme()
	}
	return t
}

// --- changes, activations, instantiations ---

// changeBytes is what a cycle frame reserves per change (enc.changes).
// 8-queens' cycle frames, header and stamp included, measure in bytes
// per change:
//
//	changes in the frame    1      2     4–5    571 (the load)
//	bytes a change          14–29  19.5  12–16  21.9
//
// so the load frame, every change a definition, opens at the size it
// fills, and a frame of a few changes reserves less than the encoder's
// first buffer already holds.
const changeBytes = 24

// changes encodes a cycle's wme changes, whose wmes have handles hs.
func (e *enc) changes(chs []rete.Change, hs []int32) {
	e.Buf = slices.Grow(e.Buf, len(chs)*changeBytes)
	e.Count(len(chs))
	for i, ch := range chs {
		e.Byte(byte(ch.Tag))
		e.wme(hs[i])
	}
}

// changes decodes a cycle's wme changes into pkt, reusing its slices.
func (d *dec) changes(pkt *parallel.CyclePacket) {
	// The packet grows once, to the frame's count, not one change at a
	// time, and a mirror makes room for a row per change: the control
	// hands out handles densely from 1, so a broadcast frame's new wmes
	// land just past the mirror's last row.
	n := d.Count(1 << 24)
	k := d.fits(n, minChangeBytes)
	pkt.Changes, pkt.Handles = slices.Grow(pkt.Changes[:0], k), slices.Grow(pkt.Handles[:0], k)
	if d.mirror {
		d.tab.Grow(k)
	}
	for i := 0; i < n && d.Err == nil; i++ {
		tag, h := d.tag(), d.wme()
		pkt.Changes = append(pkt.Changes, rete.Change{Tag: tag, WME: d.tab.WME(h)})
		pkt.Handles = append(pkt.Handles, h)
	}
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
		e.token(a.Token)
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
	case a.Side == rete.Left && (!hasToken || a.WME != 0 || !a.Node.TakesLeft(len(a.Token.H))):
		d.Fail(fmt.Sprintf("left activation of %s node %d needs a %d-wme token and no wme", a.Node.Kind, a.Node.ID, a.Node.LeftLen))
	case a.Side == rete.Right && (a.WME == 0 || hasToken || !a.Node.TakesRight()):
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
	buf = slices.Grow(buf[:0], d.fits(n, minActivationBytes))
	for i := 0; i < n && d.Err == nil; i++ {
		buf = append(buf, parallel.Message{Kind: parallel.MsgAct, Bucket: d.bucket(), Depth: d.I32(), Act: d.activation(net)})
	}
	return buf
}

// instChange encodes the conflict-set delta of one production-node
// activation: its tag, its production as the terminal node's compiled
// id, and one wme position per condition element, a reference to the
// token's wme at the CE's position or empty at a negated one. Recency
// does not travel: the control derives it from the wmes it resolves
// the positions to.
func (e *enc) instChange(a rete.Activation) {
	info := a.Node.Info
	e.Byte(byte(a.Tag))
	e.Int(info.Node.ID)
	e.Count(len(info.TokenPos))
	for _, pos := range info.TokenPos {
		if pos < 0 {
			e.Byte(wmeNil)
			continue
		}
		e.wme(a.Token.H[pos])
	}
}

// instChange decodes one delta of a turn frame, carving its array from
// the frame's region, and holds it to its production's shape — a position
// per condition element, empty exactly at the negated ones — which the
// engine indexes by. A delta whose position count is not its
// production's fails the frame before any delta is made of it
// (rete.NewInstChange would refuse the run).
func (d *dec) instChange(net *rete.Network, tf *turnFrame) rete.InstChange {
	tag := d.tag()
	n := d.node(net)
	if n == nil {
		return rete.InstChange{}
	}
	info := n.Info
	if n.Kind != rete.KindProduction || info == nil {
		d.Fail(fmt.Sprintf("node %d is not a production's terminal", n.ID))
		return rete.InstChange{}
	}
	nw := d.Count(len(tf.wmes))
	if d.Err != nil || nw != len(info.TokenPos) {
		d.Fail(fmt.Sprintf("delta of %q carries %d wme positions, the production has %d condition elements", info.Prod.Name, nw, len(info.TokenPos)))
		return rete.InstChange{}
	}
	ws := tf.wmes[:nw:nw]
	tf.wmes = tf.wmes[nw:]
	for i := range ws {
		ws[i] = d.tab.WME(d.optWME())
		if d.Err == nil && (ws[i] == nil) != (info.TokenPos[i] < 0) {
			d.Fail(fmt.Sprintf("delta of %q: position %d is empty, or filled at a negated condition element", info.Prod.Name, i))
		}
	}
	return rete.NewInstChange(tag, info, ws)
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
	n := d.Count(1 << 24)
	mvs := make([]parallel.BucketMove, 0, d.fits(n, minMoveBytes))
	for i := 0; i < n && d.Err == nil; i++ {
		mvs = append(mvs, parallel.BucketMove{Bucket: d.bucket(), NewOwner: d.worker()})
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
// references travel as compiled-network ids and wmes as every frame's
// do: the losing worker references them, the control resolves the
// references in its own table — stored tokens name only live wmes, and
// the control frees no handle before the next cycle — and re-encodes
// the contents for the new owner with that connection's send state.
func (e *enc) bucketContents(bc *rete.BucketContents) {
	e.Int(bc.Bucket)
	e.Count(len(bc.LeftTokens))
	for i, tok := range bc.LeftTokens {
		e.Int(bc.LeftNodes[i].ID)
		e.Int(bc.LeftCounts[i])
		e.token(tok)
	}
	e.Count(len(bc.RightWMEs))
	for i, h := range bc.RightWMEs {
		e.Int(bc.RightNodes[i].ID)
		e.wme(h)
	}
}

func (d *dec) bucketContents(net *rete.Network) *rete.BucketContents {
	bc := &rete.BucketContents{Bucket: int(d.bucket())}
	for i, n := 0, d.Count(1<<24); i < n && d.Err == nil; i++ {
		bc.LeftNodes = append(bc.LeftNodes, d.node(net))
		bc.LeftCounts = append(bc.LeftCounts, d.Int())
		bc.LeftTokens = append(bc.LeftTokens, d.token())
	}
	for i, n := 0, d.Count(1<<24); i < n && d.Err == nil; i++ {
		bc.RightNodes = append(bc.RightNodes, d.node(net))
		bc.RightWMEs = append(bc.RightWMEs, d.wme())
	}
	return bc
}

// --- turn frames (the star carrier's ftTurn payload) ---

// turnFrame is a decoded ftTurn payload: how many protocol messages the
// worker fully processed, what the step produced, and — under a flight
// recorder — the turn as the worker recorded it, decoded into storage
// the connection keeps. The deltas' WMEs arrays are lent, as
// rete.Processor.Build lends a match phase's: each frame carves them, at
// the total it declares, from the connection's lent arena, and wmes is
// the frame's unconsumed share. They are read until the engine has
// absorbed the cycle's result; the connection's first frame of the next
// cycle rewinds the arena. A connection's turn frames carry a few deltas
// each, so a frame that does not fit takes a region of its own total or
// twice the last, not a 4 KiB one.
type turnFrame struct {
	n    int
	turn parallel.Turn
	rec  turnRecord
	lent alloc.Arena[*ops5.WME]
	wmes []*ops5.WME
}

// turnRecord ends a turn frame when the hello's ring capacity is
// nonzero: the worker's clock at send, its events since the last frame
// (obs.TrackRecorder.HandOver), each as its kind, time since the one
// before and fields (the receiving track gives seq and cycle), and the
// turn's exact aggregate.
type turnRecord struct {
	sent   int64
	events []obs.CausalEvent
	agg    obs.CycleAgg
}

// turn encodes a worker's turn, whose deltas travel as the
// production-node activations they are built from (Turn.Acts), then
// rec, if any.
func (e *enc) turn(n int, t *parallel.Turn, rec *turnRecord) {
	e.Int(n)
	e.I64(t.Handled)
	e.Count(len(t.Acts))
	nw := 0
	for i := range t.Acts {
		nw += len(t.Acts[i].Node.Info.TokenPos)
	}
	e.Count(nw)
	for i := range t.Acts {
		e.instChange(t.Acts[i])
	}
	e.Count(len(t.Loads))
	for _, l := range t.Loads {
		e.I32(l.Bucket)
		e.I64(l.N)
	}
	if rec == nil {
		return
	}
	e.I64(rec.sent)
	e.Count(len(rec.events))
	prev := int64(0)
	for _, ev := range rec.events {
		e.Byte(byte(ev.Kind))
		e.I64(ev.TS - prev)
		prev = ev.TS
		for _, v := range [...]int32{ev.Batch, ev.Src, ev.Dst, ev.Bucket, ev.Depth, ev.Count} {
			e.I32(v)
		}
	}
	for _, v := range [...]int64{rec.agg.Handles, rec.agg.Sends, rec.agg.Recvs, rec.agg.Flushes, int64(rec.agg.MaxDepth)} {
		e.I64(v)
	}
}

// turn decodes an ftTurn payload into tf, reusing its slices.
func (d *dec) turn(net *rete.Network, tf *turnFrame) error {
	if tf.n = d.Int(); tf.n < 0 {
		d.Fail("negative turn count")
	}
	tf.turn.Handled = d.I64()
	n := d.Count(1 << 24)
	tf.turn.Insts = slices.Grow(tf.turn.Insts[:0], d.fits(n, minDeltaBytes))
	// Every wme position costs a byte, so Count has held the total to
	// the frame's size.
	tf.wmes = tf.lent.TakeSized(d.Count(1<<24), 2*cap(tf.lent.Region()))
	for i := 0; i < n && d.Err == nil; i++ {
		tf.turn.Insts = append(tf.turn.Insts, d.instChange(net, tf))
	}
	if len(tf.wmes) != 0 {
		d.Fail("instantiations fall short of the frame's declared totals")
	}
	tf.turn.Loads = tf.turn.Loads[:0]
	for i, n := 0, d.Count(1<<24); i < n && d.Err == nil; i++ {
		tf.turn.Loads = append(tf.turn.Loads, parallel.BucketLoad{Bucket: d.bucket(), N: d.I64()})
	}
	if d.ring > 0 {
		d.record(&tf.rec)
	}
	return d.Done()
}

// record decodes a turnRecord, holding each event to a kind obs knows
// and to the topology's tracks (the control's is workers).
func (d *dec) record(rec *turnRecord) {
	rec.sent = d.I64()
	rec.events = rec.events[:0]
	track := func(v int32) bool { return v == obs.NoValue || v == obs.BroadcastDst || v >= 0 && int(v) <= d.workers }
	ts := int64(0)
	for i, n := 0, d.Count(d.ring); i < n && d.Err == nil; i++ {
		ev := obs.CausalEvent{Kind: obs.EventKind(d.Byte())}
		ts += d.I64()
		ev.TS, ev.Batch, ev.Src, ev.Dst, ev.Bucket, ev.Depth, ev.Count = ts, d.I32(), d.I32(), d.I32(), d.I32(), d.I32(), d.I32()
		if d.Err == nil && ev.Kind > obs.EvMigrateEnd {
			d.Fail(fmt.Sprintf("event %d of unknown kind %d", i, ev.Kind))
		} else if d.Err == nil && !(track(ev.Src) && track(ev.Dst)) {
			d.Fail(fmt.Sprintf("event %d: track %d or %d out of range [0,%d]", i, ev.Src, ev.Dst, d.workers))
		}
		rec.events = append(rec.events, ev)
	}
	rec.agg = obs.CycleAgg{Handles: d.I64(), Sends: d.I64(), Recvs: d.I64(), Flushes: d.I64(), MaxDepth: d.I32()}
}
