package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"mpcrete/internal/ops5"
	"mpcrete/internal/parallel"
	"mpcrete/internal/rete"
	"mpcrete/internal/sched"
)

// Payload codec: varint-encoded values over the frame payloads, in the
// style of rete's compiled-network codec. Unlike the in-process
// transport, which moves pointers, the wire codec ships full content —
// decoded wmes are fresh copies with the same ID/TimeTag/Class/Attrs,
// which is safe because tokens compare by wme ID and joins read
// values, never pointer identity. Attributes are encoded in sorted
// order so the encoding of a message is canonical (byte-identical for
// equal messages), which the fuzz round-trip target relies on.
//
// Decoding resolves graph references against the receiver's compiled
// network: node ids are bounds-checked into net.Nodes and production
// names looked up in net.Prods, so a frame cross-wired from a
// different program fails with ErrBadPayload instead of corrupting the
// match state.

// enc is an append-only payload encoder.
type enc struct {
	buf []byte
}

func (e *enc) u64(v uint64)  { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *enc) i64(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *enc) byte(b byte)   { e.buf = append(e.buf, b) }
func (e *enc) str(s string)  { e.u64(uint64(len(s))); e.buf = append(e.buf, s...) }
func (e *enc) i32(v int32)   { e.i64(int64(v)) }
func (e *enc) bool(b bool)   { e.byte(boolByte(b)) }
func (e *enc) int(v int)     { e.i64(int64(v)) }
func (e *enc) count(n int)   { e.u64(uint64(n)) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// dec is a bounds-checked payload decoder with a sticky error: the
// first failure is recorded in err (always wrapping ErrBadPayload) and
// empties the input, so every later read fails the same way and yields
// a zero value. Decoders therefore read straight through and their
// callers check err (or done) once, before using anything decoded.
//
// nbuckets and workers are the topology's index bounds: every
// wire-supplied bucket and worker index is held to them here (bucket,
// worker), the one place such indices enter the process, so the worker
// step and the cycle driver can index with them unchecked. The zero
// bounds reject every index.
type dec struct {
	b                 []byte
	off               int // consumed bytes, for error context
	nbuckets, workers int
	err               error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", ErrBadPayload, what, d.off)
	}
	d.b = nil
}

func (d *dec) advance(n int) {
	d.b = d.b[n:]
	d.off += n
}

func (d *dec) u64() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.advance(n)
	return v
}

func (d *dec) i64() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.advance(n)
	return v
}

func (d *dec) byte() byte {
	if len(d.b) == 0 {
		d.fail("byte")
		return 0
	}
	b := d.b[0]
	d.advance(1)
	return b
}

func (d *dec) bool() bool {
	b := d.byte()
	if b > 1 {
		d.fail("bool")
	}
	return b == 1
}

func (d *dec) i32() int32 {
	v := d.i64()
	if v < math.MinInt32 || v > math.MaxInt32 {
		d.fail("int32 range")
		return 0
	}
	return int32(v)
}

// index decodes an index into a space of the given size.
func (d *dec) index(size int, what string) int32 {
	v := d.i64()
	if d.err != nil || v < 0 || v >= int64(size) {
		d.fail(fmt.Sprintf("%s %d out of range [0,%d)", what, v, size))
		return 0
	}
	return int32(v)
}

func (d *dec) bucket() int32 { return d.index(d.nbuckets, "bucket") }
func (d *dec) worker() int32 { return d.index(d.workers, "worker") }
func (d *dec) int() int      { return int(d.i64()) }
func (d *dec) f64() float64  { return math.Float64frombits(d.u64()) }

// count decodes a collection length, bounded both by an explicit limit
// and by the bytes remaining (each element costs at least one byte), so
// a hostile length cannot trigger a huge allocation. After a failure it
// is zero, so element loops do not run.
func (d *dec) count(limit int) int {
	v := d.u64()
	if v > uint64(limit) || v > uint64(len(d.b)) {
		d.fail(fmt.Sprintf("count %d exceeds limit", v))
		return 0
	}
	return int(v)
}

// bytes consumes the next n bytes (aliasing the input).
func (d *dec) bytes(n int, what string) []byte {
	if len(d.b) < n {
		d.fail(what)
		return nil
	}
	b := d.b[:n]
	d.advance(n)
	return b
}

func (d *dec) str() string { return string(d.bytes(d.count(1<<20), "string bytes")) }

// done reports the decode's outcome: the sticky error, or trailing
// bytes.
func (d *dec) done() error {
	if len(d.b) != 0 {
		d.fail(fmt.Sprintf("%d trailing bytes", len(d.b)))
	}
	return d.err
}

// --- values and wmes ---

func (e *enc) value(v ops5.Value) {
	e.byte(byte(v.Kind))
	switch v.Kind {
	case ops5.KindSym:
		e.str(v.Sym)
	case ops5.KindNum:
		e.f64(v.Num)
	}
}

func (d *dec) value() ops5.Value {
	switch kind := d.byte(); ops5.Kind(kind) {
	case ops5.KindNil:
	case ops5.KindSym:
		return ops5.S(d.str())
	case ops5.KindNum:
		return ops5.N(d.f64())
	default:
		d.fail(fmt.Sprintf("value kind %d", kind))
	}
	return ops5.Value{}
}

func (e *enc) wme(w *ops5.WME) {
	e.int(w.ID)
	e.int(w.TimeTag)
	e.str(w.Class)
	attrs := make([]string, 0, len(w.Attrs))
	for a := range w.Attrs {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	e.count(len(attrs))
	for _, a := range attrs {
		e.str(a)
		e.value(w.Attrs[a])
	}
}

func (d *dec) wme() *ops5.WME {
	w := &ops5.WME{ID: d.int(), TimeTag: d.int(), Class: d.str()}
	n := d.count(1 << 16)
	w.Attrs = make(map[string]ops5.Value, n)
	for i := 0; i < n; i++ {
		a := d.str()
		w.Attrs[a] = d.value()
	}
	return w
}

// optWME encodes a possibly-nil wme (InstChange entries for negated
// CEs are nil).
func (e *enc) optWME(w *ops5.WME) {
	e.bool(w != nil)
	if w != nil {
		e.wme(w)
	}
}

func (d *dec) optWME() *ops5.WME {
	if !d.bool() {
		return nil
	}
	return d.wme()
}

// wmes encodes a counted list of wmes (a token's).
func (e *enc) wmes(ws []*ops5.WME) {
	e.count(len(ws))
	for _, w := range ws {
		e.wme(w)
	}
}

func (d *dec) wmes() []*ops5.WME {
	ws := make([]*ops5.WME, d.count(1<<16))
	for i := range ws {
		ws[i] = d.wme()
	}
	return ws
}

// --- changes, activations, instantiations ---

func (e *enc) change(ch rete.Change) {
	e.byte(byte(ch.Tag))
	e.wme(ch.WME)
}

func (e *enc) changes(chs []rete.Change) {
	e.count(len(chs))
	for _, ch := range chs {
		e.change(ch)
	}
}

// changes decodes a cycle's wme changes into buf.
func (d *dec) changes(buf []rete.Change) []rete.Change {
	n := d.count(1 << 24)
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
	b := d.byte()
	if t := rete.Tag(b); t == rete.Add || t == rete.Delete {
		return t
	}
	d.fail(fmt.Sprintf("tag %d", b))
	return 0
}

func (e *enc) activation(a rete.Activation) {
	e.int(a.Node.ID)
	e.byte(byte(a.Side))
	e.byte(byte(a.Tag))
	e.bool(a.Token != nil)
	if a.Token != nil {
		e.wmes(a.Token.WMEs)
	}
	e.optWME(a.WME)
}

// node decodes a compiled-network node reference (nil on failure).
func (d *dec) node(net *rete.Network) *rete.Node {
	id := d.int()
	if d.err != nil || id < 0 || id >= len(net.Nodes) {
		d.fail(fmt.Sprintf("node id %d out of range [0,%d)", id, len(net.Nodes)))
		return nil
	}
	return net.Nodes[id]
}

func (d *dec) activation(net *rete.Network) rete.Activation {
	a := rete.Activation{Node: d.node(net)}
	side := d.byte()
	if side != byte(rete.Left) && side != byte(rete.Right) {
		d.fail(fmt.Sprintf("side %d", side))
	}
	a.Side = rete.Side(side)
	a.Tag = d.tag()
	if d.bool() {
		a.Token = &rete.Token{WMEs: d.wmes()}
	}
	a.WME = d.optWME()
	return a
}

// actList encodes a run of MsgAct messages with their routing
// metadata — the body of the ftActs and ftRelay frames.
func (e *enc) actList(ms []parallel.Message) {
	e.count(len(ms))
	for i := range ms {
		e.i32(ms[i].Bucket)
		e.i32(ms[i].Depth)
		e.activation(ms[i].Act)
	}
}

func (d *dec) actList(net *rete.Network, buf []parallel.Message) []parallel.Message {
	n := d.count(1 << 24)
	buf = buf[:0]
	for i := 0; i < n; i++ {
		buf = append(buf, parallel.Message{Kind: parallel.MsgAct, Bucket: d.bucket(), Depth: d.i32(), Act: d.activation(net)})
	}
	return buf
}

func (e *enc) instChange(ic rete.InstChange) {
	e.byte(byte(ic.Tag))
	e.str(ic.Info.Prod.Name)
	e.count(len(ic.WMEs))
	for _, w := range ic.WMEs {
		e.optWME(w)
	}
	e.count(len(ic.TimeTags))
	for _, t := range ic.TimeTags {
		e.int(t)
	}
}

func (d *dec) instChange(net *rete.Network) rete.InstChange {
	ic := rete.InstChange{Tag: d.tag()}
	name := d.str()
	info, ok := net.Prods[name]
	if !ok {
		d.fail(fmt.Sprintf("unknown production %q", name))
		return ic
	}
	ic.Info = info
	ic.WMEs = make([]*ops5.WME, d.count(1<<16))
	for i := range ic.WMEs {
		ic.WMEs[i] = d.optWME()
	}
	if n := d.count(1 << 16); n > 0 {
		ic.TimeTags = make([]int, n)
		for i := range ic.TimeTags {
			ic.TimeTags[i] = d.int()
		}
	}
	return ic
}

// --- migration payloads: move lists, partitions, bucket contents ---

func (e *enc) moves(mvs []parallel.BucketMove) {
	e.count(len(mvs))
	for _, mv := range mvs {
		e.i32(mv.Bucket)
		e.i32(mv.NewOwner)
	}
}

func (d *dec) moves() []parallel.BucketMove {
	mvs := make([]parallel.BucketMove, d.count(1<<24))
	for i := range mvs {
		mvs[i] = parallel.BucketMove{Bucket: d.bucket(), NewOwner: d.worker()}
	}
	return mvs
}

func (e *enc) partition(p sched.Partition) {
	e.count(len(p))
	for _, owner := range p {
		e.int(owner)
	}
}

// partition decodes a bucket-to-worker assignment covering exactly the
// decoder's bucket space.
func (d *dec) partition() sched.Partition {
	n := d.count(1 << 24)
	if n != d.nbuckets {
		d.fail(fmt.Sprintf("partition covers %d buckets, want %d", n, d.nbuckets))
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
// value. The decoded copy is safe to inject on the receiver because
// memory removal matches by value (wme ID / Token.Same), never by
// pointer identity.
func (e *enc) bucketContents(bc *rete.BucketContents) {
	e.int(bc.Bucket)
	e.count(len(bc.LeftTokens))
	for i, tok := range bc.LeftTokens {
		e.int(bc.LeftNodes[i].ID)
		e.int(bc.LeftCounts[i])
		e.wmes(tok.WMEs)
	}
	e.count(len(bc.RightWMEs))
	for i, w := range bc.RightWMEs {
		e.int(bc.RightNodes[i].ID)
		e.wme(w)
	}
}

func (d *dec) bucketContents(net *rete.Network) *rete.BucketContents {
	bc := &rete.BucketContents{Bucket: int(d.bucket())}
	for i, n := 0, d.count(1<<24); i < n; i++ {
		bc.LeftNodes = append(bc.LeftNodes, d.node(net))
		bc.LeftCounts = append(bc.LeftCounts, d.int())
		bc.LeftTokens = append(bc.LeftTokens, &rete.Token{WMEs: d.wmes()})
	}
	for i, n := 0, d.count(1<<24); i < n; i++ {
		bc.RightNodes = append(bc.RightNodes, d.node(net))
		bc.RightWMEs = append(bc.RightWMEs, d.wme())
	}
	return bc
}

// --- message batches (the Loopback transport's ftBatch payload) ---

// appendBatch encodes a pushed message batch with its causal stamp.
// Migration messages ship by value: moves as (bucket, owner) pairs,
// injected contents through the bucketContents codec.
func appendBatch(buf []byte, ms []parallel.Message, batch, src int32) ([]byte, error) {
	e := enc{buf: buf}
	e.i32(batch)
	e.i32(src)
	e.count(len(ms))
	for i := range ms {
		m := &ms[i]
		e.byte(byte(m.Kind))
		switch m.Kind {
		case parallel.MsgCycle:
			e.changes(m.Cycle.Changes)
		case parallel.MsgAct:
			e.i32(m.Bucket)
			e.i32(m.Depth)
			e.activation(m.Act)
		case parallel.MsgMigrateOut:
			e.moves(m.Moves)
		case parallel.MsgMigrateIn:
			e.bucketContents(m.Inject)
		default:
			return nil, fmt.Errorf("transport: message kind %d cannot cross the wire", m.Kind)
		}
	}
	return e.buf, nil
}

// decodeBatch decodes an ftBatch payload (d.b) into messages backed by
// fresh wme copies.
func decodeBatch(net *rete.Network, d dec, ms []parallel.Message) ([]parallel.Message, int32, int32, error) {
	batch, src := d.i32(), d.i32()
	n := d.count(1 << 24)
	ms = ms[:0]
	for i := 0; i < n; i++ {
		m := parallel.Message{Kind: parallel.MsgKind(d.byte())}
		switch m.Kind {
		case parallel.MsgCycle:
			m.Cycle = &parallel.CyclePacket{Changes: d.changes(nil)}
		case parallel.MsgAct:
			m.Bucket, m.Depth, m.Act = d.bucket(), d.i32(), d.activation(net)
		case parallel.MsgMigrateOut:
			m.Moves = d.moves()
		case parallel.MsgMigrateIn:
			m.Inject = d.bucketContents(net)
		default:
			d.fail(fmt.Sprintf("message kind %d", m.Kind))
		}
		ms = append(ms, m)
	}
	if err := d.done(); err != nil {
		return nil, 0, 0, err
	}
	return ms, batch, src, nil
}

// --- turn frames (the star carrier's ftTurn payload) ---

// turnFrame is a decoded ftTurn payload: how many protocol messages the
// worker fully processed, the recv stamps it drained, how many times it
// flushed, and what the step produced.
type turnFrame struct {
	n       int
	stamps  []parallel.RecvStamp
	flushes int64
	turn    parallel.Turn
}

func (e *enc) turn(n int, stamps []parallel.RecvStamp, flushes int64, t *parallel.Turn) {
	e.int(n)
	e.count(len(stamps))
	for _, s := range stamps {
		e.i32(s.Batch)
		e.i32(s.Src)
		e.i32(s.Count)
	}
	e.i64(t.Handled)
	e.i64(flushes)
	e.i32(t.MaxDepth)
	e.count(len(t.Insts))
	for i := range t.Insts {
		e.instChange(t.Insts[i])
	}
	e.count(len(t.Loads))
	for _, l := range t.Loads {
		e.i32(l.Bucket)
		e.i64(l.N)
	}
}

// turn decodes an ftTurn payload into tf, reusing its slices.
func (d *dec) turn(net *rete.Network, tf *turnFrame) error {
	if tf.n = d.int(); tf.n < 0 {
		d.fail("negative turn count")
	}
	tf.stamps = tf.stamps[:0]
	for i, n := 0, d.count(1<<16); i < n; i++ {
		tf.stamps = append(tf.stamps, parallel.RecvStamp{Batch: d.i32(), Src: d.i32(), Count: d.i32()})
	}
	tf.turn.Handled, tf.flushes, tf.turn.MaxDepth = d.i64(), d.i64(), d.i32()
	tf.turn.Insts = tf.turn.Insts[:0]
	for i, n := 0, d.count(1<<24); i < n; i++ {
		tf.turn.Insts = append(tf.turn.Insts, d.instChange(net))
	}
	tf.turn.Loads = tf.turn.Loads[:0]
	for i, n := 0, d.count(1<<24); i < n; i++ {
		tf.turn.Loads = append(tf.turn.Loads, parallel.BucketLoad{Bucket: d.bucket(), N: d.i64()})
	}
	return d.done()
}
