package rete

import (
	"strconv"

	"mpcrete/internal/ops5"
)

// Change is one working-memory change presented to the matcher: an
// added or deleted wme. A modify action is presented as a delete
// followed by an add, as in OPS5.
type Change struct {
	Tag Tag
	WME *ops5.WME
}

// Event describes one two-input (or dummy) node activation, the unit
// of work the MPC simulator schedules. Seq numbers are assigned in
// processing order; ParentSeq is -1 for activations generated directly
// from wme changes by the constant tests (the paper's coarse-grained
// roots) and otherwise names the activation that generated this token.
type Event struct {
	Seq       int
	ParentSeq int
	Cycle     int
	Node      *Node
	Side      Side
	Tag       Tag
	Key       uint64
	Bucket    int
}

// InstChange is a conflict-set delta produced by a production node.
type InstChange struct {
	Tag Tag
	// Info is the compilation record of the production instantiated.
	Info *ProdInfo
	// WMEs holds the matched wmes indexed by original condition-element
	// position; entries for negated CEs are nil.
	WMEs []*ops5.WME
	// TimeTags are the sorted time tags of the matched wmes (used by
	// conflict resolution).
	TimeTags  []int
	ParentSeq int
	Cycle     int
}

// Key identifies the instantiation by production name and matched wme
// IDs; an add and its corresponding delete share a key. The encoding
// is exactly fmt.Sprintf("%s%v", name, ids) — e.g. `pair[3 17]`.
func (ic *InstChange) Key() string { return string(ic.AppendKey(nil)) }

// AppendKey appends Key's encoding to buf. Conflict-set bookkeeping
// builds each delta's key once into a reused buffer and looks it up as
// m[string(buf)], which does not allocate; only an insertion needs the
// string.
func (ic *InstChange) AppendKey(buf []byte) []byte {
	buf = append(buf, ic.Info.Prod.Name...)
	buf = append(buf, '[')
	first := true
	for _, w := range ic.WMEs {
		if w == nil {
			continue
		}
		if !first {
			buf = append(buf, ' ')
		}
		first = false
		buf = strconv.AppendInt(buf, int64(w.ID), 10)
	}
	return append(buf, ']')
}

// Listener observes match activity; the trace recorder implements it.
type Listener interface {
	// BeginCycle is called once per Apply with the cycle number and the
	// wme changes driving it.
	BeginCycle(cycle int, changes []Change)
	// Activation is called for every two-input / dummy node activation.
	Activation(ev Event)
	// Instantiation is called for every conflict-set delta, after the
	// cycle's last Activation (the deltas are built once the match
	// phase has drained); ParentSeq names the activation that produced
	// each.
	Instantiation(ch InstChange)
	// EndCycle is called when the match phase reaches fixpoint.
	EndCycle(cycle int)
}

// queued is an activation awaiting processing, with trace parentage.
type queued struct {
	act       Activation
	parentSeq int
}

// MatcherOptions configure the sequential matcher.
type MatcherOptions struct {
	// NBuckets is the size (power of two) of each global hash table.
	// NBuckets == 1 degenerates to the classic linear token memories —
	// the ablation baseline for hashed memories.
	NBuckets int
	// Listener, if non-nil, observes every activation.
	Listener Listener
}

// DefaultNBuckets is the paper-scale hash-table size used when
// MatcherOptions.NBuckets is zero.
const DefaultNBuckets = 1024

// Matcher runs the Rete match phase sequentially over the two global
// hashed memories. It is both the reference implementation the engine
// uses and the producer of hash-table activity traces for the MPC
// simulator. All activation work is delegated to a Processor; the
// matcher adds the FIFO queue, cycle bookkeeping, and trace events.
type Matcher struct {
	proc     *Processor
	listener Listener
	cycle    int
	seq      int
	queue    []queued
	// rootBuf and succBuf are scratch for one change's root activations
	// and one activation's successors, reused across calls.
	rootBuf []Activation
	succBuf []Activation
	// instActs holds the phase's production-node activations, set aside
	// in generation order until the queue has drained and the deltas can
	// be built in one pass; instParents is each one's ParentSeq.
	instActs    []Activation
	instParents []int
}

// NewMatcher creates a matcher over a compiled network.
func NewMatcher(net *Network, opts MatcherOptions) *Matcher {
	return &Matcher{
		proc:     NewProcessor(net, opts.NBuckets),
		listener: opts.Listener,
	}
}

// Network returns the compiled network the matcher runs.
func (m *Matcher) Network() *Network { return m.proc.Network() }

// Memories exposes the left and right global hash tables (for
// diagnostics and tests).
func (m *Matcher) Memories() (left, right *Memory) { return m.proc.Memories() }

// Cycle returns the number of completed match phases.
func (m *Matcher) Cycle() int { return m.cycle }

// Reset returns the matcher to its freshly-constructed state over the
// same network: empty memories (storage retained), cycle and sequence
// counters rewound, queue emptied. It is the session-pool reuse hook —
// a Reset matcher behaves exactly like NewMatcher's result without
// reallocating its hash tables.
func (m *Matcher) Reset() {
	m.proc.Reset()
	m.cycle = 0
	m.seq = 0
	m.queue = m.queue[:0]
}

// Apply runs one match phase over the given wme changes and returns
// the conflict-set deltas in deterministic generation order. The result
// is freshly allocated and belongs to the caller.
func (m *Matcher) Apply(changes []Change) []InstChange {
	return m.ApplyFiltered(changes, nil)
}

// ApplyFiltered is Apply with the root activations restricted to nodes
// accepted by allow (nil accepts every node). It is the priming path
// for productions added to a live system: replaying working memory
// with allow restricted to the production's private new nodes
// populates exactly their memories and nothing else.
func (m *Matcher) ApplyFiltered(changes []Change, allow func(*Node) bool) []InstChange {
	m.cycle++
	m.seq = 0
	if m.listener != nil {
		m.listener.BeginCycle(m.cycle, changes)
	}

	for _, ch := range changes {
		m.rootBuf = m.proc.RootActivationsInto(ch, m.rootBuf[:0])
		for _, act := range m.rootBuf {
			if allow != nil && !allow(act.Node) {
				continue
			}
			m.enqueue(act, -1)
		}
	}

	// Drain by index rather than popping the slice front: reslicing
	// m.queue[1:] would walk the append cursor down the backing array
	// and force a fresh allocation every few cycles even at steady
	// state.
	for head := 0; head < len(m.queue); head++ {
		m.step(m.queue[head])
	}
	m.queue = m.queue[:0]

	// One exact-size allocation for the result (BuildInsts makes two
	// more for what the deltas point at), so a phase's allocation count
	// does not grow with its output.
	var out []InstChange
	if n := len(m.instActs); n > 0 {
		out = BuildInsts(m.instActs, make([]InstChange, 0, n))
		for i := range out {
			out[i].ParentSeq = m.instParents[i]
			out[i].Cycle = m.cycle
			if m.listener != nil {
				m.listener.Instantiation(out[i])
			}
		}
		m.instActs = m.instActs[:0]
		m.instParents = m.instParents[:0]
	}

	if m.listener != nil {
		m.listener.EndCycle(m.cycle)
	}
	return out
}

// enqueue files an activation generated by parentSeq: match work joins
// the queue, a production-node activation is a conflict-set delta.
func (m *Matcher) enqueue(act Activation, parentSeq int) {
	if act.Node.Kind == KindProduction {
		m.instActs = append(m.instActs, act)
		m.instParents = append(m.instParents, parentSeq)
		return
	}
	m.queue = append(m.queue, queued{act: act, parentSeq: parentSeq})
}

func (m *Matcher) step(q queued) {
	key := q.act.HashKey()
	ev := Event{
		Seq:       m.seq,
		ParentSeq: q.parentSeq,
		Cycle:     m.cycle,
		Node:      q.act.Node,
		Side:      q.act.Side,
		Tag:       q.act.Tag,
		Key:       key,
		Bucket:    m.proc.left.Bucket(key),
	}
	m.seq++
	if m.listener != nil {
		m.listener.Activation(ev)
	}

	m.succBuf = m.proc.ProcessAt(q.act, ev.Bucket, m.succBuf[:0])
	for _, child := range m.succBuf {
		m.enqueue(child, ev.Seq)
	}
}
