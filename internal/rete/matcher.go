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
	Tag  Tag
	Prod *ops5.Production
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
// is exactly fmt.Sprintf("%s%v", name, ids) — e.g. `pair[3 17]` — but
// built with strconv because Key is on the conflict-set netting hot
// path of the parallel runtime.
func (ic *InstChange) Key() string {
	b := make([]byte, 0, len(ic.Prod.Name)+2+8*len(ic.WMEs))
	b = append(b, ic.Prod.Name...)
	b = append(b, '[')
	first := true
	for _, w := range ic.WMEs {
		if w == nil {
			continue
		}
		if !first {
			b = append(b, ' ')
		}
		first = false
		b = strconv.AppendInt(b, int64(w.ID), 10)
	}
	b = append(b, ']')
	return string(b)
}

// Listener observes match activity; the trace recorder implements it.
type Listener interface {
	// BeginCycle is called once per Apply with the cycle number and the
	// wme changes driving it.
	BeginCycle(cycle int, changes []Change)
	// Activation is called for every two-input / dummy node activation.
	Activation(ev Event)
	// Instantiation is called for every conflict-set delta.
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
	rootBuf  []Activation // scratch for RootActivationsInto, reused across changes
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
// the conflict-set deltas in deterministic generation order.
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
			m.queue = append(m.queue, queued{act: act, parentSeq: -1})
		}
	}

	var out []InstChange
	// Drain by index rather than popping the slice front: reslicing
	// m.queue[1:] would walk the append cursor down the backing array
	// and force a fresh allocation every few cycles even at steady
	// state.
	for head := 0; head < len(m.queue); head++ {
		m.step(m.queue[head], &out)
	}
	m.queue = m.queue[:0]

	if m.listener != nil {
		m.listener.EndCycle(m.cycle)
	}
	return out
}

func (m *Matcher) step(q queued, out *[]InstChange) {
	if q.act.Node.Kind == KindProduction {
		ch := m.proc.BuildInst(q.act)
		ch.ParentSeq = q.parentSeq
		ch.Cycle = m.cycle
		*out = append(*out, ch)
		if m.listener != nil {
			m.listener.Instantiation(ch)
		}
		return
	}

	key := q.act.HashKey()
	ev := Event{
		Seq:       m.seq,
		ParentSeq: q.parentSeq,
		Cycle:     m.cycle,
		Node:      q.act.Node,
		Side:      q.act.Side,
		Tag:       q.act.Tag,
		Key:       key,
		Bucket:    m.proc.Bucket(q.act),
	}
	m.seq++
	if m.listener != nil {
		m.listener.Activation(ev)
	}

	m.proc.ProcessAt(q.act, ev.Bucket,
		func(child Activation) {
			m.queue = append(m.queue, queued{act: child, parentSeq: ev.Seq})
		},
		func(InstChange) {
			panic("rete: Processor emitted an instantiation for a non-production node")
		})
}
