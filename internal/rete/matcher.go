package rete

import (
	"slices"
	"strconv"

	"mpcrete/internal/alloc"
	"mpcrete/internal/ops5"
)

// Change is one working-memory change presented to the matcher: an
// added or deleted wme, whose ID no other live wme shares (Table). A
// modify action is presented as a delete followed by an add, as in OPS5.
type Change struct {
	Tag Tag
	WME *ops5.WME
}

// Event describes one two-input (or bounded) node activation, the unit
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

// InstChange is a conflict-set delta produced by a production node: the
// one thing a match processor tells the control processor, so it
// carries what the receiver cannot recompute and nothing else (40
// bytes). Recency — the sorted time tags conflict resolution compares —
// is a function of WMEs and is computed where an instantiation enters a
// conflict set.
type InstChange struct {
	Tag Tag
	// Info is the compilation record of the production instantiated.
	Info *ProdInfo
	// WMEs holds the matched wmes indexed by original condition-element
	// position; entries for negated CEs are nil. The array is lent: it
	// is read until the match processor that made it starts its next
	// phase (Processor.Build), and a holder that keeps the
	// instantiation copies it.
	WMEs []*ops5.WME
}

// wmeID is the identity of one matched-wme position; a negated
// condition element's nil reads as 0, below every real ID.
func wmeID(w *ops5.WME) int {
	if w == nil {
		return 0
	}
	return w.ID
}

// Hash hashes the instantiation's identity — its production and its
// wmes' IDs by condition-element position, negated positions included;
// an add and its corresponding delete name the same one. Hash and Same
// say so without printing anything and are what conflict-set
// bookkeeping runs on (the engine's conflict set); Key prints it, for
// whoever wants text.
//
// The hash is FNV-1a over the production node's id and the wme IDs, a
// word at a time, with the high half folded down so that a table
// indexed by the low bits sees all of it.
func (ic *InstChange) Hash() uint64 {
	h := (uint64(fnvOffset64) ^ uint64(ic.Info.Node.ID)) * fnvPrime64
	for _, w := range ic.WMEs {
		h = (h ^ uint64(wmeID(w))) * fnvPrime64
	}
	return h ^ h>>32
}

// Same reports whether ic and o name the same instantiation.
func (ic *InstChange) Same(o *InstChange) bool {
	if ic.Info != o.Info || len(ic.WMEs) != len(o.WMEs) {
		return false
	}
	for i, w := range ic.WMEs {
		if wmeID(w) != wmeID(o.WMEs[i]) {
			return false
		}
	}
	return true
}

// Key identifies the instantiation by production name and matched wme
// IDs; an add and its corresponding delete share a key. The encoding
// is exactly fmt.Sprintf("%s%v", name, ids) — e.g. `pair[3 17]`.
func (ic *InstChange) Key() string { return string(ic.AppendKey(nil)) }

// AppendKey appends Key's encoding to buf.
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
	// Activation is called for every two-input / bounded node activation.
	Activation(ev Event)
	// Instantiation is called for every conflict-set delta, after the
	// cycle's last Activation (the deltas are built once the match
	// phase has drained); parentSeq names the activation that produced
	// it, -1 for a root of a single-CE production.
	Instantiation(ch InstChange, parentSeq int)
	// EndCycle is called when the match phase reaches fixpoint.
	EndCycle(cycle int)
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

// queueCompactMin is the drain head below which ApplyFiltered never
// compacts its queue: a short phase's drained prefix is cheaper to keep
// than to copy.
const queueCompactMin = 64

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
	tab      *Table
	listener Listener
	cycle    int
	seq      int
	// handles holds the phase's changes' handles in tab, in order.
	handles []int32
	// queue is the phase's match work in FIFO order: roots and
	// successors are appended to it where they are made, and file sorts
	// each new tail. parents is the Seq of the activation that generated
	// each queued one (-1 for a root), kept only for a Listener.
	queue   []Activation
	parents []int
	// instActs holds the phase's production-node activations, set aside
	// in generation order until the queue has drained and the deltas can
	// be built in one pass; instParents is the Seq of the activation that
	// generated each.
	instActs    []Activation
	instParents []int
	// spare is the storage of a result handed back (Recycle), which the
	// next phase with deltas builds its result in.
	spare []InstChange
}

// NewMatcher creates a matcher over a compiled network.
func NewMatcher(net *Network, opts MatcherOptions) *Matcher {
	tab := NewTable()
	return &Matcher{
		proc:     NewProcessor(net, opts.NBuckets, tab),
		tab:      tab,
		listener: opts.Listener,
	}
}

// Network returns the compiled network the matcher runs.
func (m *Matcher) Network() *Network { return m.proc.Network() }

// Memories exposes the left and right global hash tables (for
// diagnostics and tests).
func (m *Matcher) Memories() (left *Memory[leftEntry], right *Memory[rightEntry]) {
	return m.proc.Memories()
}

// Cycle returns the number of completed match phases.
func (m *Matcher) Cycle() int { return m.cycle }

// Reset returns the matcher to its freshly-constructed state over the
// same network: empty memories and table (storage retained), cycle and
// sequence counters rewound, queue emptied. It is the session-pool reuse hook —
// a Reset matcher behaves exactly like NewMatcher's result without
// reallocating its hash tables.
//
// A reset matcher holds nothing of its last user's: the scratch slices
// and the handed-back result are cleared to their capacity, not just
// truncated, because their backing arrays keep every activation or
// delta of the largest phase so far, each pointing at a token or a
// wme, and a shelved session would otherwise keep the previous
// client's working memory reachable.
func (m *Matcher) Reset() {
	m.proc.Reset()
	m.tab.Reset()
	m.cycle = 0
	m.seq = 0
	clear(m.queue[:cap(m.queue)])
	m.queue = m.queue[:0]
	clear(m.instActs[:cap(m.instActs)])
	clear(m.spare[:cap(m.spare)])
	m.spare = m.spare[:0]
}

// Apply runs one match phase over the given wme changes and returns
// the conflict-set deltas in deterministic generation order.
//
// The result is read once and then either handed back (Recycle), or
// kept. A kept result's records are the caller's for good: the matcher
// never writes to them again, so they may be held across any number of
// later calls. A handed-back result's storage is where the next phase
// builds its own, so a caller that hands every result back, as the
// engine does, makes steady-state phases allocate no records. The WMEs
// array of every delta is lent either way: it is the caller's to read
// until the next Apply, which recycles it.
func (m *Matcher) Apply(changes []Change) []InstChange {
	return m.ApplyFiltered(changes, nil)
}

// ApplyFiltered is Apply with the root activations restricted to nodes
// accepted by allow (nil accepts every node). It is the priming path
// for productions added to a live system: replaying working memory
// with allow restricted to the production's private new nodes
// populates exactly their memories and nothing else.
func (m *Matcher) ApplyFiltered(changes []Change, allow func(*Node) bool) []InstChange {
	// The previous phase's delete tokens are dead: its queue drained and
	// its deltas were built before it returned, and a Listener is shown
	// Events, not tokens. So are the arrays it lent its deltas: that is
	// Apply's contract. So are the handles of the wmes it
	// deleted.
	m.tab.BeginPhase()
	m.proc.BeginPhase()
	m.handles = m.tab.Handles(changes, m.handles[:0])
	m.cycle++
	m.seq = 0
	if m.listener != nil {
		m.listener.BeginCycle(m.cycle, changes)
	}

	for i, ch := range changes {
		n := len(m.queue)
		m.queue = m.proc.RootActivationsInto(ch, m.handles[i], m.queue)
		m.file(n, -1, allow)
	}

	// Drain from a head index, not by reslicing m.queue[1:], which would
	// walk the append cursor down the backing array and reallocate every
	// few cycles even at steady state. Once the head has passed half the
	// capacity the drained prefix is dropped by copying the frontier
	// down, so the queue is as long as the frontier, not as the phase's
	// activation count; the order does not change.
	for head := 0; head < len(m.queue); head++ {
		if head >= queueCompactMin && 2*head >= cap(m.queue) {
			m.queue = m.queue[:copy(m.queue, m.queue[head:])]
			if m.listener != nil {
				m.parents = m.parents[:copy(m.parents, m.parents[head:])]
			}
			head = 0
		}
		m.step(head)
	}
	m.queue = m.queue[:0]
	m.parents = m.parents[:0]

	var out []InstChange
	if n := len(m.instActs); n > 0 {
		out, m.spare = m.spare[:0], nil
		if cap(out) < n {
			out = make([]InstChange, 0, n)
		}
		out = m.proc.Build(m.instActs, out)
		if m.listener != nil {
			for i := range out {
				m.listener.Instantiation(out[i], m.instParents[i])
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

// Recycle hands back a result of Apply or ApplyFiltered that the
// caller has finished reading, records and WMEs arrays alike. The next
// phase with deltas builds its result in that storage, and allocates
// one of exactly its own size only when it has more deltas than the
// storage holds; a result smaller than the storage the matcher already
// holds is ignored. Under alloc.Poison the records are scrubbed
// instead — every delta's WMEs becomes an array of the sentinel — and
// never reused, so a reader that held a result past handing it back
// reads the sentinel, not the next phase's deltas.
func (m *Matcher) Recycle(result []InstChange) {
	if alloc.Poisoned() {
		for i := range result {
			result[i].WMEs = slices.Repeat([]*ops5.WME{poisonWME}, len(result[i].WMEs))
		}
		return
	}
	if cap(result) > cap(m.spare) {
		m.spare = result[:0]
	}
}

// file sorts the activations appended to the queue from index n on,
// all generated by the activation numbered parent: match work stays,
// closed up in order, a production-node activation is a conflict-set
// delta and moves to instActs, and a root allow rejects is dropped.
func (m *Matcher) file(n, parent int, allow func(*Node) bool) {
	k := n
	for i := n; i < len(m.queue); i++ {
		act := &m.queue[i]
		switch {
		case allow != nil && !allow(act.Node):
		case act.Node.Kind == KindProduction:
			m.instActs = append(m.instActs, *act)
			if m.listener != nil {
				m.instParents = append(m.instParents, parent)
			}
		default:
			if k != i {
				m.queue[k] = *act
			}
			k++
		}
	}
	m.queue = m.queue[:k]
	if m.listener != nil {
		for len(m.parents) < k {
			m.parents = append(m.parents, parent)
		}
	}
}

// step performs the queued activation at head and files its successors
// behind the queue's tail.
func (m *Matcher) step(head int) {
	act := m.queue[head]
	key := act.HashKey(m.tab)
	bucket := m.proc.left.Bucket(key)
	seq := m.seq
	m.seq++
	if m.listener != nil {
		m.listener.Activation(Event{
			Seq:       seq,
			ParentSeq: m.parents[head],
			Cycle:     m.cycle,
			Node:      act.Node,
			Side:      act.Side,
			Tag:       act.Tag,
			Key:       key,
			Bucket:    bucket,
		})
	}
	n := len(m.queue)
	m.queue = m.proc.ProcessAt(act, bucket, m.queue)
	m.file(n, seq, nil)
}
