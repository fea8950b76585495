package rete

import (
	"mpcrete/internal/alloc"
	"mpcrete/internal/ops5"
)

// Activation is one unit of match work: a token arriving at a node's
// left or right input. It is the currency both of the sequential
// Matcher and of the distributed runtime, whose workers exchange
// Activations as messages. A left activation carries a token and no
// wme, a right one a wme handle and no token: Side says which (40
// bytes).
type Activation struct {
	Node  *Node
	Side  Side
	Tag   Tag
	WME   int32 // right activations: the wme's handle; 0 on the left
	Token Token // left activations
}

// HashKey returns the distributed-hash-table key of the activation,
// resolving its handles in tab.
func (a Activation) HashKey(tab *Table) uint64 {
	var w *ops5.WME
	if a.Side == Right {
		w = tab.rows[a.WME]
	}
	return HashKey(tab, a.Node, a.Side, a.Token, w)
}

// Processor performs single node activations against a pair of hashed
// token memories, its own or another's (NewProcessorOver). It has no
// queue and no policy: it appends successor activations to a slice the
// caller supplies, and the caller decides where they go (the sequential
// matcher enqueues them; a distributed worker routes them to the owner
// of their hash bucket).
type Processor struct {
	net   *Network
	tab   *Table
	left  *Memory[leftEntry]
	right *Memory[rightEntry]
	// phase holds the tokens activations carry and lent the arrays
	// Build lends every delta. store holds the runs of the tokens the
	// memories keep, and lregs and rregs the regions the buckets this
	// processor grows grow into, of the left and of the right memory
	// (see arena.go).
	phase alloc.Arena[int32]
	lent  alloc.Arena[*ops5.WME]
	store alloc.Pool[int32]
	lregs alloc.Pool[leftEntry]
	rregs alloc.Pool[rightEntry]
	// bstack is the bounded enumerator's reusable DFS stack of candidate
	// wme handles, one slot per positive collector of the group being
	// enumerated (see bounded.go).
	bstack []int32
	// bmem is the enumerator's per-activation partition of the group's
	// bucket: one handle list per collector, rebuilt in a single bucket
	// pass so the DFS scans only its own position's candidates instead
	// of re-filtering the whole shared bucket at every level.
	bmem [][]int32
}

// NewProcessor creates a processor with the given bucket count
// (DefaultNBuckets when 0; 1 degenerates to linear memories) whose
// tokens and entries name wmes by their handles in tab.
func NewProcessor(net *Network, nbuckets int, tab *Table) *Processor {
	if nbuckets == 0 {
		nbuckets = DefaultNBuckets
	}
	return NewProcessorOver(net, tab, newMemory[leftEntry](nbuckets), newMemory[rightEntry](nbuckets))
}

// NewProcessorOver creates a processor with arenas and pools of its own
// over another's memories (Memories); no two may touch one bucket at
// once.
func NewProcessorOver(net *Network, tab *Table, left *Memory[leftEntry], right *Memory[rightEntry]) *Processor {
	return &Processor{net: net, tab: tab, left: left, right: right}
}

// Network returns the compiled network.
func (p *Processor) Network() *Network { return p.net }

// NBuckets returns the memory bucket count.
func (p *Processor) NBuckets() int { return p.left.NBuckets() }

// Memories exposes the left and right hash tables.
func (p *Processor) Memories() (left *Memory[leftEntry], right *Memory[rightEntry]) {
	return p.left, p.right
}

// Bucket maps an activation to its hash-bucket index.
func (p *Processor) Bucket(a Activation) int { return p.left.Bucket(a.HashKey(p.tab)) }

// Reset empties both memories (keeping the regions of their buckets
// and this processor's free regions), rewinds each arena to at most
// one ordinary region and resets the store (alloc.Pool.Reset), returning the
// processor to its freshly-constructed state over the same network —
// the session-pool reuse hook. Nothing reachable from a reset
// processor points at a wme of its last user (the bounded enumerator's
// scratch and the store hold handles, and every kept region is
// zeroed), and the region a wide phase left an arena is let go. Its
// table is its owner's to reset.
// Only legal at quiescence, and only while no token this processor made
// is in use anywhere else and no other processor's store holds a run of
// this one's on a free list: the memories that stored them are empty
// after it, and the arenas' current regions and the store's current
// chunk are carved again. The sequential Matcher, the one owner that
// resets, shares its memories with no other processor.
func (p *Processor) Reset() {
	p.left.Reset()
	p.right.Reset()
	p.phase.Reset()
	p.lent.Reset()
	p.store.Reset()
}

// BeginPhase tells the processor that everything its phase and lent
// arenas have handed out so far is dead: the activations that carried
// its tokens have been performed — a memory that kept one kept a copy
// from the store —, its tokens for production nodes have been built
// into deltas, and the deltas whose WMEs arrays Build lent have been
// absorbed or encoded by whoever received them. It rewinds both arenas,
// so the phase about to start carves its tokens and lent arrays from
// the same storage again. It touches neither the pools, whose runs
// live as long as their entries and buckets, nor any handle: freeing
// those is the table owner's BeginPhase.
//
// Calling it is optional and never calling it is always safe: phase
// tokens and lent arrays are then carved region by region and left to
// the collector. An owner calls it only at a point
// where it can show the claim above — the sequential Matcher at the top of
// every Apply (its caller absorbed the last result, or kept no delta
// array of it), the parallel cycle driver at the top of a cycle it
// heads in place, for its own processor and its parked steps', the
// socket worker at the top of every turn (its predecessor encoded all
// it made before it returned). A goroutine worker, which cannot tell where a cycle
// begins, leaves it uncalled.
func (p *Processor) BeginPhase() {
	p.phase.Rewind()
	p.lent.Rewind()
}

// RootActivationsInto runs the constant tests for one wme change, at
// handle h, and appends the resulting activations (the paper's "tokens
// generated directly by wmes") to out, a buffer the caller reuses: the
// sequential matcher, the parallel runtime's per-cycle constant-test
// pass, and the control processor when it hash-routes root activations
// to their owners instead of broadcasting. Copy-and-constraint node
// copies filter right tokens here. Left root tokens are phase tokens
// (newToken).
func (p *Processor) RootActivationsInto(ch Change, h int32, out []Activation) []Activation {
	for _, a := range p.net.AlphasForClass(ch.WME.Class) {
		if !a.Matches(ch.WME) {
			continue
		}
		for _, r := range a.Routes {
			if r.Side == Right && !r.Node.AcceptsRight(ch.WME) {
				continue
			}
			act := Activation{Node: r.Node, Side: r.Side, Tag: ch.Tag, WME: h}
			if r.Side == Left {
				act.Token = p.newToken(1)
				act.Token.H[0] = h
				act.WME = 0
			}
			out = append(out, act)
		}
	}
	return out
}

// ProcessAt performs one activation of a join, negative or bounded
// node against this processor's memories and returns out with the
// successor (left) activations appended. The caller must route every
// activation for a given bucket to the same Processor, or memory state
// will be inconsistent. bucket is the activation's hash bucket
// (Bucket), which the caller has already computed to route it (for the
// trace event, or for worker ownership), so each activation is hashed
// once.
//
// Production-node activations are not match work. A successor aimed at
// a production node is a conflict-set delta: callers set those aside
// and convert them with Build.
func (p *Processor) ProcessAt(a Activation, bucket int, out []Activation) []Activation {
	switch a.Node.Kind {
	case KindJoin:
		return p.processJoin(a, bucket, out)
	case KindNegative:
		return p.processNegative(a, bucket, out)
	case KindBounded:
		return p.processBounded(a, bucket, out)
	}
	panic("rete: ProcessAt on a " + a.Node.Kind.String() + " node")
}

// BucketContents is the extracted state of one hash-bucket pair,
// the unit a distributed implementation migrates when re-partitioning.
// The paper judged this "too costly" to do dynamically; the parallel
// runtime implements it so the cost can be measured rather than
// assumed.
type BucketContents struct {
	Bucket int
	// LeftNodes/LeftTokens/LeftCounts are parallel slices describing
	// the left-memory entries (counts matter for negative nodes).
	LeftNodes  []*Node
	LeftTokens []Token
	LeftCounts []int
	// RightNodes/RightWMEs describe the right-memory entries, each wme
	// by its handle.
	RightNodes []*Node
	RightWMEs  []int32
}

// Entries returns the number of stored tokens in the pair.
func (bc *BucketContents) Entries() int { return len(bc.LeftTokens) + len(bc.RightWMEs) }

// ExtractBucket removes and returns the contents of bucket b in both
// memories, and puts the bucket's regions back into p's (release). The
// stored runs of its left tokens go with the contents, not back into a
// store: the injector stores copies of its own. The caller must be
// quiescent (no activation in flight for this bucket).
func (p *Processor) ExtractBucket(b int) *BucketContents {
	bc := &BucketContents{Bucket: b}
	for _, e := range p.left.entries(b) {
		bc.LeftNodes = append(bc.LeftNodes, e.node)
		bc.LeftTokens = append(bc.LeftTokens, e.token)
		bc.LeftCounts = append(bc.LeftCounts, e.count)
	}
	for _, e := range p.right.entries(b) {
		bc.RightNodes = append(bc.RightNodes, e.node)
		bc.RightWMEs = append(bc.RightWMEs, e.h)
	}
	p.left.release(b, &p.lregs)
	p.right.release(b, &p.rregs)
	return bc
}

// InjectBucket installs previously extracted contents into this
// processor's memories, in order, behind whatever the bucket holds.
// Bucket indices are global, so the receiving processor stores them at
// the same index, each left token copied into its store.
func (p *Processor) InjectBucket(bc *BucketContents) {
	for i, t := range bc.LeftTokens {
		p.addLeft(bc.Bucket, bc.LeftNodes[i], t, bc.LeftCounts[i])
	}
	for i, h := range bc.RightWMEs {
		p.right.add(bc.Bucket, rightEntry{node: bc.RightNodes[i], h: h}, &p.rregs)
	}
}

// addLeft stores a copy of t, in a run taken from p's store, as node
// n's entry in left bucket b, with negative-node count count.
func (p *Processor) addLeft(b int, n *Node, t Token, count int) {
	h := p.store.Take(len(t.H))
	copyHandles(h, t.H)
	p.left.add(b, leftEntry{node: n, token: Token{H: h}, count: count}, &p.lregs)
}

// emitTo fans a token out to every successor of n as left activations.
func (p *Processor) emitTo(n *Node, t Token, tag Tag, out []Activation) []Activation {
	for _, s := range n.Succs {
		out = append(out, Activation{Node: s, Side: Left, Tag: tag, Token: t})
	}
	return out
}

func (p *Processor) processJoin(a Activation, b int, out []Activation) []Activation {
	n := a.Node
	rows := p.tab.rows
	if a.Side == Left {
		if a.Tag == Add {
			p.addLeft(b, n, a.Token, 0)
		} else if _, ok := removeLeft(p.left, b, n, a.Token, &p.store); !ok {
			// Duplicate delete: the token's join effects were already
			// unwound when it was first removed. Scanning again would
			// emit a second wave of successor deletes.
			return out
		}
		es := p.right.entries(b)
		for i := range es {
			if e := &es[i]; e.node == n && testsPass(n, rows, a.Token, rows[e.h]) {
				out = p.emitTo(n, p.extend(a.Token, e.h), a.Tag, out)
			}
		}
		return out
	}
	w := rows[a.WME]
	if a.Tag == Add {
		p.right.add(b, rightEntry{node: n, h: a.WME}, &p.rregs)
	} else if !removeRight(p.right, b, n, a.WME) {
		// Duplicate delete of a wme already out of right memory.
		return out
	}
	es := p.left.entries(b)
	for i := range es {
		if e := &es[i]; e.node == n && testsPass(n, rows, e.token, w) {
			out = p.emitTo(n, p.extend(e.token, a.WME), a.Tag, out)
		}
	}
	return out
}

func (p *Processor) processNegative(a Activation, b int, out []Activation) []Activation {
	n := a.Node
	rows := p.tab.rows
	if a.Side == Left {
		if a.Tag == Add {
			count := 0
			es := p.right.entries(b)
			for i := range es {
				if e := &es[i]; e.node == n && testsPass(n, rows, a.Token, rows[e.h]) {
					count++
				}
			}
			p.addLeft(b, n, a.Token, count)
			if count == 0 {
				out = p.emitTo(n, a.Token, Add, out)
			}
			return out
		}
		if count, ok := removeLeft(p.left, b, n, a.Token, &p.store); ok && count == 0 {
			out = p.emitTo(n, a.Token, Delete, out)
		}
		return out
	}
	w := rows[a.WME]
	es := p.left.entries(b)
	if a.Tag == Add {
		p.right.add(b, rightEntry{node: n, h: a.WME}, &p.rregs)
		for i := range es {
			if e := &es[i]; e.node == n && testsPass(n, rows, e.token, w) {
				e.count++
				if e.count == 1 {
					out = p.emitTo(n, p.phaseCopy(e.token), Delete, out)
				}
			}
		}
		return out
	}
	if !removeRight(p.right, b, n, a.WME) {
		// Duplicate delete: the counts were already decremented when
		// the wme was first removed; decrementing again would drive
		// them negative and break the next add's 0 -> 1 transition,
		// leaking a stale instantiation.
		return out
	}
	for i := range es {
		if e := &es[i]; e.node == n && testsPass(n, rows, e.token, w) {
			e.count--
			if e.count == 0 {
				out = p.emitTo(n, p.phaseCopy(e.token), Add, out)
			}
		}
	}
	return out
}

// testsPass applies n's join tests to the left token t, resolved in
// rows, and the right wme w.
func testsPass(n *Node, rows []*ops5.WME, t Token, w *ops5.WME) bool {
	for i := range n.Tests {
		if jt := &n.Tests[i]; !jt.Eval(rows[t.H[jt.LeftPos]], w) {
			return false
		}
	}
	return true
}

// Build converts production-node activations, made by p, into
// conflict-set deltas, appended to out in order, mapping each compiled
// token back to original CE positions. out is storage the caller
// reuses: the Matcher's handed-back result (Matcher.Recycle), a
// parallel worker step's turn, the cycle driver's intake. A delta carries what its
// receiver cannot recompute and nothing else: recency is derived from
// WMEs where an instantiation enters a conflict set.
//
// Every delta's array, Add or Delete, is lent from p's lent arena and
// lives exactly as long as a delete token does: until the owner of p
// next calls BeginPhase, and for good under an owner that never does.
// Whoever receives the deltas reads the arrays before that point — the
// engine's conflict set copies an Add's into the member it fills — and
// may keep the Tag and Info past it, not the WMEs.
//
// The references of one batch are carved as one region and divided
// among the deltas with capped capacity. The wmes are resolved out of
// the activations' tokens through p's table: once Build returns, the
// deltas do not depend on the tokens, which is what lets every token
// come from the phase arena.
func (p *Processor) Build(acts []Activation, out []InstChange) []InstChange {
	n := 0
	for i := range acts {
		n += len(acts[i].Node.Info.TokenPos)
	}
	refs := p.lent.Take(n)
	rows := p.tab.rows
	for _, a := range acts {
		info := a.Node.Info
		n := len(info.TokenPos)
		w := refs[:n:n]
		refs = refs[n:]
		for i, pos := range info.TokenPos {
			// A lent region is whatever the last rewind left there.
			w[i] = nil
			if pos >= 0 {
				w[i] = rows[a.Token.H[pos]]
			}
		}
		out = append(out, InstChange{Tag: a.Tag, Info: info, WMEs: w})
	}
	return out
}
