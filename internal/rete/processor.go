package rete

import (
	"sort"

	"mpcrete/internal/ops5"
)

// Activation is one unit of match work: a token arriving at a node's
// left or right input. It is the currency both of the sequential
// Matcher and of the distributed runtime, whose workers exchange
// Activations as messages.
type Activation struct {
	Node  *Node
	Side  Side
	Tag   Tag
	Token *Token    // set for left activations
	WME   *ops5.WME // set for right activations
}

// HashKey returns the distributed-hash-table key of the activation.
func (a Activation) HashKey() uint64 { return HashKey(a.Node, a.Side, a.Token, a.WME) }

// Processor owns a pair of hashed token memories and knows how to
// perform single node activations against them. It has no queue and no
// policy: it appends successor activations to a slice the caller
// supplies, and the caller decides where they go (the sequential
// matcher enqueues them; a distributed worker routes them to the owner
// of their hash bucket).
type Processor struct {
	net   *Network
	left  *Memory
	right *Memory
	arena tokenArena
	// bstack is the bounded enumerator's reusable DFS stack of candidate
	// wmes, one slot per positive collector of the group being
	// enumerated (see bounded.go).
	bstack []*ops5.WME
	// bmem is the enumerator's per-activation partition of the group's
	// bucket: one wme list per collector, rebuilt in a single bucket
	// pass so the DFS scans only its own position's candidates instead
	// of re-filtering the whole shared bucket at every level.
	bmem [][]*ops5.WME
}

// NewProcessor creates a processor with the given bucket count
// (DefaultNBuckets when 0; 1 degenerates to linear memories).
func NewProcessor(net *Network, nbuckets int) *Processor {
	if nbuckets == 0 {
		nbuckets = DefaultNBuckets
	}
	return &Processor{
		net:   net,
		left:  NewMemory(Left, nbuckets),
		right: NewMemory(Right, nbuckets),
	}
}

// Network returns the compiled network.
func (p *Processor) Network() *Network { return p.net }

// NBuckets returns the memory bucket count.
func (p *Processor) NBuckets() int { return p.left.NBuckets() }

// Memories exposes the left and right hash tables.
func (p *Processor) Memories() (left, right *Memory) { return p.left, p.right }

// Bucket maps an activation to its hash-bucket index.
func (p *Processor) Bucket(a Activation) int { return p.left.Bucket(a.HashKey()) }

// Reset empties both memories (keeping their bucket storage) and drops
// the arena's references to consumed chunks, returning the processor
// to its freshly-constructed state over the same network — the
// session-pool reuse hook. Only legal at quiescence.
func (p *Processor) Reset() {
	p.left.Reset()
	p.right.Reset()
	p.arena.reset()
}

// RootActivations runs the constant tests for one wme change and
// returns the resulting activations (the paper's "tokens generated
// directly by wmes"). Copy-and-constraint node copies filter right
// tokens here.
func (p *Processor) RootActivations(ch Change) []Activation {
	return p.RootActivationsInto(ch, nil)
}

// RootActivationsInto is RootActivations appending into a reusable
// buffer — the entry point for hot-path callers (the parallel runtime's
// per-cycle constant-test pass, and the control processor when it
// hash-routes root activations to their owners instead of
// broadcasting). Left root tokens are carved from the processor's
// arena.
func (p *Processor) RootActivationsInto(ch Change, out []Activation) []Activation {
	for _, a := range p.net.AlphasForClass(ch.WME.Class) {
		if !a.Matches(ch.WME) {
			continue
		}
		for _, r := range a.Routes {
			if r.Side == Right && !r.Node.AcceptsRight(ch.WME) {
				continue
			}
			act := Activation{Node: r.Node, Side: r.Side, Tag: ch.Tag, WME: ch.WME}
			if r.Side == Left {
				t := p.arena.newToken(1)
				t.WMEs[0] = ch.WME
				act.Token = t
				act.WME = nil
			}
			out = append(out, act)
		}
	}
	return out
}

// Process performs one activation of a dummy, join, negative or
// bounded node against this processor's memories and returns out with
// the successor (left) activations appended. The caller must route
// every activation for a given bucket to the same Processor, or memory
// state will be inconsistent.
func (p *Processor) Process(a Activation, out []Activation) []Activation {
	return p.ProcessAt(a, p.Bucket(a), out)
}

// ProcessAt is Process with the activation's hash bucket supplied by
// the caller, who has already hashed the activation to route it (for
// the trace event, or for worker ownership): each activation is hashed
// once. bucket is ignored for dummy nodes, which touch no memory.
//
// Production-node activations are not match work. A successor aimed at
// a production node is a conflict-set delta: callers set those aside
// and convert them with BuildInsts.
func (p *Processor) ProcessAt(a Activation, bucket int, out []Activation) []Activation {
	switch a.Node.Kind {
	case KindDummy:
		return p.emitTo(a.Node, a.Token, a.Tag, out)
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
	LeftTokens []*Token
	LeftCounts []int
	// RightNodes/RightWMEs describe the right-memory entries.
	RightNodes []*Node
	RightWMEs  []*ops5.WME
}

// Entries returns the number of stored tokens in the pair.
func (bc *BucketContents) Entries() int { return len(bc.LeftTokens) + len(bc.RightWMEs) }

// ExtractBucket removes and returns the contents of bucket b in both
// memories. The caller must be quiescent (no activation in flight for
// this bucket).
func (p *Processor) ExtractBucket(b int) *BucketContents {
	bc := &BucketContents{Bucket: b}
	for _, e := range p.left.extract(b) {
		bc.LeftNodes = append(bc.LeftNodes, e.node)
		bc.LeftTokens = append(bc.LeftTokens, e.token)
		bc.LeftCounts = append(bc.LeftCounts, e.count)
	}
	for _, e := range p.right.extract(b) {
		bc.RightNodes = append(bc.RightNodes, e.node)
		bc.RightWMEs = append(bc.RightWMEs, e.wme)
	}
	return bc
}

// InjectBucket installs previously extracted contents into this
// processor's memories. Bucket indices are global, so the receiving
// processor stores them at the same index.
func (p *Processor) InjectBucket(bc *BucketContents) {
	var lefts, rights []*memEntry
	for i := range bc.LeftTokens {
		lefts = append(lefts, &memEntry{node: bc.LeftNodes[i], token: bc.LeftTokens[i], count: bc.LeftCounts[i]})
	}
	for i := range bc.RightWMEs {
		rights = append(rights, &memEntry{node: bc.RightNodes[i], wme: bc.RightWMEs[i]})
	}
	p.left.inject(bc.Bucket, lefts)
	p.right.inject(bc.Bucket, rights)
}

// emitTo fans a token out to every successor of n as left activations.
func (p *Processor) emitTo(n *Node, t *Token, tag Tag, out []Activation) []Activation {
	for _, s := range n.Succs {
		out = append(out, Activation{Node: s, Side: Left, Tag: tag, Token: t})
	}
	return out
}

func (p *Processor) processJoin(a Activation, b int, out []Activation) []Activation {
	n := a.Node
	if a.Side == Left {
		if a.Tag == Add {
			p.left.addLeft(b, n, a.Token)
		} else if p.left.removeLeft(b, n, a.Token) == nil {
			// Duplicate delete: the token's join effects were already
			// unwound when it was first removed. Scanning again would
			// emit a second wave of successor deletes.
			return out
		}
		for _, e := range p.right.entries(b) {
			if e.node == n && p.testsPass(n, a.Token, e.wme) {
				out = p.emitTo(n, p.extend(a.Token, e.wme), a.Tag, out)
			}
		}
		return out
	}
	if a.Tag == Add {
		p.right.addRight(b, n, a.WME)
	} else if p.right.removeRight(b, n, a.WME.ID) == nil {
		// Duplicate delete of a wme already out of right memory.
		return out
	}
	for _, e := range p.left.entries(b) {
		if e.node == n && p.testsPass(n, e.token, a.WME) {
			out = p.emitTo(n, p.extend(e.token, a.WME), a.Tag, out)
		}
	}
	return out
}

func (p *Processor) processNegative(a Activation, b int, out []Activation) []Activation {
	n := a.Node
	if a.Side == Left {
		if a.Tag == Add {
			count := 0
			for _, e := range p.right.entries(b) {
				if e.node == n && p.testsPass(n, a.Token, e.wme) {
					count++
				}
			}
			p.left.addLeft(b, n, a.Token).count = count
			if count == 0 {
				out = p.emitTo(n, a.Token, Add, out)
			}
			return out
		}
		if e := p.left.removeLeft(b, n, a.Token); e != nil && e.count == 0 {
			out = p.emitTo(n, a.Token, Delete, out)
		}
		return out
	}
	if a.Tag == Add {
		p.right.addRight(b, n, a.WME)
		for _, e := range p.left.entries(b) {
			if e.node == n && p.testsPass(n, e.token, a.WME) {
				e.count++
				if e.count == 1 {
					out = p.emitTo(n, e.token, Delete, out)
				}
			}
		}
		return out
	}
	if p.right.removeRight(b, n, a.WME.ID) == nil {
		// Duplicate delete: the counts were already decremented when
		// the wme was first removed; decrementing again would drive
		// them negative and break the next add's 0 -> 1 transition,
		// leaking a stale instantiation.
		return out
	}
	for _, e := range p.left.entries(b) {
		if e.node == n && p.testsPass(n, e.token, a.WME) {
			e.count--
			if e.count == 0 {
				out = p.emitTo(n, e.token, Add, out)
			}
		}
	}
	return out
}

func (p *Processor) testsPass(n *Node, t *Token, w *ops5.WME) bool {
	for i := range n.Tests {
		if !n.Tests[i].Eval(t, w) {
			return false
		}
	}
	return true
}

// BuildInsts converts production-node activations into conflict-set
// deltas, appended to out in order, mapping each compiled token back to
// original CE positions. ParentSeq and Cycle are left for the caller.
//
// The deltas' WMEs and TimeTags are carved, with capped capacity, from
// two arrays allocated here at the exact total size, so the output of a
// match phase costs a fixed number of allocations however many deltas
// it holds. The arrays belong to the deltas: a delta that stays in the
// conflict set keeps the arrays of its batch alive, as a stored token
// keeps its arena chunk.
func BuildInsts(acts []Activation, out []InstChange) []InstChange {
	nw, nt := 0, 0
	for i := range acts {
		for _, pos := range acts[i].Node.Info.TokenPos {
			nw++
			if pos >= 0 {
				nt++
			}
		}
	}
	wmes := make([]*ops5.WME, nw)
	tags := make([]int, nt)
	for _, a := range acts {
		info := a.Node.Info
		w := wmes[:len(info.TokenPos):len(info.TokenPos)]
		wmes = wmes[len(w):]
		k := 0
		for i, pos := range info.TokenPos {
			if pos >= 0 {
				w[i] = a.Token.WMEs[pos]
				tags[k] = w[i].TimeTag
				k++
			}
		}
		t := tags[:k:k]
		tags = tags[k:]
		sort.Ints(t)
		out = append(out, InstChange{Tag: a.Tag, Info: info, WMEs: w, TimeTags: t})
	}
	return out
}
