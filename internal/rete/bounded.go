package rete

// Worst-case-bounded matching (CompileVariant(prods, "bounded")), the
// CORGI-style sibling of the shared / unshared / copy-and-constraint
// variants.
//
// The classic compilation chains two-input nodes whose beta memories
// materialize every partial instantiation. When consecutive joins have
// no equality tests — the Tourney pathology of Section 5.2.2 — those
// memories grow as the product of the alpha memory sizes: k chained
// non-discriminating patterns over N wmes each store up to N^(k/2)
// tokens before the first selective test prunes anything.
//
// The bounded variant stores no partial instantiations at all. Each
// condition element gets one collector node (KindBounded) holding just
// the wmes matching its own alpha pattern; an activation lazily
// enumerates complete instantiations by depth-first search across the
// group's collector memories, with the activated wme pinned at its own
// position. Two compile-time decisions bound the search:
//
//   - join order: positive CEs are reordered most-discriminating-first
//     by a greedy pass that maximizes (equality links to already-placed
//     CEs, total links to placed CEs, constant-test count) with the
//     lowest textual index as the deterministic tie-break, so every
//     candidate is constrained as early as possible;
//
//   - eager constraint propagation: each cross-CE variable test is
//     hosted at the later of its two endpoints in join order (with the
//     comparison conversed when the textual direction flips), and the
//     pinned member's tests are additionally applied the moment the
//     position they reference is filled, not when the pin's own
//     position is reached.
//
// Cost bound: an activation first partitions the group's bucket into
// per-collector candidate lists in one pass, then the DFS touches, per
// join position, at most the wmes of one collector memory — each a
// subset of working memory — so one activation costs
// O(k · |WM| · t + matches) with no storage beyond the stack and the
// reused partition scratch: quadratic in (k, |WM|) in the worst case, against
// classic Rete's exponential beta growth on the same programs. The
// price is recomputation: wmes with high temporal redundancy re-scan
// collector memories that a beta memory would have cached, which is why
// this is a variant and not the default.
//
// The enumerator feeds the same InstChange stream as every other
// variant: completed stacks become left activations of the group's
// production node, so the engine, the parallel runtime, and the TCP
// transport consume bounded networks unchanged. All of a group's
// collectors hash to the group's home node id (see HashKey), keeping
// the group's memories — and therefore the whole enumeration — on one
// bucket owner.

import "mpcrete/internal/ops5"

// boundedGroup ties together one production's collector nodes and
// terminal. members is in join order: positive collectors at positions
// 0..nPos-1, then one collector per negated CE.
type boundedGroup struct {
	members  []*Node
	nPos     int
	terminal *Node
}

// home returns the node whose id keys every bucket of the group.
func (g *boundedGroup) home() *Node { return g.members[0] }

// bind makes the members and the terminal nodes of the group, once the
// member list is complete: each hashes on the home id from then on.
func (g *boundedGroup) bind() {
	seed := hashSeedOf(g.home().ID)
	for _, n := range g.members {
		n.group, n.hashSeed = g, seed
	}
	g.terminal.group, g.terminal.hashSeed = g, seed
}

// bRawTest is a cross-CE variable test before it is assigned to a
// collector. CE indexes are original (textual) LHS positions: hostCE is
// the CE whose attribute is compared, bindCE the CE that textually
// bound the variable — exactly the test set the standard compiler
// builds, so reordering never changes which tests exist, only where
// they are evaluated.
type bRawTest struct {
	op       ops5.PredOp
	hostCE   int
	hostAttr string
	bindCE   int
	bindAttr string
}

// converseOp flips a comparison for evaluation with its operands
// swapped: a < b  <=>  b > a. Symmetric predicates are their own
// converse.
func converseOp(op ops5.PredOp) ops5.PredOp {
	switch op {
	case ops5.OpLt:
		return ops5.OpGt
	case ops5.OpGt:
		return ops5.OpLt
	case ops5.OpLe:
		return ops5.OpGe
	case ops5.OpGe:
		return ops5.OpLe
	}
	return op
}

// addProductionBounded compiles one production into a bounded collector
// group. The caller (addProduction) has already validated p and checked
// for duplicates.
func (net *Network) addProductionBounded(p *ops5.Production) (*ProdInfo, error) {
	var positives, negatives []int
	for i, ce := range p.LHS {
		if !ce.Negated {
			positives = append(positives, i)
		}
	}
	for i, ce := range p.LHS {
		if ce.Negated {
			negatives = append(negatives, i)
		}
	}

	info := &ProdInfo{
		Prod:     p,
		VarDefs:  map[string]VarDef{},
		TokenPos: make([]int, len(p.LHS)),
	}
	for i := range info.TokenPos {
		info.TokenPos[i] = -1
	}

	// Pass 1 — textual semantics. Walk the CEs in the same order as the
	// standard compiler (positives then negatives, textual within each)
	// and record, per CE, its alpha-level constant tests and the raw
	// cross-CE variable tests against earlier bindings. This fixes the
	// test set and the variable definitions before any reordering, so
	// the bounded network accepts exactly the instantiations the
	// standard network does.
	type binding struct {
		ce   int
		attr string
	}
	varPos := map[string]binding{}
	alphaTests := make([][]ConstTest, len(p.LHS))
	var raw []bRawTest
	for _, orig := range append(append([]int{}, positives...), negatives...) {
		ce := &p.LHS[orig]
		boundOutside := func(v string) bool { _, ok := varPos[v]; return ok }
		tests, firstAttr := buildAlphaTests(ce, boundOutside)
		alphaTests[orig] = tests
		for _, at := range ce.Tests {
			for _, term := range at.Terms {
				if term.Var == "" {
					continue
				}
				b, ok := varPos[term.Var]
				if !ok {
					continue // defined inside this CE (alpha-level)
				}
				raw = append(raw, bRawTest{op: term.Op, hostCE: orig, hostAttr: at.Attr, bindCE: b.ce, bindAttr: b.attr})
			}
		}
		if !ce.Negated {
			for v, attr := range firstAttr {
				varPos[v] = binding{ce: orig, attr: attr}
				info.VarDefs[v] = VarDef{OrigCE: orig, Attr: attr, ref: net.ref(ce.Class, attr)}
			}
		}
	}

	// Pass 2 — greedy join order over the positive CEs,
	// most-discriminating-first: seed with the CE carrying the most
	// constant tests, then repeatedly place the CE maximizing (equality
	// links to placed CEs, total links to placed CEs, constant-test
	// count), breaking every tie on the lowest textual index so the
	// order — and with it tokens, traces, and conflict-set keys — is
	// deterministic.
	nPos := len(positives)
	posIdx := make(map[int]int, nPos)
	for i, orig := range positives {
		posIdx[orig] = i
	}
	eqLinks := make([][]int, nPos)
	allLinks := make([][]int, nPos)
	for i := range eqLinks {
		eqLinks[i] = make([]int, nPos)
		allLinks[i] = make([]int, nPos)
	}
	for _, rt := range raw {
		hi, hok := posIdx[rt.hostCE]
		bi, bok := posIdx[rt.bindCE]
		if !hok || !bok {
			continue // involves a negated CE; does not guide ordering
		}
		allLinks[hi][bi]++
		allLinks[bi][hi]++
		if rt.op == ops5.OpEq {
			eqLinks[hi][bi]++
			eqLinks[bi][hi]++
		}
	}
	placed := make([]bool, nPos)
	joinOrder := make([]int, 0, nPos)
	for len(joinOrder) < nPos {
		best := -1
		var bestKey [4]int
		for c := 0; c < nPos; c++ {
			if placed[c] {
				continue
			}
			var eq, all int
			for _, pl := range joinOrder {
				eq += eqLinks[c][pl]
				all += allLinks[c][pl]
			}
			key := [4]int{eq, all, len(alphaTests[positives[c]]), -positives[c]}
			if best == -1 || boundedKeyGreater(key, bestKey) {
				best, bestKey = c, key
			}
		}
		placed[best] = true
		joinOrder = append(joinOrder, best)
	}

	// Build the collector chain in join order (negated CEs last, textual
	// order). The Parent/Succs chain carries no activations — the
	// enumerator emits straight to the terminal — but it gives excise,
	// DOT export, and Digest the same structural spine as every other
	// variant.
	ordered := make([]int, 0, len(p.LHS))
	for _, c := range joinOrder {
		ordered = append(ordered, positives[c])
	}
	ordered = append(ordered, negatives...)
	joinPos := make(map[int]int, len(ordered))
	for jp, orig := range ordered {
		joinPos[orig] = jp
	}

	g := &boundedGroup{nPos: nPos}
	var prev *Node
	for jp, orig := range ordered {
		ce := &p.LHS[orig]
		n := net.newNode(KindBounded)
		n.OrigCE = orig
		n.TokenLen = nPos
		n.bPos = jp
		n.bNeg = ce.Negated
		if prev != nil {
			prev.Succs = append(prev.Succs, n)
			n.Parent = prev
		}
		net.addRoute(net.internAlpha(ce.Class, alphaTests[orig]), n, Right)
		g.members = append(g.members, n)
		if !ce.Negated {
			info.TokenPos[orig] = jp
		}
		prev = n
	}

	// Host every raw test at the later of its endpoints in join order,
	// conversing the comparison when the evaluation direction flips.
	// Negated collectors sit after all positives, so their tests always
	// stay home and reference only positive positions.
	for _, rt := range raw {
		hp, bp := joinPos[rt.hostCE], joinPos[rt.bindCE]
		var host *Node
		var jt JoinTest
		hostClass, bindClass := p.LHS[rt.hostCE].Class, p.LHS[rt.bindCE].Class
		if hp > bp {
			host = g.members[hp]
			jt = net.joinTest(rt.op, hostClass, rt.hostAttr, bp, bindClass, rt.bindAttr)
		} else {
			host = g.members[bp]
			jt = net.joinTest(converseOp(rt.op), bindClass, rt.bindAttr, hp, hostClass, rt.hostAttr)
		}
		host.Tests = append(host.Tests, jt)
		if jt.Op == ops5.OpEq {
			host.EqTests = append(host.EqTests, jt)
		}
	}

	pn := net.newNode(KindProduction)
	pn.Parent = prev
	pn.LeftLen = nPos
	pn.TokenLen = nPos
	prev.Succs = append(prev.Succs, pn)
	g.terminal = pn
	g.bind()
	info.Node = pn
	net.register(info)
	return info, nil
}

func boundedKeyGreater(a, b [4]int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] > b[i]
		}
	}
	return false
}

// processBounded performs one collector activation: mutate the
// collector's right memory first (so the memory state already reflects
// this change), then lazily enumerate every complete instantiation the
// change creates or destroys, with the activated wme pinned at its own
// join position. Completed stacks go to the group's terminal as left
// activations — the same currency every other node kind emits.
//
// Mutate-before-enumerate is also what makes a wme reaching several
// collectors of one group emit each instantiation exactly once: on
// adds, only the last-processed of its activations sees every position
// populated; on deletes, only the first-processed still does.
func (p *Processor) processBounded(a Activation, b int, out []Activation) []Activation {
	n := a.Node
	if a.Tag == Add {
		p.right.add(b, rightEntry{node: n, h: a.WME}, &p.rregs)
	} else if !removeRight(p.right, b, n, a.WME) {
		// Duplicate delete: the first removal already unwound every
		// instantiation this wme participated in.
		return out
	}
	g := n.group
	if cap(p.bstack) < g.nPos {
		p.bstack = make([]int32, g.nPos)
	}
	p.bstack = p.bstack[:g.nPos]

	// Partition the group's bucket once: one candidate list per
	// collector (bPos is the member index), so each DFS level iterates
	// only its own collector's wmes. Other nodes sharing the bucket by
	// hash collision are skipped here instead of at every level.
	if cap(p.bmem) < len(g.members) {
		p.bmem = make([][]int32, len(g.members))
	}
	p.bmem = p.bmem[:len(g.members)]
	for i := range p.bmem {
		p.bmem[i] = p.bmem[i][:0]
	}
	es := p.right.entries(b)
	for i := range es {
		if e := &es[i]; e.node.group == g {
			p.bmem[e.node.bPos] = append(p.bmem[e.node.bPos], e.h)
		}
	}

	// An empty candidate list at any positive position the pin does not
	// fill itself means no instantiation can complete: skip the DFS.
	for pos := 0; pos < g.nPos; pos++ {
		if len(p.bmem[pos]) == 0 && (n.bNeg || g.members[pos] != n) {
			return out
		}
	}

	if n.bNeg {
		return p.boundedEnumNeg(g, n, 0, a, out)
	}
	return p.boundedEnumPos(g, n, 0, a, out)
}

// boundedEnumPos extends the DFS stack at join position pos, with the
// activated wme pinned at pin's position. At a full stack the
// instantiation exists unless some negated collector has a matching
// wme.
func (p *Processor) boundedEnumPos(g *boundedGroup, pin *Node, pos int, a Activation, out []Activation) []Activation {
	if pos == g.nPos {
		for _, m := range g.members[g.nPos:] {
			if p.boundedNegCount(m, 0) > 0 {
				return out
			}
		}
		return p.boundedEmit(g, a.Tag, out)
	}
	rows := p.tab.rows
	m := g.members[pos]
	if m == pin {
		if p.boundedTests(m, rows[a.WME]) {
			p.bstack[pos] = a.WME
			out = p.boundedEnumPos(g, pin, pos+1, a, out)
		}
		return out
	}
	for _, h := range p.bmem[pos] {
		w := rows[h]
		if !p.boundedTests(m, w) {
			continue
		}
		if pos < pin.bPos && !p.boundedPinTests(pin, pos, rows[a.WME], w) {
			continue
		}
		p.bstack[pos] = h
		out = p.boundedEnumPos(g, pin, pos+1, a, out)
	}
	return out
}

// boundedEnumNeg enumerates the positive instantiations whose negation
// count transitions because of an activation at negated collector negm.
// The DFS prunes on negm's tests eagerly, so every completed stack is
// one the activated wme matches; the emission then requires the 0 <-> 1
// transition: no other wme of negm matches (on Add the wme itself is
// already stored, on Delete already gone), and every other negated
// collector is empty for this stack. An add of a blocking wme deletes
// the instantiation; a delete revives it.
func (p *Processor) boundedEnumNeg(g *boundedGroup, negm *Node, pos int, a Activation, out []Activation) []Activation {
	if pos == g.nPos {
		if p.boundedNegCount(negm, a.WME) > 0 {
			return out
		}
		for _, m := range g.members[g.nPos:] {
			if m != negm && p.boundedNegCount(m, 0) > 0 {
				return out
			}
		}
		tag := Delete
		if a.Tag == Delete {
			tag = Add
		}
		return p.boundedEmit(g, tag, out)
	}
	rows := p.tab.rows
	m := g.members[pos]
	for _, h := range p.bmem[pos] {
		w := rows[h]
		if !p.boundedTests(m, w) {
			continue
		}
		if !p.boundedPinTests(negm, pos, rows[a.WME], w) {
			continue
		}
		p.bstack[pos] = h
		out = p.boundedEnumNeg(g, negm, pos+1, a, out)
	}
	return out
}

// boundedTests reports whether w can fill collector m's join position
// given the stack built so far; every test hosted at m references only
// earlier join positions by construction.
func (p *Processor) boundedTests(m *Node, w *ops5.WME) bool {
	for i := range m.Tests {
		if jt := &m.Tests[i]; !jt.Eval(p.tab.rows[p.bstack[jt.LeftPos]], w) {
			return false
		}
	}
	return true
}

// boundedPinTests applies pin's tests that reference join position pos
// to a candidate w for that position — eager constraint propagation, so
// the DFS prunes with the activated wme's bindings long before the
// pin's own position is reached.
func (p *Processor) boundedPinTests(pin *Node, pos int, pinW, w *ops5.WME) bool {
	for i := range pin.Tests {
		if jt := &pin.Tests[i]; jt.LeftPos == pos && !jt.Eval(w, pinW) {
			return false
		}
	}
	return true
}

// boundedNegCount counts the wmes in negated collector m's memory that
// match the full DFS stack, ignoring the handle exclude (the
// activation's own wme on the negated add path, which is already
// stored; 0 excludes nothing).
func (p *Processor) boundedNegCount(m *Node, exclude int32) int {
	count := 0
	for _, h := range p.bmem[m.bPos] {
		if h != exclude && p.boundedTests(m, p.tab.rows[h]) {
			count++
		}
	}
	return count
}

// boundedEmit materializes the completed stack as an arena-carved token
// and emits it to the group's production node; only that node receives
// it, so it comes from the phase arena.
func (p *Processor) boundedEmit(g *boundedGroup, tag Tag, out []Activation) []Activation {
	t := p.newToken(g.nPos, tag, []*Node{g.terminal})
	copy(t.H, p.bstack)
	return append(out, Activation{Node: g.terminal, Side: Left, Tag: tag, Token: t})
}
