package rete

import (
	"fmt"
	"sort"
	"strconv"

	"mpcrete/internal/ops5"
)

// NodeKind discriminates the beta-level node types.
type NodeKind uint8

const (
	// KindJoin is a standard two-input node testing joint satisfaction
	// of a positive condition element with the partial instantiation on
	// its left input.
	KindJoin NodeKind = iota
	// KindNegative is the two-input node for a negated condition
	// element; it propagates left tokens with no matching right token,
	// using counted left-memory entries.
	KindNegative
	// KindProduction is a terminal node; left activations become
	// conflict-set insertions and deletions.
	KindProduction
	// KindBounded is a collector node of the worst-case-bounded variant
	// (the "bounded" variant): it stores only the wmes matching
	// its own condition element and, on each activation, lazily
	// enumerates complete instantiations across its group's collectors
	// instead of materializing intermediate beta tokens (see bounded.go).
	KindBounded
)

var kindNames = [...]string{"join", "negative", "production", "bounded"}

// String names the node kind.
func (k NodeKind) String() string { return kindNames[k] }

// JoinTest is a variable-consistency test at a two-input node: the
// right wme's RightAttr value is compared (via Op) with the value at
// (LeftPos, LeftAttr) inside the left token.
//
// Both values are read through ops5.WME.At. right is where the class of
// the node's right input keeps RightAttr and left where the class bound
// at LeftPos keeps LeftAttr; Network.joinTest resolves them (a test
// built by hand has neither and reads by name).
type JoinTest struct {
	Op        ops5.PredOp
	RightAttr string
	LeftPos   int // index into the left token's wme list
	LeftAttr  string

	right, left slotRef
}

// slotRef is a resolved attribute: the layout of its class and its slot
// there.
type slotRef struct {
	layout *ops5.Layout
	slot   int
}

// class names the resolved class, "" for a reference never resolved.
func (r slotRef) class() string {
	if r.layout == nil {
		return ""
	}
	return r.layout.Class()
}

func (jt *JoinTest) key() string { return string(jt.appendKey(nil)) }

// appendKey appends the test's key, "RightAttr:LeftPos.LeftAttr" and the
// predicate.
func (jt *JoinTest) appendKey(b []byte) []byte {
	b = strconv.AppendInt(append(append(b, jt.RightAttr...), ':'), int64(jt.LeftPos), 10)
	return append(append(append(b, '.'), jt.LeftAttr...), jt.Op.String()...)
}

// Eval applies the test given the left wme — the left token's wme at
// LeftPos — and the right wme.
func (jt *JoinTest) Eval(l, r *ops5.WME) bool {
	return jt.Op.Apply(jt.rightOf(r), jt.leftOf(l))
}

// rightOf reads the tested attribute of a right wme, leftOf of the left
// wme at LeftPos.
func (jt *JoinTest) rightOf(w *ops5.WME) ops5.Value {
	return w.At(jt.right.layout, jt.right.slot, jt.RightAttr)
}

func (jt *JoinTest) leftOf(w *ops5.WME) ops5.Value {
	return w.At(jt.left.layout, jt.left.slot, jt.LeftAttr)
}

// Node is a beta-level node of the Rete network. Join and negative
// nodes are the two-input nodes of the paper; production nodes are
// terminals; bounded nodes are the collectors of the bounded variant.
type Node struct {
	ID   int
	Kind NodeKind
	// Tests are the variable tests of this two-input node. The subset
	// with Op == OpEq (EqTests) determines the hash bucket.
	Tests   []JoinTest
	EqTests []JoinTest
	// Parent is the node feeding this node's left input; nil when the
	// left input comes directly from an alpha pattern.
	Parent *Node
	Succs  []*Node
	// Info is set on production nodes: the compilation record of the
	// production the node terminates, so turning a token into a
	// conflict-set delta needs no lookup by name.
	Info *ProdInfo
	// OrigCE is the production-LHS index (0-based, original order) of
	// the condition element on this node's right input; -1 for
	// production nodes.
	OrigCE int
	// TokenLen is the number of wmes in this node's output tokens.
	TokenLen int
	// LeftLen is the number of wmes in this node's left-input tokens.
	LeftLen int
	// copyIndex/copyCount implement copy-and-constraint: when
	// copyCount > 1 this node is copy copyIndex of a split node and
	// accepts only right wmes with discriminator % copyCount ==
	// copyIndex. Zero values mean "not a copy".
	copyIndex, copyCount int
	// detached marks nodes excised from the network.
	detached bool

	// group links the collector nodes and terminal of one
	// worst-case-bounded production (the bounded variant); nil elsewhere.
	// bPos is this collector's join-order position inside the group and
	// bNeg marks collectors for negated condition elements.
	group *boundedGroup
	bPos  int
	bNeg  bool

	// hashSeed is where HashKey's word fold starts: the FNV-1a state
	// after this node's id, or after the home id of its bounded group
	// (hashSeedOf).
	hashSeed uint64

	shareKey string
}

// IsTwoInput reports whether the node is a two-input (join or negative)
// node — the unit the paper's activation counts refer to.
func (n *Node) IsTwoInput() bool { return n.Kind == KindJoin || n.Kind == KindNegative }

// AcceptsRight reports whether this node accepts a given right wme;
// only copy-and-constraint copies ever reject one.
func (n *Node) AcceptsRight(w *ops5.WME) bool {
	if n.copyCount <= 1 {
		return true
	}
	return w.ID%n.copyCount == n.copyIndex
}

// TakesLeft reports whether a left token of the given width is one this
// node can be activated with: the node has a left input (a bounded
// collector has none), the width is its LeftLen, and every position the
// node itself indexes — its tests' LeftPos, a terminal's TokenPos — is
// inside the token. TakesRight reports whether the node has a right
// input. They are what a decoder holds an activation that crossed a
// wire to; activations made by a Processor satisfy them by
// construction.
func (n *Node) TakesLeft(width int) bool {
	if n.Kind == KindBounded || width != n.LeftLen {
		return false
	}
	for i := range n.Tests {
		if n.Tests[i].LeftPos >= width {
			return false
		}
	}
	if n.Info != nil {
		for _, pos := range n.Info.TokenPos {
			if pos >= width {
				return false
			}
		}
	}
	return true
}

func (n *Node) TakesRight() bool { return n.IsTwoInput() || n.Kind == KindBounded }

// VarDef records the defining occurrence of an LHS variable: the
// original condition-element index and attribute whose value the
// variable is bound to, and where that CE's class keeps the attribute.
type VarDef struct {
	OrigCE int
	Attr   string

	ref slotRef
}

// Of reads the variable's value from w, the wme matching CE OrigCE.
func (d *VarDef) Of(w *ops5.WME) ops5.Value { return w.At(d.ref.layout, d.ref.slot, d.Attr) }

// Stores records where the assignments of one make or modify action
// land: the layout of the class made, or of the modified condition
// element's class, and one slot per assignment.
type Stores struct {
	Layout *ops5.Layout
	Slots  []int
}

// ProdInfo is the per-production compilation record the engine needs to
// evaluate right-hand sides.
type ProdInfo struct {
	Prod *ops5.Production
	// Node is the production's terminal node.
	Node *Node
	// VarDefs maps each LHS variable to its defining occurrence.
	VarDefs map[string]VarDef
	// TokenPos maps original CE index -> position in the terminal
	// node's token (only positive CEs appear; negated CEs map to -1).
	TokenPos []int
	// Specificity is the number of LHS tests — one per class filter plus
	// one per term — the last criterion of conflict resolution.
	Specificity int
	// Stores parallels Prod.RHS: the resolved stores of each make and
	// modify action, zero for the other kinds.
	Stores []Stores
}

// register enters a compiled production, terminal node attached, into
// the network's tables.
func (net *Network) register(info *ProdInfo) {
	for _, ce := range info.Prod.LHS {
		info.Specificity++ // class test
		for _, at := range ce.Tests {
			info.Specificity += len(at.Terms)
		}
	}
	// The right-hand side mentions attributes too: without their slots
	// every made wme would carry what it was made with as extras.
	info.Stores = make([]Stores, len(info.Prod.RHS))
	for i, a := range info.Prod.RHS {
		var class string
		switch a.Kind {
		case ops5.ActMake:
			class = a.Class
		case ops5.ActModify:
			class = info.Prod.LHS[a.CEIndexes[0]-1].Class
		default:
			continue
		}
		st := Stores{Layout: net.layoutFor(class), Slots: make([]int, len(a.Assigns))}
		for j, as := range a.Assigns {
			st.Slots[j] = st.Layout.Add(as.Attr)
		}
		info.Stores[i] = st
	}
	info.Node.Info = info
	net.Prods[info.Prod.Name] = info
	net.ProdOrder = append(net.ProdOrder, info.Prod.Name)
}

// mention gives every attribute p's condition elements name a slot in
// its class's layout, in textual order, so slot numbering does not
// depend on the order the compiler visits tests in.
func (net *Network) mention(p *ops5.Production) {
	for i := range p.LHS {
		l := net.layoutFor(p.LHS[i].Class)
		for _, at := range p.LHS[i].Tests {
			l.Add(at.Attr)
		}
	}
}

// layoutFor returns class's layout, entering an empty one in the table
// on the class's first mention.
func (net *Network) layoutFor(class string) *ops5.Layout {
	l := net.layoutOf[class]
	if l == nil {
		l = ops5.NewLayout(len(net.layouts), class)
		net.layouts = append(net.layouts, l)
		net.layoutOf[class] = l
	}
	return l
}

// ref resolves an attribute of a class.
func (net *Network) ref(class, attr string) slotRef {
	l := net.layoutFor(class)
	return slotRef{layout: l, slot: l.Add(attr)}
}

// joinTest builds a resolved join test: rightClass is the class on the
// node's right input, leftClass the class bound at leftPos.
func (net *Network) joinTest(op ops5.PredOp, rightClass, rightAttr string, leftPos int, leftClass, leftAttr string) JoinTest {
	return JoinTest{
		Op: op, RightAttr: rightAttr, LeftPos: leftPos, LeftAttr: leftAttr,
		right: net.ref(rightClass, rightAttr), left: net.ref(leftClass, leftAttr),
	}
}

// Layout returns the layout of a class: the slots its wmes keep the
// attributes some production mentions in. It is nil for a class no
// production names.
func (net *Network) Layout(class string) *ops5.Layout { return net.layoutOf[class] }

// Layouts returns the layout table in id order: a layout's ID is its
// index here, on every process that compiled the network from the same
// productions (Digest proves it). Read-only.
func (net *Network) Layouts() []*ops5.Layout { return net.layouts }

// Variant names the variant the network was compiled as, one of
// Variants(): with its productions' source text, what CompileVariant
// needs to compile the network again.
func (net *Network) Variant() string { return net.variant }

// Digest is a structural hash of everything a frame between two
// processes names by number: each node's id, kind, parent, successors,
// condition element, token widths, tests' token positions, copy index
// and count and bounded position; the alpha routes; each production's
// terminal and token positions; and the layout table, each class with
// its attributes in slot order. Two processes that compiled the same
// productions as the same variant with the same compiler agree on it,
// and a network transformed after compilation (Unshare, a
// CopyAndConstrain of its own, Excise, AddProductionPrivate) has
// another, so a worker that compiled its own copy proves it numbers
// alike or is refused. One FNV-1a walk; it allocates nothing.
func (net *Network) Digest() uint64 {
	h := uint64(fnvOffset64)
	add := func(vs ...int) {
		for _, v := range vs {
			h = fold(h, v)
		}
	}
	add(len(net.Nodes))
	for _, n := range net.Nodes {
		parent, neg := -1, 0
		if n.Parent != nil {
			parent = n.Parent.ID
		}
		if n.bNeg {
			neg = 1
		}
		add(n.ID, int(n.Kind), parent, len(n.Succs))
		for _, s := range n.Succs {
			add(s.ID)
		}
		add(n.OrigCE, n.TokenLen, n.LeftLen, len(n.Tests))
		for i := range n.Tests {
			add(n.Tests[i].LeftPos, int(n.Tests[i].Op))
		}
		add(n.copyIndex, n.copyCount, n.bPos, neg)
	}
	add(len(net.Alphas))
	for _, a := range net.Alphas {
		add(len(a.Routes))
		for _, r := range a.Routes {
			add(r.Node.ID, int(r.Side))
		}
	}
	add(len(net.ProdOrder))
	for _, name := range net.ProdOrder {
		info := net.Prods[name]
		add(info.Node.ID, len(info.TokenPos))
		add(info.TokenPos...)
	}
	add(len(net.layouts))
	for _, l := range net.layouts {
		h = foldString(h, l.Class())
		add(l.Len())
		for _, name := range l.Names() {
			h = foldString(h, name)
		}
	}
	return h
}

// Conform returns a copy of w laid out for this network: by its
// class's layout, so compiled tests read it by slot, or a plain copy
// when no production names the class. The engine conforms every wme it
// is handed on the way in; w itself is never touched.
func (net *Network) Conform(w *ops5.WME) *ops5.WME {
	if l := net.layoutOf[w.Class]; l != nil {
		return l.Conform(w)
	}
	return w.Clone()
}

// Network is a compiled Rete network.
type Network struct {
	Nodes   []*Node
	Alphas  []*AlphaPattern
	byClass map[string][]*AlphaPattern
	Prods   map[string]*ProdInfo
	// ProdOrder lists production names in definition order.
	ProdOrder []string
	// layouts is the class table: one layout per class a production
	// names, slots assigned on first mention in production order.
	// Written only by AddProduction, which a shared network never sees
	// again once sessions run over it.
	layouts  []*ops5.Layout
	layoutOf map[string]*ops5.Layout

	// variant is the name CompileVariant compiles this network by;
	// "unshared" turns sharing off, "bounded" compiles collector groups.
	variant string
}

// Compile builds a network from a set of productions as the shared
// variant (alpha patterns and join-node prefixes shared).
func Compile(prods []*ops5.Production) (*Network, error) {
	return compile(prods, "shared")
}

// compile builds a network from a set of productions as variant:
// "shared", "unshared" (every production with private alpha patterns
// and two-input nodes: the paper's "unsharing", Section 5.2.1 method 1,
// applied globally) or "bounded" (per-CE collector nodes with a
// selectivity-ordered lazy enumerator instead of chained two-input
// nodes with beta memories, join-node prefixes never shared; see
// bounded.go).
func compile(prods []*ops5.Production, variant string) (*Network, error) {
	net := &Network{
		byClass:  map[string][]*AlphaPattern{},
		Prods:    map[string]*ProdInfo{},
		layoutOf: map[string]*ops5.Layout{},
		variant:  variant,
	}
	for _, p := range prods {
		if err := net.AddProduction(p); err != nil {
			return nil, err
		}
	}
	return net, nil
}

func (net *Network) newNode(kind NodeKind) *Node {
	n := &Node{ID: len(net.Nodes), Kind: kind, OrigCE: -1}
	n.hashSeed = hashSeedOf(n.ID)
	net.Nodes = append(net.Nodes, n)
	return n
}

// internAlpha returns a shared alpha pattern for the given class and
// tests, creating it if necessary.
func (net *Network) internAlpha(class string, tests []ConstTest) *AlphaPattern {
	l := net.layoutFor(class)
	for i := range tests {
		tests[i].resolve(l)
	}
	cand := &AlphaPattern{Class: class, Tests: tests}
	if net.variant != "unshared" {
		cand.shareKey = cand.key()
		for _, a := range net.byClass[class] {
			if a.shareKey == cand.shareKey {
				return a
			}
		}
	}
	cand.ID = len(net.Alphas)
	net.Alphas = append(net.Alphas, cand)
	net.byClass[class] = append(net.byClass[class], cand)
	return cand
}

func (net *Network) addRoute(a *AlphaPattern, n *Node, s Side) {
	for _, r := range a.Routes {
		if r.Node == n && r.Side == s {
			return
		}
	}
	a.Routes = append(a.Routes, AlphaRoute{Node: n, Side: s})
}

// AddProduction compiles one production into the network, sharing
// alpha patterns and join-node prefixes with previously added
// productions where structurally identical.
func (net *Network) AddProduction(p *ops5.Production) error {
	_, err := net.addProduction(p, net.variant != "unshared")
	return err
}

// AddProductionPrivate compiles one production with private two-input
// nodes (alpha patterns may still be shared — they are stateless
// filters). It returns the newly created nodes, which start with empty
// memories: a live system primes them by replaying working memory
// through them alone (Matcher.ApplyFiltered), the correct way to add a
// production to a running Rete without corrupting shared node state.
func (net *Network) AddProductionPrivate(p *ops5.Production) ([]*Node, error) {
	before := len(net.Nodes)
	if _, err := net.addProduction(p, false); err != nil {
		return nil, err
	}
	return net.Nodes[before:], nil
}

func (net *Network) addProduction(p *ops5.Production, shareJoins bool) (*ProdInfo, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if _, dup := net.Prods[p.Name]; dup {
		return nil, fmt.Errorf("rete: duplicate production %q", p.Name)
	}
	net.mention(p)
	if net.variant == "bounded" {
		return net.addProductionBounded(p)
	}

	// Compiled CE order: positive CEs in original order, then negated
	// CEs in original order. A negated CE cannot supply the first left
	// input, and placing all negations after the positive joins gives
	// this dialect a simple, order-independent semantics: a negated CE
	// is satisfied when no wme matches it under the bindings
	// established by ALL positive CEs (documented in the package
	// comment; classic OPS5 scopes unbound negated-CE variables to the
	// CE, which differs only when a variable's defining positive
	// occurrence follows the negated CE textually).
	order := make([]int, 0, len(p.LHS))
	for i, ce := range p.LHS {
		if !ce.Negated {
			order = append(order, i)
		}
	}
	for i, ce := range p.LHS {
		if ce.Negated {
			order = append(order, i)
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

	// varPos maps a bound variable to (token position, attribute) and
	// the class of the condition element at that position.
	type binding struct {
		pos         int
		attr, class string
	}
	varPos := map[string]binding{}

	var cur *Node // node producing the current left tokens (nil before the first join)
	var leftAlpha *AlphaPattern
	tokenLen := 0

	attach := func(n *Node) {
		if cur == nil {
			net.addRoute(leftAlpha, n, Left)
		} else {
			cur.Succs = append(cur.Succs, n)
		}
	}

	for seq, orig := range order {
		ce := &p.LHS[orig]
		boundOutside := func(v string) bool { _, ok := varPos[v]; return ok }
		alphaTests, firstAttr := buildAlphaTests(ce, boundOutside)
		alpha := net.internAlpha(ce.Class, alphaTests)

		if seq == 0 {
			// First (positive) CE: its alpha output is the left input
			// of the first two-input node.
			leftAlpha = alpha
			for v, attr := range firstAttr {
				varPos[v] = binding{pos: 0, attr: attr, class: ce.Class}
				info.VarDefs[v] = VarDef{OrigCE: orig, Attr: attr, ref: net.ref(ce.Class, attr)}
			}
			info.TokenPos[orig] = 0
			tokenLen = 1
			continue
		}

		// Build the join tests for variables already bound.
		var tests []JoinTest
		for _, at := range ce.Tests {
			for _, term := range at.Terms {
				if term.Var == "" {
					continue
				}
				b, ok := varPos[term.Var]
				if !ok {
					continue // defined inside this CE (alpha-level)
				}
				tests = append(tests, net.joinTest(term.Op, ce.Class, at.Attr, b.pos, b.class, b.attr))
			}
		}

		kind := KindJoin
		if ce.Negated {
			kind = KindNegative
		}
		key := shareKeyFor(cur, leftAlpha, alpha, kind, tests)
		var node *Node
		if shareJoins {
			node = net.findShared(cur, leftAlpha, key)
		}
		if node == nil {
			node = net.newNode(kind)
			node.Tests = tests
			for i := range tests {
				if tests[i].Op == ops5.OpEq {
					node.EqTests = append(node.EqTests, tests[i])
				}
			}
			node.Parent = cur
			node.OrigCE = orig
			node.LeftLen = tokenLen
			node.TokenLen = tokenLen
			if kind == KindJoin {
				node.TokenLen++
			}
			node.shareKey = key
			attach(node)
			net.addRoute(alpha, node, Right)
		}

		if !ce.Negated {
			for v, attr := range firstAttr {
				varPos[v] = binding{pos: tokenLen, attr: attr, class: ce.Class}
				info.VarDefs[v] = VarDef{OrigCE: orig, Attr: attr, ref: net.ref(ce.Class, attr)}
			}
			info.TokenPos[orig] = tokenLen
			tokenLen++
		}
		cur = node
	}

	// Terminal production node.
	pn := net.newNode(KindProduction)
	pn.Parent = cur
	pn.LeftLen = tokenLen
	pn.TokenLen = tokenLen
	attach(pn)
	info.Node = pn
	net.register(info)
	return info, nil
}

// shareKeyFor canonically encodes a candidate two-input node for prefix
// sharing: same left source, same right alpha pattern, same kind, same
// tests.
func shareKeyFor(parent *Node, leftAlpha, alpha *AlphaPattern, kind NodeKind, tests []JoinTest) string {
	b := make([]byte, 0, 64)
	if parent != nil {
		b = strconv.AppendInt(append(b, 'n'), int64(parent.ID), 10)
	} else {
		b = strconv.AppendInt(append(b, 'a'), int64(leftAlpha.ID), 10)
	}
	b = strconv.AppendInt(append(b, "|r"...), int64(alpha.ID), 10)
	b = strconv.AppendInt(append(b, "|k"...), int64(kind), 10)
	b = append(b, '|')
	if len(tests) == 1 {
		return string(tests[0].appendKey(b))
	}
	keys := make([]string, len(tests))
	for i := range tests {
		keys[i] = tests[i].key()
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, k...)
	}
	return string(b)
}

// findShared looks for an existing node with the given share key among
// the candidates reachable from the left source.
func (net *Network) findShared(parent *Node, leftAlpha *AlphaPattern, key string) *Node {
	if parent != nil {
		for _, s := range parent.Succs {
			if s.shareKey == key {
				return s
			}
		}
		return nil
	}
	for _, r := range leftAlpha.Routes {
		if r.Side == Left && r.Node.shareKey == key {
			return r.Node
		}
	}
	return nil
}

// AlphasForClass returns the alpha patterns filtering the given class.
func (net *Network) AlphasForClass(class string) []*AlphaPattern {
	return net.byClass[class]
}

// Stats summarizes network size.
type Stats struct {
	AlphaPatterns   int
	JoinNodes       int
	NegativeNodes   int
	ProductionNodes int
	BoundedNodes    int
}

// Stats computes node counts by kind.
func (net *Network) Stats() Stats {
	var s Stats
	s.AlphaPatterns = len(net.Alphas)
	for _, n := range net.Nodes {
		switch n.Kind {
		case KindJoin:
			s.JoinNodes++
		case KindNegative:
			s.NegativeNodes++
		case KindProduction:
			s.ProductionNodes++
		case KindBounded:
			s.BoundedNodes++
		}
	}
	return s
}
