package rete

import (
	"fmt"
	"math"
	"slices"

	"mpcrete/internal/ops5"
	"mpcrete/internal/wire"
)

// This file implements a compact binary encoding of compiled networks,
// the engineering concern of Section 3.1: a large OPS5 program's
// in-line-expanded Rete code runs to megabytes, while a message-
// passing node may have 10-20 Kbytes of local memory, so the paper
// proposes encoding two-input nodes as small fixed records indexed by
// node id. AppendNetwork/DecodeNetwork serialize the full compiled
// graph — including transformation products (unshared copies, dummy
// nodes, copy-and-constraint copies), which mere recompilation of the
// source productions would lose. The bytes are wire's primitives, the
// codec every frame of the transport is written in: a worker's
// handshake carries a network, so it is read as outside input.

// Format 2 added the compile-option flags word, the per-node bounded
// fields (bPos/bNeg), and the per-production bounded collector-group
// member list. Format 3 ships the layout table — every class's
// attributes in slot order, ahead of the alpha patterns — and the two
// class names of each join test, so the decoding end numbers slots as
// the encoding end does and a wme definition on the wire can be a
// layout id and a run of values.
const netMagic = "RETENET3"

// Compile-option flag bits in the header flags word.
const (
	netFlagDisableSharing = 1 << iota
	netFlagBoundedJoins
)

// AppendNetwork appends the compiled network in the compact binary
// format to buf.
func AppendNetwork(buf []byte, net *Network) []byte {
	e := wire.Enc{Buf: append(buf, netMagic...)}

	// Compile-option flags, so dynamic production adds on a decoded
	// network compile the same variant the original did.
	var flags uint64
	if net.opts.DisableSharing {
		flags |= netFlagDisableSharing
	}
	if net.opts.BoundedJoins {
		flags |= netFlagBoundedJoins
	}
	e.U64(flags)

	// Productions as source text (Production.String round-trips).
	e.Count(len(net.ProdOrder))
	for _, name := range net.ProdOrder {
		e.Str(net.Prods[name].Prod.String())
	}

	// The layout table, in id order.
	e.Count(len(net.layouts))
	for _, l := range net.layouts {
		e.Str(l.Class())
		e.Count(l.Len())
		for _, name := range l.Names() {
			e.Str(name)
		}
	}

	// Alpha patterns.
	e.Count(len(net.Alphas))
	for _, a := range net.Alphas {
		e.Str(a.Class)
		e.Count(len(a.Tests))
		for i := range a.Tests {
			ct := &a.Tests[i]
			e.Str(ct.Attr)
			e.Byte(byte(ct.Op))
			e.Count(len(ct.Disj))
			for _, d := range ct.Disj {
				e.Value(d)
			}
			e.Bool(ct.isOther)
			if ct.isOther {
				e.Str(ct.OtherAttr)
			} else {
				e.Value(ct.Value)
			}
		}
		e.Count(len(a.Routes))
		for _, r := range a.Routes {
			e.Count(r.Node.ID)
			e.Byte(byte(r.Side))
		}
	}

	// Nodes: the paper's compact per-node records.
	e.Count(len(net.Nodes))
	for _, n := range net.Nodes {
		e.Byte(byte(n.Kind))
		e.Int(n.OrigCE)
		e.Count(n.TokenLen)
		e.Count(n.LeftLen)
		e.Count(n.copyIndex)
		e.Count(n.copyCount)
		e.Bool(n.detached)
		e.Count(n.bPos)
		e.Bool(n.bNeg)
		if n.Parent != nil {
			e.Int(n.Parent.ID)
		} else {
			e.Int(-1)
		}
		e.Count(len(n.Succs))
		for _, s := range n.Succs {
			e.Count(s.ID)
		}
		e.Count(len(n.Tests))
		for i := range n.Tests {
			t := &n.Tests[i]
			e.Byte(byte(t.Op))
			e.Str(t.right.class())
			e.Str(t.RightAttr)
			e.Count(t.LeftPos)
			e.Str(t.left.class())
			e.Str(t.LeftAttr)
		}
		if n.Kind == KindProduction {
			e.Str(n.Info.Prod.Name)
		}
		e.Str(n.shareKey)
	}

	// Per-production info.
	for _, name := range net.ProdOrder {
		info := net.Prods[name]
		e.Count(info.Node.ID)
		e.Count(len(info.VarDefs))
		for _, v := range sortedVarNames(info.VarDefs) {
			d := info.VarDefs[v]
			e.Str(v)
			e.Count(d.OrigCE)
			e.Str(d.Attr)
		}
		e.Count(len(info.TokenPos))
		for _, p := range info.TokenPos {
			e.Int(p)
		}
		// Bounded collector group: member node ids in join order (empty
		// for the other variants).
		var members []*Node
		if g := info.Node.group; g != nil {
			members = g.members
		}
		e.Count(len(members))
		for _, m := range members {
			e.Count(m.ID)
		}
	}
	return e.Buf
}

func sortedVarNames(m map[string]VarDef) []string {
	names := make([]string, 0, len(m))
	for v := range m {
		names = append(names, v)
	}
	slices.Sort(names)
	return names
}

// netDec reads a network blob: wire's sticky, payload-bounded decoder,
// plus the network being built, whose node table bounds every node id.
type netDec struct {
	wire.Dec
	net *Network
}

// enum decodes a one-byte enumeration whose largest member is max.
func (d *netDec) enum(max byte, what string) byte {
	b := d.Byte()
	if b > max {
		d.Fail(fmt.Sprintf("%s %d", what, b))
		return 0
	}
	return b
}

func (d *netDec) op() ops5.PredOp { return ops5.PredOp(d.enum(byte(ops5.OpSameType), "predicate")) }

// size decodes a non-negative int: an id, a length, a position.
func (d *netDec) size() int {
	v := d.U64()
	if v > math.MaxInt32 {
		d.Fail(fmt.Sprintf("integer %d out of range", v))
		return 0
	}
	return int(v)
}

// nodeAt resolves a node id against the nodes decoded so far (nil on
// failure).
func (d *netDec) nodeAt(id int) *Node {
	if id < 0 || id >= len(d.net.Nodes) {
		d.Fail(fmt.Sprintf("node id %d out of range", id))
		return nil
	}
	return d.net.Nodes[id]
}

// DecodeNetwork reads a network written by AppendNetwork. It reads
// straight through the blob on the decoder's sticky error and reports
// it once, at the end: every failure wraps wire.ErrBadPayload, and
// every count is held to the bytes that remain before anything is
// sized by it, so a forged blob costs what its length can buy. The
// loops that build per element stop at the first failure.
func DecodeNetwork(blob []byte) (*Network, error) {
	d := netDec{Dec: wire.Dec{B: blob}}
	if magic := d.Bytes(len(netMagic), "network header"); d.Err == nil && string(magic) != netMagic {
		d.Fail(fmt.Sprintf("bad network magic %q", magic))
	}
	flags := d.U64()
	net := NewNetwork(CompileOptions{
		DisableSharing: flags&netFlagDisableSharing != 0,
		BoundedJoins:   flags&netFlagBoundedJoins != 0,
	})
	d.net = net

	var prods []*ops5.Production
	for i, n := 0, d.Count(1<<20); i < n && d.Err == nil; i++ {
		p, err := ops5.ParseProduction(d.Str())
		if err != nil {
			d.Fail(fmt.Sprintf("reparsing production %d: %v", i, err))
			break
		}
		prods = append(prods, p)
	}

	// The layout table comes first and is complete: everything decoded
	// after it resolves against it, and at the end it must not have
	// grown.
	nlayouts, declared := d.Count(1<<20), 0 // declared: slots, over every layout
	for i := 0; i < nlayouts && d.Err == nil; i++ {
		class := d.Str()
		if net.layoutOf[class] != nil {
			d.Fail(fmt.Sprintf("layout table names class %q twice", class))
		}
		l := net.layoutFor(class)
		nnames := d.Count(1 << 16)
		declared += nnames
		for j := 0; j < nnames; j++ {
			if name := d.Str(); l.Add(name) != j {
				d.Fail(fmt.Sprintf("layout of class %q names attribute %q twice", class, name))
			}
		}
	}

	// Routes, parents and successors name nodes ahead of their records;
	// they are kept as ids and resolved once every node exists.
	type routeRef struct {
		alpha *AlphaPattern
		node  int
		side  Side
	}
	var routes []routeRef
	for i, n := 0, d.Count(1<<20); i < n && d.Err == nil; i++ {
		a := &AlphaPattern{ID: i, Class: d.Str()}
		l := net.layoutFor(a.Class)
		for j, nt := 0, d.Count(1<<16); j < nt; j++ {
			ct := ConstTest{Attr: d.Str(), Op: d.op()}
			for k, nd := 0, d.Count(1<<16); k < nd; k++ {
				ct.Disj = append(ct.Disj, d.Value())
			}
			if ct.isOther = d.Bool(); ct.isOther {
				ct.OtherAttr = d.Str()
			} else {
				ct.Value = d.Value()
			}
			ct.resolve(l)
			a.Tests = append(a.Tests, ct)
		}
		for j, nr := 0, d.Count(1<<20); j < nr; j++ {
			routes = append(routes, routeRef{alpha: a, node: d.size(), side: Side(d.enum(byte(Right), "side"))})
		}
		net.Alphas = append(net.Alphas, a)
		net.byClass[a.Class] = append(net.byClass[a.Class], a)
	}

	type nodeRef struct {
		parent int
		succs  []int
		prod   string // a production node's production
	}
	refs := make([]nodeRef, d.Count(1<<22))
	for i := 0; i < len(refs) && d.Err == nil; i++ {
		n, r := net.newNode(NodeKind(d.enum(byte(KindBounded), "node kind"))), &refs[i]
		n.OrigCE = d.Int()
		n.TokenLen, n.LeftLen, n.copyIndex, n.copyCount = d.size(), d.size(), d.size(), d.size()
		n.detached = d.Bool()
		n.bPos = d.size()
		n.bNeg = d.Bool()
		r.parent = d.Int()
		for j, ns := 0, d.Count(1<<20); j < ns; j++ {
			r.succs = append(r.succs, d.size())
		}
		for j, nt := 0, d.Count(1<<16); j < nt; j++ {
			jt := net.joinTest(d.op(), d.Str(), d.Str(), d.size(), d.Str(), d.Str())
			n.Tests = append(n.Tests, jt)
			if jt.Op == ops5.OpEq {
				n.EqTests = append(n.EqTests, jt)
			}
		}
		if n.Kind == KindProduction {
			r.prod = d.Str()
		}
		n.shareKey = d.Str()
	}

	for i, n := range net.Nodes {
		if refs[i].parent >= 0 {
			n.Parent = d.nodeAt(refs[i].parent)
		}
		for _, sid := range refs[i].succs {
			n.Succs = append(n.Succs, d.nodeAt(sid))
		}
	}
	for _, rr := range routes {
		rr.alpha.Routes = append(rr.alpha.Routes, AlphaRoute{Node: d.nodeAt(rr.node), Side: rr.side})
	}

	// Per-production info.
	for _, p := range prods {
		nid := d.size()
		info := &ProdInfo{Prod: p, VarDefs: map[string]VarDef{}, Node: d.nodeAt(nid)}
		if d.Err != nil {
			break
		}
		if info.Node.Kind != KindProduction || refs[nid].prod != p.Name {
			d.Fail(fmt.Sprintf("production %q names node %d, which is not its terminal", p.Name, nid))
			break
		}
		if net.Prods[p.Name] != nil {
			d.Fail(fmt.Sprintf("duplicate production %q", p.Name))
			break
		}
		for j, nv := 0, d.Count(1<<16); j < nv; j++ {
			v, ce, attr := d.Str(), d.size(), d.Str()
			if ce >= len(p.LHS) {
				d.Fail(fmt.Sprintf("production %q binds <%s> in condition element %d of %d", p.Name, v, ce, len(p.LHS)))
				break
			}
			info.VarDefs[v] = VarDef{OrigCE: ce, Attr: attr, ref: net.ref(p.LHS[ce].Class, attr)}
		}
		for j, np := 0, d.Count(1<<16); j < np; j++ {
			info.TokenPos = append(info.TokenPos, d.Int())
		}
		if nm := d.Count(1 << 16); nm > 0 {
			g := &boundedGroup{terminal: info.Node}
			for j := 0; j < nm; j++ {
				m := d.nodeAt(d.size())
				if m == nil {
					break
				}
				if m.Kind != KindBounded {
					d.Fail(fmt.Sprintf("bounded group member %d is a %s node", m.ID, m.Kind))
					break
				}
				g.members = append(g.members, m)
				if !m.bNeg {
					g.nPos++
				}
			}
			if d.Err != nil {
				break
			}
			g.bind()
		}
		net.register(info)
	}
	for i, n := range net.Nodes {
		if n.Kind == KindProduction && n.Info == nil {
			d.Fail(fmt.Sprintf("production node references unknown production %q", refs[i].prod))
		}
	}
	slots := 0
	for _, l := range net.layouts {
		slots += l.Len()
	}
	if len(net.layouts) != nlayouts || slots != declared {
		d.Fail("network mentions a class or an attribute its layout table lacks")
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return net, nil
}
