package rete

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"mpcrete/internal/ops5"
)

// This file implements a compact binary encoding of compiled networks,
// the engineering concern of Section 3.1: a large OPS5 program's
// in-line-expanded Rete code runs to megabytes, while a message-
// passing node may have 10-20 Kbytes of local memory, so the paper
// proposes encoding two-input nodes as small fixed records indexed by
// node id. EncodeNetwork/DecodeNetwork serialize the full compiled
// graph — including transformation products (unshared copies, dummy
// nodes, copy-and-constraint copies), which mere recompilation of the
// source productions would lose.

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

type netWriter struct {
	w   *bufio.Writer
	err error
	// num is the varint scratch. It lives here because a local array
	// passed to Write escapes: one heap allocation per integer written.
	num [binary.MaxVarintLen64]byte
}

func (nw *netWriter) u64(v uint64) {
	if nw.err != nil {
		return
	}
	n := binary.PutUvarint(nw.num[:], v)
	_, nw.err = nw.w.Write(nw.num[:n])
}

func (nw *netWriter) i64(v int64) {
	if nw.err != nil {
		return
	}
	n := binary.PutVarint(nw.num[:], v)
	_, nw.err = nw.w.Write(nw.num[:n])
}

func (nw *netWriter) str(s string) {
	nw.u64(uint64(len(s)))
	if nw.err == nil {
		_, nw.err = nw.w.WriteString(s)
	}
}

func (nw *netWriter) value(v ops5.Value) {
	nw.u64(uint64(v.Kind))
	switch v.Kind {
	case ops5.KindSym:
		nw.str(v.Sym)
	case ops5.KindNum:
		nw.u64(math.Float64bits(v.Num))
	}
}

type netReader struct {
	r *bufio.Reader
}

func (nr *netReader) u64() (uint64, error) { return binary.ReadUvarint(nr.r) }
func (nr *netReader) i64() (int64, error)  { return binary.ReadVarint(nr.r) }

func (nr *netReader) intn(max int) (int, error) {
	v, err := nr.u64()
	if err != nil {
		return 0, err
	}
	if v > uint64(max) {
		return 0, fmt.Errorf("rete: decoded count %d exceeds limit %d", v, max)
	}
	return int(v), nil
}

func (nr *netReader) str() (string, error) {
	n, err := nr.intn(1 << 20)
	if err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(nr.r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func (nr *netReader) value() (ops5.Value, error) {
	kind, err := nr.u64()
	if err != nil {
		return ops5.Value{}, err
	}
	switch ops5.Kind(kind) {
	case ops5.KindNil:
		return ops5.Value{}, nil
	case ops5.KindSym:
		s, err := nr.str()
		return ops5.S(s), err
	case ops5.KindNum:
		b, err := nr.u64()
		return ops5.N(math.Float64frombits(b)), err
	}
	return ops5.Value{}, fmt.Errorf("rete: bad value kind %d", kind)
}

// EncodeNetwork writes the compiled network in the compact binary
// format.
func EncodeNetwork(w io.Writer, net *Network) error {
	nw := &netWriter{w: bufio.NewWriter(w)}
	if _, err := nw.w.WriteString(netMagic); err != nil {
		return err
	}

	// Compile-option flags, so dynamic production adds on a decoded
	// network compile the same variant the original did.
	var flags uint64
	if net.opts.DisableSharing {
		flags |= netFlagDisableSharing
	}
	if net.opts.BoundedJoins {
		flags |= netFlagBoundedJoins
	}
	nw.u64(flags)

	// Productions as source text (Production.String round-trips).
	nw.u64(uint64(len(net.ProdOrder)))
	for _, name := range net.ProdOrder {
		nw.str(net.Prods[name].Prod.String())
	}

	// The layout table, in id order.
	nw.u64(uint64(len(net.layouts)))
	for _, l := range net.layouts {
		nw.str(l.Class())
		nw.u64(uint64(l.Len()))
		for _, name := range l.Names() {
			nw.str(name)
		}
	}

	// Alpha patterns.
	nw.u64(uint64(len(net.Alphas)))
	for _, a := range net.Alphas {
		nw.str(a.Class)
		nw.u64(uint64(len(a.Tests)))
		for i := range a.Tests {
			ct := &a.Tests[i]
			nw.str(ct.Attr)
			nw.u64(uint64(ct.Op))
			nw.u64(uint64(len(ct.Disj)))
			for _, d := range ct.Disj {
				nw.value(d)
			}
			if ct.isOther {
				nw.u64(1)
				nw.str(ct.OtherAttr)
			} else {
				nw.u64(0)
				nw.value(ct.Value)
			}
		}
		nw.u64(uint64(len(a.Routes)))
		for _, r := range a.Routes {
			nw.u64(uint64(r.Node.ID))
			nw.u64(uint64(r.Side))
		}
	}

	// Nodes: the paper's compact per-node records.
	nw.u64(uint64(len(net.Nodes)))
	for _, n := range net.Nodes {
		nw.u64(uint64(n.Kind))
		nw.i64(int64(n.OrigCE))
		nw.u64(uint64(n.TokenLen))
		nw.u64(uint64(n.LeftLen))
		nw.u64(uint64(n.copyIndex))
		nw.u64(uint64(n.copyCount))
		if n.detached {
			nw.u64(1)
		} else {
			nw.u64(0)
		}
		nw.u64(uint64(n.bPos))
		if n.bNeg {
			nw.u64(1)
		} else {
			nw.u64(0)
		}
		if n.Parent != nil {
			nw.i64(int64(n.Parent.ID))
		} else {
			nw.i64(-1)
		}
		nw.u64(uint64(len(n.Succs)))
		for _, s := range n.Succs {
			nw.u64(uint64(s.ID))
		}
		nw.u64(uint64(len(n.Tests)))
		for i := range n.Tests {
			t := &n.Tests[i]
			nw.u64(uint64(t.Op))
			nw.str(t.right.class())
			nw.str(t.RightAttr)
			nw.u64(uint64(t.LeftPos))
			nw.str(t.left.class())
			nw.str(t.LeftAttr)
		}
		if n.Kind == KindProduction {
			nw.str(n.Info.Prod.Name)
		}
		nw.str(n.shareKey)
	}

	// Per-production info.
	for _, name := range net.ProdOrder {
		info := net.Prods[name]
		nw.u64(uint64(info.Node.ID))
		nw.u64(uint64(len(info.VarDefs)))
		for _, v := range sortedVarNames(info.VarDefs) {
			d := info.VarDefs[v]
			nw.str(v)
			nw.u64(uint64(d.OrigCE))
			nw.str(d.Attr)
		}
		nw.u64(uint64(len(info.TokenPos)))
		for _, p := range info.TokenPos {
			nw.i64(int64(p))
		}
		// Bounded collector group: member node ids in join order (empty
		// for the other variants).
		if g := info.Node.group; g != nil {
			nw.u64(uint64(len(g.members)))
			for _, m := range g.members {
				nw.u64(uint64(m.ID))
			}
		} else {
			nw.u64(0)
		}
	}

	if nw.err != nil {
		return nw.err
	}
	return nw.w.Flush()
}

func sortedVarNames(m map[string]VarDef) []string {
	names := make([]string, 0, len(m))
	for v := range m {
		names = append(names, v)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// DecodeNetwork reads a network written by EncodeNetwork.
func DecodeNetwork(r io.Reader) (*Network, error) {
	nr := &netReader{r: bufio.NewReader(r)}
	magic := make([]byte, len(netMagic))
	if _, err := io.ReadFull(nr.r, magic); err != nil {
		return nil, fmt.Errorf("rete: reading network header: %w", err)
	}
	if string(magic) != netMagic {
		return nil, fmt.Errorf("rete: bad network magic %q", magic)
	}
	flags, err := nr.u64()
	if err != nil {
		return nil, err
	}

	net := NewNetwork(CompileOptions{
		DisableSharing: flags&netFlagDisableSharing != 0,
		BoundedJoins:   flags&netFlagBoundedJoins != 0,
	})

	nprods, err := nr.intn(1 << 20)
	if err != nil {
		return nil, err
	}
	prods := make([]*ops5.Production, nprods)
	for i := range prods {
		src, err := nr.str()
		if err != nil {
			return nil, err
		}
		p, err := ops5.ParseProduction(src)
		if err != nil {
			return nil, fmt.Errorf("rete: reparsing production %d: %w", i, err)
		}
		prods[i] = p
	}

	// The layout table comes first and is complete: everything decoded
	// after it resolves against it, and at the end it must not have
	// grown.
	nlayouts, err := nr.intn(1 << 20)
	if err != nil {
		return nil, err
	}
	declared := 0 // slots, over every layout
	for i := 0; i < nlayouts; i++ {
		class, err := nr.str()
		if err != nil {
			return nil, err
		}
		if net.layoutOf[class] != nil {
			return nil, fmt.Errorf("rete: layout table names class %q twice", class)
		}
		l := net.layoutFor(class)
		nnames, err := nr.intn(1 << 16)
		if err != nil {
			return nil, err
		}
		declared += nnames
		for j := 0; j < nnames; j++ {
			name, err := nr.str()
			if err != nil {
				return nil, err
			}
			if l.Add(name) != j {
				return nil, fmt.Errorf("rete: layout of class %q names attribute %q twice", class, name)
			}
		}
	}

	nalphas, err := nr.intn(1 << 20)
	if err != nil {
		return nil, err
	}
	type routeRef struct {
		alpha *AlphaPattern
		node  int
		side  Side
	}
	var routes []routeRef
	for i := 0; i < nalphas; i++ {
		a := &AlphaPattern{ID: i}
		if a.Class, err = nr.str(); err != nil {
			return nil, err
		}
		ntests, err := nr.intn(1 << 16)
		if err != nil {
			return nil, err
		}
		for j := 0; j < ntests; j++ {
			var ct ConstTest
			if ct.Attr, err = nr.str(); err != nil {
				return nil, err
			}
			op, err := nr.u64()
			if err != nil {
				return nil, err
			}
			ct.Op = ops5.PredOp(op)
			ndisj, err := nr.intn(1 << 16)
			if err != nil {
				return nil, err
			}
			for d := 0; d < ndisj; d++ {
				v, err := nr.value()
				if err != nil {
					return nil, err
				}
				ct.Disj = append(ct.Disj, v)
			}
			other, err := nr.u64()
			if err != nil {
				return nil, err
			}
			if other == 1 {
				ct.isOther = true
				if ct.OtherAttr, err = nr.str(); err != nil {
					return nil, err
				}
			} else {
				if ct.Value, err = nr.value(); err != nil {
					return nil, err
				}
			}
			ct.resolve(net.layoutFor(a.Class))
			a.Tests = append(a.Tests, ct)
		}
		nroutes, err := nr.intn(1 << 20)
		if err != nil {
			return nil, err
		}
		for j := 0; j < nroutes; j++ {
			nid, err := nr.u64()
			if err != nil {
				return nil, err
			}
			side, err := nr.u64()
			if err != nil {
				return nil, err
			}
			routes = append(routes, routeRef{alpha: a, node: int(nid), side: Side(side)})
		}
		net.Alphas = append(net.Alphas, a)
		net.byClass[a.Class] = append(net.byClass[a.Class], a)
	}

	nnodes, err := nr.intn(1 << 22)
	if err != nil {
		return nil, err
	}
	parents := make([]int, nnodes)
	succs := make([][]int, nnodes)
	prodNames := make([]string, nnodes)
	for i := 0; i < nnodes; i++ {
		kind, err := nr.u64()
		if err != nil {
			return nil, err
		}
		n := net.newNode(NodeKind(kind))
		origCE, err := nr.i64()
		if err != nil {
			return nil, err
		}
		n.OrigCE = int(origCE)
		if tl, err := nr.u64(); err == nil {
			n.TokenLen = int(tl)
		} else {
			return nil, err
		}
		if ll, err := nr.u64(); err == nil {
			n.LeftLen = int(ll)
		} else {
			return nil, err
		}
		if ci, err := nr.u64(); err == nil {
			n.copyIndex = int(ci)
		} else {
			return nil, err
		}
		if cc, err := nr.u64(); err == nil {
			n.copyCount = int(cc)
		} else {
			return nil, err
		}
		if det, err := nr.u64(); err == nil {
			n.detached = det == 1
		} else {
			return nil, err
		}
		if bp, err := nr.u64(); err == nil {
			n.bPos = int(bp)
		} else {
			return nil, err
		}
		if bn, err := nr.u64(); err == nil {
			n.bNeg = bn == 1
		} else {
			return nil, err
		}
		parent, err := nr.i64()
		if err != nil {
			return nil, err
		}
		parents[i] = int(parent)
		nsuccs, err := nr.intn(1 << 20)
		if err != nil {
			return nil, err
		}
		for j := 0; j < nsuccs; j++ {
			sid, err := nr.u64()
			if err != nil {
				return nil, err
			}
			succs[i] = append(succs[i], int(sid))
		}
		ntests, err := nr.intn(1 << 16)
		if err != nil {
			return nil, err
		}
		for j := 0; j < ntests; j++ {
			op, err := nr.u64()
			if err != nil {
				return nil, err
			}
			rightClass, err := nr.str()
			if err != nil {
				return nil, err
			}
			rightAttr, err := nr.str()
			if err != nil {
				return nil, err
			}
			lp, err := nr.u64()
			if err != nil {
				return nil, err
			}
			leftClass, err := nr.str()
			if err != nil {
				return nil, err
			}
			leftAttr, err := nr.str()
			if err != nil {
				return nil, err
			}
			jt := net.joinTest(ops5.PredOp(op), rightClass, rightAttr, int(lp), leftClass, leftAttr)
			n.Tests = append(n.Tests, jt)
			if jt.Op == ops5.OpEq {
				n.EqTests = append(n.EqTests, jt)
			}
		}
		if n.Kind == KindProduction {
			if prodNames[i], err = nr.str(); err != nil {
				return nil, err
			}
		}
		if n.shareKey, err = nr.str(); err != nil {
			return nil, err
		}
	}

	// Resolve graph references.
	nodeAt := func(id int) (*Node, error) {
		if id < 0 || id >= len(net.Nodes) {
			return nil, fmt.Errorf("rete: node id %d out of range", id)
		}
		return net.Nodes[id], nil
	}
	for i, n := range net.Nodes {
		if parents[i] >= 0 {
			p, err := nodeAt(parents[i])
			if err != nil {
				return nil, err
			}
			n.Parent = p
		}
		for _, sid := range succs[i] {
			s, err := nodeAt(sid)
			if err != nil {
				return nil, err
			}
			n.Succs = append(n.Succs, s)
		}
	}
	for _, rr := range routes {
		n, err := nodeAt(rr.node)
		if err != nil {
			return nil, err
		}
		rr.alpha.Routes = append(rr.alpha.Routes, AlphaRoute{Node: n, Side: rr.side})
	}

	// Per-production info.
	for _, p := range prods {
		info := &ProdInfo{Prod: p, VarDefs: map[string]VarDef{}}
		nid, err := nr.u64()
		if err != nil {
			return nil, err
		}
		if info.Node, err = nodeAt(int(nid)); err != nil {
			return nil, err
		}
		if info.Node.Kind != KindProduction || prodNames[nid] != p.Name {
			return nil, fmt.Errorf("rete: production %q names node %d, which is not its terminal", p.Name, nid)
		}
		nvars, err := nr.intn(1 << 16)
		if err != nil {
			return nil, err
		}
		for j := 0; j < nvars; j++ {
			v, err := nr.str()
			if err != nil {
				return nil, err
			}
			ce, err := nr.u64()
			if err != nil {
				return nil, err
			}
			attr, err := nr.str()
			if err != nil {
				return nil, err
			}
			if ce >= uint64(len(p.LHS)) {
				return nil, fmt.Errorf("rete: production %q binds <%s> in condition element %d of %d", p.Name, v, ce, len(p.LHS))
			}
			info.VarDefs[v] = VarDef{OrigCE: int(ce), Attr: attr, ref: net.ref(p.LHS[ce].Class, attr)}
		}
		npos, err := nr.intn(1 << 16)
		if err != nil {
			return nil, err
		}
		for j := 0; j < npos; j++ {
			pos, err := nr.i64()
			if err != nil {
				return nil, err
			}
			info.TokenPos = append(info.TokenPos, int(pos))
		}
		nmembers, err := nr.intn(1 << 16)
		if err != nil {
			return nil, err
		}
		if nmembers > 0 {
			g := &boundedGroup{terminal: info.Node}
			for j := 0; j < nmembers; j++ {
				mid, err := nr.u64()
				if err != nil {
					return nil, err
				}
				m, err := nodeAt(int(mid))
				if err != nil {
					return nil, err
				}
				if m.Kind != KindBounded {
					return nil, fmt.Errorf("rete: bounded group member %d is a %s node", m.ID, m.Kind)
				}
				g.members = append(g.members, m)
				m.group = g
				if !m.bNeg {
					g.nPos++
				}
			}
			info.Node.group = g
		}
		net.register(info)
	}
	for i, n := range net.Nodes {
		if n.Kind == KindProduction && n.Info == nil {
			return nil, fmt.Errorf("rete: production node references unknown production %q", prodNames[i])
		}
	}
	slots := 0
	for _, l := range net.layouts {
		slots += l.Len()
	}
	if len(net.layouts) != nlayouts || slots != declared {
		return nil, fmt.Errorf("rete: network mentions a class or an attribute its layout table lacks")
	}
	return net, nil
}
