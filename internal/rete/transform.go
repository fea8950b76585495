package rete

import "fmt"

// This file implements two of the network transformations Section 5.2
// of the paper uses to attack the multiple-successor bottleneck and
// the non-discriminating-hash (cross-product) problem:
//
//  1. Unsharing (Fig 5-3): split a node with several successors into
//     per-successor copies so successor generation proceeds on
//     different processors. Globally, compiling with
//     the "unshared" variant (CompileVariant) unshares every prefix.
//  2. Copy-and-constraint (Stolfo's DADO technique): make k copies of
//     a join node, each matching a disjoint part of the right memory,
//     so a cross-product's successor generation is spread over k
//     hash sites.
//
// The third, dummy nodes that divide a node's successors into 2-4
// groups ([Gupta 86], ch. 4), is applied where Fig 5-4 measures it: to
// a trace, by trace.SplitFanout.
//
// All transformations must be applied to a freshly compiled network,
// before any wme has been matched: they restructure node identity and
// therefore the hash-table layout. A transformed network is not what
// its productions compile to, so no worker process can be handed one
// (Network.Digest); CompileVariant's "candc" is the exception.

// Unshare applies the Fig 5-3 transformation to the given two-input
// node: if the node has more than one successor, it is split into one
// copy per successor, each with a distinct node id (and therefore
// distinct hash buckets). The returned slice holds the resulting nodes
// (the original, now single-successor, node first). Some match work is
// duplicated across the copies, which the paper argues is acceptable
// (sharing buys only a factor of 1.1-1.6 overall).
func (net *Network) Unshare(n *Node) ([]*Node, error) {
	if !n.IsTwoInput() {
		return nil, fmt.Errorf("rete: cannot unshare %s node %d", n.Kind, n.ID)
	}
	if len(n.Succs) <= 1 {
		return []*Node{n}, nil
	}
	succs := n.Succs
	result := []*Node{n}
	n.Succs = []*Node{succs[0]}
	for _, s := range succs[1:] {
		c := net.cloneNode(n)
		c.Succs = []*Node{s}
		if s.Parent == n {
			s.Parent = c
		}
		result = append(result, c)
	}
	return result, nil
}

// CopyAndConstrain makes k copies of join node n (the original becomes
// copy 0), each accepting only right wmes whose id ≡ copy index
// (mod k). Left tokens are replicated to every copy; right memory is
// partitioned. The union of the copies' outputs equals the original
// node's output, but successor generation — and, because each copy has
// its own node id, the hash buckets — are spread k ways. This is the
// network-level equivalent of the paper's source-level
// copy-and-constraint (Section 5.2.2); the id-based discriminator
// substitutes for the value partition of the original formulation,
// which is unavailable when the join tests no variable at all.
func (net *Network) CopyAndConstrain(n *Node, k int) ([]*Node, error) {
	if n.Kind != KindJoin {
		return nil, fmt.Errorf("rete: copy-and-constraint applies to join nodes, not %s node %d", n.Kind, n.ID)
	}
	if k < 2 {
		return nil, fmt.Errorf("rete: copy count %d must be >= 2", k)
	}
	if n.copyCount > 1 {
		return nil, fmt.Errorf("rete: node %d is already a copy-and-constraint copy", n.ID)
	}
	copies := []*Node{n}
	for i := 1; i < k; i++ {
		c := net.cloneNode(n)
		c.Succs = append([]*Node(nil), n.Succs...)
		copies = append(copies, c)
	}
	for i, c := range copies {
		c.copyIndex = i
		c.copyCount = k
	}
	return copies, nil
}

// cloneNode duplicates a two-input node: fresh id, same tests, wired to
// the same left input (parent or alpha) and the same right alpha
// patterns. Successors are left empty for the caller to assign.
func (net *Network) cloneNode(n *Node) *Node {
	c := net.newNode(n.Kind)
	c.Tests = append([]JoinTest(nil), n.Tests...)
	c.EqTests = append([]JoinTest(nil), n.EqTests...)
	c.Parent = n.Parent
	c.OrigCE = n.OrigCE
	c.TokenLen = n.TokenLen
	c.LeftLen = n.LeftLen
	if n.Parent != nil {
		n.Parent.Succs = append(n.Parent.Succs, c)
	}
	for _, a := range net.Alphas {
		var add []AlphaRoute
		for _, r := range a.Routes {
			if r.Node == n {
				add = append(add, AlphaRoute{Node: c, Side: r.Side})
			}
		}
		a.Routes = append(a.Routes, add...)
	}
	return c
}
