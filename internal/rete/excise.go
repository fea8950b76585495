package rete

import "fmt"

// Excise removes a production from the network (the OPS5 excise
// action): its terminal node is detached, and two-input nodes left
// without successors are garbage-collected recursively (shared
// prefixes survive as long as any other production uses them).
//
// Token memories live in matchers, not the network; entries belonging
// to excised nodes become unreachable and are never consulted again
// (their buckets are keyed by node identity). Matcher state therefore
// stays consistent without flushing.
func (net *Network) Excise(name string) error {
	info, ok := net.Prods[name]
	if !ok {
		return fmt.Errorf("rete: no production %q", name)
	}
	net.detach(info.Node)
	delete(net.Prods, name)
	for i, n := range net.ProdOrder {
		if n == name {
			net.ProdOrder = append(net.ProdOrder[:i], net.ProdOrder[i+1:]...)
			break
		}
	}
	return nil
}

// detach removes a node from its left input's successor list and from
// every alpha route, then garbage-collects newly childless ancestors.
func (net *Network) detach(n *Node) {
	parent := n.Parent
	if parent != nil {
		for i, s := range parent.Succs {
			if s == n {
				parent.Succs = append(parent.Succs[:i], parent.Succs[i+1:]...)
				break
			}
		}
	}
	for _, a := range net.Alphas {
		for i := 0; i < len(a.Routes); {
			if a.Routes[i].Node == n {
				a.Routes = append(a.Routes[:i], a.Routes[i+1:]...)
			} else {
				i++
			}
		}
	}
	n.detached = true
	// A two-input node with no remaining successors produces
	// nothing; collect it (unless another production's terminal hangs
	// off it, which "no successors" already excludes).
	if parent != nil && len(parent.Succs) == 0 && parent.Kind != KindProduction {
		net.detach(parent)
	}
}

// Detached reports whether the node has been excised from the network.
func (n *Node) Detached() bool { return n.detached }
