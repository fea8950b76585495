package rete

import (
	"fmt"

	"mpcrete/internal/ops5"
)

// Variants lists the compile-time network variant names accepted by
// CompileVariant, in canonical order. The same spellings are taken by
// ops5run/ops5d -variant and engine.CompileOptions.Variant, and name
// the difftest matrix's rows (seq-unshared, par-w8-routed-candc, ...),
// which run every variant on every check.
func Variants() []string { return []string{"shared", "unshared", "candc", "bounded"} }

// CompileVariant compiles prods as the named network variant:
//
//	"shared"    default compilation (alpha and join-prefix sharing)
//	"unshared"  no node sharing (Section 5.2.1 method 1, global)
//	"candc"     copy-and-constrain k=2 applied to every terminal join
//	            of a shared network (Section 5.2.2)
//	"bounded"   worst-case-bounded collector groups with the lazy
//	            enumerator (see bounded.go)
//
// The empty string means "shared". This is the single spelling of
// variant selection shared by every CLI, the difftest oracle and the
// hello a worker process compiles its network from (Network.Variant).
func CompileVariant(prods []*ops5.Production, variant string) (*Network, error) {
	switch variant {
	case "", "shared":
		return Compile(prods)
	case "unshared", "bounded":
		return compile(prods, variant)
	case "candc":
		net, err := Compile(prods)
		if err != nil {
			return nil, err
		}
		// Split every terminal join (all successors are production
		// nodes). Chained splits are out: cloning a join rewires only
		// its original parent's successor list, so stacking copies
		// through a join-over-join pyramid loses replication paths —
		// the paper's source-level transformation likewise targets one
		// culprit node. Snapshot first: CopyAndConstrain appends clones
		// to net.Nodes.
		joins := make([]*Node, 0, len(net.Nodes))
		for _, n := range net.Nodes {
			if n.Kind != KindJoin {
				continue
			}
			terminal := true
			for _, s := range n.Succs {
				if s.Kind != KindProduction {
					terminal = false
					break
				}
			}
			if terminal {
				joins = append(joins, n)
			}
		}
		for _, n := range joins {
			if _, err := net.CopyAndConstrain(n, 2); err != nil {
				return nil, err
			}
		}
		net.variant = "candc"
		return net, nil
	default:
		return nil, fmt.Errorf("rete: unknown network variant %q (want one of %v)", variant, Variants())
	}
}
