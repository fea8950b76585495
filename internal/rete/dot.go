package rete

import (
	"fmt"
	"io"
	"strings"
)

// WriteDOT renders the network in Graphviz DOT form: alpha patterns as
// boxes feeding the two-input nodes (solid = left input, dashed =
// right input), join/negative nodes as ellipses, bounded collectors as
// hexagons, production nodes as double octagons. Useful for documentation and for
// eyeballing the effect of transformations (Fig 2-2 / Fig 5-3 style
// pictures).
func WriteDOT(w io.Writer, net *Network) error {
	var b strings.Builder
	b.WriteString("digraph rete {\n")
	b.WriteString("  rankdir=TB;\n  node [fontsize=10];\n")

	for _, a := range net.Alphas {
		label := a.Class
		for i := range a.Tests {
			label += "\\n" + a.Tests[i].key()
		}
		fmt.Fprintf(&b, "  alpha%d [shape=box, label=\"%s\"];\n", a.ID, label)
	}
	for _, n := range net.Nodes {
		if n.Detached() {
			continue
		}
		switch n.Kind {
		case KindProduction:
			fmt.Fprintf(&b, "  n%d [shape=doubleoctagon, label=\"%s\"];\n", n.ID, n.Info.Prod.Name)
		case KindNegative:
			fmt.Fprintf(&b, "  n%d [shape=ellipse, label=\"not n%d\\n%s\"];\n", n.ID, n.ID, testsLabel(n))
		case KindBounded:
			neg := ""
			if n.bNeg {
				neg = "not "
			}
			fmt.Fprintf(&b, "  n%d [shape=hexagon, label=\"%scollect@%d n%d\\n%s\"];\n", n.ID, neg, n.bPos, n.ID, testsLabel(n))
		default:
			extra := ""
			if n.copyCount > 1 {
				extra = fmt.Sprintf("\\ncopy %d/%d", n.copyIndex+1, n.copyCount)
			}
			fmt.Fprintf(&b, "  n%d [shape=ellipse, label=\"join n%d\\n%s%s\"];\n", n.ID, n.ID, testsLabel(n), extra)
		}
	}
	for _, a := range net.Alphas {
		for _, r := range a.Routes {
			style := "solid"
			if r.Side == Right {
				style = "dashed"
			}
			fmt.Fprintf(&b, "  alpha%d -> n%d [style=%s];\n", a.ID, r.Node.ID, style)
		}
	}
	for _, n := range net.Nodes {
		if n.Detached() {
			continue
		}
		for _, s := range n.Succs {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", n.ID, s.ID)
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func testsLabel(n *Node) string {
	if len(n.Tests) == 0 {
		return "(no tests)"
	}
	parts := make([]string, len(n.Tests))
	for i := range n.Tests {
		parts[i] = n.Tests[i].key()
	}
	return strings.Join(parts, "\\n")
}
