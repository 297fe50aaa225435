package optimizer

import (
	"fmt"
	"strings"
)

// DOT renders the physical plan in Graphviz DOT format, annotating edges
// with shipping strategies and cache markers and nodes with local
// strategies (and build sides) — a visual counterpart to Explain.
func (p *PhysPlan) DOT() string {
	var b strings.Builder
	b.WriteString("digraph physplan {\n  rankdir=BT;\n")
	for _, n := range p.Nodes {
		label := n.Name()
		if n.Local != LocalNone {
			label += "\n" + n.localLabel()
		}
		style := ""
		if n.OnDynamicPath {
			style = " style=bold"
		}
		fmt.Fprintf(&b, "  n%d [label=%q shape=box%s];\n", n.ID, label, style)
	}
	for _, n := range p.Nodes {
		for _, e := range n.Inputs {
			attrs := []string{fmt.Sprintf("label=%q", e.Ship.String())}
			if e.Cache {
				attrs = append(attrs, "style=dashed", `color=blue`)
			}
			fmt.Fprintf(&b, "  n%d -> n%d [%s];\n", e.From.ID, n.ID, strings.Join(attrs, " "))
		}
	}
	b.WriteString("}\n")
	return b.String()
}
