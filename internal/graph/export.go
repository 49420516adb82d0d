package graph

import (
	"fmt"
	"strings"
)

// DOT renders the full trace graph — function nodes per process, channel
// nodes per process pair, call arcs and send/receive arcs — for Graphviz.
// Channel nodes are drawn as diamonds, merged arcs carry multiplicity
// labels.
func (g *TraceGraph) DOT() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	var sb strings.Builder
	sb.WriteString("digraph tracegraph {\n  rankdir=LR;\n")
	for _, n := range g.nodes {
		switch n.Kind {
		case FunctionNode:
			fmt.Fprintf(&sb, "  n%d [shape=box label=%q];\n", n.ID, n.Label())
		case ChannelNode:
			fmt.Fprintf(&sb, "  n%d [shape=diamond label=%q];\n", n.ID, n.Label())
		}
	}
	for _, list := range g.out {
		for _, a := range list {
			attrs := []string{}
			switch a.Kind {
			case SendArc:
				attrs = append(attrs, "color=forestgreen")
			case RecvArc:
				attrs = append(attrs, "color=goldenrod")
			}
			label := ""
			if a.Count > 1 {
				label = fmt.Sprintf("x%d", a.Count)
			}
			if a.Kind != CallArc {
				if label != "" {
					label += " "
				}
				label += fmt.Sprintf("tag %d", a.Tag)
			}
			if label != "" {
				attrs = append(attrs, fmt.Sprintf("label=%q", label))
			}
			if len(attrs) > 0 {
				fmt.Fprintf(&sb, "  n%d -> n%d [%s];\n", a.From, a.To, strings.Join(attrs, " "))
			} else {
				fmt.Fprintf(&sb, "  n%d -> n%d;\n", a.From, a.To)
			}
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// Text lists the trace graph for terminal display.
func (g *TraceGraph) Text() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	var sb strings.Builder
	funcs, chans := 0, 0
	for _, n := range g.nodes {
		if n.Kind == FunctionNode {
			funcs++
		} else {
			chans++
		}
	}
	fmt.Fprintf(&sb, "trace graph: %d function nodes, %d channel nodes, %d arcs (%d merges)\n",
		funcs, chans, g.arcCountLocked(), g.merges)
	for _, list := range g.out {
		for _, a := range list {
			from := g.nodes[int(a.From)]
			to := g.nodes[int(a.To)]
			fmt.Fprintf(&sb, "  %s -[%s x%d]-> %s (markers %d..%d)\n",
				from.Label(), a.Kind, a.Count, to.Label(), a.FirstSeq, a.LastSeq)
		}
	}
	return sb.String()
}
