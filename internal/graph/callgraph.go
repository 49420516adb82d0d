package graph

import (
	"fmt"
	"sort"
	"strings"
)

// CallGraph is the dynamic call graph of one process: the projection of the
// trace graph onto that process (channel nodes and other ranks removed).
type CallGraph struct {
	Rank  int
	Funcs []string // node labels, index = call-graph node id
	Arcs  []CallArcE
}

// CallArcE is a call-graph edge with multiplicity.
type CallArcE struct {
	Caller, Callee int // indexes into Funcs
	Count          int
	FirstSeq       uint64
	LastSeq        uint64
}

// Project extracts the dynamic call graph of one rank (§3.2: "Projection of
// the trace graph onto a particular process ... gives us a dynamic call
// graph of the process").
func (g *TraceGraph) Project(rank int) *CallGraph {
	g.mu.Lock()
	defer g.mu.Unlock()

	cg := &CallGraph{Rank: rank}
	index := make(map[NodeID]int)
	nodeOf := func(id NodeID) int {
		if i, ok := index[id]; ok {
			return i
		}
		i := len(cg.Funcs)
		cg.Funcs = append(cg.Funcs, g.nodes[int(id)].Name)
		index[id] = i
		return i
	}

	// Deterministic node numbering: walk source nodes in id order.
	for id, list := range g.out {
		from := NodeID(id)
		if g.nodes[id].Kind != FunctionNode || g.nodes[id].Rank != rank {
			continue
		}
		for _, a := range list {
			if a.Kind != CallArc {
				continue
			}
			to := a.To
			if g.nodes[int(to)].Kind != FunctionNode || g.nodes[int(to)].Rank != rank {
				continue
			}
			cg.Arcs = append(cg.Arcs, CallArcE{
				Caller: nodeOf(from), Callee: nodeOf(to),
				Count: a.Count, FirstSeq: a.FirstSeq, LastSeq: a.LastSeq,
			})
		}
	}
	sort.Slice(cg.Arcs, func(i, j int) bool {
		a, b := cg.Arcs[i], cg.Arcs[j]
		if a.Caller != b.Caller {
			return a.Caller < b.Caller
		}
		if a.Callee != b.Callee {
			return a.Callee < b.Callee
		}
		return a.FirstSeq < b.FirstSeq
	})
	return cg
}

// Calls returns the total multiplicity between two functions (0 if absent).
func (cg *CallGraph) Calls(caller, callee string) int {
	ci, ki := -1, -1
	for i, f := range cg.Funcs {
		if f == caller {
			ci = i
		}
		if f == callee {
			ki = i
		}
	}
	if ci < 0 || ki < 0 {
		return 0
	}
	n := 0
	for _, a := range cg.Arcs {
		if a.Caller == ci && a.Callee == ki {
			n += a.Count
		}
	}
	return n
}

// DOT renders the call graph in Graphviz format. Parallel arcs between the
// same functions are drawn separately (as in Figure 9, "multiple arcs show
// multiple function calls") with their merged multiplicities as labels.
func (cg *CallGraph) DOT() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph callgraph_rank%d {\n", cg.Rank)
	sb.WriteString("  rankdir=TB;\n  node [shape=box];\n")
	for i, f := range cg.Funcs {
		fmt.Fprintf(&sb, "  n%d [label=%q];\n", i, f)
	}
	for _, a := range cg.Arcs {
		if a.Count > 1 {
			fmt.Fprintf(&sb, "  n%d -> n%d [label=\"x%d\"];\n", a.Caller, a.Callee, a.Count)
		} else {
			fmt.Fprintf(&sb, "  n%d -> n%d;\n", a.Caller, a.Callee)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// VCG renders the call graph in the VCG format consumed by the xvcg layout
// tool the paper used for Figure 9.
func (cg *CallGraph) VCG() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph: { title: \"callgraph rank %d\"\n", cg.Rank)
	sb.WriteString("  layoutalgorithm: tree\n  display_edge_labels: yes\n")
	for i, f := range cg.Funcs {
		fmt.Fprintf(&sb, "  node: { title: \"n%d\" label: %q }\n", i, f)
	}
	for _, a := range cg.Arcs {
		if a.Count > 1 {
			fmt.Fprintf(&sb, "  edge: { sourcename: \"n%d\" targetname: \"n%d\" label: \"x%d\" }\n",
				a.Caller, a.Callee, a.Count)
		} else {
			fmt.Fprintf(&sb, "  edge: { sourcename: \"n%d\" targetname: \"n%d\" }\n", a.Caller, a.Callee)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// Text renders a plain-text listing (the debugger's text display mode).
func (cg *CallGraph) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "dynamic call graph, rank %d\n", cg.Rank)
	for _, a := range cg.Arcs {
		fmt.Fprintf(&sb, "  %s -> %s (x%d, markers %d..%d)\n",
			cg.Funcs[a.Caller], cg.Funcs[a.Callee], a.Count, a.FirstSeq, a.LastSeq)
	}
	return sb.String()
}
