// Package graph implements the paper's graph abstraction of execution
// history (§3.2, §4.3): the trace graph — a node for each (process,
// function) and for each channel (pair of processes), with call arcs and
// send/receive arcs — plus the dynamic call graph and communication graph
// derived from it.  The trace graph is built incrementally while the
// execution is running, keeps its size bounded through the dissemination
// arc-merging technique, and supports zooming back into the trace file to
// reconstruct merged arcs.
package graph

import (
	"fmt"
	"io"
	"sync"

	"tracedbg/internal/trace"
)

// NodeKind distinguishes function nodes from channel nodes.
type NodeKind uint8

const (
	// FunctionNode represents one function of one process.
	FunctionNode NodeKind = iota
	// ChannelNode represents the communication channel between a pair of
	// processes (one channel per unordered pair).
	ChannelNode
)

// NodeID indexes a node within its trace graph.
type NodeID int

// Node is a trace-graph vertex.
type Node struct {
	ID   NodeID
	Kind NodeKind

	// Function nodes.
	Rank int
	Name string

	// Channel nodes: endpoint ranks with A < B.
	A, B int
}

// Label renders the node for display.
func (n *Node) Label() string {
	if n.Kind == ChannelNode {
		return fmt.Sprintf("ch(%d,%d)", n.A, n.B)
	}
	return fmt.Sprintf("%s@%d", n.Name, n.Rank)
}

// ArcKind classifies trace-graph arcs.
type ArcKind uint8

const (
	// CallArc goes from caller function to callee function.
	CallArc ArcKind = iota
	// SendArc goes from the sending function to the channel.
	SendArc
	// RecvArc goes from the channel to the receiving function.
	RecvArc
)

// String names the arc kind.
func (k ArcKind) String() string {
	switch k {
	case CallArc:
		return "call"
	case SendArc:
		return "send"
	case RecvArc:
		return "recv"
	}
	return fmt.Sprintf("ArcKind(%d)", uint8(k))
}

// maxArcMsgIDs bounds the message ids retained on a merged arc.
const maxArcMsgIDs = 8

// Arc is a trace-graph edge. Each arc has an image in the execution trace:
// the marker interval [FirstSeq, LastSeq] on Rank. Merged arcs cover several
// events (Count > 1).
type Arc struct {
	From, To NodeID
	Kind     ArcKind
	Tag      int // message arcs only

	Rank     int    // rank whose events generated the arc
	FirstSeq uint64 // marker of the earliest covered event
	LastSeq  uint64 // marker of the latest covered event
	Count    int    // number of events merged into this arc

	MsgIDs    []uint64 // message ids (message arcs), capped
	Truncated bool     // MsgIDs dropped by merging
}

func (a *Arc) sameSignature(b *Arc) bool {
	return a.From == b.From && a.To == b.To && a.Kind == b.Kind &&
		a.Tag == b.Tag && a.Rank == b.Rank
}

// TraceGraph is the bounded-size abstraction of an execution history.
type TraceGraph struct {
	mu sync.Mutex

	numRanks int
	limit    int // dissemination threshold (0 = unbounded)

	nodes []Node
	byKey map[nodeKey]NodeID

	// Arc bookkeeping. out, inc and srcs are indexed by NodeID and grow with
	// nodes; all four are kept current at every insert and every pairwise
	// merge, so a dissemination round never recounts.
	out   [][]*Arc        // arcs grouped by their *source* node
	inc   []int           // incident (in+out) arc count per node
	srcs  [][]NodeID      // distinct other nodes with an arc into this one
	pairs map[arcPair]int // arcs currently stored per (from, to)

	scratch []*Arc // disseminateLocked's partition buffer, reused

	stacks  [][]NodeID // per-rank call stacks
	roots   []NodeID   // per-rank synthetic program node
	merges  int        // dissemination rounds performed
	dropped int        // events folded into merged arcs
	visited int        // arcs walked by dissemination rounds
}

type arcPair struct{ from, to NodeID }

type nodeKey struct {
	kind NodeKind
	rank int
	a, b int
	name string
}

// New creates an empty trace graph for numRanks processes. limit is the
// dissemination threshold: when a node's incident arc count exceeds it,
// parallel arcs are pairwise merged. limit <= 0 disables merging.
func New(numRanks, limit int) *TraceGraph {
	g := &TraceGraph{
		numRanks: numRanks,
		limit:    limit,
		byKey:    make(map[nodeKey]NodeID),
		pairs:    make(map[arcPair]int),
		stacks:   make([][]NodeID, numRanks),
		roots:    make([]NodeID, numRanks),
	}
	for r := 0; r < numRanks; r++ {
		g.roots[r] = g.funcNodeLocked(r, "program")
	}
	return g
}

// FromTrace builds a trace graph from a complete in-memory trace.
func FromTrace(tr *trace.Trace, limit int) *TraceGraph {
	g := New(tr.NumRanks(), limit)
	for rank := 0; rank < tr.NumRanks(); rank++ {
		for i := range tr.Rank(rank) {
			g.Add(&tr.Rank(rank)[i])
		}
	}
	return g
}

// NumRanks returns the process count.
func (g *TraceGraph) NumRanks() int { return g.numRanks }

// Emit implements the instrumentation Sink interface, so a trace graph can
// be built online while the program runs (§4.3: "a trace graph which is
// built as the execution is running").
func (g *TraceGraph) Emit(rec *trace.Record) { g.Add(rec) }

// Add incorporates one event record.
func (g *TraceGraph) Add(rec *trace.Record) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if rec.Rank < 0 || rec.Rank >= g.numRanks {
		return
	}
	switch rec.Kind {
	case trace.KindFuncEntry:
		callee := g.funcNodeLocked(rec.Rank, rec.Name)
		caller := g.topLocked(rec.Rank)
		g.addArcLocked(&Arc{From: caller, To: callee, Kind: CallArc,
			Rank: rec.Rank, FirstSeq: rec.Marker, LastSeq: rec.Marker, Count: 1})
		g.stacks[rec.Rank] = append(g.stacks[rec.Rank], callee)
	case trace.KindFuncExit:
		if st := g.stacks[rec.Rank]; len(st) > 0 {
			g.stacks[rec.Rank] = st[:len(st)-1]
		}
	case trace.KindSend:
		fn := g.currentFuncLocked(rec)
		ch := g.channelNodeLocked(rec.Src, rec.Dst)
		g.addArcLocked(&Arc{From: fn, To: ch, Kind: SendArc, Tag: rec.Tag,
			Rank: rec.Rank, FirstSeq: rec.Marker, LastSeq: rec.Marker,
			Count: 1, MsgIDs: []uint64{rec.MsgID}})
	case trace.KindRecv:
		fn := g.currentFuncLocked(rec)
		ch := g.channelNodeLocked(rec.Src, rec.Dst)
		g.addArcLocked(&Arc{From: ch, To: fn, Kind: RecvArc, Tag: rec.Tag,
			Rank: rec.Rank, FirstSeq: rec.Marker, LastSeq: rec.Marker,
			Count: 1, MsgIDs: []uint64{rec.MsgID}})
	default:
		// Compute, regions, markers, collectives and blocked intervals do
		// not change the graph abstraction.
	}
}

// topLocked returns the current stack top (or the program root).
func (g *TraceGraph) topLocked(rank int) NodeID {
	if st := g.stacks[rank]; len(st) > 0 {
		return st[len(st)-1]
	}
	return g.roots[rank]
}

// currentFuncLocked attributes a communication record to a function node:
// the call-stack top when function instrumentation is active, otherwise the
// record's own location, otherwise the program root.
func (g *TraceGraph) currentFuncLocked(rec *trace.Record) NodeID {
	if st := g.stacks[rec.Rank]; len(st) > 0 {
		return st[len(st)-1]
	}
	if rec.Loc.Func != "" {
		return g.funcNodeLocked(rec.Rank, rec.Loc.Func)
	}
	return g.roots[rec.Rank]
}

func (g *TraceGraph) funcNodeLocked(rank int, name string) NodeID {
	key := nodeKey{kind: FunctionNode, rank: rank, name: name}
	if id, ok := g.byKey[key]; ok {
		return id
	}
	return g.newNodeLocked(key, Node{Kind: FunctionNode, Rank: rank, Name: name})
}

func (g *TraceGraph) channelNodeLocked(a, b int) NodeID {
	if a > b {
		a, b = b, a
	}
	key := nodeKey{kind: ChannelNode, a: a, b: b}
	if id, ok := g.byKey[key]; ok {
		return id
	}
	return g.newNodeLocked(key, Node{Kind: ChannelNode, Rank: trace.NoRank, A: a, B: b})
}

func (g *TraceGraph) newNodeLocked(key nodeKey, n Node) NodeID {
	n.ID = NodeID(len(g.nodes))
	g.nodes = append(g.nodes, n)
	g.byKey[key] = n.ID
	g.out = append(g.out, nil)
	g.inc = append(g.inc, 0)
	g.srcs = append(g.srcs, nil)
	return n.ID
}

func (g *TraceGraph) addArcLocked(a *Arc) {
	g.out[a.From] = append(g.out[a.From], a)
	g.inc[a.From]++
	g.inc[a.To]++
	p := arcPair{a.From, a.To}
	if g.pairs[p] == 0 && a.From != a.To {
		g.srcs[a.To] = append(g.srcs[a.To], a.From)
	}
	g.pairs[p]++
	if g.limit > 0 {
		if g.inc[a.From] > g.limit {
			g.disseminateLocked(a.From)
		}
		if g.inc[a.To] > g.limit {
			g.disseminateLocked(a.To)
		}
	}
}

// disseminateLocked applies the paper's arc-merging: when the number of
// arcs incident to a node exceeds the limit, every other arc is merged with
// the previous one (chronological pairwise merge), trading resolution for
// bounded size. Only arcs with identical signature (endpoints, kind, tag)
// are merged so the graph's structure is preserved; the marker interval of
// the merged arc widens to cover both, and zooming re-reads the trace file.
//
// A round rewrites n's own out-list and the out-list of each source that
// holds at least two arcs into n, and nothing else: its cost is the length
// of those lists.
func (g *TraceGraph) disseminateLocked(n NodeID) {
	// Arcs out of n.
	g.out[n] = g.mergeLocked(g.out[n])

	// Arcs into n live in other nodes' out-lists; merge those that target n.
	// Each such list is stably partitioned in place into the arcs going
	// elsewhere followed by the merged arcs into n.
	for _, from := range g.srcs[n] {
		if g.pairs[arcPair{from, n}] < 2 {
			continue
		}
		list := g.out[from]
		others, into := list[:0], g.scratch[:0]
		for _, a := range list {
			if a.To == n {
				into = append(into, a)
			} else {
				others = append(others, a)
			}
		}
		g.visited += len(list)
		g.scratch = into[:0]
		into = g.mergeLocked(into)
		g.out[from] = append(others, into...)
		clear(list[len(g.out[from]):])
	}
	g.merges++
}

// mergeLocked folds each adjacent equal-signature pair of list into its
// first arc, in place, and keeps the incidence and pair counts in step.
func (g *TraceGraph) mergeLocked(list []*Arc) []*Arc {
	g.visited += len(list)
	out := list[:0]
	i := 0
	for i < len(list) {
		cur := list[i]
		if i+1 < len(list) && cur.sameSignature(list[i+1]) {
			nxt := list[i+1]
			cur.Count += nxt.Count
			if nxt.FirstSeq < cur.FirstSeq {
				cur.FirstSeq = nxt.FirstSeq
			}
			if nxt.LastSeq > cur.LastSeq {
				cur.LastSeq = nxt.LastSeq
			}
			ids := nxt.MsgIDs
			if room := maxArcMsgIDs - len(cur.MsgIDs); len(ids) > room {
				ids = ids[:room]
				cur.Truncated = true
			}
			cur.MsgIDs = append(cur.MsgIDs, ids...)
			cur.Truncated = cur.Truncated || nxt.Truncated
			g.inc[cur.From]--
			g.inc[cur.To]--
			g.pairs[arcPair{cur.From, cur.To}]--
			g.dropped++
			i += 2
		} else {
			i++
		}
		out = append(out, cur)
	}
	clear(list[len(out):])
	return out
}

// Nodes returns a snapshot of all nodes.
func (g *TraceGraph) Nodes() []Node {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]Node, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// Node returns a node by id.
func (g *TraceGraph) Node(id NodeID) (Node, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if id < 0 || int(id) >= len(g.nodes) {
		return Node{}, false
	}
	return g.nodes[int(id)], true
}

// FuncNode finds the node of a function on a rank.
func (g *TraceGraph) FuncNode(rank int, name string) (NodeID, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	id, ok := g.byKey[nodeKey{kind: FunctionNode, rank: rank, name: name}]
	return id, ok
}

// ChannelNodeID finds the channel node between two ranks.
func (g *TraceGraph) ChannelNodeID(a, b int) (NodeID, bool) {
	if a > b {
		a, b = b, a
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	id, ok := g.byKey[nodeKey{kind: ChannelNode, a: a, b: b}]
	return id, ok
}

// OutArcs returns copies of the arcs leaving a node: none for an id the
// graph does not have.
func (g *TraceGraph) OutArcs(id NodeID) []Arc {
	g.mu.Lock()
	defer g.mu.Unlock()
	var list []*Arc
	if id >= 0 && int(id) < len(g.out) {
		list = g.out[id]
	}
	out := make([]Arc, 0, len(list))
	for _, a := range list {
		out = append(out, *a)
	}
	return out
}

// Arcs returns copies of every arc, ordered by source node then insertion.
func (g *TraceGraph) Arcs() []Arc {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]Arc, 0, g.arcCountLocked())
	for _, list := range g.out {
		for _, a := range list {
			out = append(out, *a)
		}
	}
	return out
}

// ArcCount returns the total number of arcs currently stored.
func (g *TraceGraph) ArcCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.arcCountLocked()
}

func (g *TraceGraph) arcCountLocked() int {
	n := 0
	for _, list := range g.out {
		n += len(list)
	}
	return n
}

// EventCount returns the total number of events represented (sum of arc
// counts): unaffected by dissemination.
func (g *TraceGraph) EventCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, list := range g.out {
		for _, a := range list {
			n += a.Count
		}
	}
	return n
}

// Merges reports how many dissemination rounds have run.
func (g *TraceGraph) Merges() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.merges
}

// ExpandArc reconstructs the events a (possibly merged) arc covers by
// rescanning the trace file through its navigation index — the zoom-in
// operation. Only records relevant to the arc's kind are returned.
func ExpandArc(ix *trace.Index, rs io.ReadSeeker, a Arc) ([]trace.Record, error) {
	recs, err := ix.RescanMarkers(rs, a.Rank, a.FirstSeq, a.LastSeq)
	if err != nil {
		return nil, err
	}
	var want trace.Kind
	switch a.Kind {
	case CallArc:
		want = trace.KindFuncEntry
	case SendArc:
		want = trace.KindSend
	case RecvArc:
		want = trace.KindRecv
	}
	out := recs[:0]
	for _, r := range recs {
		if r.Kind == want {
			out = append(out, r)
		}
	}
	return out, nil
}
