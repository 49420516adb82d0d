package graph

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"tracedbg/internal/trace"
)

// checkIndexes recomputes incidence, per-pair counts and source lists from
// the out-lists alone and compares them with the state the graph maintains
// incrementally.
func checkIndexes(g *TraceGraph) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.out) != len(g.nodes) || len(g.inc) != len(g.nodes) || len(g.srcs) != len(g.nodes) {
		return fmt.Errorf("%d nodes but %d out-lists, %d incidence counts, %d source lists",
			len(g.nodes), len(g.out), len(g.inc), len(g.srcs))
	}
	inc := make([]int, len(g.nodes))
	pairs := make(map[arcPair]int)
	for id, list := range g.out {
		for _, a := range list {
			if a == nil || a.From != NodeID(id) {
				return fmt.Errorf("out-list of node %d holds %+v", id, a)
			}
			inc[a.From]++
			inc[a.To]++
			pairs[arcPair{a.From, a.To}]++
		}
	}
	for id := range inc {
		if inc[id] != g.inc[id] {
			return fmt.Errorf("node %d: incidence %d, recount %d", id, g.inc[id], inc[id])
		}
	}
	if len(pairs) != len(g.pairs) {
		return fmt.Errorf("%d pair counts, recount has %d", len(g.pairs), len(pairs))
	}
	for p, n := range pairs {
		if g.pairs[p] != n {
			return fmt.Errorf("pair %v: count %d, recount %d", p, g.pairs[p], n)
		}
	}
	for id, srcs := range g.srcs {
		seen := make(map[NodeID]bool)
		for _, from := range srcs {
			if from == NodeID(id) || seen[from] || pairs[arcPair{from, NodeID(id)}] == 0 {
				return fmt.Errorf("node %d: source list %v has a self, repeated or arcless entry %d", id, srcs, from)
			}
			seen[from] = true
		}
		for p := range pairs {
			if p.to == NodeID(id) && p.from != p.to && !seen[p.from] {
				return fmt.Errorf("node %d: source %d missing from %v", id, p.from, srcs)
			}
		}
	}
	return nil
}

// arcRecords counts the records of a trace that each add one arc.
func arcRecords(tr *trace.Trace) int {
	n := 0
	for rank := 0; rank < tr.NumRanks(); rank++ {
		for _, rec := range tr.Rank(rank) {
			switch rec.Kind {
			case trace.KindFuncEntry, trace.KindSend, trace.KindRecv:
				n++
			}
		}
	}
	return n
}

func arcRecordKind(k ArcKind) trace.Kind {
	switch k {
	case SendArc:
		return trace.KindSend
	case RecvArc:
		return trace.KindRecv
	}
	return trace.KindFuncEntry
}

// TestIndexInvariants: at every limit the incremental indexes equal a
// recount (checked every 997 adds and at the end), no event is lost, and
// each arc's marker interval really holds the events it claims.
func TestIndexInvariants(t *testing.T) {
	skipUnderRace(t)
	for _, c := range corpus(t) {
		// Markers per (rank, record kind), rising.
		markers := make(map[[2]int][]uint64)
		for rank := 0; rank < c.tr.NumRanks(); rank++ {
			for _, rec := range c.tr.Rank(rank) {
				k := [2]int{rank, int(rec.Kind)}
				markers[k] = append(markers[k], rec.Marker)
			}
		}
		events := arcRecords(c.tr)
		for _, limit := range corpusLimits {
			g := New(c.tr.NumRanks(), limit)
			adds := 0
			for rank := 0; rank < c.tr.NumRanks(); rank++ {
				recs := c.tr.Rank(rank)
				for i := range recs {
					g.Add(&recs[i])
					if adds++; adds%997 == 0 {
						if err := checkIndexes(g); err != nil {
							t.Fatalf("%s limit %d after %d adds: %v", c.name, limit, adds, err)
						}
					}
				}
			}
			if err := checkIndexes(g); err != nil {
				t.Fatalf("%s limit %d at the end: %v", c.name, limit, err)
			}
			if got := g.EventCount(); got != events {
				t.Errorf("%s limit %d: EventCount %d, trace has %d entry/send/recv records", c.name, limit, got, events)
			}
			if got := g.ArcCount() + g.dropped; got != events {
				t.Errorf("%s limit %d: %d arcs + %d folded events, want %d", c.name, limit, g.ArcCount(), g.dropped, events)
			}
			for _, a := range g.Arcs() {
				ms := markers[[2]int{a.Rank, int(arcRecordKind(a.Kind))}]
				lo := sort.Search(len(ms), func(i int) bool { return ms[i] >= a.FirstSeq })
				hi := sort.Search(len(ms), func(i int) bool { return ms[i] > a.LastSeq })
				if hi-lo < a.Count {
					t.Fatalf("%s limit %d: arc %+v covers %d %s events, claims %d",
						c.name, limit, a, hi-lo, a.Kind, a.Count)
				}
			}
		}
	}
}

// TestConcurrentEmit feeds the graph the way core.Debugger's sink does: one
// goroutine per rank, all emitting at once.
func TestConcurrentEmit(t *testing.T) {
	const ranks = 6
	tr := callMsgTrace(rand.New(rand.NewSource(7)), ranks, 12000)
	events := arcRecords(tr)
	for _, limit := range []int{0, 16} {
		g := New(ranks, limit)
		var wg sync.WaitGroup
		for rank := 0; rank < ranks; rank++ {
			wg.Add(1)
			go func(recs []trace.Record) {
				defer wg.Done()
				for i := range recs {
					g.Emit(&recs[i])
				}
			}(tr.Rank(rank))
		}
		wg.Wait()
		if got := g.EventCount(); got != events {
			t.Errorf("limit %d: EventCount %d after concurrent emit, want %d", limit, got, events)
		}
		if err := checkIndexes(g); err != nil {
			t.Errorf("limit %d: %v", limit, err)
		}
	}
}

// parentSweepArcs is what the recount-everything bookkeeping walked to build
// jacobi-8 at limit 256: 11 361 rounds, each partitioning every out-list in
// the graph and then recounting every arc. Measured on the commit before the
// indexes by adding the length of every list a round ranged over, which is
// how visited counts here.
const parentSweepArcs = 14305569

// TestDisseminationCost pins the cost of a round in units that cannot
// flake: arcs walked and allocations, not time.
func TestDisseminationCost(t *testing.T) {
	tr := corpus(t)[0].tr
	g := FromTrace(tr, 256)
	if g.Merges() == 0 {
		t.Fatal("no dissemination rounds ran")
	}
	if g.visited*3 >= parentSweepArcs {
		t.Errorf("jacobi-8 at limit 256 walked %d arcs in %d rounds; the full sweeps walked %d",
			g.visited, g.Merges(), parentSweepArcs)
	}

	// Folding two message arcs may grow the survivor's id list (to its cap of
	// maxArcMsgIDs, then never again); nothing else in a round allocates.
	// Rounds reorder lists and so create new neighbours: run them until the
	// graph stops folding, then every further round is partition only.
	sweep := func() {
		for id := range g.nodes {
			g.disseminateLocked(NodeID(id))
		}
	}
	for folded := -1; folded != g.dropped; {
		folded = g.dropped
		sweep()
	}
	before := g.visited
	allocs := testing.AllocsPerRun(10, sweep)
	if g.visited == before {
		t.Fatal("the settled rounds walked nothing")
	}
	if allocs != 0 {
		t.Errorf("a round over every node allocates %.0f times, want 0", allocs)
	}
}

func TestOutArcsUnknownNode(t *testing.T) {
	g := FromTrace(messageTrace(t), 0)
	for _, id := range []NodeID{-1, NodeID(len(g.Nodes())), 999} {
		if arcs := g.OutArcs(id); arcs == nil || len(arcs) != 0 {
			t.Errorf("OutArcs(%d) = %v, want empty", id, arcs)
		}
		if _, ok := g.Node(id); ok {
			t.Errorf("Node(%d) resolved", id)
		}
	}
}
