package analysis

import (
	"errors"
	"strings"
	"testing"

	"tracedbg/internal/causality"
	"tracedbg/internal/instr"
	"tracedbg/internal/mp"
	"tracedbg/internal/trace"
)

func TestMatchTrackerOnline(t *testing.T) {
	tr := NewMatchTracker()
	send := trace.Record{Kind: trace.KindSend, Rank: 0, Src: 0, Dst: 1, Tag: 1, MsgID: 1}
	tr.Emit(&send)
	if got := tr.UnmatchedSends(); len(got) != 1 || got[0].MsgID != 1 {
		t.Fatalf("unmatched sends = %v", got)
	}
	recv := trace.Record{Kind: trace.KindRecv, Rank: 1, Src: 0, Dst: 1, Tag: 1, MsgID: 1}
	tr.Emit(&recv)
	if got := tr.UnmatchedSends(); len(got) != 0 {
		t.Fatalf("after match, unmatched = %v", got)
	}
	if tr.Matched() != 1 {
		t.Errorf("matched = %d", tr.Matched())
	}
	s, r := tr.Totals()
	if s != 1 || r != 1 {
		t.Errorf("totals = %d,%d", s, r)
	}
	orphan := trace.Record{Kind: trace.KindRecv, Rank: 1, MsgID: 99}
	tr.Emit(&orphan)
	blocked := trace.Record{Kind: trace.KindBlocked, Rank: 0, Name: "Blocked(Recv)", Src: 1}
	tr.Emit(&blocked)
	if got := tr.UnmatchedRecvs(); len(got) != 2 {
		t.Fatalf("unmatched recvs = %v", got)
	}
	rep := tr.Report()
	if !strings.Contains(rep, "1 matched") || !strings.Contains(rep, "unmatched recv") {
		t.Errorf("report:\n%s", rep)
	}
	// Online, the receiver's record can reach the tracker before the
	// sender's: the late send pairs with it, neither stays unmatched.
	late := trace.Record{Kind: trace.KindSend, Rank: 0, Src: 0, Dst: 1, MsgID: 99}
	tr.Emit(&late)
	if got := tr.UnmatchedSends(); len(got) != 0 {
		t.Fatalf("send reported after its receive stays unmatched: %v", got)
	}
	if got := tr.UnmatchedRecvs(); len(got) != 1 || tr.Matched() != 2 {
		t.Fatalf("after the late send: unmatched recvs = %v, matched = %d", got, tr.Matched())
	}
}

// stalledTrace runs a deliberately deadlocked program (crossed receives)
// and returns its trace.
func stalledTrace(t *testing.T, n int, body func(c *instr.Ctx)) *trace.Trace {
	t.Helper()
	sink := instr.NewMemorySink(n)
	in := instr.New(n, sink, instr.LevelAll)
	err := in.Run(mp.Config{NumRanks: n}, body)
	var stall *mp.StallError
	if !errors.As(err, &stall) {
		t.Fatalf("expected stall, got %v", err)
	}
	return sink.Trace()
}

func TestDetectDeadlockCrossedReceives(t *testing.T) {
	tr := stalledTrace(t, 2, func(c *instr.Ctx) {
		c.Recv(1-c.Rank(), 0)
	})
	rep := DetectDeadlock(tr)
	if !rep.HasDeadlock() {
		t.Fatalf("no deadlock found: %s", rep)
	}
	if len(rep.Cycles) != 1 || len(rep.Cycles[0]) != 2 {
		t.Fatalf("cycles = %v", rep.Cycles)
	}
	if rep.Cycles[0][0] != 0 {
		t.Errorf("cycle should be canonicalized to start at rank 0: %v", rep.Cycles)
	}
	if !strings.Contains(rep.String(), "cycle: 0 -> 1 -> 0") {
		t.Errorf("report:\n%s", rep)
	}
}

func TestDetectDeadlockThreeCycle(t *testing.T) {
	tr := stalledTrace(t, 3, func(c *instr.Ctx) {
		c.Recv((c.Rank()+1)%3, 0)
	})
	rep := DetectDeadlock(tr)
	if !rep.HasDeadlock() || len(rep.Cycles) != 1 || len(rep.Cycles[0]) != 3 {
		t.Fatalf("cycles = %v", rep.Cycles)
	}
}

func TestDetectHopelessWait(t *testing.T) {
	// Rank 1 waits on rank 0, which finishes without sending: no cycle,
	// but the wait is hopeless.
	tr := stalledTrace(t, 2, func(c *instr.Ctx) {
		if c.Rank() == 1 {
			c.Recv(0, 5)
		}
	})
	rep := DetectDeadlock(tr)
	if rep.HasDeadlock() {
		t.Fatalf("unexpected cycle: %v", rep.Cycles)
	}
	if len(rep.Hopeless) != 1 || rep.Hopeless[0].From != 1 || rep.Hopeless[0].On != 0 {
		t.Fatalf("hopeless = %+v", rep.Hopeless)
	}
	if !strings.Contains(rep.String(), "will never respond") {
		t.Errorf("report:\n%s", rep)
	}
}

func TestNoDeadlockInCleanTrace(t *testing.T) {
	sink := instr.NewMemorySink(2)
	in := instr.New(2, sink, instr.LevelAll)
	if err := in.Run(mp.Config{NumRanks: 2}, func(c *instr.Ctx) {
		if c.Rank() == 0 {
			c.Send(1, 0, []byte("x"))
		} else {
			c.Recv(0, 0)
		}
	}); err != nil {
		t.Fatal(err)
	}
	rep := DetectDeadlock(sink.Trace())
	if rep.HasDeadlock() || len(rep.Blocked) != 0 || len(rep.Hopeless) != 0 {
		t.Fatalf("clean trace flagged: %s", rep)
	}
}

func orderOf(t *testing.T, tr *trace.Trace) *causality.Order {
	t.Helper()
	o, err := causality.New(tr)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestDetectRacesWildcardFanIn(t *testing.T) {
	// Two workers race to a wildcard receive.
	sink := instr.NewMemorySink(3)
	in := instr.New(3, sink, instr.LevelAll)
	if err := in.Run(mp.Config{NumRanks: 3}, func(c *instr.Ctx) {
		if c.Rank() == 0 {
			c.Recv(mp.AnySource, 0)
			c.Recv(mp.AnySource, 0)
		} else {
			c.SendInt64s(0, 0, []int64{int64(c.Rank())})
		}
	}); err != nil {
		t.Fatal(err)
	}
	races := DetectRaces(orderOf(t, sink.Trace()))
	if len(races) == 0 {
		t.Fatal("fan-in race not detected")
	}
	// The first wildcard receive must race between the two sends.
	first := races[0]
	if len(first.Candidates) < 1 {
		t.Fatalf("race has no alternatives: %+v", first)
	}
	if !strings.Contains(first.String(), "racing receive") {
		t.Errorf("race string: %s", first)
	}
}

func TestNoRacesInDeterministicProgram(t *testing.T) {
	// Specific-source receives in a pipeline: no wildcard, no race.
	sink := instr.NewMemorySink(3)
	in := instr.New(3, sink, instr.LevelAll)
	if err := in.Run(mp.Config{NumRanks: 3}, func(c *instr.Ctx) {
		switch c.Rank() {
		case 0:
			c.Send(1, 0, []byte("a"))
		case 1:
			c.Recv(0, 0)
			c.Send(2, 0, []byte("b"))
		case 2:
			c.Recv(1, 0)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if races := DetectRaces(orderOf(t, sink.Trace())); len(races) != 0 {
		t.Fatalf("deterministic program flagged: %v", races)
	}
}

func TestNoRaceWhenWildcardHasSingleSender(t *testing.T) {
	// A wildcard receive with only one possible sender is not a race.
	sink := instr.NewMemorySink(2)
	in := instr.New(2, sink, instr.LevelAll)
	if err := in.Run(mp.Config{NumRanks: 2}, func(c *instr.Ctx) {
		if c.Rank() == 0 {
			c.Recv(mp.AnySource, 0)
		} else {
			c.Send(0, 0, []byte("only"))
		}
	}); err != nil {
		t.Fatal(err)
	}
	if races := DetectRaces(orderOf(t, sink.Trace())); len(races) != 0 {
		t.Fatalf("single-sender wildcard flagged: %v", races)
	}
}

func TestActionGraph(t *testing.T) {
	tr := trace.New(1)
	var m uint64
	var clk int64
	add := func(kind trace.Kind, name string, peer int) {
		m++
		clk++
		rec := trace.Record{Kind: kind, Rank: 0, Marker: m, Start: clk, End: clk, Name: name}
		switch kind {
		case trace.KindSend:
			rec.Src, rec.Dst, rec.MsgID = 0, peer, m
		case trace.KindRecv:
			rec.Src, rec.Dst, rec.MsgID = peer, 0, m
		}
		tr.MustAppend(rec)
	}
	add(trace.KindFuncEntry, "main", 0)
	add(trace.KindFuncEntry, "distribute", 0)
	add(trace.KindSend, "", 1)
	add(trace.KindSend, "", 1)
	add(trace.KindSend, "", 2)
	add(trace.KindFuncExit, "distribute", 0)
	add(trace.KindRecv, "", 1)
	add(trace.KindFuncExit, "main", 0)

	g := BuildActionGraph(tr)
	dist, ok := g.Lookup(0, "distribute")
	if !ok {
		t.Fatal("distribute summary missing")
	}
	// Consecutive sends to rank 1 fold into one action with count 2.
	if len(dist.Actions) != 2 || dist.Actions[0].Count != 2 || dist.Actions[0].Target != "->1" {
		t.Fatalf("distribute actions = %+v", dist.Actions)
	}
	mainFA, ok := g.Lookup(0, "main")
	if !ok {
		t.Fatal("main summary missing")
	}
	if len(mainFA.Actions) != 2 || mainFA.Actions[0].Kind != ActionCall || mainFA.Actions[1].Kind != ActionRecv {
		t.Fatalf("main actions = %+v", mainFA.Actions)
	}
	txt := g.Text()
	if !strings.Contains(txt, "send ->1 x2") || !strings.Contains(txt, "call distribute") {
		t.Errorf("action graph text:\n%s", txt)
	}
	if _, ok := g.Lookup(5, "nope"); ok {
		t.Error("bogus lookup succeeded")
	}
	if ActionSend.String() != "send" || ActionKind(99).String() == "" {
		t.Error("action kind names")
	}
}

func TestAnalyzeTrafficFindsOutlier(t *testing.T) {
	// 1 master + 6 workers receiving 2 messages each, except one receives 1.
	tr := trace.New(8)
	var msg uint64
	clk := make([]int64, 8)
	marker := make([]uint64, 8)
	emit := func(kind trace.Kind, rank, peer int) {
		msg++
		clk[rank]++
		marker[rank]++
		rec := trace.Record{Kind: kind, Rank: rank, Marker: marker[rank], Start: clk[rank], End: clk[rank], MsgID: msg}
		if kind == trace.KindSend {
			rec.Src, rec.Dst = rank, peer
		} else {
			rec.Src, rec.Dst = peer, rank
		}
		tr.MustAppend(rec)
	}
	for w := 1; w < 8; w++ {
		emit(trace.KindSend, 0, w)
		emit(trace.KindRecv, w, 0)
		if w != 7 {
			emit(trace.KindSend, 0, w)
			emit(trace.KindRecv, w, 0)
		}
		emit(trace.KindSend, w, 0)
		emit(trace.KindRecv, 0, w)
	}
	rep := AnalyzeTraffic(tr)
	found := false
	for _, ir := range rep.Odd {
		if ir.Rank == 7 && ir.Recvs == 1 && ir.PeerRecvs == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("rank 7 not flagged:\n%s", rep)
	}
	if !strings.Contains(rep.String(), "IRREGULAR") {
		t.Errorf("report:\n%s", rep)
	}
}

func TestAnalyzeTrafficSymmetricClean(t *testing.T) {
	tr := trace.New(4)
	var msg uint64
	marker := make([]uint64, 4)
	clk := make([]int64, 4)
	for r := 0; r < 4; r++ {
		dst := (r + 1) % 4
		msg++
		marker[r]++
		clk[r]++
		tr.MustAppend(trace.Record{Kind: trace.KindSend, Rank: r, Marker: marker[r], Start: clk[r], End: clk[r], Src: r, Dst: dst, MsgID: msg})
	}
	for r := 0; r < 4; r++ {
		src := (r + 3) % 4
		marker[r]++
		clk[r] += 10
		tr.MustAppend(trace.Record{Kind: trace.KindRecv, Rank: r, Marker: marker[r], Start: clk[r], End: clk[r], Src: src, Dst: r, MsgID: uint64(src + 1)})
	}
	rep := AnalyzeTraffic(tr)
	if len(rep.Odd) != 0 {
		t.Fatalf("symmetric traffic flagged: %+v", rep.Odd)
	}
	if !strings.Contains(rep.String(), "no irregularities") {
		t.Errorf("report:\n%s", rep)
	}
}
