package debug

import (
	"errors"
	"strings"
	"testing"
	"time"

	"tracedbg/internal/instr"
	"tracedbg/internal/mp"
	"tracedbg/internal/replay"
	"tracedbg/internal/trace"
)

const tmo = 5 * time.Second

// pingPongTarget: rank 0 sends k messages to rank 1, which accumulates a sum.
func pingPongTarget(k int) Target {
	return Target{
		Cfg: mp.Config{NumRanks: 2},
		Body: func(c *instr.Ctx) {
			defer c.Fn(instr.Loc("pp.go", 1, "main"))()
			sum := int64(0)
			c.Expose("sum", &sum)
			if c.Rank() == 0 {
				for i := 0; i < k; i++ {
					c.At(instr.Loc("pp.go", 5, "main"), int64(i))
					c.SendInt64s(1, 0, []int64{int64(i + 1)})
				}
			} else {
				for i := 0; i < k; i++ {
					xs, _ := c.RecvInt64s(0, 0)
					sum += xs[0]
				}
			}
		},
	}
}

// launchArmed launches tgt with every rank held at the top of its body until
// arm has run. Launch starts the ranks at once, so a breakpoint set by the
// test's next statement races the program it is meant to stop; a debugger
// user arms a live target the same way, from a stop.
func launchArmed(t *testing.T, tgt Target, arm func(s *Session)) *Session {
	t.Helper()
	armed := make(chan struct{})
	body := tgt.Body
	tgt.Body = func(c *instr.Ctx) {
		<-armed
		body(c)
	}
	s, err := Launch(tgt)
	if err != nil {
		t.Fatal(err)
	}
	arm(s)
	close(armed)
	return s
}

func TestLaunchRunFinish(t *testing.T) {
	s, err := Launch(pingPongTarget(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	tr := s.Trace()
	if len(tr.Sends()) != 3 || len(tr.Recvs()) != 3 {
		t.Fatalf("trace sends/recvs = %d/%d", len(tr.Sends()), len(tr.Recvs()))
	}
	if !s.Finished(0) || !s.Finished(1) {
		t.Error("ranks should be finished")
	}
	if s.NumRanks() != 2 {
		t.Error("NumRanks")
	}
}

func TestBreakFuncStopsEveryRank(t *testing.T) {
	s := launchArmed(t, pingPongTarget(2), func(s *Session) { s.BreakFunc("main") })
	stops, err := s.WaitAllStopped(tmo)
	if err != nil {
		t.Fatalf("WaitAllStopped: %v", err)
	}
	if len(stops) != 2 {
		t.Fatalf("stops = %+v", stops)
	}
	for _, st := range stops {
		if st.Reason != ReasonBreakpoint || st.Rec.Kind != trace.KindFuncEntry {
			t.Errorf("stop = %+v", st)
		}
	}
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestBreakAtLocation(t *testing.T) {
	// The statement marker before each send.
	s := launchArmed(t, pingPongTarget(3), func(s *Session) { s.BreakAt("pp.go", 5) })
	st, err := s.WaitStop(0, tmo)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rec.Loc.Line != 5 || st.Rec.Args[0] != 0 {
		t.Fatalf("first stop = %+v", st.Rec)
	}
	// The send that follows carries the same location, so continuing hits
	// the breakpoint again at the send event.
	if err := s.Continue(0); err != nil {
		t.Fatal(err)
	}
	st, err = s.WaitStop(0, tmo)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rec.Kind != trace.KindSend {
		t.Fatalf("second stop = %+v", st.Rec)
	}
	// Next iteration's statement marker.
	if err := s.Continue(0); err != nil {
		t.Fatal(err)
	}
	st, err = s.WaitStop(0, tmo)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rec.Kind != trace.KindMarker || st.Rec.Args[0] != 1 {
		t.Fatalf("third stop iteration = %+v", st.Rec)
	}
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestStepAdvancesOneEvent(t *testing.T) {
	s := launchArmed(t, pingPongTarget(3), func(s *Session) { s.BreakAt("pp.go", 5) })
	st, err := s.WaitStop(0, tmo)
	if err != nil {
		t.Fatal(err)
	}
	m0 := st.Marker
	if err := s.Step(0); err != nil {
		t.Fatal(err)
	}
	st, err = s.WaitStop(0, tmo)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reason != ReasonStep || st.Marker != m0+1 {
		t.Fatalf("step stop = %+v (was %d)", st, m0)
	}
	// The stepped-to event is the send.
	if st.Rec.Kind != trace.KindSend {
		t.Fatalf("stepped to %v", st.Rec.Kind)
	}
	s.ClearBreaks()
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestReadVarAtStop(t *testing.T) {
	// Stop rank 1 at its third receive event (markers: FuncEntry=1, then
	// one receive per marker). The stop fires when the receive event is
	// generated, before the program statement that adds it to sum — so at
	// marker 4 the first two messages (1+2) have been accumulated. Rank 0
	// stops after its third send (marker 7) so the stop set is consistent.
	s := launchArmed(t, pingPongTarget(4), func(s *Session) {
		s.SetStopSet(replay.StopSet{{Rank: 0, Seq: 7}, {Rank: 1, Seq: 4}})
	})
	st, err := s.WaitStop(1, tmo)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reason != ReasonMarker {
		t.Fatalf("stop = %+v", st)
	}
	v, err := s.ReadVar(1, "sum")
	if err != nil {
		t.Fatal(err)
	}
	if v != "3" {
		t.Fatalf("sum = %q at marker 4", v)
	}
	if _, err := s.ReadVar(1, "bogus"); err == nil {
		t.Error("bogus var read succeeded")
	}
	names := s.VarNames(1)
	if len(names) != 1 || names[0] != "sum" {
		t.Errorf("var names = %v", names)
	}
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestReadVarRequiresStopped(t *testing.T) {
	s := launchArmed(t, pingPongTarget(1), func(s *Session) { s.BreakFunc("main") })
	if _, err := s.WaitAllStopped(tmo); err != nil {
		t.Fatal(err)
	}
	// The function-entry stop precedes the Expose call; one step executes
	// the prologue so the variable becomes visible.
	if err := s.Step(0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WaitStop(0, tmo); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadVar(0, "sum"); err != nil {
		t.Errorf("read at stop: %v", err)
	}
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadVar(0, "sum"); err != nil {
		t.Errorf("read after finish: %v", err)
	}
}

func TestKillReleasesEverything(t *testing.T) {
	s := launchArmed(t, pingPongTarget(1000), func(s *Session) { s.BreakAt("pp.go", 5) })
	if _, err := s.WaitStop(0, tmo); err != nil {
		t.Fatal(err)
	}
	s.Kill()
	err := s.Wait()
	if err == nil || !strings.Contains(err.Error(), "killed") {
		t.Fatalf("Wait after kill = %v", err)
	}
}

func TestStalledTargetReportsStall(t *testing.T) {
	tgt := Target{
		Cfg: mp.Config{NumRanks: 2},
		Body: func(c *instr.Ctx) {
			c.Recv(1-c.Rank(), 0) // crossed receives: Figure 5
		},
	}
	s, err := Launch(tgt)
	if err != nil {
		t.Fatal(err)
	}
	err = s.Wait()
	var stall *mp.StallError
	if !errors.As(err, &stall) {
		t.Fatalf("expected stall, got %v", err)
	}
	if len(stall.Blocked) != 2 {
		t.Fatalf("blocked = %+v", stall.Blocked)
	}
	// The trace shows both blocked receives.
	blocked := s.Trace().OfKind(trace.KindBlocked)
	if len(blocked) != 2 {
		t.Fatalf("blocked records = %d", len(blocked))
	}
}

func TestWaitTimeouts(t *testing.T) {
	s, err := Launch(pingPongTarget(2))
	if err != nil {
		t.Fatal(err)
	}
	// No stop conditions: ranks run to completion; WaitStop returns
	// ErrFinished rather than timing out.
	if _, err := s.WaitStop(0, tmo); !errors.Is(err, ErrFinished) {
		t.Fatalf("WaitStop on finished rank = %v", err)
	}
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}

	// A rank that never stops and never finishes (blocked forever on a
	// message held back by a stopped peer) should time out.
	tgt := Target{
		Cfg: mp.Config{NumRanks: 2},
		Body: func(c *instr.Ctx) {
			defer c.Fn(instr.Loc("t.go", 1, "body"))()
			if c.Rank() == 0 {
				c.Compute(10)
				c.Compute(10)
				c.Send(1, 0, nil)
			} else {
				c.Recv(0, 0)
			}
		},
	}
	// Stop rank 0 before its send; rank 1 blocks in Recv: WaitAllStopped
	// must time out and name the running rank.
	s2 := launchArmed(t, tgt, func(s *Session) {
		s.SetStopSet(replay.StopSet{{Rank: 0, Seq: 2}, {Rank: 1, Seq: 1000}})
	})
	if _, err := s2.WaitStop(0, tmo); err != nil {
		t.Fatal(err)
	}
	_, err = s2.WaitAllStopped(300 * time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("WaitAllStopped = %v", err)
	}
	s2.Kill()
	_ = s2.Wait()
}

func TestContinueErrors(t *testing.T) {
	s, err := Launch(pingPongTarget(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Continue(0); err == nil {
		t.Error("continue of running rank should fail")
	}
	if err := s.Step(0); err == nil {
		t.Error("step of running rank should fail")
	}
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestLaunchValidation(t *testing.T) {
	if _, err := Launch(Target{Cfg: mp.Config{NumRanks: 2}}); err == nil {
		t.Error("nil body accepted")
	}
	if _, err := Launch(Target{Body: func(c *instr.Ctx) {}}); err == nil {
		t.Error("zero ranks accepted")
	}
}

func TestSelectiveCollectionStillReplayable(t *testing.T) {
	// Turn collection off for rank 1 (the paper's trace-size control):
	// markers keep advancing, so marker-based stops and replay still work;
	// only the display loses rank 1's records.
	s := launchArmed(t, pingPongTarget(4), func(s *Session) { s.Monitor().SetCollect(1, false) })
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	tr := s.Trace()
	if tr.RankLen(1) != 0 {
		t.Fatalf("rank 1 recorded %d events with collection off", tr.RankLen(1))
	}
	if tr.RankLen(0) == 0 {
		t.Fatal("rank 0 lost its records")
	}
	if s.Counters()[1] == 0 {
		t.Fatal("markers stopped advancing with collection off")
	}
	// Replay with a stop set still parks both ranks at exact markers.
	rs, err := s.Replay(replay.StopSet{{Rank: 0, Seq: 3}, {Rank: 1, Seq: 2}})
	if err != nil {
		t.Fatal(err)
	}
	stops, err := rs.WaitAllStopped(tmo)
	if err != nil {
		t.Fatalf("stops: %v", err)
	}
	if len(stops) != 2 {
		t.Fatalf("stops = %+v", stops)
	}
	if err := rs.Finish(); err != nil {
		t.Fatal(err)
	}
	// The replay session records rank 1 fully (its own collection is on).
	if rs.Trace().RankLen(1) == 0 {
		t.Error("replay session lost rank 1 records")
	}
}
