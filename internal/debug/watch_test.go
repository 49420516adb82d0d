package debug

import (
	"strings"
	"testing"

	"tracedbg/internal/mp"
	"tracedbg/internal/replay"
	"tracedbg/internal/trace"
)

func TestWatchVarStopsOnChange(t *testing.T) {
	s := launchArmed(t, pingPongTarget(5), func(s *Session) { s.WatchVar(1, "sum") })
	// First change: after the first message is accumulated, sum goes 0->1.
	st, err := s.WaitStop(1, tmo)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reason != ReasonWatch {
		t.Fatalf("stop = %+v", st)
	}
	if !strings.Contains(st.Detail, `"0" -> "1"`) {
		t.Fatalf("detail = %q", st.Detail)
	}
	// Continue: next change is 1 -> 3.
	if err := s.Continue(1); err != nil {
		t.Fatal(err)
	}
	st, err = s.WaitStop(1, tmo)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(st.Detail, `"1" -> "3"`) {
		t.Fatalf("second detail = %q", st.Detail)
	}
	s.ClearWatches()
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestWatchOnlyNamedRank(t *testing.T) {
	// Watch rank 0's sum: it never changes (rank 0 only sends), so the
	// program runs to completion without stopping.
	s := launchArmed(t, pingPongTarget(2), func(s *Session) { s.WatchVar(0, "sum") })
	if _, err := s.WaitStop(0, tmo); err != ErrFinished {
		t.Fatalf("rank 0 stop = %v", err)
	}
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestBreakIfCondition(t *testing.T) {
	// Stop rank 0 when it is about to send payload > 3 (the statement
	// marker carries the loop counter in Args[0]).
	var id string
	s := launchArmed(t, pingPongTarget(6), func(s *Session) {
		id = s.BreakIf(func(p *mp.Proc, rec *trace.Record) bool {
			return p.Rank() == 0 && rec.Kind == trace.KindMarker && rec.Args[0] == 3
		})
	})
	st, err := s.WaitStop(0, tmo)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reason != ReasonCondition || st.Rec.Args[0] != 3 {
		t.Fatalf("stop = %+v", st)
	}
	if st.Detail != id {
		t.Fatalf("detail = %q, want condition id %q", st.Detail, id)
	}
	// Removing the condition lets the run finish.
	s.ClearBreakIf(id)
	s.ClearBreakIf("bogus") // no-op
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestWatchSurvivesReplay(t *testing.T) {
	// Watchpoints work in replay sessions too: record first, then watch
	// during the replay.
	s, err := Launch(pingPongTarget(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	// Arm from a stop, as a user would: the replay halts every rank at its
	// first event, the watch is set, and the ranks resume.
	rs, err := s.Replay(replay.StopSet{{Rank: 0}, {Rank: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.WaitAllStopped(tmo); err != nil {
		t.Fatal(err)
	}
	rs.WatchVar(1, "sum")
	rs.ClearStopSet()
	rs.ContinueAll()
	st, err := rs.WaitStop(1, tmo)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reason != ReasonWatch {
		t.Fatalf("replay watch stop = %+v", st)
	}
	rs.ClearWatches()
	if err := rs.Finish(); err != nil {
		t.Fatal(err)
	}
}
