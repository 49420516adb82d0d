package debug

import (
	"testing"
	"time"

	"tracedbg/internal/instr"
	"tracedbg/internal/mp"
	"tracedbg/internal/replay"
	"tracedbg/internal/trace"
)

func TestThresholdBeyondEndJustFinishes(t *testing.T) {
	// A stop marker past the rank's final counter: the rank finishes
	// without stopping instead of hanging.
	s := launchArmed(t, pingPongTarget(2), func(s *Session) {
		s.SetStopSet(replay.StopSet{{Rank: 0, Seq: 10_000}, {Rank: 1, Seq: 10_000}})
	})
	if _, err := s.WaitStop(0, 2*time.Second); err != ErrFinished {
		t.Fatalf("WaitStop = %v, want ErrFinished", err)
	}
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestStopsSnapshotIsolated(t *testing.T) {
	s := launchArmed(t, pingPongTarget(3), func(s *Session) { s.BreakFunc("main") })
	if _, err := s.WaitAllStopped(tmo); err != nil {
		t.Fatal(err)
	}
	stops := s.Stops()
	if len(stops) != 2 {
		t.Fatalf("stops = %d", len(stops))
	}
	// Mutating the returned snapshot must not affect the session.
	stops[0].Marker = 999
	if st := s.Where(stops[0].Rank); st.Marker == 999 {
		t.Error("Stops leaked internal state")
	}
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestWhereOnRunningRank(t *testing.T) {
	s, err := Launch(pingPongTarget(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	if s.Where(0) != nil {
		t.Error("Where on finished rank should be nil")
	}
	if s.Where(99) != nil {
		t.Error("Where on bogus rank should be nil")
	}
}

func TestKillWhileWatching(t *testing.T) {
	s := launchArmed(t, pingPongTarget(50), func(s *Session) { s.WatchVar(1, "sum") })
	if _, err := s.WaitStop(1, tmo); err != nil {
		t.Fatal(err)
	}
	s.Kill()
	if err := s.Wait(); err == nil {
		t.Fatal("killed session should report an error")
	}
}

func TestBreakpointDuringStall(t *testing.T) {
	// Breakpoints coexist with stall detection: rank 0 parks at its break
	// while rank 1 blocks forever; the world must NOT stall-detect (a
	// parked rank is not communication-blocked), and Kill unwinds cleanly.
	tgt := Target{
		Cfg: mp.Config{NumRanks: 2},
		Body: func(c *instr.Ctx) {
			defer c.Fn(instr.Loc("bs.go", 1, "main"))()
			if c.Rank() == 1 {
				c.Recv(0, 9) // never satisfied
			}
		},
	}
	s := launchArmed(t, tgt, func(s *Session) { s.BreakFunc("main") })
	if _, err := s.WaitStop(0, tmo); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if s.World().Stalled() != nil {
		t.Fatal("false stall with a rank parked at a breakpoint")
	}
	s.Kill()
	_ = s.Wait()
}

func TestVarNamesUnknownRank(t *testing.T) {
	s, err := Launch(pingPongTarget(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	if s.VarNames(99) != nil {
		t.Error("VarNames for bogus rank")
	}
	if _, err := s.ReadVar(99, "x"); err == nil {
		t.Error("ReadVar for bogus rank accepted")
	}
}

func TestReplayOfEmptyRecording(t *testing.T) {
	// Replaying a target whose ranks did nothing still works.
	tgt := Target{Cfg: mp.Config{NumRanks: 2}, Body: func(c *instr.Ctx) {}}
	s, err := Launch(tgt)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	rs, err := s.Replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Finish(); err != nil {
		t.Fatal(err)
	}
	if rs.Trace().Len() != 0 {
		t.Error("empty program produced events")
	}
}

func TestStopRecordFields(t *testing.T) {
	s := launchArmed(t, pingPongTarget(2), func(s *Session) { s.BreakAt("pp.go", 5) })
	st, err := s.WaitStop(0, tmo)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rec.Kind != trace.KindMarker || st.Rec.Loc.File != "pp.go" {
		t.Errorf("stop record = %+v", st.Rec)
	}
	if st.Marker != st.Rec.Marker {
		t.Errorf("marker mismatch: %d vs %d", st.Marker, st.Rec.Marker)
	}
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
}
