package debug

import (
	"reflect"
	"testing"

	"tracedbg/internal/instr"
	"tracedbg/internal/mp"
	"tracedbg/internal/replay"
	"tracedbg/internal/trace"
)

// fanInTarget: rank 0 wildcard-receives one message from every other rank
// and appends observed sources to a shared slice (index by run).
func fanInTarget(order *[]int) Target {
	return Target{
		Cfg: mp.Config{NumRanks: 4},
		Body: func(c *instr.Ctx) {
			defer c.Fn(instr.Loc("fan.go", 1, "main"))()
			if c.Rank() == 0 {
				for i := 0; i < c.Size()-1; i++ {
					_, st := c.Recv(mp.AnySource, mp.AnyTag)
					*order = append(*order, st.Source)
				}
			} else {
				c.Compute(int64(c.Rank()) * 100)
				c.SendInt64s(0, c.Rank(), []int64{int64(c.Rank())})
			}
		},
	}
}

func TestReplayReproducesWildcardMatching(t *testing.T) {
	var recorded []int
	s, err := Launch(fanInTarget(&recorded))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	recTrace := s.Trace()

	for trial := 0; trial < 3; trial++ {
		rs, err := s.Replay(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.Finish(); err != nil {
			t.Fatal(err)
		}

		// Check record equivalence: per-rank receive source sequences match.
		repTrace := rs.Trace()
		for r := 0; r < 4; r++ {
			var a, b []int
			for i := range recTrace.Rank(r) {
				if recTrace.Rank(r)[i].Kind == trace.KindRecv {
					a = append(a, recTrace.Rank(r)[i].Src)
				}
			}
			for i := range repTrace.Rank(r) {
				if repTrace.Rank(r)[i].Kind == trace.KindRecv {
					b = append(b, repTrace.Rank(r)[i].Src)
				}
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("trial %d: rank %d receive sources %v != recorded %v", trial, r, b, a)
			}
		}
	}
}

func TestReplayStopsAtStopSet(t *testing.T) {
	k := 10
	s, err := Launch(pingPongTarget(k))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	final := s.Counters()

	// Replay, stopping rank 0 at marker 5 and rank 1 at marker 4.
	stops := replay.StopSet{{Rank: 0, Seq: 7}, {Rank: 1, Seq: 4}}
	rs, err := s.Replay(stops)
	if err != nil {
		t.Fatal(err)
	}
	stopped, err := rs.WaitAllStopped(tmo)
	if err != nil {
		t.Fatal(err)
	}
	if len(stopped) != 2 {
		t.Fatalf("stopped = %+v", stopped)
	}
	for _, st := range stopped {
		want := stops.Seq(st.Rank)
		if st.Marker != want {
			t.Errorf("rank %d stopped at %d, want %d", st.Rank, st.Marker, want)
		}
	}
	// Counters at the stop equal the stop set exactly.
	got := rs.Counters()
	if got[0] != 7 || got[1] != 4 {
		t.Fatalf("counters = %v", got)
	}
	if err := rs.Finish(); err != nil {
		t.Fatal(err)
	}
	// The replay runs to the same end state.
	if !reflect.DeepEqual(rs.Counters(), final) {
		t.Fatalf("replay end counters %v != original %v", rs.Counters(), final)
	}
}

func TestUndoReturnsToPreviousStop(t *testing.T) {
	// First stop: rank 1 at marker 3.
	s := launchArmed(t, pingPongTarget(8), func(s *Session) {
		s.SetStopSet(replay.StopSet{{Rank: 0, Seq: 5}, {Rank: 1, Seq: 3}})
	})
	if _, err := s.WaitAllStopped(tmo); err != nil {
		t.Fatal(err)
	}
	vec := s.Counters()
	sumAtStop, err := s.ReadVar(1, "sum")
	if err != nil {
		t.Fatal(err)
	}

	// Resume to completion (records the stop vector for undo).
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	sumAtEnd, _ := s.ReadVar(1, "sum")
	if sumAtEnd == sumAtStop {
		t.Fatalf("program did not progress after stop (sum %s)", sumAtEnd)
	}

	// Undo: a fresh controlled execution stopped at the recorded vector.
	us, err := s.Undo()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := us.WaitAllStopped(tmo); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(us.Counters(), vec) {
		t.Fatalf("undo counters %v != stop vector %v", us.Counters(), vec)
	}
	sumAfterUndo, err := us.ReadVar(1, "sum")
	if err != nil {
		t.Fatal(err)
	}
	if sumAfterUndo != sumAtStop {
		t.Fatalf("undo state sum = %s, want %s", sumAfterUndo, sumAtStop)
	}
	if err := us.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestUndoTwiceWalksBack(t *testing.T) {
	// Stop 1.
	s := launchArmed(t, pingPongTarget(8), func(s *Session) {
		s.SetStopSet(replay.StopSet{{Rank: 0, Seq: 3}, {Rank: 1, Seq: 2}})
	})
	if _, err := s.WaitAllStopped(tmo); err != nil {
		t.Fatal(err)
	}
	vec1 := s.Counters()
	// Stop 2 (further along).
	s.ContinueAll()
	s.SetStopSet(replay.StopSet{{Rank: 0, Seq: 7}, {Rank: 1, Seq: 4}})
	if _, err := s.WaitAllStopped(tmo); err != nil {
		t.Fatal(err)
	}
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}

	// First undo: back to stop 2's vector.
	u1, err := s.Undo()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u1.WaitAllStopped(tmo); err != nil {
		t.Fatal(err)
	}
	// Second undo, taken directly from the stopped replay: back to stop
	// 1's vector. (Finishing u1 first would record a new stop vector and
	// undo would legitimately return to it instead.)
	u2, err := u1.Undo()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		u1.Kill()
		_ = u1.Wait()
	}()
	if _, err := u2.WaitAllStopped(tmo); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(u2.Counters(), vec1) {
		t.Fatalf("second undo counters %v != first stop vector %v", u2.Counters(), vec1)
	}
	if err := u2.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestUndoWithNothingRecorded(t *testing.T) {
	s, err := Launch(pingPongTarget(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Undo(); err == nil {
		t.Error("undo with empty history should fail")
	}
}
