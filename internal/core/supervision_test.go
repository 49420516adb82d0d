package core

import (
	"fmt"
	"testing"

	"tracedbg/internal/debug"
	"tracedbg/internal/instr"
	"tracedbg/internal/mp"
)

// TestLiveSupervision: communication supervision during a session — the
// online unmatched list and the mailbox inspection show a message in
// flight while the receiver has not yet consumed it.
func TestLiveSupervision(t *testing.T) {
	// A live launch starts the ranks before the test can set breakpoints;
	// the body waits until they are armed, or a rank may run past its line.
	armed := make(chan struct{})
	tgt := debug.Target{
		Cfg: mp.Config{NumRanks: 2},
		Body: func(c *instr.Ctx) {
			<-armed
			defer c.Fn(instr.Loc("sup.go", 1, "main"))()
			if c.Rank() == 0 {
				c.Send(1, 5, []byte("in-flight"))
				c.At(instr.Loc("sup.go", 3, "main")) // stop here
				c.Send(1, 6, []byte("second"))
			} else {
				c.At(instr.Loc("sup.go", 10, "main")) // parks rank 1 early
				c.Recv(0, 5)
				c.Recv(0, 6)
			}
		},
	}
	d := New(tgt)
	s, err := d.Launch()
	if err != nil {
		t.Fatal(err)
	}
	s.BreakAt("sup.go", 3)  // rank 0 after the first send
	s.BreakAt("sup.go", 10) // rank 1 before any receive
	close(armed)
	if _, err := s.WaitAllStopped(tmo); err != nil {
		t.Fatal(err)
	}

	// The online tracker has seen the first send and no receive.
	sup := d.Supervisor()
	if got := len(sup.UnmatchedSends()); got != 1 {
		t.Fatalf("unmatched in flight = %d", got)
	}
	// The mailbox of rank 1 holds the buffered message.
	msgs := s.Mailbox(1)
	if len(msgs) != 1 || msgs[0].Src != 0 || msgs[0].Tag != 5 || msgs[0].Bytes != 9 {
		t.Fatalf("mailbox = %+v", msgs)
	}
	if s.Mailbox(99) != nil {
		t.Error("bogus rank mailbox")
	}

	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	// After completion everything matched.
	if got := len(sup.UnmatchedSends()); got != 0 {
		t.Fatalf("unmatched after completion = %d", got)
	}
	if sup.Matched() != 2 {
		t.Fatalf("matched = %d", sup.Matched())
	}
}

// raceyBody is a program with a genuine wildcard-order bug: the master
// combines worker results weighted by *arrival order* instead of by source
// rank, so the answer depends on message racing.
func raceyBody(result *int64) func(c *instr.Ctx) {
	return func(c *instr.Ctx) {
		defer c.Fn(instr.Loc("racey.go", 1, "main"))()
		if c.Rank() == 0 {
			var sum int64
			for i := 0; i < c.Size()-1; i++ {
				xs, _ := c.RecvInt64s(mp.AnySource, 0)
				// BUG: weight by arrival index i, should be by source rank.
				sum += xs[0] * int64(i+1)
			}
			*result = sum
		} else {
			c.Compute(int64(c.Rank()) * 50)
			c.SendInt64s(0, 0, []int64{int64(c.Rank())})
		}
	}
}

// forceOrder delivers rank 0's wildcard receives from the listed sources.
type forceOrder []int

func (f forceOrder) Pick(rank int, recvSeq uint64, eligible []mp.PendingMsg) int {
	if rank != 0 || recvSeq == 0 || recvSeq > uint64(len(f)) {
		return mp.EarliestArrival{}.Pick(rank, recvSeq, eligible)
	}
	for i, m := range eligible {
		if m.Src == f[recvSeq-1] {
			return i
		}
	}
	return -1
}

// TestRaceBugWorkflow: the message-racing debugging story — two delivery
// orders give different answers; the race detector flags every wildcard
// receive; a replay of either recording reproduces its answer exactly.
func TestRaceBugWorkflow(t *testing.T) {
	const n = 4
	results := make(map[string]int64)
	for name, order := range map[string]forceOrder{
		"ascending":  {1, 2, 3},
		"descending": {3, 2, 1},
	} {
		var got int64
		d := New(debug.Target{
			Cfg:  mp.Config{NumRanks: n, Delivery: order},
			Body: raceyBody(&got),
		})
		if err := d.Record(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		results[name] = got

		races, err := d.Races()
		if err != nil {
			t.Fatal(err)
		}
		if len(races) == 0 {
			t.Fatalf("%s: race not detected", name)
		}

		// Replay reproduces the same buggy answer deterministically.
		for rep := 0; rep < 2; rep++ {
			var replayGot int64
			// Replay through a fresh debugger target that shares the body
			// but enforces the recorded matching.
			s, err := d.Session().Replay(nil)
			if err != nil {
				t.Fatal(err)
			}
			_ = replayGot
			if err := s.Finish(); err != nil {
				t.Fatal(err)
			}
			// The shared `got` variable now holds the replay's answer.
			if got != results[name] {
				t.Fatalf("%s rep %d: replay answer %d != recorded %d", name, rep, got, results[name])
			}
		}
	}
	// The bug is real: the two orders disagree.
	if results["ascending"] == results["descending"] {
		t.Fatalf("delivery order did not change the answer: %v", results)
	}
	// ascending: 1*1+2*2+3*3 = 14; descending: 3*1+2*2+1*3 = 10.
	if results["ascending"] != 14 || results["descending"] != 10 {
		t.Fatalf("unexpected answers: %v", results)
	}
}

// TestIntertwinedPassthrough exercises the Debugger facade for the
// intertwined-message report.
func TestIntertwinedPassthrough(t *testing.T) {
	d := New(debug.Target{
		Cfg: mp.Config{NumRanks: 2},
		Body: func(c *instr.Ctx) {
			if c.Rank() == 0 {
				c.SendInt64s(1, 1, []int64{1})
				c.SendInt64s(1, 2, []int64{2})
			} else {
				c.Probe(0, 2)
				c.Recv(0, 2)
				c.Recv(0, 1)
			}
		},
	})
	if err := d.Record(); err != nil {
		t.Fatal(err)
	}
	pairs := d.Intertwined()
	if len(pairs) != 1 {
		t.Fatalf("pairs = %v", pairs)
	}
	if fmt.Sprint(pairs[0].FirstTag) != "1" {
		t.Errorf("pair = %+v", pairs[0])
	}
}
