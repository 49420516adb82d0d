package debug

import (
	"fmt"

	"tracedbg/internal/replay"
	"tracedbg/internal/trace"
)

// Checkpoint-aware replay: the paper's conclusion proposes improving
// straightforward re-execution by "periodically checkpointing program
// states and keeping a logarithmic backlog of process states". Targets that
// can rebuild their rank bodies from a snapshot opt in via Target.BodyFor;
// ReplayFromSnapshot then starts the re-execution at the snapshot and
// adjusts marker thresholds and matching enforcement by the snapshot's
// marker vector.

// ReplayFromSnapshot starts a controlled re-execution from a stored
// snapshot, stopping at the given absolute marker stop set (the same
// coordinates a stopline produces for the full history). The target must
// provide BodyFor; the stop set must lie at or after the snapshot.
func (s *Session) ReplayFromSnapshot(snap replay.Snapshot, stops replay.StopSet) (*Session, error) {
	if s.tgt.BodyFor == nil {
		return nil, fmt.Errorf("debug: target has no BodyFor; checkpointed replay unavailable")
	}
	n := s.tgt.Cfg.NumRanks
	if len(snap.Markers) != n {
		return nil, fmt.Errorf("debug: snapshot has %d marker entries for %d ranks", len(snap.Markers), n)
	}
	for r := 0; r < n; r++ {
		if stops != nil && stops.Seq(r) != 0 && stops.Seq(r) < snap.Markers[r] {
			return nil, fmt.Errorf("debug: stop marker %d of rank %d precedes snapshot marker %d",
				stops.Seq(r), r, snap.Markers[r])
		}
	}

	// Matching enforcement must skip the receives that happened before the
	// snapshot: the resumed execution only performs the suffix.
	enf := replay.NewEnforcerOffset(s.Trace(), snap.Markers)

	tgt := s.tgt
	tgt.ExtraSinks = nil
	tgt.Body = s.tgt.BodyFor(&snap)
	var rel replay.StopSet
	if stops != nil {
		rel = make(replay.StopSet, n)
		for r := 0; r < n; r++ {
			rel[r] = trace.Marker{Rank: r}
			if seq := stops.Seq(r); seq > snap.Markers[r] {
				rel[r].Seq = seq - snap.Markers[r]
			}
			// seq <= snapshot marker: the rank is already at or past the
			// target; stop at its first event (threshold 1 via SetStopSet).
		}
	}
	return launch(tgt, enf, rel, append([]uint64(nil), snap.Markers...))
}

// AbsoluteCounters returns the session's marker vector in the coordinates
// of the original full history: the live counters plus the snapshot base
// this session resumed from (zero for from-scratch sessions).
func (s *Session) AbsoluteCounters() []uint64 {
	c := s.in.Monitor.Counters()
	s.mu.Lock()
	base := s.markerBase
	s.mu.Unlock()
	for r := range c {
		if r < len(base) {
			c[r] += base[r]
		}
	}
	return c
}
