// Package debug is the p2d2 analogue: a state-based debugger for mp
// programs with event-granularity process control. It adds the paper's
// trace-driven features on top: marker-threshold breakpoints for controlled
// replay, stepping, variable inspection at stops, replay with recorded
// message matching, and the parallel undo operation.
//
// A Session is one execution of the target under debugger control. Replay
// and Undo create new Sessions whose delivery controller enforces the
// recorded matching, so wildcard nondeterminism cannot diverge.
package debug

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tracedbg/internal/instr"
	"tracedbg/internal/mp"
	"tracedbg/internal/replay"
	"tracedbg/internal/trace"
)

// Target describes the debuggee: world configuration, instrumentation
// level, and the per-rank program body.
type Target struct {
	Cfg        mp.Config
	Level      instr.Level
	Body       func(c *instr.Ctx)
	ExtraSinks []instr.Sink // additional online consumers (trace graph, file)

	// BodyFor, when non-nil, builds a rank body that resumes from a
	// checkpoint snapshot (nil snapshot = from scratch). Opting in enables
	// Session.ReplayFromSnapshot.
	BodyFor func(snap *replay.Snapshot) func(c *instr.Ctx)
}

// StopReason classifies why a rank stopped.
type StopReason string

// Stop reasons.
const (
	ReasonStep       StopReason = "step"
	ReasonMarker     StopReason = "marker"
	ReasonBreakpoint StopReason = "breakpoint"
	ReasonPause      StopReason = "pause"
	ReasonWatch      StopReason = "watchpoint"
	ReasonCondition  StopReason = "condition"
)

// Stop describes a rank parked at a control point.
type Stop struct {
	Rank   int
	Marker uint64
	Reason StopReason
	Detail string       // watch/condition details ("x: \"1\" -> \"2\"")
	Rec    trace.Record // the event at which the rank stopped

	proc *mp.Proc
}

// noThreshold disables the marker threshold of a rank.
const noThreshold = math.MaxUint64

// ErrFinished is returned when an operation addresses a rank that already
// finished.
var ErrFinished = errors.New("debug: rank already finished")

// ErrTimeout is returned by waits that exceed their deadline.
var ErrTimeout = errors.New("debug: wait timed out")

// Session is one debugger-controlled execution.
type Session struct {
	tgt  Target
	in   *instr.Instrumenter
	sink *instr.MemorySink
	w    *mp.World

	mu         sync.Mutex
	cond       *sync.Cond
	stopped    map[int]*Stop
	finished   map[int]bool
	stepReq    map[int]bool
	thresholds []uint64
	breakLocs  map[string]bool // "file:line"
	breakFuncs map[string]bool
	killed     bool

	watch       watchState
	watchActive atomic.Int32

	// markerBase offsets this session's counters when it resumed from a
	// checkpoint (absolute = live counters + base).
	markerBase []uint64

	undoStack [][]uint64

	waitOnce sync.Once
	waitErr  error
	done     chan struct{}
}

// Launch starts the target under debugger control and returns immediately;
// ranks run until they hit a stop condition or finish.
func Launch(tgt Target) (*Session, error) {
	return launch(tgt, nil, nil, nil)
}

// launch builds a session and starts its ranks. A replay's stop set (nil for
// none) and snapshot marker base are installed before any rank runs — the
// paper stores the thresholds, then restarts the computation — so no rank
// can pass its threshold marker unobserved.
func launch(tgt Target, delivery mp.DeliveryController, stops replay.StopSet, markerBase []uint64) (*Session, error) {
	if tgt.Body == nil {
		return nil, fmt.Errorf("debug: target has no body")
	}
	n := tgt.Cfg.NumRanks
	if n < 1 {
		return nil, fmt.Errorf("debug: target needs NumRanks >= 1")
	}
	s := &Session{
		tgt:        tgt,
		sink:       instr.NewMemorySink(n),
		stopped:    make(map[int]*Stop),
		finished:   make(map[int]bool),
		stepReq:    make(map[int]bool),
		thresholds: make([]uint64, n),
		breakLocs:  make(map[string]bool),
		breakFuncs: make(map[string]bool),
		done:       make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	for i := range s.thresholds {
		s.thresholds[i] = noThreshold
	}
	var sink instr.Sink = s.sink
	if len(tgt.ExtraSinks) > 0 {
		sink = instr.TeeSink(append([]instr.Sink{s.sink}, tgt.ExtraSinks...))
	}
	level := tgt.Level
	if level == 0 {
		level = instr.LevelAll
	}
	s.in = instr.New(n, sink, level)
	s.in.Monitor.SetControl(s.control)

	cfg := tgt.Cfg
	if delivery != nil {
		cfg.Delivery = delivery
	}
	w, err := s.in.World(cfg)
	if err != nil {
		return nil, err
	}
	s.w = w
	s.markerBase = markerBase
	if stops != nil {
		s.SetStopSet(stops)
	}
	if err := w.Start(func(p *mp.Proc) {
		defer s.markFinished(p.Rank())
		tgt.Body(s.in.Ctx(p))
	}); err != nil {
		return nil, err
	}
	return s, nil
}

// Monitor exposes the session's monitor (markers, collection toggles).
func (s *Session) Monitor() *instr.Monitor { return s.in.Monitor }

// NumRanks returns the debuggee's world size.
func (s *Session) NumRanks() int { return s.tgt.Cfg.NumRanks }

func (s *Session) markFinished(rank int) {
	s.mu.Lock()
	s.finished[rank] = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// control is the monitor control point, running on the rank's goroutine.
func (s *Session) control(p *mp.Proc, rec *trace.Record) {
	rank := p.Rank()
	s.mu.Lock()
	reason, ok := s.stopReasonLocked(rank, rec)
	s.mu.Unlock()
	detail := ""
	if !ok && s.watchActive.Load() > 0 {
		reason, detail, ok = s.watchReason(p, rec)
	}
	if !ok {
		return
	}
	s.mu.Lock()
	if s.killed {
		s.mu.Unlock()
		return
	}
	stop := &Stop{Rank: rank, Marker: rec.Marker, Reason: reason, Detail: detail, Rec: *rec, proc: p}
	s.stopped[rank] = stop
	s.cond.Broadcast()
	for s.stopped[rank] == stop && !s.killed {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

func (s *Session) stopReasonLocked(rank int, rec *trace.Record) (StopReason, bool) {
	if s.killed {
		return "", false
	}
	if s.stepReq[rank] {
		s.stepReq[rank] = false
		return ReasonStep, true
	}
	if t := s.thresholds[rank]; t != noThreshold && rec.Marker >= t {
		s.thresholds[rank] = noThreshold // one-shot
		return ReasonMarker, true
	}
	if !rec.Loc.IsZero() {
		if s.breakLocs[fmt.Sprintf("%s:%d", rec.Loc.File, rec.Loc.Line)] {
			return ReasonBreakpoint, true
		}
		if s.breakFuncs[rec.Loc.Func] {
			return ReasonBreakpoint, true
		}
	}
	if rec.Name != "" && s.breakFuncs[rec.Name] && rec.Kind == trace.KindFuncEntry {
		return ReasonBreakpoint, true
	}
	return "", false
}

// SetStopSet installs marker thresholds for every rank: each rank stops at
// the first control point whose marker reaches its threshold. A zero
// sequence stops at the rank's first event.
func (s *Session) SetStopSet(ss replay.StopSet) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for r := range s.thresholds {
		seq := ss.Seq(r)
		if seq == 0 {
			seq = 1
		}
		s.thresholds[r] = seq
	}
}

// ClearStopSet disables all marker thresholds.
func (s *Session) ClearStopSet() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for r := range s.thresholds {
		s.thresholds[r] = noThreshold
	}
}

// BreakAt sets a location breakpoint (every rank stops at events whose
// source location matches file:line).
func (s *Session) BreakAt(file string, line int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.breakLocs[fmt.Sprintf("%s:%d", file, line)] = true
}

// BreakFunc sets a function breakpoint (stop on entry or any event located
// in the function).
func (s *Session) BreakFunc(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.breakFuncs[name] = true
}

// ClearBreaks removes all location and function breakpoints.
func (s *Session) ClearBreaks() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.breakLocs = make(map[string]bool)
	s.breakFuncs = make(map[string]bool)
}

// Stops returns the currently stopped ranks.
func (s *Session) Stops() []Stop {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Stop, 0, len(s.stopped))
	for _, st := range s.stopped {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// Where returns the stop state of one rank (nil if running or finished).
func (s *Session) Where(rank int) *Stop {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.stopped[rank]; ok {
		c := *st
		return &c
	}
	return nil
}

// Finished reports whether a rank's body returned (or was unwound).
func (s *Session) Finished(rank int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.finished[rank]
}

// WaitStop blocks until the rank stops (returning its stop) or finishes
// (returning ErrFinished).
func (s *Session) WaitStop(rank int, timeout time.Duration) (*Stop, error) {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer timer.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if st, ok := s.stopped[rank]; ok {
			c := *st
			return &c, nil
		}
		if s.finished[rank] {
			return nil, ErrFinished
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%w: rank %d neither stopped nor finished", ErrTimeout, rank)
		}
		s.cond.Wait()
	}
}

// WaitAllStopped blocks until every rank is stopped or finished, returning
// the stopped set.
func (s *Session) WaitAllStopped(timeout time.Duration) ([]Stop, error) {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer timer.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		all := true
		for r := 0; r < s.tgt.Cfg.NumRanks; r++ {
			if _, ok := s.stopped[r]; !ok && !s.finished[r] {
				all = false
				break
			}
		}
		if all {
			out := make([]Stop, 0, len(s.stopped))
			for _, st := range s.stopped {
				out = append(out, *st)
			}
			sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
			return out, nil
		}
		if time.Now().After(deadline) {
			var states []string
			for r := 0; r < s.tgt.Cfg.NumRanks; r++ {
				switch {
				case s.finished[r]:
					states = append(states, fmt.Sprintf("%d:finished", r))
				case s.stopped[r] != nil:
					states = append(states, fmt.Sprintf("%d:stopped", r))
				default:
					states = append(states, fmt.Sprintf("%d:running", r))
				}
			}
			return nil, fmt.Errorf("%w: %s", ErrTimeout, strings.Join(states, " "))
		}
		s.cond.Wait()
	}
}

// Continue resumes one stopped rank.
func (s *Session) Continue(rank int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.stopped[rank]; !ok {
		return fmt.Errorf("debug: rank %d is not stopped", rank)
	}
	delete(s.stopped, rank)
	s.cond.Broadcast()
	return nil
}

// Step resumes one stopped rank and stops it again at its next event —
// avoiding exactly the §4 "step over instead of step into" hazard: the next
// event is the next instrumented point regardless of call depth.
func (s *Session) Step(rank int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.stopped[rank]; !ok {
		return fmt.Errorf("debug: rank %d is not stopped", rank)
	}
	s.stepReq[rank] = true
	delete(s.stopped, rank)
	s.cond.Broadcast()
	return nil
}

// ContinueAll resumes every stopped rank, first recording the current
// marker vector so Undo can return here ("every time a target process
// stops, p2d2 records its execution marker").
func (s *Session) ContinueAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.stopped) > 0 {
		s.undoStack = append(s.undoStack, s.in.Monitor.Counters())
	}
	for r := range s.stopped {
		delete(s.stopped, r)
	}
	s.cond.Broadcast()
}

// Counters returns the monitor's current marker vector.
func (s *Session) Counters() []uint64 { return s.in.Monitor.Counters() }

// ReadVar inspects an exposed variable of a stopped (or finished) rank.
func (s *Session) ReadVar(rank int, name string) (string, error) {
	s.mu.Lock()
	st, stopped := s.stopped[rank]
	fin := s.finished[rank]
	s.mu.Unlock()
	if !stopped && !fin {
		return "", fmt.Errorf("debug: rank %d must be stopped to inspect variables", rank)
	}
	var p *mp.Proc
	if stopped {
		p = st.proc
	} else {
		p = s.w.Proc(rank)
	}
	v, ok := p.FormatVar(name)
	if !ok {
		return "", fmt.Errorf("debug: rank %d has no exposed variable %q", rank, name)
	}
	return v, nil
}

// VarNames lists the exposed variables of a rank.
func (s *Session) VarNames(rank int) []string {
	if p := s.w.Proc(rank); p != nil {
		return p.VarNames()
	}
	return nil
}

// Trace returns a snapshot of the history collected so far. A history cut
// short by an abort or a rank crash is marked Incomplete so downstream
// analyses know they are looking at a partial execution.
func (s *Session) Trace() *trace.Trace {
	tr := s.sink.Snapshot()
	if err := s.w.Aborted(); err != nil {
		tr.MarkIncomplete("world aborted: " + err.Error())
	}
	for rank, err := range s.w.RankErrs() {
		if err != nil {
			tr.MarkIncomplete(fmt.Sprintf("rank %d died: %v", rank, err))
		}
	}
	return tr
}

// Mailbox lists the messages buffered at a rank but not yet received —
// live communication supervision. Safe at any time; most meaningful while
// the rank is stopped.
func (s *Session) Mailbox(rank int) []mp.PendingMsg {
	p := s.w.Proc(rank)
	if p == nil {
		return nil
	}
	return p.PendingMessages()
}

// World exposes the underlying world (stall inspection etc.).
func (s *Session) World() *mp.World { return s.w }

// Kill aborts the execution and releases all parked ranks.
func (s *Session) Kill() {
	s.mu.Lock()
	s.killed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.w.Abort(errors.New("debug: killed"))
}

// Wait blocks until the world finishes and returns its error. Ranks parked
// at stops are NOT resumed; call Finish for resume-and-wait.
func (s *Session) Wait() error {
	s.waitOnce.Do(func() {
		s.waitErr = s.w.Wait()
		close(s.done)
	})
	<-s.done
	return s.waitErr
}

// Finish clears stop conditions (including watchpoints and conditional
// breakpoints, which would otherwise re-park ranks after the resume),
// resumes everything, and waits for the program to end. The loop covers
// ranks that stop between the clear and the resume.
func (s *Session) Finish() error {
	s.ClearStopSet()
	s.ClearBreaks()
	s.ClearWatches()
	s.ClearConditions()
	for {
		s.ContinueAll()
		select {
		case <-s.waitDone():
			return s.Wait()
		case <-time.After(10 * time.Millisecond):
			// A rank may have parked at a stop triggered before the clear;
			// resume again.
		}
	}
}

// waitDone exposes the completion channel, spawning the waiter once.
func (s *Session) waitDone() <-chan struct{} {
	go func() { _ = s.Wait() }()
	return s.done
}

// Replay starts a new controlled execution of the same target that enforces
// this session's recorded message matching and stops at the given marker
// set. The paper's trace-driven replay: restart the computation, store the
// markers in the UserMonitor threshold variables, and trigger breakpoints
// when the counters reach them.
func (s *Session) Replay(stops replay.StopSet) (*Session, error) {
	enf := replay.NewEnforcer(s.Trace())
	// Replays record into their own session only: the recording's extra
	// sinks (online trace graph, trace file) must not receive the replayed
	// events a second time.
	tgt := s.tgt
	tgt.ExtraSinks = nil
	return launch(tgt, enf, stops, nil)
}

// Undo replays to the most recent recorded stop vector — "returning the
// process states to a point very near their location before the most recent
// resumption operation". It returns the new session, stopped at that point.
func (s *Session) Undo() (*Session, error) {
	s.mu.Lock()
	if len(s.undoStack) == 0 {
		s.mu.Unlock()
		return nil, errors.New("debug: nothing to undo (no recorded stops)")
	}
	target := s.undoStack[len(s.undoStack)-1]
	s.undoStack = s.undoStack[:len(s.undoStack)-1]
	s.mu.Unlock()

	ns, err := s.Replay(replay.FromCounters(target))
	if err != nil {
		return nil, err
	}
	// Inherit the remaining undo history so repeated undo steps further back.
	s.mu.Lock()
	ns.undoStack = append([][]uint64(nil), s.undoStack...)
	s.mu.Unlock()
	return ns, nil
}
