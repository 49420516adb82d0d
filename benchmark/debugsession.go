package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"tracedbg/internal/apps"
	"tracedbg/internal/core"
	"tracedbg/internal/debug"
	"tracedbg/internal/instr"
	"tracedbg/internal/mp"
	"tracedbg/internal/store"
	"tracedbg/internal/trace"
)

// A replay that has not parked every rank after this long is a failed
// operation.
const stoppedDeadline = 10 * time.Second

// A cycle runs the 20 ms jacobi pair twice and replays eight times from its
// one recording: the short operations are the noisy ones on two cores, and
// they need the samples more than the 30 ms recordings beside them do.
const (
	slowdownPairs    = 2
	replaysPerRecord = 8
)

// runInstrumented runs body once under a fresh instrumenter and returns the
// wall time and the monitor's event count.
func runInstrumented(ranks int, sink instr.Sink, level instr.Level, body func(c *instr.Ctx)) (time.Duration, uint64, error) {
	in := instr.New(ranks, sink, level)
	t0 := time.Now()
	err := in.Run(mp.Config{NumRanks: ranks}, body)
	d := time.Since(t0)
	var events uint64
	for _, n := range in.Monitor.Counters() {
		events += n
	}
	return d, events, err
}

// recordToFile runs body at LevelAll through instr.NewFileSink into a real
// file, flush and close included: what the person recording pays.
func recordToFile(path string, ranks int, body func(c *instr.Ctx)) (time.Duration, uint64, error) {
	t0 := time.Now()
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	sink, err := instr.NewFileSink(f, ranks)
	if err != nil {
		f.Close()
		return 0, 0, err
	}
	_, events, err := runInstrumented(ranks, sink, instr.LevelAll, body)
	if err == nil {
		err = sink.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return time.Since(t0), events, err
}

// strictCount reopens a recorded file refusing any damage and counts its
// records.
func strictCount(path string) (int, error) {
	st, err := store.Open(path, store.Options{Mode: store.ModeStrict})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	tr, err := st.Trace()
	if err != nil {
		return 0, err
	}
	return tr.Len(), nil
}

// debugSessionPhase is the paper's loop on a live target, one caller, closed
// loop: run the target bare, record it, record the call-dominated case,
// then record under the debugger, set a stopline and replay to it.
func debugSessionPhase(c *corpus, tr *tracer, budget time.Duration) *phaseOut {
	out := newPhaseOut()
	sz := c.sz
	jcfg := apps.JacobiConfig{Cells: sz.jacobiCells, Iters: sz.jacobiIters, Seed: c.seed}
	dir, err := os.MkdirTemp(c.dir, "debug-session-")
	if err != nil {
		out.broke(err)
		return out
	}
	jpath, fpath := filepath.Join(dir, "jacobi.trace"), filepath.Join(dir, "fib.trace")
	var bare, recorded samples
	var fibEvents uint64

	for cycle, end := 0, time.Now().Add(budget); cycle == 0 || time.Now().Before(end); cycle++ {
		op := tr.op()
		root := tr.start("harness.cycle", op, 0)

		// Bare and recorded runs alternate, so that a slow stretch of the
		// machine falls on both sides of record_slowdown_x.
		for i := 0; i < slowdownPairs; i++ {
			sp := tr.start("mp.run_bare", op, root)
			d, _, err := runInstrumented(sz.jacobiRanks, instr.NullSink{}, 0, apps.Jacobi(jcfg, nil))
			tr.end(sp)
			out.attempted++
			if err != nil {
				out.fail(1, "bare jacobi: %v", err)
			} else {
				bare = append(bare, ms(d))
			}

			sp = tr.start("instr.record_jacobi", op, root)
			d, events, err := recordToFile(jpath, sz.jacobiRanks, apps.Jacobi(jcfg, nil))
			tr.end(sp)
			out.attempted++
			if n, cerr := strictCount(jpath); err != nil || cerr != nil || uint64(n) != events {
				out.wrong(1, "recorded jacobi: run %v, reopen %v, %d records in file, monitor counted %d", err, cerr, n, events)
			} else {
				recorded = append(recorded, ms(d))
			}
		}

		sp := tr.start("instr.record_fib", op, root)
		d, events, err := recordToFile(fpath, 1, apps.Fib(sz.fibN, nil))
		tr.end(sp)
		out.attempted++
		// Decoding 300 k events costs as much as recording them, so the
		// reopen check runs on the first cycle's file only; later cycles
		// hold the monitor's count to the first one's.
		if cycle == 0 && err == nil {
			fibEvents = events
			if n, cerr := strictCount(fpath); cerr != nil || uint64(n) != events {
				err = fmt.Errorf("reopen %v, %d records in file", cerr, n)
			}
		}
		if err != nil || events != fibEvents {
			out.wrong(1, "recorded fib: %v, monitor counted %d, first cycle %d", err, events, fibEvents)
		} else {
			out.add("record_ns_per_event", float64(d)/float64(events))
		}

		replayToStopline(c, tr, op, root, jcfg, out)
		tr.end(root)
	}

	if len(bare) > 0 && len(recorded) > 0 {
		out.set("record_slowdown_x", recorded.median()/bare.median(), min(len(bare), len(recorded)))
		out.set("mp.bare_run_ms", bare.median(), len(bare))
	}
	return out
}

// replayToStopline is the second half of a cycle: core.Debugger.Record, a
// vertical stopline at half the recorded time, Replay, wait until every rank
// is parked, check the parked markers against the stopline's, Kill.
func replayToStopline(c *corpus, tr *tracer, op, root int, jcfg apps.JacobiConfig, out *phaseOut) {
	out.attempted += replaysPerRecord
	d := core.New(debug.Target{
		Cfg:   mp.Config{NumRanks: c.sz.jacobiRanks},
		Level: instr.LevelAll,
		Body:  apps.Jacobi(jcfg, nil),
	})
	sp := tr.start("debug.record", op, root)
	t0 := time.Now()
	err := d.Record()
	out.add("debug.record_ms", ms(time.Since(t0)))
	tr.end(sp)
	if err != nil {
		out.fail(replaysPerRecord, "debugger record: %v", err)
		return
	}

	sp = tr.start("causality.order", op, root)
	t0 = time.Now()
	_, err = d.Order()
	out.add("causality.order_ms", ms(time.Since(t0)))
	tr.end(sp)
	if err != nil {
		out.fail(replaysPerRecord, "causality order: %v", err)
		return
	}
	sp = tr.start("causality.stopline", op, root)
	t0 = time.Now()
	sl, err := d.VerticalStopLine(d.Trace().EndTime() / 2)
	out.add("causality.stopline_ms", ms(time.Since(t0)))
	tr.end(sp)
	if err != nil {
		out.fail(replaysPerRecord, "stopline: %v", err)
		return
	}

	for i := 0; i < replaysPerRecord; i++ {
		replayOnce(c, tr, op, root, d, sl, out)
	}
}

// replayOnce is Replay, wait until every rank is parked, check the parked
// markers against the stopline's, Kill.
func replayOnce(c *corpus, tr *tracer, op, root int, d *core.Debugger, sl core.StopLine, out *phaseOut) {
	sp := tr.start("debug.replay", op, root)
	t0 := time.Now()
	s, err := d.Replay(sl)
	launched := time.Since(t0)
	if err != nil {
		tr.end(sp)
		out.fail(1, "replay: %v", err)
		return
	}
	stops, err := s.WaitAllStopped(stoppedDeadline)
	total := time.Since(t0)
	tr.end(sp)
	s.Kill()
	s.Wait() //nolint:errcheck // the killed world's error is "debug: killed"
	if err != nil {
		out.fail(1, "replay did not reach the stopline: %v", err)
		return
	}
	if msg := stopsAtLine(stops, sl, c.sz.jacobiRanks); msg != "" {
		out.wrong(1, "replay: %s", msg)
		return
	}
	out.add("replay_to_stopline_ms_p50", ms(total))
	out.add("debug.replay_launch_ms", ms(launched))
	out.add("debug.wait_stopped_ms", ms(total-launched))
}

// stopsAtLine checks that every rank is parked exactly at the stopline's
// marker (a zero marker means the rank's first event).
func stopsAtLine(stops []debug.Stop, sl core.StopLine, ranks int) string {
	if len(stops) != ranks {
		return fmt.Sprintf("%d of %d ranks parked", len(stops), ranks)
	}
	for _, st := range stops {
		want := max(sl.Markers.Seq(st.Rank), 1)
		if st.Marker != want {
			return fmt.Sprintf("rank %d parked at marker %d, stopline says %d", st.Rank, st.Marker, want)
		}
	}
	return ""
}

// debugSessionLayers times the layers under debug-session one at a time
// (traced run only): the same fib run into a sink that discards, which
// leaves the monitor call itself, and the recorded stream through the
// encoder alone.
func debugSessionLayers(c *corpus, tr *tracer, out *phaseOut) {
	const reps = 5
	fileNs, ok := out.samples["record_ns_per_event"]
	if !ok {
		return
	}
	var fn, allocs samples
	for i := 0; i < reps; i++ {
		op := tr.op()
		sp := tr.start("instr.fib_nullsink", op, 0)
		before := memStats()
		d, events, err := runInstrumented(1, instr.NullSink{}, instr.LevelAll, apps.Fib(c.sz.fibN, nil))
		after := memStats()
		tr.end(sp)
		if err != nil {
			out.broke(err)
			return
		}
		fn = append(fn, float64(d)/float64(events))
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(events))
	}
	out.set("instr.fn_ns_per_event", fn.median(), reps)
	out.set("instr.sink_ns_per_event", fileNs.median()-fn.median(), len(fileNs))
	out.set("instr.allocs_per_event", allocs.median(), reps)

	// The debug-session record stream through the trace write codec alone;
	// recording it also counts the messages one run of the target exchanges.
	before := readCounters()
	ref, err := record(c.sz.jacobiRanks, apps.Jacobi(apps.JacobiConfig{Cells: 64, Iters: c.sz.jacobiIters, Seed: c.seed}, nil))
	if err != nil {
		out.broke(err)
		return
	}
	msgs := readCounters().since(before, "tracedbg_mp_messages_total")
	ns, bytes, err := encodeOnly(tr, ref)
	if err != nil {
		out.broke(err)
		return
	}
	out.set("trace.encode_ns_per_record", ns, reps)
	out.set("trace.bytes_per_record", bytes, 1)
	out.set("mp.msgs", msgs, 1)
}

// encodeOnly pushes a recording through trace.NewShardedWriterOptions into
// io.Discard and returns ns and bytes per record.
func encodeOnly(tr *tracer, t *trace.Trace) (nsPerRecord, bytesPerRecord float64, err error) {
	const reps = 5
	order := t.MergedOrder()
	var ns samples
	var bytes int64
	for i := 0; i < reps; i++ {
		sp := tr.start("trace.encode", tr.op(), 0)
		t0 := time.Now()
		sw, err := trace.NewShardedWriterOptions(io.Discard, t.NumRanks(), 0, trace.WriterOptions{})
		if err != nil {
			return 0, 0, err
		}
		for _, id := range order {
			if err := sw.Write(t.MustAt(id)); err != nil {
				return 0, 0, err
			}
		}
		if err := sw.Close(); err != nil {
			return 0, 0, err
		}
		ns = append(ns, float64(time.Since(t0))/float64(len(order)))
		tr.end(sp)
		bytes = sw.BytesAccepted()
	}
	return ns.median(), float64(bytes) / float64(len(order)), nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
