package main

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"tracedbg/internal/remote"
	"tracedbg/internal/store"
	"tracedbg/internal/trace"
)

// Deadlines of the waits collect and follow make. The shape they guard
// against is the one BenchmarkDaemonIngest/MultiSession8 hangs in (see
// README.md): the daemon reports durable == window, the client acked == 0,
// and nothing moves until the test binary's ten-minute timeout.
const (
	durableDeadline  = 45 * time.Second // every emitted record durable at the daemon
	finalizeDeadline = 15 * time.Second // session "done" with no sidecar owed, after Close returned
)

// sessionStatus finds one session in the daemon's status list.
func sessionStatus(d *remote.Daemon, id string) (remote.SessionStatus, bool) {
	for _, st := range d.Sessions() {
		if st.ID == id {
			return st, true
		}
	}
	return remote.SessionStatus{}, false
}

// newDaemon starts a daemon with the options `tcollect -daemon` ships: the
// zero value but for where it writes.
func newDaemon(dir string) (*remote.Daemon, error) {
	return remote.NewDaemon("127.0.0.1:0", remote.DaemonOptions{Dir: dir})
}

// dial opens a client session with the shipped options but for its name and
// the spill directory, which stays inside the checkout.
func dial(d *remote.Daemon, ranks int, id, spillDir string) (*remote.Client, error) {
	return remote.DialOptions(d.Addr(), ranks, remote.ClientOptions{SessionID: id, SpillDir: spillDir})
}

// phaseDirs makes a fresh directory for one pass of a phase (the traced run
// passes its own phase twice, and a daemon recovers whatever sessions it
// finds under its root), with the client's spill directory inside it.
func phaseDirs(c *corpus, phase string) (dir, spill string, err error) {
	if dir, err = os.MkdirTemp(c.dir, phase+"-"); err != nil {
		return "", "", err
	}
	spill = filepath.Join(dir, "spill")
	return dir, spill, os.Mkdir(spill, 0o755)
}

// dirBytes is the size of every file under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		fi, err := e.Info()
		if err == nil {
			n += fi.Size()
		}
		return err
	})
	return n, err
}

// sameStream checks that the store at manifest holds want, record for
// record in emit order, with its sidecar indexes usable.
func sameStream(manifest string, want []trace.Record) error {
	st, err := store.Open(manifest)
	if err != nil {
		return err
	}
	defer st.Close()
	if ix := st.Indexes(); !ix.Available() {
		return fmt.Errorf("indexes unavailable: %s", ix.Reason())
	}
	cur, err := st.All()
	if err != nil {
		return err
	}
	defer cur.Close()
	for i := range want {
		rec, err := cur.Next()
		if err != nil {
			return fmt.Errorf("record %d of %d: %w", i+1, len(want), err)
		}
		if *rec != want[i] {
			return fmt.Errorf("record %d differs: stored %v, emitted %v", i+1, rec, &want[i])
		}
	}
	if rec, err := cur.Next(); err != io.EOF {
		return fmt.Errorf("store holds more than the %d records emitted: %v, %v", len(want), rec, err)
	}
	return nil
}

// collectPhase is `tcollect -daemon` under a burst: one client session at a
// time, closed loop. A cycle pushes collectRecords records through
// Client.Emit as fast as Emit returns, closes the client and waits for the
// daemon to finalize the session.
func collectPhase(c *corpus, tr *tracer, budget time.Duration) *phaseOut {
	out := newPhaseOut()
	dir, spill, err := phaseDirs(c, "collect")
	if err != nil {
		out.broke(err)
		return out
	}
	d, err := newDaemon(filepath.Join(dir, "sessions"))
	if err != nil {
		out.broke(err)
		return out
	}
	defer d.Close()
	n := c.sz.collectRecords
	recs := c.stream[:n]

	var before counters
	if tr != nil {
		before = readCounters()
	}
	cycles := 0
	for end := time.Now().Add(budget); cycles == 0 || time.Now().Before(end); cycles++ {
		collectCycle(c, tr, d, fmt.Sprintf("collect-%d-%d", c.seed, cycles), spill, recs, out)
	}
	if tr != nil {
		after := readCounters()
		out.set("remote.window_stalls", after.since(before, "tracedbg_remote_client_window_stalls_total")/float64(cycles), cycles)
		out.set("remote.acks", after.since(before, "tracedbg_remote_collector_heartbeats_sent_total")/float64(cycles), cycles)
	}
	return out
}

func collectCycle(c *corpus, tr *tracer, d *remote.Daemon, id, spill string, recs []trace.Record, out *phaseOut) {
	n := len(recs)
	out.attempted += n
	op := tr.op()
	root := tr.start("harness.cycle", op, 0)
	defer tr.end(root)

	cpu0 := cpuNow()
	sp := tr.start("remote.dial", op, root)
	cl, err := dial(d, c.sz.streamRanks, id, spill)
	tr.end(sp)
	if err != nil {
		out.fail(n, "%s: dial: %v", id, err)
		return
	}

	// The watcher times the moment the daemon reports the whole session
	// durable; it runs beside the emitter because Emit never blocks and the
	// backlog drains on the daemon's credit grants.
	durableAt := make(chan time.Time, 1)
	var durable uint64
	go func() {
		var at time.Time
		waitUntil(durableDeadline, 10*time.Millisecond, func() bool {
			st, _ := sessionStatus(d, id)
			durable = st.Durable
			at = time.Now()
			return durable >= uint64(n)
		})
		durableAt <- at
	}()

	const batch = 256 // records under one remote.emit span
	t0 := time.Now()
	for i := 0; i < n; i += batch {
		sp := tr.start("remote.emit", op, root)
		for j := i; j < min(i+batch, n); j++ {
			cl.Emit(&recs[j])
		}
		tr.end(sp)
	}
	lastEmit := time.Now()
	out.add("remote.client.emit_ns_per_record", float64(lastEmit.Sub(t0))/float64(n))

	sp = tr.start("remote.close", op, root)
	err = cl.Close()
	closed := time.Now()
	tr.end(sp)
	out.add("remote.client.close_s", closed.Sub(lastEmit).Seconds())

	sp = tr.start("remote.finalize", op, root)
	final := waitUntil(finalizeDeadline, time.Millisecond, func() bool {
		st, ok := sessionStatus(d, id)
		return ok && st.State == "done" && st.SegsPending == 0
	})
	tr.end(sp)
	out.add("remote.daemon.finalize_ms", ms(time.Since(closed)))

	manifest := d.SessionManifest(id)
	sp = tr.start("store.open", op, root)
	st, oerr := store.Open(manifest)
	if oerr == nil {
		oerr = st.Close()
	}
	tr.end(sp)
	drained := time.Now()
	cpu := cpuNow() - cpu0

	at := <-durableAt // the watcher's own deadline bounds this receive
	switch {
	case durable < uint64(n):
		out.fail(n-int(durable), "%s: %d of %d records durable after %v (client acked %d, close: %v)",
			id, durable, n, durableDeadline, cl.Acked(), err)
		return
	case err != nil || !final || oerr != nil:
		out.fail(n, "%s: close: %v, finalized: %v, open: %v", id, err, final, oerr)
		return
	}
	if err := sameStream(manifest, recs); err != nil {
		out.wrong(n, "%s: %v", id, err)
		return
	}
	bytes, err := dirBytes(filepath.Dir(manifest))
	if err != nil {
		out.broke(err)
		return
	}
	out.add("ingest_records_per_s", float64(n)/at.Sub(t0).Seconds())
	out.add("drain_s", drained.Sub(lastEmit).Seconds())
	out.add("disk_bytes_per_record", float64(bytes)/float64(n))
	out.add("collect_cpu_us_per_record", float64(cpu.Microseconds())/float64(n))
}

// collectLayers writes the collect stream straight into the segment writer
// the daemon uses, with no wire in between (traced run only): the disk half
// of ingest on its own, flushed in the daemon's batches of at most 512.
func collectLayers(c *corpus, tr *tracer, out *phaseOut) {
	const reps = 5
	recs := c.stream[:c.sz.collectRecords]
	var write, seal, chunks, fsyncs samples
	for i := 0; i < reps; i++ {
		dir, err := os.MkdirTemp(c.dir, "segment-")
		if err != nil {
			out.broke(err)
			return
		}
		before := readCounters()
		op := tr.op()
		sp := tr.start("trace.segment_write", op, 0)
		t0 := time.Now()
		gw, err := trace.NewSequentialSegmentedWriter(dir, "trace", c.sz.streamRanks, c.sz.segmentBytes,
			trace.WriterOptions{BuildIndex: true})
		if err != nil {
			out.broke(err)
			return
		}
		for j := range recs {
			if err = gw.Write(&recs[j]); err != nil {
				break
			}
			if j%512 == 511 {
				if err = gw.Flush(); err != nil {
					break
				}
			}
		}
		written := time.Now()
		tr.end(sp)
		sp = tr.start("trace.index_seal", op, 0)
		if cerr := gw.Close(); err == nil {
			err = cerr
		}
		sealed := time.Now()
		tr.end(sp)
		if err != nil {
			out.broke(err)
			return
		}
		after := readCounters()
		write = append(write, float64(written.Sub(t0))/float64(len(recs)))
		seal = append(seal, ms(sealed.Sub(written)))
		chunks = append(chunks, after.since(before, "tracedbg_trace_chunks_sealed_total"))
		fsyncs = append(fsyncs, after.since(before, "tracedbg_trace_fsyncs_total"))
	}
	out.set("trace.segment_write_ns_per_record", write.median(), reps)
	out.set("trace.index_seal_ms", seal.median(), reps)
	out.set("trace.chunks", chunks.median(), reps)
	out.set("trace.fsyncs", fsyncs.median(), reps)
}
