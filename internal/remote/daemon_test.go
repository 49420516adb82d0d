package remote

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"tracedbg/internal/iofault"
	"tracedbg/internal/store"
	"tracedbg/internal/trace"
)

// fastDaemon returns options tuned for test-speed heartbeats and small
// segments so rotation and windowing actually exercise in-test.
func fastDaemon(t *testing.T) DaemonOptions {
	t.Helper()
	return DaemonOptions{
		Dir:           t.TempDir(),
		Heartbeat:     2 * time.Millisecond,
		ManifestEvery: 5 * time.Millisecond,
		SegmentBytes:  4096,
		RetryAfter:    50 * time.Millisecond,
	}
}

// sessionClient returns client options bound to a daemon session.
func sessionClient(session string) ClientOptions {
	o := fastClient()
	o.SessionID = session
	return o
}

// openSession loads one finalized session store and returns its trace. The
// daemon builds index sidecars at ingest, so every finalized session must
// open index-capable — asserted here so each round-trip test covers it.
func openSession(t *testing.T, d *Daemon, session string) *trace.Trace {
	t.Helper()
	st, err := store.Open(d.SessionManifest(session))
	if err != nil {
		t.Fatalf("store.Open(%s): %v", session, err)
	}
	if ix := st.Indexes(); !ix.Available() {
		t.Errorf("session %s store not indexed: %s", session, ix.Reason())
	}
	tr, err := st.Trace()
	if err != nil {
		t.Fatalf("session %s trace: %v", session, err)
	}
	return tr
}

// waitDone waits until a session finalizes.
func waitDone(t *testing.T, d *Daemon, session string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, s := range d.Sessions() {
			if s.ID == session && s.State == "done" {
				return
			}
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("timed out waiting for session %s to finalize; sessions: %+v\nerrs: %v\nstacks:\n%s",
				session, d.Sessions(), d.Errs(), buf[:n])
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestDaemonMultiSessionRoundTrip(t *testing.T) {
	const ranks, perRank, nSessions = 2, 120, 3
	d, err := NewDaemon("127.0.0.1:0", fastDaemon(t))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	clients := make([]*Client, nSessions)
	for i := range clients {
		cl, err := DialOptions(d.Addr(), ranks, sessionClient("run-"+string(rune('a'+i))))
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = cl
	}
	for _, cl := range clients {
		var next uint64
		emitMarkers(cl, ranks, perRank, &next)
	}
	for _, cl := range clients {
		if err := cl.Close(); err != nil {
			t.Fatalf("client close: %v", err)
		}
	}
	for i := range clients {
		session := "run-" + string(rune('a'+i))
		waitDone(t, d, session)
		tr := openSession(t, d, session)
		if tr.Incomplete() {
			t.Errorf("session %s marked incomplete: %s", session, tr.IncompleteReason())
		}
		auditMarkers(t, tr, ranks, perRank)
	}
	if errs := d.Errs(); len(errs) != 0 {
		t.Errorf("daemon errors: %v", errs)
	}
	if err := d.Close(); err != nil {
		t.Errorf("daemon close: %v", err)
	}
}

func TestDaemonAdmissionRejects(t *testing.T) {
	opts := fastDaemon(t)
	opts.MaxSessions = 1
	opts.RetryAfter = 1234 * time.Millisecond
	d, err := NewDaemon("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	cl1, err := DialOptions(d.Addr(), 1, sessionClient("first"))
	if err != nil {
		t.Fatal(err)
	}
	defer cl1.Close()

	// Over capacity: typed rejection with the daemon's retry-after hint.
	_, err = DialOptions(d.Addr(), 1, sessionClient("second"))
	var rej *ErrRejected
	if !errors.As(err, &rej) {
		t.Fatalf("over-capacity dial error = %v, want *ErrRejected", err)
	}
	if rej.Reason != RejectMaxSessions {
		t.Errorf("reason = %q, want %q", rej.Reason, RejectMaxSessions)
	}
	if rej.RetryAfter != opts.RetryAfter {
		t.Errorf("retry-after = %v, want %v", rej.RetryAfter, opts.RetryAfter)
	}

	// Malformed session ID: permanent rejection.
	bad := sessionClient("..")
	_, err = DialOptions(d.Addr(), 1, bad)
	if !errors.As(err, &rej) || rej.Reason != RejectBadSession || rej.RetryAfter >= 0 {
		t.Fatalf("bad-session dial error = %v, want permanent *ErrRejected(%s)", err, RejectBadSession)
	}
}

func TestDaemonPerClientLimit(t *testing.T) {
	opts := fastDaemon(t)
	opts.MaxSessionsPerClient = 1
	d, err := NewDaemon("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	o1 := sessionClient("one")
	o1.ID = "greedy"
	cl1, err := DialOptions(d.Addr(), 1, o1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl1.Close()
	o2 := sessionClient("two")
	o2.ID = "greedy"
	_, err = DialOptions(d.Addr(), 1, o2)
	var rej *ErrRejected
	if !errors.As(err, &rej) || rej.Reason != RejectClientLimit {
		t.Fatalf("per-client overflow error = %v, want *ErrRejected(%s)", err, RejectClientLimit)
	}
	// A different client still gets in.
	o3 := sessionClient("three")
	o3.ID = "modest"
	cl3, err := DialOptions(d.Addr(), 1, o3)
	if err != nil {
		t.Fatalf("second client rejected: %v", err)
	}
	cl3.Close()
}

func TestDaemonQuotaKill(t *testing.T) {
	opts := fastDaemon(t)
	opts.SessionQuotaRecords = 10
	d, err := NewDaemon("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	cl, err := DialOptions(d.Addr(), 1, sessionClient("hog"))
	if err != nil {
		t.Fatal(err)
	}
	var next uint64
	emitMarkers(cl, 1, 50, &next)
	cl.Flush()
	waitFor(t, "quota kill surfaced", func() bool { return cl.Err() != nil })
	var quo *ErrQuotaExceeded
	if !errors.As(cl.Err(), &quo) {
		t.Fatalf("client error = %v, want *ErrQuotaExceeded", cl.Err())
	}
	if quo.Reason != QuotaSessionRecords {
		t.Errorf("quota reason = %q, want %q", quo.Reason, QuotaSessionRecords)
	}
	cl.Close()

	// Everything accepted before the kill stays durable, marked incomplete.
	waitDone(t, d, "hog")
	tr := openSession(t, d, "hog")
	if !tr.Incomplete() {
		t.Error("quota-killed session not marked incomplete")
	}
	if n := tr.Len(); n == 0 || uint64(n) > opts.SessionQuotaRecords {
		t.Errorf("quota-killed session holds %d records, want 1..%d", n, opts.SessionQuotaRecords)
	}

	// Rejoining a killed session is refused permanently.
	_, err = DialOptions(d.Addr(), 1, sessionClient("hog"))
	var rej *ErrRejected
	if !errors.As(err, &rej) || rej.RetryAfter >= 0 {
		t.Fatalf("rejoin after quota kill = %v, want permanent *ErrRejected", err)
	}
}

func TestDaemonBackpressureWindow(t *testing.T) {
	const total = 400
	opts := fastDaemon(t)
	opts.QueueRecords = 8 // tiny credit window: emits must stall and pump
	d, err := NewDaemon("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	stallsBefore := metrics().clientWindowStalls.Value()
	cl, err := DialOptions(d.Addr(), 1, sessionClient("squeezed"))
	if err != nil {
		t.Fatal(err)
	}
	var next uint64
	emitMarkers(cl, 1, total, &next)
	cl.Flush()
	if err := cl.Close(); err != nil {
		t.Fatalf("client close: %v", err)
	}
	if stalls := metrics().clientWindowStalls.Value() - stallsBefore; stalls == 0 {
		t.Errorf("no window stalls with a %d-record window and %d records", opts.QueueRecords, total)
	}
	waitDone(t, d, "squeezed")
	tr := openSession(t, d, "squeezed")
	if tr.Incomplete() {
		t.Errorf("windowed session incomplete: %s", tr.IncompleteReason())
	}
	auditMarkers(t, tr, 1, total)
	// Bounded live heap: the queue gauge is drained back to zero.
	if q := metrics().sessQueueRecords.Value(); q != 0 {
		t.Errorf("queue gauge = %d after drain, want 0", q)
	}
}

func TestDaemonDrainFinalizesOpenSessions(t *testing.T) {
	d, err := NewDaemon("127.0.0.1:0", fastDaemon(t))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := DialOptions(d.Addr(), 2, sessionClient("abandoned"))
	if err != nil {
		t.Fatal(err)
	}
	var next uint64
	emitMarkers(cl, 2, 40, &next)
	cl.Flush()
	waitFor(t, "records durable", func() bool {
		for _, s := range d.Sessions() {
			if s.ID == "abandoned" {
				return s.Durable == 80
			}
		}
		return false
	})
	// SIGTERM-style drain with the session still connected: its manifest
	// must be finalized and marked incomplete (the run never finished).
	if err := d.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	tr := openSession(t, d, "abandoned")
	if !tr.Incomplete() {
		t.Error("drained unfinished session not marked incomplete")
	}
	auditMarkers(t, tr, 2, 40)
	cl.Close()

	// Post-drain dials are refused as draining.
	_, err = DialOptions(d.Addr(), 2, sessionClient("late"))
	if err == nil {
		t.Fatal("dial after drain succeeded")
	}
}

// restartDaemon rebinds a daemon on the exact address of a killed one.
func restartDaemon(t *testing.T, addr string, opts DaemonOptions) *Daemon {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		d, err := NewDaemon(addr, opts)
		if err == nil {
			return d
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDaemonCrashRecoveryResume(t *testing.T) {
	const ranks, perRank = 2, 80
	opts := fastDaemon(t)
	d1, err := NewDaemon("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	addr := d1.Addr()
	cl, err := DialOptions(addr, ranks, sessionClient("crashed"))
	if err != nil {
		t.Fatal(err)
	}

	// Emit in flushed batches, waiting for durability between them, so the
	// segment holds many sealed frames — the truncation below then tears
	// only the last frame, leaving a real nonempty clean prefix.
	var next uint64
	durable := func() uint64 {
		for _, s := range d1.Sessions() {
			if s.ID == "crashed" {
				return s.Durable
			}
		}
		return 0
	}
	const batches = 8
	for b := 1; b <= batches; b++ {
		emitMarkers(cl, ranks, perRank/batches, &next)
		cl.Flush()
		want := uint64(b * ranks * perRank / batches)
		waitFor(t, "batch durable", func() bool { return durable() >= want })
	}
	// The daemon dies without finalizing (no manifest, metadata still says
	// not complete), and the crash tears the last segment mid-frame.
	d1.Kill()
	segs, err := filepath.Glob(filepath.Join(opts.Dir, "crashed", sessionBase+"-*.trace"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments after kill: %v (%d)", err, len(segs))
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	// Restart on the same address: recovery salvages the clean prefix and
	// the still-running client resumes, refilling exactly the torn tail.
	d2 := restartDaemon(t, addr, opts)
	defer d2.Close()
	var recovered *SessionStatus
	for _, s := range d2.Sessions() {
		if s.ID == "crashed" {
			recovered = &s
			break
		}
	}
	if recovered == nil {
		t.Fatal("partial session not recovered")
	}
	if !recovered.Recovered || recovered.Durable == 0 || recovered.Durable >= perRank*ranks {
		t.Fatalf("recovered session %+v, want salvaged durable in 1..%d", recovered, perRank*ranks-1)
	}
	// The recovered store is openable live, before the client returns.
	st, err := store.Open(d2.SessionManifest("crashed"))
	if err != nil {
		t.Fatalf("live open of recovered session: %v", err)
	}
	if st.NumRanks() != ranks {
		t.Errorf("recovered ranks = %d, want %d", st.NumRanks(), ranks)
	}

	emitMarkers(cl, ranks, perRank, &next) // post-crash records
	waitFor(t, "resumed stream durable", func() bool {
		for _, s := range d2.Sessions() {
			if s.ID == "crashed" {
				return s.Durable == 2*perRank*ranks
			}
		}
		return false
	})
	if err := cl.Close(); err != nil {
		t.Fatalf("client close: %v", err)
	}
	if cl.Err() != nil {
		t.Fatalf("client error: %v", cl.Err())
	}
	waitDone(t, d2, "crashed")
	tr := openSession(t, d2, "crashed")
	if tr.Incomplete() {
		t.Errorf("resumed recovered session incomplete: %s", tr.IncompleteReason())
	}
	auditMarkers(t, tr, ranks, 2*perRank)
}

func TestDaemonRecoveredNeverResumedDrainsIncomplete(t *testing.T) {
	dir := t.TempDir()
	sdir := filepath.Join(dir, "orphan")
	if err := os.MkdirAll(sdir, 0o777); err != nil {
		t.Fatal(err)
	}
	if err := writeSessionMeta(iofault.OS(), sdir, &sessionMeta{
		SessionID: "orphan", ClientID: "gone", NumRanks: 1,
	}); err != nil {
		t.Fatal(err)
	}
	opts := fastDaemon(t)
	opts.Dir = dir
	d, err := NewDaemon("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	tr := openSession(t, d, "orphan")
	if !tr.Incomplete() {
		t.Error("recovered-never-resumed session not marked incomplete at drain")
	}
}

// remoteGoroutines counts live goroutines with a frame in this package —
// the leak check for Close/Drain.
func remoteGoroutines() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	count := 0
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "tracedbg/internal/remote.") &&
			!strings.Contains(g, "remoteGoroutines") {
			count++
		}
	}
	return count
}

// waitNoRemoteGoroutines asserts every package goroutine exits promptly.
func waitNoRemoteGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := remoteGoroutines(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("%s leaked goroutines (%d > %d):\n%s", what, remoteGoroutines(), base, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDaemonCloseDrainsGoroutines(t *testing.T) {
	base := remoteGoroutines()
	d, err := NewDaemon("127.0.0.1:0", fastDaemon(t))
	if err != nil {
		t.Fatal(err)
	}
	var clients []*Client
	for i := 0; i < 3; i++ {
		cl, err := DialOptions(d.Addr(), 1, sessionClient("g-"+string(rune('a'+i))))
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, cl)
		var next uint64
		emitMarkers(cl, 1, 30, &next)
		cl.Flush()
	}
	// Close one client cleanly, abandon the others mid-session: Close must
	// drain handler, heartbeat, writer, and finalizer goroutines either way.
	clients[0].Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for _, cl := range clients[1:] {
		cl.Close()
	}
	waitNoRemoteGoroutines(t, base, "Daemon.Close")
}

// TestCloseSurfacesWindowStalledTail: against a collector that grants a
// credit window and then never acks, Close must not report success while
// records are still stalled behind the window — and must abort the
// connection so the server cannot mistake the stream for complete.
func TestCloseSurfacesWindowStalledTail(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srvErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			srvErr <- err
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if _, err := br.ReadString('\n'); err != nil { // handshake
			srvErr <- err
			return
		}
		fmt.Fprintf(conn, "%s0 4\n", ackPrefix) // window of 4, then silence
		_, err = io.Copy(io.Discard, br)        // clean EOF only on half-close
		srvErr <- err
	}()

	o := fastClient()
	o.SessionID = "stalled"
	o.DrainTimeout = 50 * time.Millisecond
	cl, err := DialOptions(ln.Addr().String(), 1, o)
	if err != nil {
		t.Fatal(err)
	}
	var next uint64
	emitMarkers(cl, 1, 10, &next) // 10 records; the window admits 4
	err = cl.Close()
	if err == nil {
		t.Fatal("Close reported success with a window-stalled tail")
	}
	if !strings.Contains(err.Error(), "undelivered") {
		t.Errorf("Close error = %v, want undelivered-records report", err)
	}
	// The abort must reach the server as a torn stream, not a clean EOF at
	// a frame boundary (which would finalize the session as complete).
	select {
	case serr := <-srvErr:
		if serr == nil {
			t.Error("server read a clean EOF; an abandoned tail must tear the stream")
		}
	case <-time.After(5 * time.Second):
		t.Error("server never observed the connection ending")
	}
}

// TestDaemonFinalizedSessionRefusedAfterRestart: a finalized session must
// stay sealed — resume attempts are refused permanently both in the same
// daemon life (eviction tombstone) and after a restart over the same
// directory (recovery tombstone), never clobbering the store on disk.
func TestDaemonFinalizedSessionRefusedAfterRestart(t *testing.T) {
	opts := fastDaemon(t)
	d1, err := NewDaemon("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := DialOptions(d1.Addr(), 1, sessionClient("sealed"))
	if err != nil {
		t.Fatal(err)
	}
	var next uint64
	emitMarkers(cl, 1, 20, &next)
	if err := cl.Close(); err != nil {
		t.Fatalf("client close: %v", err)
	}
	waitDone(t, d1, "sealed")

	// Same daemon life: the finalized session is evicted from the live map
	// but a rejoin still gets the permanent typed refusal.
	_, err = DialOptions(d1.Addr(), 1, sessionClient("sealed"))
	var rej *ErrRejected
	if !errors.As(err, &rej) || rej.Reason != RejectClosed || rej.RetryAfter >= 0 {
		t.Fatalf("rejoin of finalized session = %v, want permanent *ErrRejected(%s)", err, RejectClosed)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restarted daemon over the same directory: still refused, store intact.
	d2, err := NewDaemon("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	_, err = DialOptions(d2.Addr(), 1, sessionClient("sealed"))
	if !errors.As(err, &rej) || rej.Reason != RejectClosed || rej.RetryAfter >= 0 {
		t.Fatalf("post-restart rejoin = %v, want permanent *ErrRejected(%s)", err, RejectClosed)
	}
	auditMarkers(t, openSession(t, d2, "sealed"), 1, 20)
}

// TestDaemonBindFailureRecoversNothing: a constructor that cannot bind its
// address must fail before recovery — no writer goroutines, no freshly
// opened segment files — so bind-retry loops don't leak per attempt.
func TestDaemonBindFailureRecoversNothing(t *testing.T) {
	base := remoteGoroutines()
	blocker, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer blocker.Close()
	dir := t.TempDir()
	sdir := filepath.Join(dir, "partial")
	if err := os.MkdirAll(sdir, 0o777); err != nil {
		t.Fatal(err)
	}
	if err := writeSessionMeta(iofault.OS(), sdir, &sessionMeta{
		SessionID: "partial", ClientID: "c", NumRanks: 1,
	}); err != nil {
		t.Fatal(err)
	}
	opts := fastDaemon(t)
	opts.Dir = dir
	if _, err := NewDaemon(blocker.Addr().String(), opts); err == nil {
		t.Fatal("NewDaemon bound an address another listener holds")
	}
	segs, _ := filepath.Glob(filepath.Join(sdir, sessionBase+"-*.trace"))
	if len(segs) != 0 {
		t.Errorf("failed bind left %d segment file(s) behind: %v", len(segs), segs)
	}
	waitNoRemoteGoroutines(t, base, "failed NewDaemon")
}

// TestDaemonRejectsV1 documents that the daemon refuses the pre-session
// v1 and v2 handshakes instead of accepting records it cannot attribute to
// a session or resume.
func TestDaemonRejectsV1(t *testing.T) {
	for _, tc := range []struct{ name, line string }{
		{"v1", "TDBGREMOTE1 2\n"},
		{"v2", "TDBGREMOTE2 2 oldie\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewDaemon("127.0.0.1:0", fastDaemon(t))
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			conn, err := net.Dial("tcp", d.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write([]byte(tc.line)); err != nil {
				t.Fatal(err)
			}
			waitFor(t, tc.name+" refusal", func() bool {
				for _, e := range d.Errs() {
					if strings.Contains(e.Error(), "requires v3") {
						return true
					}
				}
				return false
			})
			if n := len(d.Sessions()); n != 0 {
				t.Errorf("%s handshake opened %d session(s)", tc.name, n)
			}
		})
	}
}
