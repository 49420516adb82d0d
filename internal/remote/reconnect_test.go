package remote

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tracedbg/internal/trace"
)

// fastClient returns options tuned for test-speed reconnection.
func fastClient() ClientOptions {
	return ClientOptions{
		MaxRetries:  -1, // the test controls how long the outage lasts
		BackoffBase: 2 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
	}
}

// emitMarkers emits n records per rank with contiguous marker values
// continuing from *next, bumping per-rank clocks monotonically.
func emitMarkers(cl *Client, ranks, n int, next *uint64) {
	for i := 0; i < n; i++ {
		*next++
		for r := 0; r < ranks; r++ {
			cl.Emit(&trace.Record{
				Kind: trace.KindMarker, Rank: r, Marker: *next,
				Start: int64(*next), End: int64(*next),
			})
		}
	}
}

// auditMarkers fails the test unless every rank's stream is exactly the
// contiguous marker sequence 1..want — no gaps (lost records) and no
// repeats (duplicated records).
func auditMarkers(t *testing.T, tr *trace.Trace, ranks int, want uint64) {
	t.Helper()
	for r := 0; r < ranks; r++ {
		recs := tr.Rank(r)
		if uint64(len(recs)) != want {
			t.Fatalf("rank %d: %d records, want %d", r, len(recs), want)
		}
		for i, rec := range recs {
			if rec.Marker != uint64(i+1) {
				t.Fatalf("rank %d record %d: marker %d, want %d (gap or duplicate)", r, i, rec.Marker, i+1)
			}
		}
	}
}

// durableOf reports a session's durable record count on d.
func durableOf(d *Daemon, session string) uint64 {
	for _, s := range d.Sessions() {
		if s.ID == session {
			return s.Durable
		}
	}
	return 0
}

// TestKillAndRestartCollectorLosesNothing: the daemon dies mid-run and a
// stateless one (fresh directory) takes over its address. It acknowledges
// 0 records, so the client retransmits the full history, and the session
// holds every record exactly once.
func TestKillAndRestartCollectorLosesNothing(t *testing.T) {
	const ranks = 2
	opts := fastDaemon(t)
	d1, err := NewDaemon("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	addr := d1.Addr()
	cl, err := DialOptions(addr, ranks, sessionClient("restart"))
	if err != nil {
		t.Fatal(err)
	}

	var next uint64
	emitMarkers(cl, ranks, 50, &next)
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first batch durable", func() bool { return durableOf(d1, "restart") == 50*ranks })

	// The daemon dies mid-run, leaving the session unfinalized; the client
	// keeps emitting into its buffer.
	d1.Kill()
	meta, err := d1.readSessionMeta(filepath.Join(opts.Dir, "restart"))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Complete || meta.Incomplete != "" {
		t.Errorf("killed daemon finalized the session: %+v", meta)
	}
	emitMarkers(cl, ranks, 50, &next)

	opts.Dir = t.TempDir()
	d2 := restartDaemon(t, addr, opts)
	defer d2.Close()
	emitMarkers(cl, ranks, 50, &next)
	cl.Flush()
	waitFor(t, "resumed stream durable", func() bool { return durableOf(d2, "restart") == 150*ranks })
	if err := cl.Close(); err != nil {
		t.Errorf("client close: %v", err)
	}
	if cl.Err() != nil {
		t.Errorf("client error: %v", cl.Err())
	}
	waitDone(t, d2, "restart")
	got := openSession(t, d2, "restart")
	if err := got.Validate(); err != nil {
		t.Fatalf("merged trace invalid: %v", err)
	}
	if got.Incomplete() {
		t.Errorf("resent session incomplete: %s", got.IncompleteReason())
	}
	auditMarkers(t, got, ranks, 150)
	if errs := d2.Errs(); len(errs) != 0 {
		t.Errorf("daemon errors: %v", errs)
	}
}

// TestClientSpillsToDiskDuringOutage: records emitted while the daemon is
// down overflow to the spill file, and a stateless replacement daemon is
// replayed all of them from it.
func TestClientSpillsToDiskDuringOutage(t *testing.T) {
	opts := fastDaemon(t)
	d1, err := NewDaemon("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	addr := d1.Addr()
	co := sessionClient("spill")
	co.MemLimit = 8
	co.SpillDir = t.TempDir()
	cl, err := DialOptions(addr, 1, co)
	if err != nil {
		t.Fatal(err)
	}
	d1.Kill()

	var next uint64
	emitMarkers(cl, 1, 100, &next)
	cl.mu.Lock()
	spillPath, memBase := cl.spillPath, cl.memBase
	cl.mu.Unlock()
	if spillPath == "" || memBase == 0 {
		t.Fatalf("no spill after 100 records with MemLimit=8 (memBase=%d)", memBase)
	}
	if _, err := os.Stat(spillPath); err != nil {
		t.Fatalf("spill file: %v", err)
	}

	opts.Dir = t.TempDir()
	d2 := restartDaemon(t, addr, opts)
	defer d2.Close()
	cl.Flush()
	waitFor(t, "spilled records resent", func() bool { return durableOf(d2, "spill") == 100 })
	if err := cl.Close(); err != nil {
		t.Errorf("client close: %v", err)
	}
	if _, err := os.Stat(spillPath); !os.IsNotExist(err) {
		t.Errorf("spill file not removed on close: %v", err)
	}
	waitDone(t, d2, "spill")
	auditMarkers(t, openSession(t, d2, "spill"), 1, 100)
}

// TestCollectorIdleTimeout: a peer that handshakes, sends a stream header
// and goes silent is cut loose instead of holding its session forever; the
// session then waits for a resume, and a drain finalizes it incomplete.
func TestCollectorIdleTimeout(t *testing.T) {
	opts := fastDaemon(t)
	opts.IdleTimeout = 30 * time.Millisecond
	d, err := NewDaemon("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	conn, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(handshakeV3 + "2 mute mute\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.NewFileWriter(conn, 2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "idle drop", func() bool {
		for _, e := range d.Errs() {
			if strings.Contains(e.Error(), "idle timeout") {
				return true
			}
		}
		return false
	})
	waitFor(t, "session reported disconnected", func() bool {
		ss := d.Sessions()
		return len(ss) == 1 && !ss[0].Connected
	})
	if err := d.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if tr := openSession(t, d, "mute"); !tr.Incomplete() {
		t.Error("idle-dropped session did not finalize incomplete")
	}
}

// TestCollectorCloseDuringHandshake: a connection that never sends its
// handshake must not wedge Close.
func TestCollectorCloseDuringHandshake(t *testing.T) {
	d, err := NewDaemon("127.0.0.1:0", fastDaemon(t))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	time.Sleep(20 * time.Millisecond) // let the daemon accept it
	done := make(chan struct{})
	go func() {
		d.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung on a half-open handshake connection")
	}
}

// waitFor polls cond until it holds or a 5s deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
