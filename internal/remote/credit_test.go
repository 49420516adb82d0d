package remote

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tracedbg/internal/obs"
	"tracedbg/internal/store"
	"tracedbg/internal/trace"
)

// defaultWindow is the credit window a zero-value daemon advertises.
var defaultWindow = DaemonOptions{}.withDefaults().QueueRecords

// shippedDaemon starts a daemon with the zero-value options but for where it
// writes: the configuration `tcollect -daemon` ships.
func shippedDaemon(t *testing.T) *Daemon {
	t.Helper()
	d, err := NewDaemon("127.0.0.1:0", DaemonOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// streamRecords builds n records that differ in every field a mix-up of
// order, rank or payload would disturb.
func streamRecords(ranks, n int) []trace.Record {
	recs := make([]trace.Record, n)
	markers := make([]uint64, ranks)
	for i := range recs {
		r := i % ranks
		markers[r]++
		recs[i] = trace.Record{
			Kind: trace.KindSend, Rank: r, Marker: markers[r],
			Start: int64(2 * i), End: int64(2*i + 1),
			Src: r, Dst: (r + 1) % ranks, Tag: i % 7, Bytes: 8 * (i%5 + 1), MsgID: uint64(i + 1),
		}
	}
	return recs
}

// durableCount is the session's durable record count as the daemon reports it.
func durableCount(d *Daemon, session string) uint64 {
	for _, s := range d.Sessions() {
		if s.ID == session {
			return s.Durable
		}
	}
	return 0
}

// auditStream fails unless the session store holds want, record for record in
// emit order, and nothing beyond it.
func auditStream(t *testing.T, d *Daemon, session string, want []trace.Record) {
	t.Helper()
	st, err := store.Open(d.SessionManifest(session))
	if err != nil {
		t.Fatalf("store.Open(%s): %v", session, err)
	}
	defer st.Close()
	cur, err := st.All()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for i := range want {
		rec, err := cur.Next()
		if err != nil {
			t.Fatalf("record %d of %d: %v", i+1, len(want), err)
		}
		if *rec != want[i] {
			t.Fatalf("record %d differs: stored %v, emitted %v", i+1, rec, &want[i])
		}
	}
	if rec, err := cur.Next(); err != io.EOF {
		t.Fatalf("store holds more than the %d records emitted: %v, %v", len(want), rec, err)
	}
}

// TestCreditFollowsDurabilityAtDefaults: at shipped defaults a burst of eight
// windows must not wait out eight keepalive periods — credit is granted as
// records land, so Close returns in well under one keepalive per window.
func TestCreditFollowsDurabilityAtDefaults(t *testing.T) {
	d := shippedDaemon(t)
	recs := streamRecords(4, 8*defaultWindow)
	cl, err := DialOptions(d.Addr(), 4, ClientOptions{SessionID: "burst", SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		cl.Emit(&recs[i])
	}
	t0 := time.Now()
	if err := cl.Close(); err != nil {
		t.Fatalf("client close: %v", err)
	}
	if took := time.Since(t0); took >= time.Second {
		t.Errorf("Close took %v draining %d windows; credit is still riding the keepalive", took, 8)
	}
	waitDone(t, d, "burst")
	if got := durableCount(d, "burst"); got != uint64(len(recs)) {
		t.Errorf("durable = %d, want %d", got, len(recs))
	}
	auditStream(t, d, "burst", recs)
}

// TestCreditEmitOnlyClientDelivers: a client that only ever calls Emit — no
// Flush, no Close — still gets every record durable: hitting the window limit
// pushes the granted window out, and each ack pushes the next.
func TestCreditEmitOnlyClientDelivers(t *testing.T) {
	d := shippedDaemon(t)
	recs := streamRecords(2, 3*defaultWindow)
	cl, err := DialOptions(d.Addr(), 2, ClientOptions{SessionID: "emit-only", SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		cl.Emit(&recs[i])
	}
	waitFor(t, "every emitted record durable without Flush or Close", func() bool {
		return durableCount(d, "emit-only") == uint64(len(recs))
	})
	if err := cl.Close(); err != nil {
		t.Fatalf("client close: %v", err)
	}
	waitDone(t, d, "emit-only")
	auditStream(t, d, "emit-only", recs)
}

// TestAckCoalescing: credit grants are coalesced to a quarter window. A
// client that makes every record durable on its own (the follow workload's
// shape, and the worst case for an ack-per-advance sender) earns one ack per
// quarter window plus the keepalives that fall inside the run.
func TestAckCoalescing(t *testing.T) {
	const n = 1000
	d := shippedDaemon(t)
	cl, err := DialOptions(d.Addr(), 1, ClientOptions{SessionID: "paced", SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	before := metrics().collHeartbeats.Value()
	t0 := time.Now()
	var next uint64
	for i := 1; i <= n; i++ {
		emitMarkers(cl, 1, 1, &next)
		cl.Flush()
		waitFor(t, "record durable", func() bool { return durableCount(d, "paced") == uint64(i) })
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("client close: %v", err)
	}
	waitDone(t, d, "paced")
	acks := metrics().collHeartbeats.Value() - before
	keepalives := uint64(time.Since(t0)/DaemonOptions{}.withDefaults().Heartbeat) + 1
	if limit := uint64(n/(defaultWindow/4)) + 1 + keepalives; acks > limit {
		t.Errorf("%d acks for %d single-record durable advances, want <= %d (one per quarter window + %d keepalives)",
			acks, n, limit, keepalives)
	}
	auditMarkers(t, openSession(t, d, "paced"), 1, n)
}

// frontDoor listens beside the daemon and hands every connection it accepts
// to the daemon as the daemon's own accept loop would, after wrap (given the
// connection's ordinal) has had the chance to put a faulty net.Conn around
// it. Clients dial the returned address.
func frontDoor(t *testing.T, d *Daemon, wrap func(n int, conn net.Conn) net.Conn) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for n := 0; ; n++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn = wrap(n, conn)
			d.mu.Lock()
			d.conns[conn] = phaseHandshake
			d.wg.Add(1)
			d.mu.Unlock()
			go d.serveConn(conn)
		}
	}()
	return ln.Addr().String()
}

// stuckWriteConn is a connection whose writes start timing out on demand,
// the way a peer that stops reading eventually makes them.
type stuckWriteConn struct {
	net.Conn
	stuck atomic.Bool
}

func (c *stuckWriteConn) Write(p []byte) (int, error) {
	if c.stuck.Load() {
		return 0, os.ErrDeadlineExceeded
	}
	return c.Conn.Write(p)
}

// syncBuffer is an event-log sink safe to read while the daemon writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestAckWriteFailureClosesConnection: an ack that cannot be written must
// cost the connection, not the session's credit. The sender closes the
// connection and says why; the client notices, reconnects, and the session
// resumes from accepted with nothing lost or repeated. (Before, the sender
// exited and left both ends connected with no one granting credit.)
func TestAckWriteFailureClosesConnection(t *testing.T) {
	var events syncBuffer
	obs.SetEvents(obs.NewEventLog(&events, obs.LevelWarn))
	defer obs.SetEvents(nil)

	opts := fastDaemon(t)
	opts.QueueRecords = 16
	d, err := NewDaemon("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	first := make(chan *stuckWriteConn, 1)
	front := frontDoor(t, d, func(n int, conn net.Conn) net.Conn {
		if n > 0 {
			return conn
		}
		sc := &stuckWriteConn{Conn: conn}
		first <- sc
		return sc
	})

	cl, err := DialOptions(front, 1, sessionClient("flaky-acks"))
	if err != nil {
		t.Fatal(err)
	}
	const half = 100 // several windows either side of the failure
	var next uint64
	emitMarkers(cl, 1, half, &next)
	cl.Flush()
	waitFor(t, "first half durable", func() bool { return durableCount(d, "flaky-acks") == half })

	reconnects := metrics().clientReconnects.Value()
	(<-first).stuck.Store(true)
	emitMarkers(cl, 1, half, &next)
	cl.Flush()
	waitFor(t, "client reconnected after the failed ack", func() bool {
		return metrics().clientReconnects.Value() > reconnects
	})
	if err := cl.Close(); err != nil {
		t.Fatalf("client close: %v", err)
	}
	waitDone(t, d, "flaky-acks")
	tr := openSession(t, d, "flaky-acks")
	if tr.Incomplete() {
		t.Errorf("resumed session incomplete: %s", tr.IncompleteReason())
	}
	auditMarkers(t, tr, 1, 2*half)
	if log := events.String(); !strings.Contains(log, `"daemon.ack_write_failed"`) ||
		!strings.Contains(log, `"session":"flaky-acks"`) {
		t.Errorf("no daemon.ack_write_failed event naming the session in:\n%s", log)
	}
}

// killLineLostConn tears the connection down instead of delivering the
// TDBGQUO line: the outage that used to turn one kill into two error types.
type killLineLostConn struct{ net.Conn }

func (c killLineLostConn) Write(p []byte) (int, error) {
	if strings.HasPrefix(string(p), quoPrefix) {
		c.Conn.Close() //nolint:errcheck // the test is severing the link
		return 0, net.ErrClosed
	}
	return c.Conn.Write(p)
}

// TestDaemonKillReasonOneErrorType: a session killed for reason R ends the
// client with *ErrQuotaExceeded{R} whichever message carried R — the in-band
// TDBGQUO line (TestDaemonQuotaKill) or, when that line is lost with the
// connection, the permanent TDBGREJ the resume attempt is refused with.
func TestDaemonKillReasonOneErrorType(t *testing.T) {
	opts := fastDaemon(t)
	opts.SessionQuotaRecords = 10
	d, err := NewDaemon("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	front := frontDoor(t, d, func(_ int, conn net.Conn) net.Conn { return killLineLostConn{conn} })

	cl, err := DialOptions(front, 1, sessionClient("hog"))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var next uint64
	emitMarkers(cl, 1, 50, &next)
	cl.Flush()
	waitFor(t, "kill surfaced to the client", func() bool { return cl.Err() != nil })
	var quo *ErrQuotaExceeded
	if !errors.As(cl.Err(), &quo) || quo.Reason != QuotaSessionRecords {
		t.Fatalf("client error = %v, want *ErrQuotaExceeded{%s}", cl.Err(), QuotaSessionRecords)
	}
}

// TestSpillKeepsMemWindowBounded: ten times MemLimit emitted into an outage
// never holds more than MemLimit records in memory, spills in batches (so
// Emit's amortised cost does not grow with MemLimit), and replays spill file
// plus memory into the restarted daemon with no gap and no duplicate — and
// again, from the top of the spill file, into a daemon that lost everything.
func TestSpillKeepsMemWindowBounded(t *testing.T) {
	const memLimit, total = 64, 10 * 64
	opts := fastDaemon(t)
	d, err := NewDaemon("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	addr := d.Addr()
	co := sessionClient("spilled")
	co.MemLimit = memLimit
	co.SpillDir = t.TempDir()
	cl, err := DialOptions(addr, 1, co)
	if err != nil {
		t.Fatal(err)
	}
	var next uint64
	emitMarkers(cl, 1, 1, &next)
	cl.Flush()
	waitFor(t, "first record durable", func() bool { return durableCount(d, "spilled") == 1 })
	d.Kill() // forced outage: everything from here is buffered, then replayed

	spills, lastBase := 0, uint64(0)
	for i := 1; i < total; i++ {
		emitMarkers(cl, 1, 1, &next)
		cl.mu.Lock()
		held, base := len(cl.mem), cl.memBase
		cl.mu.Unlock()
		if held > memLimit {
			t.Fatalf("after %d emits the client holds %d records in memory, MemLimit %d", i+1, held, memLimit)
		}
		if base != lastBase {
			spills, lastBase = spills+1, base
		}
	}
	if limit := total/(memLimit/4) + 1; spills == 0 || spills > limit {
		t.Errorf("%d spill batches for %d records past MemLimit %d, want 1..%d", spills, total, memLimit, limit)
	}

	d2 := restartDaemon(t, addr, opts)
	waitFor(t, "spill and memory replayed into the restarted daemon", func() bool {
		return durableCount(d2, "spilled") == total
	})
	d2.Kill()

	// A daemon with an empty directory acknowledges 0: the readback cursor,
	// by now at the end of the spill file, must rewind and replay it all.
	opts.Dir = t.TempDir()
	d3 := restartDaemon(t, addr, opts)
	defer d3.Close()
	waitFor(t, "full history replayed into the empty daemon", func() bool {
		return durableCount(d3, "spilled") == total
	})
	if err := cl.Close(); err != nil {
		t.Fatalf("client close: %v", err)
	}
	waitDone(t, d3, "spilled")
	tr := openSession(t, d3, "spilled")
	if tr.Incomplete() {
		t.Errorf("replayed session incomplete: %s", tr.IncompleteReason())
	}
	auditMarkers(t, tr, 1, total)
}

// BenchmarkEmitPastMemLimit pins Emit's amortised cost once the client is
// spilling: ns/op must not grow with MemLimit (it did, linearly, when every
// Emit shifted the whole buffer down by one record).
func BenchmarkEmitPastMemLimit(b *testing.B) {
	for _, memLimit := range []int{1024, 4096, 16384} {
		b.Run("MemLimit"+strconv.Itoa(memLimit), func(b *testing.B) {
			// A disconnected client: Emit buffers and spills, nothing else.
			cl := &Client{
				opts:     ClientOptions{MemLimit: memLimit, SpillDir: b.TempDir()}.withDefaults(),
				numRanks: 1,
				closedCh: make(chan struct{}),
			}
			defer cl.Close() //nolint:errcheck // reports the records this benchmark never meant to send
			rec := trace.Record{Kind: trace.KindMarker}
			for i := 0; i < memLimit; i++ {
				cl.Emit(&rec)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec.Marker++
				cl.Emit(&rec)
			}
		})
	}
}
