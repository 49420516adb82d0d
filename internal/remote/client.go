package remote

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"tracedbg/internal/obs"
	"tracedbg/internal/trace"
)

// ClientOptions tunes the client's buffering and reconnection machinery.
// Zero values select defaults.
type ClientOptions struct {
	// ID is the stable client identity used for resume after reconnects.
	// Default: a random 16-hex-digit string.
	ID string
	// SessionID names the daemon session the records land in: the
	// directory under the daemon's root and the identity a resume reattaches
	// to. Default "c-" + ID, one session per client.
	SessionID string
	// DrainTimeout bounds how long Close waits for the daemon's credit
	// window to admit the remaining backlog. Default 30s.
	DrainTimeout time.Duration
	// MaxRetries bounds consecutive failed reconnect attempts before the
	// client gives up and sets Err. Default 10; negative means unlimited.
	MaxRetries int
	// BackoffBase is the first reconnect delay; each attempt doubles it up
	// to BackoffMax, with random jitter. Defaults 50ms and 5s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MemLimit is the number of records held in memory before the oldest
	// overflow to a disk spill file. Default 4096.
	MemLimit int
	// SpillDir is where the spill file is created. Default os.TempDir().
	SpillDir string
	// HandshakeTimeout bounds the wait for the collector's TDBGACK reply.
	// Default 5s.
	HandshakeTimeout time.Duration
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.ID == "" {
		var b [8]byte
		if _, err := rand.Read(b[:]); err == nil {
			o.ID = hex.EncodeToString(b[:])
		} else {
			o.ID = "client"
		}
	}
	if o.SessionID == "" {
		o.SessionID = "c-" + o.ID
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 10
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
	if o.MemLimit <= 0 {
		o.MemLimit = 4096
	}
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = 5 * time.Second
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 30 * time.Second
	}
	return o
}

// Client is an instrumentation sink that streams records to a collector.
// It is safe for concurrent use by all rank goroutines.
//
// Every emitted record is buffered — in memory up to MemLimit records,
// beyond that in an append-only disk spill file — until Close. The buffer
// is the source of truth for retransmission: when the connection drops the
// client reconnects with exponential backoff, learns from the collector's
// handshake acknowledgement how many records arrived, and retransmits
// exactly the rest. The spill file is never pruned, so even a collector
// that restarts from scratch (acknowledging 0) can be replayed the full
// history with no gaps and no duplicates.
type Client struct {
	opts     ClientOptions
	addr     string
	numRanks int

	mu      sync.Mutex
	mem     []trace.Record // records memBase+1 .. total, in emit order
	memBase uint64         // records 1 .. memBase live in the spill file
	total   uint64         // records emitted so far
	acked   uint64         // records the collector has acknowledged
	sent    uint64         // records written to the current connection
	win     uint64         // absolute send limit: acked + credit window

	spillPath string
	spillF    *os.File
	spillBW   *bufio.Writer
	spillFW   *trace.FileWriter

	// Readback cursor over the spill file: spillSc has yielded the first
	// spillRead records, so a pump that continues where the last one stopped
	// (the steady state of a client outrunning its collector) reads on
	// instead of rescanning the file from the top.
	spillRF   *os.File
	spillSc   *trace.Scanner
	spillRead uint64

	conn    net.Conn
	connGen int // bumped on every (re)attach; stale goroutines check it
	bw      *bufio.Writer
	fw      *trace.FileWriter
	dirty   bool // records written to fw since the last flushLocked

	err          error // fatal: retries exhausted
	closed       bool
	closedCh     chan struct{}
	reconnecting bool
	wg           sync.WaitGroup
}

// Dial connects to a collector with default options.
func Dial(addr string, numRanks int) (*Client, error) {
	return DialOptions(addr, numRanks, ClientOptions{})
}

// DialOptions connects to a collector and performs the handshake. The
// initial connection is synchronous — a collector that is down at start is
// an immediate error; later outages are retried in the background.
func DialOptions(addr string, numRanks int, opts ClientOptions) (*Client, error) {
	cl := &Client{
		opts:     opts.withDefaults(),
		addr:     addr,
		numRanks: numRanks,
		closedCh: make(chan struct{}),
	}
	conn, br, ack, win, err := cl.connect()
	if err != nil {
		return nil, err
	}
	cl.mu.Lock()
	err = cl.attachLocked(conn, br, ack, win)
	cl.mu.Unlock()
	if err != nil {
		conn.Close() //nolint:ioerr // dial teardown; the attach error is surfaced
		return nil, err
	}
	return cl, nil
}

// ID returns the client's resume identity.
func (cl *Client) ID() string { return cl.opts.ID }

// connect dials and handshakes, returning the connection, its buffered
// reader (which owns the ack heartbeat stream), the daemon's acknowledged
// record count and its credit window. A typed *ErrRejected is returned when
// the daemon refuses admission.
func (cl *Client) connect() (net.Conn, *bufio.Reader, uint64, uint64, error) {
	conn, err := net.Dial("tcp", cl.addr)
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("remote: dial: %w", err)
	}
	if _, err := fmt.Fprintf(conn, "%s%d %s %s\n", handshakeV3, cl.numRanks, cl.opts.ID, cl.opts.SessionID); err != nil {
		conn.Close() //nolint:ioerr // handshake teardown; the handshake error is surfaced
		return nil, nil, 0, 0, fmt.Errorf("remote: handshake: %w", err)
	}
	conn.SetReadDeadline(time.Now().Add(cl.opts.HandshakeTimeout))
	br := bufio.NewReaderSize(conn, 1<<16)
	line, err := br.ReadString('\n')
	if err != nil {
		conn.Close() //nolint:ioerr // handshake teardown; the handshake error is surfaced
		return nil, nil, 0, 0, fmt.Errorf("remote: handshake ack: %w", err)
	}
	conn.SetReadDeadline(time.Time{})
	if strings.HasPrefix(line, rejPrefix) {
		conn.Close() //nolint:ioerr // handshake teardown; the rejection is surfaced
		metrics().clientRejections.Inc()
		return nil, nil, 0, 0, parseReject(line)
	}
	ack, win, ok := parseAck(line)
	if !ok {
		conn.Close() //nolint:ioerr // handshake teardown; the protocol error is surfaced
		return nil, nil, 0, 0, fmt.Errorf("remote: bad handshake ack %q", strings.TrimSpace(line))
	}
	return conn, br, ack, win, nil
}

// attachLocked installs a fresh connection and retransmits everything the
// daemon has not acknowledged, bounded by the credit window the handshake
// granted. Caller holds cl.mu.
func (cl *Client) attachLocked(conn net.Conn, br *bufio.Reader, ack, win uint64) error {
	bw := bufio.NewWriterSize(conn, 1<<16)
	fw, err := trace.NewFileWriterOptions(bw, cl.numRanks, cl.writerOptions())
	if err != nil {
		return err
	}
	cl.conn = conn
	cl.connGen++
	cl.bw = bw
	cl.fw = fw
	if ack > cl.total {
		ack = cl.total // a confused collector cannot ack the future
	}
	cl.acked = ack
	cl.sent = ack
	cl.win = ack + win
	m := metrics()
	m.clientResumeGap.Observe(cl.total - ack)
	m.clientUnacked.Set(int64(cl.total - ack))
	err = cl.sendRangeLocked(ack, cl.sendLimitLocked())
	if err == nil {
		err = cl.flushLocked()
	}
	if err != nil {
		cl.conn = nil
		cl.bw, cl.fw = nil, nil
		return fmt.Errorf("remote: retransmit: %w", err)
	}
	cl.wg.Add(1)
	go cl.ackReader(conn, br, cl.connGen)
	return nil
}

// sendLimitLocked returns the highest record count the window lets us send.
func (cl *Client) sendLimitLocked() uint64 {
	return min(cl.win, cl.total)
}

// sendRangeLocked writes records from+1 .. to to the current writer,
// reading the spilled prefix back from disk if the resume point predates
// the in-memory window, and advances cl.sent.
func (cl *Client) sendRangeLocked(from, to uint64) error {
	if to > cl.total {
		to = cl.total
	}
	if from >= to {
		return nil
	}
	cl.dirty = true
	if from < cl.memBase {
		if err := cl.flushSpillLocked(); err != nil {
			return err
		}
		if cl.spillSc == nil || cl.spillRead > from {
			// First readback, or a resume point behind the cursor.
			if err := cl.rewindSpillLocked(); err != nil {
				return err
			}
		}
		for end := min(to, cl.memBase); cl.spillRead < end; {
			rec, err := cl.spillSc.Next()
			if err != nil {
				cl.closeSpillReaderLocked()
				return fmt.Errorf("spill readback at record %d: %w", cl.spillRead+1, err)
			}
			cl.spillRead++
			if cl.spillRead <= from {
				continue // already acknowledged
			}
			if err := cl.fw.Write(rec); err != nil {
				return err
			}
		}
		if to <= cl.memBase {
			cl.sent = to
			return nil
		}
		from = cl.memBase
	}
	for i := from - cl.memBase; i < to-cl.memBase; i++ {
		if err := cl.fw.Write(&cl.mem[i]); err != nil {
			return err
		}
	}
	cl.sent = to
	return nil
}

// writerOptions stamps the client's identity into the headers of both its
// spill file and the wire stream (the checksummed chunk framing rides along
// automatically for either sink).
func (cl *Client) writerOptions() trace.WriterOptions {
	return trace.WriterOptions{Writer: "tdbg-client/" + cl.opts.ID}
}

// flushLocked seals what has been written to fw into a chunk frame and
// pushes it, with everything bw still holds, onto the wire. Caller holds
// cl.mu with a live connection.
func (cl *Client) flushLocked() error {
	cl.dirty = false
	if err := cl.fw.Flush(); err != nil {
		return err
	}
	return cl.bw.Flush()
}

// rewindSpillLocked (re)opens the readback cursor at the top of the spill
// file. The writer side must have been flushed: the scanner only ever reads
// records that are already in sealed chunk frames on disk.
func (cl *Client) rewindSpillLocked() error {
	cl.closeSpillReaderLocked()
	f, err := os.Open(cl.spillPath)
	if err != nil {
		return err
	}
	sc, err := trace.NewScanner(bufio.NewReaderSize(f, 1<<16))
	if err != nil {
		f.Close() //nolint:ioerr // read handle; the header error is surfaced
		return err
	}
	cl.spillRF, cl.spillSc, cl.spillRead = f, sc, 0
	return nil
}

func (cl *Client) closeSpillReaderLocked() {
	if cl.spillRF != nil {
		cl.spillRF.Close() //nolint:ioerr // read handle on the spill file
		cl.spillRF, cl.spillSc, cl.spillRead = nil, nil, 0
	}
}

func (cl *Client) flushSpillLocked() error {
	if cl.spillFW == nil {
		return nil
	}
	if err := cl.spillFW.Flush(); err != nil {
		return err
	}
	if err := cl.spillBW.Flush(); err != nil {
		return err
	}
	// The spill file is the retransmission source of truth after a crash:
	// force it to stable storage whenever its contents are about to matter.
	return cl.spillF.Sync()
}

// spillLocked moves the oldest n in-memory records to the spill file.
func (cl *Client) spillLocked(n int) error {
	if cl.spillFW == nil {
		dir := cl.opts.SpillDir
		if dir == "" {
			dir = os.TempDir()
		}
		f, err := os.CreateTemp(dir, "tdbg-spill-*.trace")
		if err != nil {
			return err
		}
		if l := obs.Events(); l.Enabled(obs.LevelInfo) {
			l.Log(obs.LevelInfo, "remote.spill_open",
				obs.F("client", cl.opts.ID), obs.F("path", f.Name()))
		}
		bw := bufio.NewWriterSize(&countingWriter{w: f, c: metrics().clientSpillBytes}, 1<<16)
		fw, err := trace.NewFileWriterOptions(bw, cl.numRanks, cl.writerOptions())
		if err != nil {
			f.Close()           //nolint:ioerr // error path; the spill-setup error is surfaced
			os.Remove(f.Name()) //nolint:ioerr // best-effort cleanup of the failed spill file
			return err
		}
		cl.spillPath, cl.spillF, cl.spillBW, cl.spillFW = f.Name(), f, bw, fw
	}
	for i := 0; i < n; i++ {
		if err := cl.spillFW.Write(&cl.mem[i]); err != nil {
			return err
		}
	}
	cl.memBase += uint64(n)
	cl.mem = append(cl.mem[:0], cl.mem[n:]...)
	metrics().clientSpillRecords.Add(uint64(n))
	return nil
}

// countingWriter counts bytes flowing to the spill file.
type countingWriter struct {
	w io.Writer
	c *obs.Counter
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.c.Add(uint64(n))
	return n, err
}

// Emit implements the instrumentation Sink interface. Records are always
// buffered; while connected with credit to spare they are also encoded into
// the wire stream's write buffer. Bytes actually leave on Flush, on Close,
// when that buffer fills, when Emit first finds the credit window exhausted
// (the granted window must reach the collector for more to be granted), and
// whenever the ackReader hears from the collector.
func (cl *Client) Emit(rec *trace.Record) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed || cl.err != nil {
		return
	}
	cl.mem = append(cl.mem, *rec)
	cl.total++
	metrics().clientUnacked.Add(1)
	if over := len(cl.mem) - cl.opts.MemLimit; over > 0 {
		// Spill a quarter of the buffer at a time: spilling shifts the
		// survivors down, a copy of the whole slice, so one record per Emit
		// would make every Emit past MemLimit cost O(MemLimit).
		if err := cl.spillLocked(max(over, cl.opts.MemLimit/4)); err != nil {
			// Disk refused the overflow: keep everything in memory rather
			// than drop history; record the condition once.
			cl.err = fmt.Errorf("remote: spill: %w", err)
			return
		}
	}
	if cl.fw == nil {
		return
	}
	if cl.sent >= cl.win || cl.sent < cl.total-1 {
		// Credit window exhausted: the record stays buffered; the ackReader
		// pumps it out when the daemon grants more credit. The same holds
		// while older records are still window-stalled: writing this one now
		// would ship it out of order and again when the pump sends the
		// backlog range, so it waits its turn behind them.
		metrics().clientWindowStalls.Inc()
		if cl.dirty && cl.flushLocked() != nil {
			cl.dropConnLocked()
		}
		return
	}
	if err := cl.fw.Write(rec); err != nil {
		cl.dropConnLocked()
		return
	}
	cl.sent++
	cl.dirty = true
}

// dropConnLocked abandons the current connection and starts the background
// reconnect loop. The record that failed to send stays buffered, so
// nothing is lost. Caller holds cl.mu.
func (cl *Client) dropConnLocked() {
	if cl.conn != nil {
		cl.conn.Close() //nolint:ioerr // dropping a dead conn; unacked records will be resent
		cl.conn = nil
		cl.bw, cl.fw = nil, nil
		cl.connGen++
		metrics().clientDrops.Inc()
		if l := obs.Events(); l.Enabled(obs.LevelWarn) {
			l.Log(obs.LevelWarn, "remote.conn_drop", obs.F("client", cl.opts.ID))
		}
	}
	if !cl.reconnecting && !cl.closed && cl.err == nil {
		cl.reconnecting = true
		cl.wg.Add(1)
		go cl.reconnectLoop()
	}
}

// ackReader consumes TDBGACK lines for one connection. A read error is the
// outage signal: it triggers the reconnect loop. It also applies
// credit-window growth (pumping buffered backlog onto the wire) and terminal
// TDBGQUO quota kills.
func (cl *Client) ackReader(conn net.Conn, br *bufio.Reader, gen int) {
	defer cl.wg.Done()
	var lastAck time.Time
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			cl.mu.Lock()
			if cl.connGen == gen && cl.conn != nil {
				cl.dropConnLocked()
			}
			cl.mu.Unlock()
			return
		}
		if strings.HasPrefix(line, quoPrefix) {
			reason := strings.TrimSpace(strings.TrimPrefix(line, quoPrefix))
			metrics().clientQuotaKills.Inc()
			cl.mu.Lock()
			if cl.connGen == gen {
				if cl.err == nil {
					cl.err = &ErrQuotaExceeded{Reason: reason}
				}
				cl.dropConnLocked() // err set: no reconnect loop starts
			}
			cl.mu.Unlock()
			if l := obs.Events(); l.Enabled(obs.LevelError) {
				l.Log(obs.LevelError, "remote.quota_killed",
					obs.F("client", cl.opts.ID), obs.F("reason", reason))
			}
			return
		}
		if n, win, ok := parseAck(line); ok {
			now := time.Now()
			m := metrics()
			if !lastAck.IsZero() {
				m.clientAckGapNs.Observe(uint64(now.Sub(lastAck)))
			}
			lastAck = now
			cl.mu.Lock()
			if cl.connGen == gen && n > cl.acked && n <= cl.total {
				cl.acked = n
			}
			if cl.connGen == gen && cl.fw != nil {
				if nw := n + win; nw > cl.win {
					cl.win = nw
				}
				cl.pumpLocked()
			}
			m.clientUnacked.Set(int64(cl.total - cl.acked))
			cl.mu.Unlock()
		}
	}
}

// pumpLocked runs on every ack: it pushes as much window-stalled backlog as
// the credit now allows onto the wire, along with anything Emit left in the
// write buffer — so a client that only ever emits still delivers its tail
// within one keepalive. Caller holds cl.mu with a live connection.
func (cl *Client) pumpLocked() {
	err := cl.sendRangeLocked(cl.sent, cl.sendLimitLocked())
	if err == nil && cl.dirty {
		err = cl.flushLocked()
	}
	if err != nil {
		cl.dropConnLocked()
	}
}

// backoff computes the delay before reconnect attempt i: exponential in i,
// capped at BackoffMax, with uniform jitter over the upper half so a fleet
// of clients does not stampede a restarted collector in lockstep.
func (cl *Client) backoff(attempt int) time.Duration {
	d := cl.opts.BackoffBase
	for i := 0; i < attempt && d < cl.opts.BackoffMax; i++ {
		d *= 2
	}
	if d > cl.opts.BackoffMax {
		d = cl.opts.BackoffMax
	}
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	j, err := rand.Int(rand.Reader, big.NewInt(half+1))
	if err != nil {
		return d
	}
	return time.Duration(half + j.Int64())
}

func (cl *Client) reconnectLoop() {
	defer cl.wg.Done()
	var lastErr error
	var retryAfter time.Duration // server-demanded extra wait (admission reject)
	for attempt := 0; ; attempt++ {
		if cl.opts.MaxRetries >= 0 && attempt >= cl.opts.MaxRetries {
			cl.mu.Lock()
			cl.err = fmt.Errorf("remote: gave up after %d reconnect attempts: %w", attempt, lastErr)
			cl.reconnecting = false
			cl.mu.Unlock()
			if l := obs.Events(); l.Enabled(obs.LevelError) {
				l.Log(obs.LevelError, "remote.gave_up",
					obs.F("client", cl.opts.ID), obs.F("attempts", attempt), obs.F("cause", lastErr))
			}
			return
		}
		wait := cl.backoff(attempt)
		if retryAfter > 0 {
			// Respect the server's retry-after hint, keeping the jittered
			// backoff as a floor so rejected clients never retry hot and
			// never stampede back in lockstep when the hint expires.
			wait += retryAfter
			retryAfter = 0
		}
		select {
		case <-cl.closedCh:
			cl.mu.Lock()
			cl.reconnecting = false
			cl.mu.Unlock()
			return
		case <-time.After(wait):
		}
		metrics().clientRetries.Inc()
		conn, br, ack, win, err := cl.connect()
		if err != nil {
			lastErr = err
			var rej *ErrRejected
			if errors.As(err, &rej) {
				if rej.RetryAfter < 0 {
					// Permanent refusal: retrying cannot help.
					cl.mu.Lock()
					cl.err = rej.terminal()
					cl.reconnecting = false
					cl.mu.Unlock()
					if l := obs.Events(); l.Enabled(obs.LevelError) {
						l.Log(obs.LevelError, "remote.rejected_permanent",
							obs.F("client", cl.opts.ID), obs.F("reason", rej.Reason))
					}
					return
				}
				retryAfter = rej.RetryAfter
				if l := obs.Events(); l.Enabled(obs.LevelWarn) {
					l.Log(obs.LevelWarn, "remote.rejected",
						obs.F("client", cl.opts.ID), obs.F("reason", rej.Reason),
						obs.F("retry_after", rej.RetryAfter.String()))
				}
			}
			continue
		}
		cl.mu.Lock()
		if cl.closed {
			cl.reconnecting = false
			cl.mu.Unlock()
			conn.Close() //nolint:ioerr // client closed mid-reconnect; the conn is abandoned
			return
		}
		err = cl.attachLocked(conn, br, ack, win)
		if err == nil {
			cl.reconnecting = false
			cl.mu.Unlock()
			metrics().clientReconnects.Inc()
			if l := obs.Events(); l.Enabled(obs.LevelInfo) {
				l.Log(obs.LevelInfo, "remote.reconnected",
					obs.F("client", cl.opts.ID), obs.F("attempt", attempt+1), obs.F("acked", ack))
			}
			return
		}
		cl.mu.Unlock()
		conn.Close() //nolint:ioerr // attach failed; the retry loop owns the error
		lastErr = err
	}
}

// Flush pushes buffered records onto the wire (monitor flush-on-demand).
// While disconnected it is a no-op: the records stay buffered and flow on
// reconnect.
func (cl *Client) Flush() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.err != nil {
		return cl.err
	}
	if cl.fw == nil {
		return nil
	}
	if cl.flushLocked() != nil {
		cl.dropConnLocked()
	}
	return nil
}

// Err returns the client's fatal error, set when reconnection gives up.
func (cl *Client) Err() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.err
}

// Acked returns how many records the collector has acknowledged.
func (cl *Client) Acked() uint64 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.acked
}

// Total returns how many records have been emitted.
func (cl *Client) Total() uint64 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.total
}

// Close flushes, stops the reconnect machinery, closes the connection and
// deletes the spill file. If the client is disconnected with unsent
// records, Close reports how many were abandoned. Close first waits up to
// DrainTimeout for the daemon's credit grants to admit the remaining
// backlog; if records are still stalled when the wait expires, Close aborts
// the connection (so the daemon sees a torn stream, never a falsely
// complete session) and returns an error naming the abandoned count instead
// of reporting success.
func (cl *Client) Close() error {
	cl.Flush() //nolint:ioerr // tail must hit the wire before acks drain; failure surfaces via cl.err below
	deadline := time.Now().Add(cl.opts.DrainTimeout)
	for {
		cl.mu.Lock()
		drained := cl.closed || cl.err != nil || cl.conn == nil || cl.sent >= cl.total
		cl.mu.Unlock()
		if drained || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil
	}
	cl.closed = true
	var err error
	abandoned := false
	if cl.fw != nil {
		err = cl.flushLocked()
		if err == nil && cl.sent < cl.total {
			// The drain wait expired with records still stalled behind the
			// credit window. They never reached the wire, so a graceful
			// half-close would let the collector finalize the session as
			// complete with the tail missing; surface the loss instead.
			err = fmt.Errorf("remote: closed with %d record(s) undelivered after %v drain wait",
				cl.total-cl.sent, cl.opts.DrainTimeout)
			abandoned = true
		}
	} else if cl.err == nil && cl.total > cl.acked {
		err = fmt.Errorf("remote: closed while disconnected with %d unsent record(s)", cl.total-cl.acked)
	}
	if cl.conn != nil && err == nil {
		// Graceful shutdown: half-close so the collector reads a clean EOF at
		// the frame boundary, then let the ackReader keep draining heartbeats
		// until the collector finalizes and closes its end. A blunt Close here
		// would RST the socket whenever an unread heartbeat sits in our
		// receive buffer, and the collector would see a torn stream instead
		// of a completed session.
		if hc, ok := cl.conn.(interface{ CloseWrite() error }); ok {
			if hc.CloseWrite() == nil {
				cl.bw, cl.fw = nil, nil
				deadline := time.Now().Add(cl.opts.DrainTimeout)
				for cl.conn != nil && time.Now().Before(deadline) {
					cl.mu.Unlock()
					time.Sleep(2 * time.Millisecond)
					cl.mu.Lock()
				}
			}
		}
	}
	if cl.conn != nil {
		if abandoned {
			// Abort rather than shut down: an RST guarantees the collector
			// observes a torn stream and keeps the session open for resume
			// (finalizing it incomplete at drain), instead of reading a clean
			// EOF at the frame boundary and stamping it complete with the
			// stalled tail missing.
			if tc, ok := cl.conn.(*net.TCPConn); ok {
				tc.SetLinger(0)
			}
		}
		cl.conn.Close() //nolint:ioerr // post-drain teardown; acks are already accounted
		cl.conn = nil
		cl.bw, cl.fw = nil, nil
	}
	if cl.err != nil && err == nil {
		err = cl.err
	}
	cl.mu.Unlock()
	close(cl.closedCh)
	cl.wg.Wait()
	cl.mu.Lock()
	cl.closeSpillReaderLocked()
	if cl.spillF != nil {
		cl.spillF.Close()       //nolint:ioerr // spill is discard-only once the session is over
		os.Remove(cl.spillPath) //nolint:ioerr // spill is discard-only once the session is over
		cl.spillF, cl.spillBW, cl.spillFW = nil, nil, nil
	}
	cl.mu.Unlock()
	return err
}
