// Package remote streams execution history over the network — the
// client/server split of the original p2d2, which ran a debug server next
// to each target process and a central debugger UI. Here each world runs a
// Client sink that streams its records to a Collector, which merges the
// streams into one history the debugger consumes (optionally while the
// target is still running, via the same flush-on-demand the local pipeline
// has).
//
// Wire protocol (v2): each connection starts with a handshake line
// ("TDBGREMOTE2 <numRanks> <clientID>\n"); the collector replies with an
// acknowledgement line ("TDBGACK <n>\n") carrying the number of records it
// has already accepted from that client, and then keeps sending TDBGACK
// heartbeats as the stream progresses. After the handshake the connection
// carries an ordinary trace-file stream (the same format trace.FileWriter
// produces), so the collector can reuse the trace.Scanner and files
// captured with tcpdump-style tools stay debuggable.
//
// Record counts double as sequence numbers: TCP delivers the stream in
// order, so "n records accepted" identifies an exact resume point. A
// reconnecting client retransmits only the records after the collector's
// acknowledged count; a freshly restarted (stateless) collector replies
// with 0 and receives the full history again. Either way the merged
// history has no gaps and no duplicates.
//
// The v1 handshake ("TDBGREMOTE1 <numRanks>\n") is still accepted for old
// capture tools; v1 connections get no acknowledgements and no resume.
//
// Wire protocol (v3, daemon mode): the handshake gains a session identity —
// "TDBGREMOTE3 <numRanks> <clientID> <sessionID>\n" — and the collector's
// replies gain resource governance:
//
//	TDBGACK <n> <win>\n   admission, credit grant or keepalive: n records
//	                      durable, the client may have at most win records
//	                      in flight beyond n
//	TDBGREJ <reason> <retryAfterMs>\n   admission refused; retryAfterMs < 0
//	                      means permanent (do not retry)
//	TDBGQUO <reason>\n    terminal mid-session quota kill
//
// The credit window is what keeps an overloaded daemon's memory bounded: a
// v3 client never has more than win unacknowledged-but-sent records
// outstanding, so the daemon's per-session queue (capacity win) cannot be
// overrun by a compliant client, and non-compliant ones fall back to TCP
// backpressure. The single-trace Collector below still speaks v2 (and
// tolerates a v3 handshake by ignoring the session ID); the multi-session
// Daemon is the v3 server.
package remote

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"tracedbg/internal/obs"
	"tracedbg/internal/trace"
)

const (
	handshakeV1 = "TDBGREMOTE1 "
	handshakeV2 = "TDBGREMOTE2 "
	handshakeV3 = "TDBGREMOTE3 "
	ackPrefix   = "TDBGACK "
	rejPrefix   = "TDBGREJ "
	quoPrefix   = "TDBGQUO "
)

// CollectorOptions tunes the collector's liveness machinery. Zero values
// select defaults.
type CollectorOptions struct {
	// Heartbeat is the interval between TDBGACK lines sent to v2 clients
	// (liveness signal plus buffer-pruning information). Default 500ms;
	// negative disables heartbeats.
	Heartbeat time.Duration
	// IdleTimeout drops a connection that has sent nothing for this long —
	// a crashed client holds no socket hostage. 0 disables the timeout.
	IdleTimeout time.Duration
}

func (o CollectorOptions) withDefaults() CollectorOptions {
	if o.Heartbeat == 0 {
		o.Heartbeat = 500 * time.Millisecond
	}
	return o
}

type connPhase int

const (
	phaseHandshake connPhase = iota
	phaseStreaming
)

// Collector accepts client connections and merges their records.
type Collector struct {
	ln   net.Listener
	opts CollectorOptions

	mu       sync.Mutex
	tr       *trace.Trace
	numRanks int
	errs     []error
	recv     map[string]uint64   // records accepted per client ID
	gen      map[string]int      // active connection generation per client ID
	active   map[string]net.Conn // current connection per client ID
	conns    map[net.Conn]connPhase
	closed   bool
	wg       sync.WaitGroup
}

// NewCollector listens on addr (e.g. "127.0.0.1:0") with default options
// and serves until Close.
func NewCollector(addr string) (*Collector, error) {
	return NewCollectorOptions(addr, CollectorOptions{})
}

// NewCollectorOptions listens on addr and serves until Close or Kill.
func NewCollectorOptions(addr string, opts CollectorOptions) (*Collector, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("remote: listen: %w", err)
	}
	c := &Collector{
		ln:     ln,
		opts:   opts.withDefaults(),
		recv:   make(map[string]uint64),
		gen:    make(map[string]int),
		active: make(map[string]net.Conn),
		conns:  make(map[net.Conn]connPhase),
	}
	c.wg.Add(1)
	go c.serve()
	return c, nil
}

// Addr returns the listening address for clients.
func (c *Collector) Addr() string { return c.ln.Addr().String() }

func (c *Collector) serve() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close() //nolint:ioerr // collector closed; the conn is abandoned
			continue
		}
		c.conns[conn] = phaseHandshake
		c.mu.Unlock()
		m := metrics()
		m.collConns.Inc()
		m.collActive.Add(1)
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			err := c.handle(conn)
			conn.Close() //nolint:ioerr // handler exit; append state carries any error
			metrics().collActive.Add(-1)
			c.mu.Lock()
			delete(c.conns, conn)
			if err != nil && !errors.Is(err, io.EOF) && !c.closed {
				// Attach the peer address so a multi-client collector's
				// error log identifies the misbehaving stream.
				c.errs = append(c.errs, fmt.Errorf("remote: client %v: %w", conn.RemoteAddr(), err))
			}
			c.mu.Unlock()
		}()
	}
}

// bumpDeadline pushes the connection's read deadline out by IdleTimeout.
func (c *Collector) bumpDeadline(conn net.Conn) {
	if c.opts.IdleTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(c.opts.IdleTimeout))
	}
}

func (c *Collector) handle(conn net.Conn) error {
	br := bufio.NewReaderSize(conn, 1<<16)
	c.bumpDeadline(conn)
	line, err := br.ReadString('\n')
	if err != nil {
		return fmt.Errorf("handshake: %w", err)
	}

	var clientID string
	var n int
	switch {
	case strings.HasPrefix(line, handshakeV2), strings.HasPrefix(line, handshakeV3):
		// A v3 client talking to the single-trace collector degrades
		// gracefully: the session ID is ignored and the plain v2 ack
		// (no credit window) tells it windowing is off.
		fields := strings.Fields(line)[1:]
		if len(fields) != 2 && !(strings.HasPrefix(line, handshakeV3) && len(fields) == 3) {
			return fmt.Errorf("bad handshake %q", strings.TrimSpace(line))
		}
		n, err = strconv.Atoi(fields[0])
		if err != nil || n <= 0 {
			return fmt.Errorf("bad rank count in handshake %q", strings.TrimSpace(line))
		}
		clientID = fields[1]
	case strings.HasPrefix(line, handshakeV1):
		n, err = strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, handshakeV1)))
		if err != nil || n <= 0 {
			return fmt.Errorf("bad rank count in handshake %q", strings.TrimSpace(line))
		}
	default:
		return fmt.Errorf("bad handshake %q", strings.TrimSpace(line))
	}

	myGen := 0
	if clientID != "" {
		c.mu.Lock()
		// Latest connection per client wins: a client reconnects only after
		// giving up on the old socket, so any straggling handler for it
		// must stop appending before the resumed stream starts.
		if prev := c.active[clientID]; prev != nil && prev != conn {
			prev.Close() //nolint:ioerr // superseded conn; the resumed stream owns the client
		}
		c.gen[clientID]++
		myGen = c.gen[clientID]
		c.active[clientID] = conn
		c.conns[conn] = phaseStreaming
		count := c.recv[clientID]
		c.mu.Unlock()
		if count > 0 {
			metrics().collResumes.Inc()
			if l := obs.Events(); l.Enabled(obs.LevelInfo) {
				l.Log(obs.LevelInfo, "remote.resume",
					obs.F("client", clientID), obs.F("acked", count))
			}
		}
		if _, err := fmt.Fprintf(conn, "%s%d\n", ackPrefix, count); err != nil {
			return fmt.Errorf("handshake ack: %w", err)
		}
	} else {
		c.mu.Lock()
		c.conns[conn] = phaseStreaming
		c.mu.Unlock()
	}

	c.mu.Lock()
	if c.tr == nil {
		c.numRanks = n
		c.tr = trace.New(n)
	} else if c.numRanks != n {
		c.mu.Unlock()
		return fmt.Errorf("rank count mismatch: collector has %d, client sent %d", c.numRanks, n)
	}
	c.mu.Unlock()

	if clientID != "" && c.opts.Heartbeat > 0 {
		stop := make(chan struct{})
		defer close(stop)
		c.wg.Add(1)
		go c.heartbeat(conn, clientID, myGen, stop)
	}

	sc, err := trace.NewScanner(br)
	if err != nil {
		if terr := c.idleDropped(conn, err); terr != nil {
			return terr
		}
		return fmt.Errorf("stream header: %w", err)
	}
	for {
		c.bumpDeadline(conn)
		rec, err := sc.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			if terr := c.idleDropped(conn, err); terr != nil {
				return terr
			}
			return fmt.Errorf("stream: %w", err)
		}
		c.mu.Lock()
		if clientID != "" && c.gen[clientID] != myGen {
			c.mu.Unlock()
			return nil // superseded by a newer connection from this client
		}
		if _, aerr := c.tr.Append(*rec); aerr != nil {
			c.errs = append(c.errs, aerr)
		} else {
			metrics().collReceived.Inc(rec.Rank)
		}
		if clientID != "" {
			c.recv[clientID]++
		}
		c.mu.Unlock()
	}
}

// idleDropped classifies a read error: if it is the idle-timeout deadline
// expiring, the connection is being dropped for silence — mark the history
// incomplete (records may still be buffered on the dead peer) and return
// the idle-timeout error. Otherwise return nil.
func (c *Collector) idleDropped(conn net.Conn, err error) error {
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		return nil
	}
	c.mu.Lock()
	if c.tr != nil {
		c.tr.MarkIncomplete(fmt.Sprintf("client %v idle for %v, dropped", conn.RemoteAddr(), c.opts.IdleTimeout))
	}
	c.mu.Unlock()
	metrics().collIdleDrops.Inc()
	if l := obs.Events(); l.Enabled(obs.LevelWarn) {
		l.Log(obs.LevelWarn, "remote.idle_drop",
			obs.F("peer", conn.RemoteAddr().String()), obs.F("idle", c.opts.IdleTimeout.String()))
	}
	return fmt.Errorf("idle timeout after %v", c.opts.IdleTimeout)
}

// heartbeat periodically sends the accepted-record count to a v2 client.
// The client uses it for liveness and as the resume point after an outage.
func (c *Collector) heartbeat(conn net.Conn, clientID string, myGen int, stop <-chan struct{}) {
	defer c.wg.Done()
	tick := time.NewTicker(c.opts.Heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		c.mu.Lock()
		count := c.recv[clientID]
		stale := c.closed || c.gen[clientID] != myGen
		c.mu.Unlock()
		if stale {
			return
		}
		if _, err := fmt.Fprintf(conn, "%s%d\n", ackPrefix, count); err != nil {
			return // the reader side will notice the broken connection
		}
		metrics().collHeartbeats.Inc()
	}
}

// Trace returns a snapshot of everything received so far.
func (c *Collector) Trace() *trace.Trace {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tr == nil {
		return trace.New(0)
	}
	return c.tr.Clone()
}

// Received returns the number of records accepted from a client ID.
func (c *Collector) Received(clientID string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recv[clientID]
}

// Errs returns stream errors observed so far.
func (c *Collector) Errs() []error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]error(nil), c.errs...)
}

// Close stops accepting and waits for active streams to drain. Connections
// still in the handshake phase are closed immediately — a half-open client
// that never sends its handshake must not wedge the shutdown.
func (c *Collector) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	for conn, phase := range c.conns {
		if phase == phaseHandshake {
			conn.Close() //nolint:ioerr // close; handshake-phase conns are abandoned by design
		}
	}
	c.mu.Unlock()
	err := c.ln.Close()
	c.wg.Wait()
	return err
}

// Kill tears the collector down abruptly: every connection is severed
// without draining, simulating a collector crash. The trace collected so
// far remains readable and is marked incomplete.
func (c *Collector) Kill() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	if c.tr != nil {
		c.tr.MarkIncomplete("collector killed")
	}
	conns := make([]net.Conn, 0, len(c.conns))
	for conn := range c.conns {
		conns = append(conns, conn)
	}
	c.mu.Unlock()
	c.ln.Close() //nolint:ioerr // abort; teardown by design
	for _, conn := range conns {
		conn.Close() //nolint:ioerr // abort; teardown by design
	}
	c.wg.Wait()
}
