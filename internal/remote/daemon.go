package remote

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"tracedbg/internal/iofault"
	"tracedbg/internal/obs"
	"tracedbg/internal/store"
	"tracedbg/internal/trace"
)

// Rejection reason tokens sent on the TDBGREJ wire line. Retryable reasons
// carry the daemon's RetryAfter hint; permanent ones carry -1.
const (
	RejectDraining    = "draining"
	RejectDegraded    = "degraded" // disk trouble; retry once storage recovers
	RejectMaxSessions = "max-sessions"
	RejectClientLimit = "client-limit"
	RejectDiskBudget  = "disk-budget"
	RejectBadSession  = "bad-session"    // permanent: malformed session ID
	RejectRankCount   = "rank-mismatch"  // permanent: resume with different ranks
	RejectClosed      = "session-closed" // permanent: session already finalized
)

// Quota kill reason tokens sent on the TDBGQUO wire line.
const (
	QuotaSessionBytes   = "session-bytes"
	QuotaSessionRecords = "session-records"
	QuotaDiskBudget     = "disk-budget"
)

// KillDiskError is the terminal TDBGQUO reason for sessions whose write path
// hit a disk error: everything durable so far is preserved and the session
// finalizes incomplete with the error in its manifest marker.
const KillDiskError = "disk-error"

// sessionBase is the segment base name inside every session directory:
// <dir>/<sessionID>/trace-00000.trace ... plus trace.manifest.
const sessionBase = "trace"

// sessionMetaName is the per-session metadata file used by crash recovery.
const sessionMetaName = "session.json"

// DaemonOptions tunes the multi-session collector daemon. Zero values
// select defaults; quotas and budgets default to unlimited.
type DaemonOptions struct {
	// Dir is the root directory; each session lands in Dir/<sessionID>/.
	// Required.
	Dir string
	// MaxSessions caps concurrently active sessions (admission control).
	// Default 64.
	MaxSessions int
	// MaxSessionsPerClient caps active sessions per client ID. Default 4.
	MaxSessionsPerClient int
	// SessionQuotaBytes caps encoded bytes per session (0 = unlimited).
	SessionQuotaBytes int64
	// SessionQuotaRecords caps records per session (0 = unlimited).
	SessionQuotaRecords uint64
	// DiskBudgetBytes caps bytes across all sessions, finalized ones
	// included (0 = unlimited). Enforced at admission and at ingest.
	DiskBudgetBytes int64
	// QueueRecords is the per-session ingest queue capacity, which is also
	// the credit window advertised to clients. Default 1024.
	QueueRecords int
	// StreamQueueRecords is the per-consumer record queue of the HTTP tail
	// API: a consumer slower than ingest loses (and is told it lost)
	// overflow records instead of buffering without bound. Default 256.
	StreamQueueRecords int
	// SegmentBytes is the segment rotation threshold. Default 4 MiB.
	SegmentBytes int64
	// Heartbeat is the idle keepalive cadence: how often a connection that
	// earned no credit grant still gets a TDBGACK (durable count + credit
	// window) as a liveness and resume-point signal. It does not bound
	// throughput — credit follows durability (see ackSender). Default 500ms;
	// negative disables the keepalive, not the credit grants.
	Heartbeat time.Duration
	// IdleTimeout drops a connection silent for this long. 0 disables.
	IdleTimeout time.Duration
	// RetryAfter is the hint attached to retryable rejections. Default 2s.
	RetryAfter time.Duration
	// ManifestEvery is the live-manifest sync cadence in the session writer
	// loop — the staleness bound on store.Open of a growing session.
	// Default 500ms.
	ManifestEvery time.Duration
	// Sync is the segment fsync policy. Default SyncNone (the OS page cache
	// still survives a daemon SIGKILL; raise it to survive host crashes).
	Sync trace.SyncPolicy
	// DegradedProbeEvery is the cadence of disk-recovery probes while the
	// daemon is degraded (not admitting because of disk trouble). Default 1s.
	DegradedProbeEvery time.Duration
	// ScrubEvery enables the background storage scrub: every interval the
	// daemon CRC-walks the segments of each finalized session, quarantining
	// and re-salvaging damaged ones in place (store.Scrub in repair mode).
	// 0 disables.
	ScrubEvery time.Duration
	// FS overrides the filesystem used for session directories, metadata and
	// segment files — the deterministic fault-injection seam. Nil uses the OS.
	FS iofault.FS
}

func (o DaemonOptions) withDefaults() DaemonOptions {
	if o.MaxSessions <= 0 {
		o.MaxSessions = 64
	}
	if o.MaxSessionsPerClient <= 0 {
		o.MaxSessionsPerClient = 4
	}
	if o.QueueRecords <= 0 {
		o.QueueRecords = 1024
	}
	if o.StreamQueueRecords <= 0 {
		o.StreamQueueRecords = 256
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.Heartbeat == 0 {
		o.Heartbeat = 500 * time.Millisecond
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = 2 * time.Second
	}
	if o.ManifestEvery <= 0 {
		o.ManifestEvery = 500 * time.Millisecond
	}
	if o.DegradedProbeEvery <= 0 {
		o.DegradedProbeEvery = time.Second
	}
	return o
}

type sessionState int

const (
	sessActive sessionState = iota // admitted; connected or awaiting resume
	sessKilled                     // quota-killed; finalize in progress
	sessDone                       // finalized, manifest written
)

func (s sessionState) String() string {
	switch s {
	case sessActive:
		return "active"
	case sessKilled:
		return "killed"
	case sessDone:
		return "done"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// session is one admitted trace run. Its records flow handshake → bounded
// queue → writer goroutine → sequential SegmentedWriter, so "durable" (the
// count flushed to segment files) is an exact resume point: the sequential
// sink frames records in wire order, and a crash-truncated segment salvages
// to a strict prefix of that order.
type session struct {
	id       string
	clientID string
	numRanks int
	dir      string
	gw       *trace.SegmentedWriter

	queue chan trace.Record
	qdone chan struct{} // writer loop exited

	// All mutable fields below are guarded by the daemon's mu.
	gen        int           // connection generation; latest wins
	conn       net.Conn      // live connection, nil while disconnected
	wake       chan struct{} // wakes the live connection's ackSender
	state      sessionState
	accepted   uint64 // records read off the wire since session birth
	durable    uint64 // records flushed to segment files
	advertised uint64 // durable count last acked on the live connection
	grantEvery uint64 // durable advance that earns a credit grant
	lastBytes  int64  // BytesWritten at last disk accounting
	killReason string
	incomplete string // finalize reason ("" = complete)
	recovered  bool   // reopened from a partial dir after a restart
	ioFailed   bool   // write path hit a disk error; queue drains discarding
	finalizing bool

	handlerWG sync.WaitGroup // in-flight connection handlers for this session
}

// SessionStatus is a point-in-time snapshot of one session for CLIs/tests.
type SessionStatus struct {
	ID        string
	ClientID  string
	State     string
	Accepted  uint64
	Durable   uint64
	Bytes     int64
	Recovered bool
	Connected bool

	// Persistent-index progress of the session's segment store: sealed
	// segments whose sidecar is on disk, and segments still owing one (the
	// segment being written, plus any whose sidecar write failed).
	SegsIndexed int
	SegsPending int
}

// retiredRetention caps how many finalized sessions the daemon remembers —
// enough for status reporting and RejectClosed admission semantics without
// letting a long-lived daemon's memory grow with every session it has ever
// served. Beyond the cap the oldest retirees are forgotten (a resume attempt
// for one then reads as a new session ID).
const retiredRetention = 4096

// retiredSession is the compact tombstone kept after a session finalizes:
// the reject reason a late resume attempt receives, plus (for sessions that
// finalized in this daemon's lifetime) the last status snapshot so
// Sessions() keeps reporting them. The heavy session object — queue, writer,
// segment store handles — is released at retirement.
type retiredSession struct {
	status *SessionStatus // nil for sessions finalized by a previous daemon
	reject string         // RejectClosed, or the quota kill reason
}

// sessionMeta is the crash-recovery metadata persisted as session.json.
type sessionMeta struct {
	SessionID  string `json:"session_id"`
	ClientID   string `json:"client_id"`
	NumRanks   int    `json:"num_ranks"`
	Complete   bool   `json:"complete"`
	Incomplete string `json:"incomplete_reason,omitempty"`
}

// Daemon is the long-running multi-session collector: it admits client
// sessions under explicit resource governance — max sessions, per
// client caps, byte/record quotas, a global disk budget, credit-window
// backpressure — lands each session in its own live-openable segment store,
// and finalizes every admitted session's manifest on drain. On startup it
// salvages partial session directories left by a crash.
type Daemon struct {
	ln   net.Listener
	opts DaemonOptions
	fs   iofault.FS
	stop chan struct{} // closed once, when drain/kill begins

	mu             sync.Mutex
	sessions       map[string]*session        // live (not yet finalized) sessions
	retired        map[string]*retiredSession // finalized; capped tombstones
	retiredOrder   []string                   // FIFO eviction order for retired
	perClient      map[string]int
	active         int   // sessions not yet finalized
	diskUsed       int64 // bytes across all session dirs, finalized included
	draining       bool
	degraded       bool   // disk trouble: admission paused, reads keep serving
	degradedReason string // what pushed the daemon into degraded mode
	probing        bool   // a disk-recovery probe goroutine is running
	errs           []error
	conns          map[net.Conn]connPhase
	wg             sync.WaitGroup
}

// NewDaemon listens on addr, recovers any partial sessions under opts.Dir,
// then serves until Drain/Close. The listen comes first: binding a contended
// address is the common failure (a just-killed daemon may still hold it),
// and recovery spawns writer goroutines and reopens segment files that a
// failed constructor would otherwise leak on every retry.
func NewDaemon(addr string, opts DaemonOptions) (*Daemon, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("remote: daemon needs a session directory")
	}
	fsys := iofault.Or(opts.FS)
	if err := fsys.MkdirAll(opts.Dir, 0o777); err != nil {
		return nil, fmt.Errorf("remote: daemon dir: %w", err)
	}
	d := &Daemon{
		opts:      opts,
		fs:        fsys,
		stop:      make(chan struct{}),
		sessions:  make(map[string]*session),
		perClient: make(map[string]int),
		retired:   make(map[string]*retiredSession),
		conns:     make(map[net.Conn]connPhase),
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("remote: listen: %w", err)
	}
	d.ln = ln
	if err := d.recoverSessions(); err != nil {
		// Tear down whatever recovery spun up before failing; connections
		// queued on the listener backlog are dropped with it.
		ln.Close() //nolint:ioerr // startup failed; the recovery error is surfaced
		for _, s := range d.sessions {
			close(s.queue)
			<-s.qdone
		}
		d.wg.Wait()
		return nil, err
	}
	d.wg.Add(1)
	go d.serve()
	if opts.ScrubEvery > 0 {
		d.wg.Add(1)
		go d.scrubLoop()
	}
	return d, nil
}

// scrubLoop periodically CRC-walks every finalized session's store and heals
// damage in place. Live sessions are skipped (their writer owns the files);
// a degraded daemon skips the pass entirely rather than churn repair
// attempts against a disk that cannot hold their rewrites.
func (d *Daemon) scrubLoop() {
	defer d.wg.Done()
	tick := time.NewTicker(d.opts.ScrubEvery)
	defer tick.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-tick.C:
		}
		d.mu.Lock()
		degraded := d.degraded
		d.mu.Unlock()
		if degraded {
			continue
		}
		d.ScrubFinalized()
	}
}

// ScrubFinalized runs one repair-mode scrub pass over every finalized
// session directory and returns the per-session results. Exposed so tests
// and operators can force a pass instead of waiting out ScrubEvery.
func (d *Daemon) ScrubFinalized() []*store.ScrubResult {
	entries, err := d.fs.ReadDir(d.opts.Dir)
	if err != nil {
		d.mu.Lock()
		d.errs = append(d.errs, fmt.Errorf("remote: scrub: %w", err))
		d.mu.Unlock()
		return nil
	}
	var out []*store.ScrubResult
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(d.opts.Dir, e.Name())
		meta, err := d.readSessionMeta(dir)
		if err != nil || (!meta.Complete && meta.Incomplete == "") {
			continue // not a session, or still live: its writer owns the files
		}
		res, err := store.Scrub(d.SessionManifest(meta.SessionID), store.ScrubOptions{
			FS: d.opts.FS, Repair: true, Writer: "tcollect-scrub",
		})
		if err != nil {
			d.mu.Lock()
			d.errs = append(d.errs, fmt.Errorf("remote: scrub %s: %w", meta.SessionID, err))
			d.mu.Unlock()
			continue
		}
		if !res.Clean() {
			if l := obs.Events(); l.Enabled(obs.LevelWarn) {
				l.Log(obs.LevelWarn, "daemon.scrub_damage", obs.F("session", meta.SessionID),
					obs.F("summary", res.String()))
			}
		}
		out = append(out, res)
	}
	return out
}

// Addr returns the listening address for clients.
func (d *Daemon) Addr() string { return d.ln.Addr().String() }

// Dir returns the session root directory.
func (d *Daemon) Dir() string { return d.opts.Dir }

func (d *Daemon) serve() {
	defer d.wg.Done()
	for {
		conn, err := d.ln.Accept()
		if err != nil {
			return // listener closed
		}
		d.mu.Lock()
		if d.draining {
			d.mu.Unlock()
			writeReject(conn, RejectDraining, d.opts.RetryAfter)
			conn.Close() //nolint:ioerr // rejected peer; nothing durable on the conn
			continue
		}
		d.conns[conn] = phaseHandshake
		d.wg.Add(1)
		d.mu.Unlock()
		go d.serveConn(conn)
	}
}

// serveConn runs one registered connection (d.conns entry and d.wg count
// taken by the caller) from handshake to teardown.
func (d *Daemon) serveConn(conn net.Conn) {
	defer d.wg.Done()
	m := metrics()
	m.collConns.Inc()
	m.collActive.Add(1)
	err := d.handle(conn)
	conn.Close() //nolint:ioerr // handler exit; session state carries any error
	m.collActive.Add(-1)
	d.mu.Lock()
	delete(d.conns, conn)
	if err != nil && !errors.Is(err, io.EOF) && !d.draining {
		d.errs = append(d.errs, fmt.Errorf("remote: client %v: %w", conn.RemoteAddr(), err))
	}
	d.mu.Unlock()
}

func (d *Daemon) bumpDeadline(conn net.Conn) {
	if d.opts.IdleTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(d.opts.IdleTimeout))
	}
}

// writeReject sends a typed admission refusal. retryAfter < 0 marks the
// refusal permanent.
func writeReject(conn net.Conn, reason string, retryAfter time.Duration) {
	ms := int64(-1)
	if retryAfter >= 0 {
		ms = retryAfter.Milliseconds()
	}
	writeLine(conn, fmt.Sprintf("%s%s %d\n", rejPrefix, reason, ms)) //nolint:ioerr // peer may already be gone; it retries and is refused again
}

// rejectSession counts, logs and sends one admission refusal.
func rejectSession(conn net.Conn, clientID, sessionID, reason string, retryAfter time.Duration) {
	metrics().sessRejected.Inc()
	if l := obs.Events(); l.Enabled(obs.LevelWarn) {
		l.Log(obs.LevelWarn, "daemon.rejected", obs.F("client", clientID),
			obs.F("session", sessionID), obs.F("reason", reason))
	}
	writeReject(conn, reason, retryAfter)
}

// validSessionID enforces the charset that makes a session ID safe to use
// as a directory name.
func validSessionID(id string) bool {
	if id == "" || len(id) > 128 || id[0] == '.' {
		return false
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

func (d *Daemon) handle(conn net.Conn) error {
	br := bufio.NewReaderSize(conn, 1<<16)
	d.bumpDeadline(conn)
	line, err := br.ReadString('\n')
	if err != nil {
		return fmt.Errorf("handshake: %w", err)
	}

	numRanks, clientID, sessionID, err := parseHandshake(line)
	if errors.Is(err, errBadSession) {
		rejectSession(conn, clientID, sessionID, RejectBadSession, -1)
		return nil
	}
	if err != nil {
		// v1/v2 peers have no session (and v1 no client identity either), so
		// no resume and no quota attribution: the daemon refuses them rather
		// than accepting records it could lose.
		return err
	}

	win := uint64(d.opts.QueueRecords)
	wake := make(chan struct{}, 1)
	s, myGen, ack, rejReason, retryAfter := d.admit(conn, wake, clientID, sessionID, numRanks, win)
	if rejReason != "" {
		rejectSession(conn, clientID, sessionID, rejReason, retryAfter)
		return nil
	}
	defer s.handlerWG.Done()
	defer d.detach(s, conn)
	if err := writeAck(conn, ack, win); err != nil {
		return fmt.Errorf("handshake ack: %w", err)
	}

	// From here on the ackSender is the connection's only writer.
	stop := make(chan struct{})
	defer close(stop)
	d.wg.Add(1)
	go d.ackSender(conn, s, myGen, win, wake, stop)

	sc, err := trace.NewScanner(br)
	if err != nil {
		if terr := d.idleDropped(conn, s, err); terr != nil {
			return terr
		}
		return fmt.Errorf("stream header: %w", err)
	}
	for n := uint64(0); ; n++ {
		d.bumpDeadline(conn)
		rec, err := sc.Next()
		if err != nil {
			d.mu.Lock()
			killed := s.gen == myGen && s.state == sessKilled
			d.mu.Unlock()
			switch {
			case killed:
				// The peer hung up on a kill that is already being finalized
				// as incomplete; a clean EOF here must not finalize it whole.
				return nil
			case err == io.EOF:
				// Clean end of stream at a frame boundary: the client closed the
				// session. Finalize asynchronously (it waits for this handler).
				d.goFinalize(s, "")
				return nil
			}
			if terr := d.idleDropped(conn, s, err); terr != nil {
				return terr
			}
			// Outage mid-stream: the session stays admitted, awaiting resume.
			return fmt.Errorf("stream: %w", err)
		}
		d.mu.Lock()
		if s.gen == myGen && s.state == sessKilled {
			d.mu.Unlock()
			lingerKilled(br)
			return nil
		}
		if s.gen != myGen || s.state != sessActive || s.finalizing {
			d.mu.Unlock()
			return nil // superseded or finalizing
		}
		if d.opts.SessionQuotaRecords > 0 && s.accepted >= d.opts.SessionQuotaRecords {
			d.mu.Unlock()
			d.killSession(s, QuotaSessionRecords)
			lingerKilled(br)
			return nil
		}
		s.accepted++
		d.mu.Unlock()
		metrics().collReceived.Inc(rec.Rank)
		select {
		case s.queue <- *rec:
		default:
			// Queue full: a compliant client cannot get here (the credit
			// window equals the queue capacity); a non-compliant one now
			// rides TCP backpressure while the writer drains.
			metrics().sessIngestStalls.Inc()
			s.queue <- *rec
		}
		metrics().sessQueueRecords.Add(1)
		if n%128 == 127 && d.overByteQuota(s) {
			lingerKilled(br)
			return nil
		}
	}
}

// detach marks the session disconnected when its handler exits, unless a
// newer connection has already taken the session over.
func (d *Daemon) detach(s *session, conn net.Conn) {
	d.mu.Lock()
	if s.conn == conn {
		s.conn = nil
	}
	d.mu.Unlock()
}

// lingerKilled keeps a killed session's connection readable until the peer
// hangs up: closing a socket with unread bytes in its receive queue turns
// the close into an RST, and an RST discards the TDBGQUO line before the
// client reads it. The ackSender bounds the wait (killDrain).
func lingerKilled(br *bufio.Reader) {
	io.Copy(io.Discard, br) //nolint:errcheck // draining a dead session; any error ends the wait
}

// admit runs admission control under the daemon lock. On success it returns
// the session, the connection generation, and the resume point; on refusal
// it returns a reason token and retry-after (<0: permanent).
func (d *Daemon) admit(conn net.Conn, wake chan struct{}, clientID, sessionID string, numRanks int, win uint64) (s *session, gen int, ack uint64, reject string, retryAfter time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining {
		return nil, 0, 0, RejectDraining, d.opts.RetryAfter
	}
	if r := d.retired[sessionID]; r != nil {
		// The session finalized (possibly in a previous daemon life): admitting
		// it as new would clobber the sealed store on disk.
		return nil, 0, 0, r.reject, -1
	}
	if s := d.sessions[sessionID]; s != nil && s.state == sessKilled {
		// Killed, finalize still in progress: the verdict is already final,
		// so it outranks the retryable refusals below.
		return nil, 0, 0, s.killReason, -1
	}
	if d.degraded {
		// Disk trouble: refuse new sessions AND resumes with a retryable
		// token. Read-side APIs keep serving; the probe re-opens admission
		// once the disk recovers, and a retrying client then lands normally.
		return nil, 0, 0, RejectDegraded, d.opts.RetryAfter
	}
	if s := d.sessions[sessionID]; s != nil {
		// Resume of a known session.
		if s.state == sessDone || s.finalizing {
			return nil, 0, 0, RejectClosed, -1
		}
		if s.numRanks != numRanks {
			return nil, 0, 0, RejectRankCount, -1
		}
		if prev := s.conn; prev != nil && prev != conn {
			prev.Close() // latest connection wins //nolint:ioerr // superseded conn; the new connection owns the session
		}
		s.attachLocked(conn, wake, s.accepted, win)
		d.conns[conn] = phaseStreaming
		s.handlerWG.Add(1)
		metrics().collResumes.Inc()
		if l := obs.Events(); l.Enabled(obs.LevelInfo) {
			l.Log(obs.LevelInfo, "daemon.resume", obs.F("session", sessionID),
				obs.F("client", clientID), obs.F("accepted", s.accepted))
		}
		// The resume point is accepted, not durable: every accepted record
		// is either already in segment files or sitting in the (still-live)
		// queue, so resending from durable would duplicate the queued span.
		// After a crash the queue is gone and recovery resets accepted to
		// the salvaged durable count, so the client refills exactly the gap.
		return s, s.gen, s.accepted, "", 0
	}
	// New session: capacity, per-client, and disk-budget gates.
	if d.active >= d.opts.MaxSessions {
		return nil, 0, 0, RejectMaxSessions, d.opts.RetryAfter
	}
	if d.perClient[clientID] >= d.opts.MaxSessionsPerClient {
		return nil, 0, 0, RejectClientLimit, d.opts.RetryAfter
	}
	if d.opts.DiskBudgetBytes > 0 && d.diskUsed >= d.opts.DiskBudgetBytes {
		return nil, 0, 0, RejectDiskBudget, d.opts.RetryAfter
	}
	s, err := d.openSessionLocked(sessionID, clientID, numRanks)
	if err != nil {
		d.errs = append(d.errs, fmt.Errorf("remote: session %s: %w", sessionID, err))
		return nil, 0, 0, RejectMaxSessions, d.opts.RetryAfter
	}
	s.attachLocked(conn, wake, 0, win)
	d.conns[conn] = phaseStreaming
	s.handlerWG.Add(1)
	metrics().sessAdmitted.Inc()
	metrics().sessActive.Add(1)
	if l := obs.Events(); l.Enabled(obs.LevelInfo) {
		l.Log(obs.LevelInfo, "daemon.admitted", obs.F("session", sessionID),
			obs.F("client", clientID), obs.F("ranks", numRanks))
	}
	return s, s.gen, 0, "", 0
}

// attachLocked makes conn the session's live connection: a new generation,
// its ackSender's wake channel, and the grant bookkeeping restarted from the
// handshake's ack. A grant is earned per quarter window of durable advance.
// Caller holds the daemon's mu.
func (s *session) attachLocked(conn net.Conn, wake chan struct{}, ack, win uint64) {
	s.gen++
	s.conn = conn
	s.wake = wake
	s.advertised = ack
	s.grantEvery = max(win/4, 1)
}

// publishDurableLocked records the writer's new durable count and wakes the
// live connection's ackSender once the span the client has not been told
// about reaches the grant threshold. Caller holds the daemon's mu.
func (s *session) publishDurableLocked(durable uint64) {
	s.durable = durable
	if s.grantEvery > 0 && s.conn != nil && durable >= s.advertised+s.grantEvery {
		wakeSender(s.wake)
	}
}

// wakeSender nudges an ackSender without blocking; one pending wake is enough
// because the sender re-reads the session state every time it runs.
func wakeSender(wake chan struct{}) {
	select {
	case wake <- struct{}{}:
	default:
	}
}

// openSessionLocked creates the session directory, metadata, segment writer
// and writer goroutine. Caller holds d.mu.
func (d *Daemon) openSessionLocked(sessionID, clientID string, numRanks int) (*session, error) {
	dir := filepath.Join(d.opts.Dir, sessionID)
	if err := d.fs.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	if err := writeSessionMeta(d.fs, dir, &sessionMeta{
		SessionID: sessionID, ClientID: clientID, NumRanks: numRanks,
	}); err != nil {
		return nil, err
	}
	// BuildIndex: every sealed segment gets its sidecar at ingest, so the
	// session's manifest opens index-capable the moment it finalizes — no
	// backfill pass over collector output.
	gw, err := trace.NewSequentialSegmentedWriter(dir, sessionBase, numRanks, d.opts.SegmentBytes,
		trace.WriterOptions{Writer: "tcollect-daemon/" + sessionID, Sync: d.opts.Sync, FS: d.opts.FS,
			BuildIndex: true})
	if err != nil {
		return nil, err
	}
	// Publish the manifest immediately so live tail consumers can attach to
	// the session before its first record becomes durable.
	if err := gw.SyncManifest(); err != nil {
		gw.Close() //nolint:ioerr // error path; the manifest-publish error is surfaced
		return nil, err
	}
	s := &session{
		id: sessionID, clientID: clientID, numRanks: numRanks, dir: dir, gw: gw,
		queue: make(chan trace.Record, d.opts.QueueRecords),
		qdone: make(chan struct{}),
	}
	d.sessions[sessionID] = s
	d.perClient[clientID]++
	d.active++
	d.wg.Add(1)
	go d.writerLoop(s)
	return s, nil
}

// writerLoop is the single consumer of one session's queue: it batches
// records into the segment writer, publishes the durable count after each
// flush (that count backs the acks clients prune and resume by), keeps the
// live manifest fresh, and enforces byte quotas against actually-written
// bytes. Exits when the queue closes (finalize).
//
// The manifest sync must also fire on an idle queue: a burst of records
// inside one ManifestEvery window followed by silence would otherwise leave
// durable segments invisible to live tail consumers until the next record
// or finalize.
func (d *Daemon) writerLoop(s *session) {
	defer d.wg.Done()
	defer close(s.qdone)
	lastSync := time.Now()
	dirty := false
	failed := false // disk error seen; drain the queue discarding
	idle := time.NewTicker(d.opts.ManifestEvery)
	defer idle.Stop()
	fail := func(err error) {
		if failed {
			return
		}
		failed = true
		d.sessionIOError(s, err)
	}
	syncNow := func() {
		if err := s.gw.SyncManifest(); err != nil {
			fail(err)
		}
		lastSync = time.Now()
		dirty = false
	}
	for {
		var rec trace.Record
		var open bool
		select {
		case rec, open = <-s.queue:
		case <-idle.C:
			if !failed && dirty && time.Since(lastSync) >= d.opts.ManifestEvery {
				syncNow()
			}
			continue
		}
		if !open {
			break
		}
		batch := 1
		if !failed {
			if err := s.gw.Write(&rec); err != nil {
				fail(err)
			}
		}
	fill:
		for batch < 512 {
			select {
			case r2, ok := <-s.queue:
				if !ok {
					break fill
				}
				if !failed {
					if err := s.gw.Write(&r2); err != nil {
						fail(err)
					}
				}
				batch++
			default:
				break fill
			}
		}
		if !failed {
			if err := s.gw.Flush(); err != nil {
				fail(err)
			}
		}
		metrics().sessQueueRecords.Add(-int64(batch))
		if failed {
			continue // broken disk: keep draining so the handler never wedges
		}
		d.mu.Lock()
		s.publishDurableLocked(uint64(s.gw.Count()))
		d.mu.Unlock()
		d.accountDisk(s)
		d.overByteQuota(s)
		dirty = true
		if time.Since(lastSync) >= d.opts.ManifestEvery {
			syncNow()
		}
	}
	if failed {
		return
	}
	if err := s.gw.Flush(); err != nil {
		fail(err)
		return
	}
	d.mu.Lock()
	s.publishDurableLocked(uint64(s.gw.Count()))
	d.mu.Unlock()
	d.accountDisk(s)
}

// accountDisk folds a session's byte growth into the global disk gauge.
func (d *Daemon) accountDisk(s *session) {
	b := s.gw.BytesWritten()
	d.mu.Lock()
	delta := b - s.lastBytes
	s.lastBytes = b
	d.diskUsed += delta
	used := d.diskUsed
	d.mu.Unlock()
	metrics().sessDiskUsed.Set(used)
}

// overByteQuota enforces the per-session byte quota and the global disk
// budget against durable bytes, killing the offending session.
func (d *Daemon) overByteQuota(s *session) bool {
	b := s.gw.BytesWritten()
	if d.opts.SessionQuotaBytes > 0 && b > d.opts.SessionQuotaBytes {
		d.killSession(s, QuotaSessionBytes)
		return true
	}
	if d.opts.DiskBudgetBytes > 0 {
		d.mu.Lock()
		over := d.diskUsed > d.opts.DiskBudgetBytes
		d.mu.Unlock()
		if over {
			d.killSession(s, QuotaDiskBudget)
			return true
		}
	}
	return false
}

// killSession terminates a session for quota exhaustion: the client gets a
// terminal TDBGQUO line, the connection is shut down once the client has had
// time to read it, and the session is finalized (everything accepted so far
// stays durable, marked incomplete).
func (d *Daemon) killSession(s *session, reason string) {
	if !d.terminate(s, reason) {
		return
	}
	metrics().sessQuotaKills.Inc()
	if l := obs.Events(); l.Enabled(obs.LevelWarn) {
		l.Log(obs.LevelWarn, "daemon.quota_kill",
			obs.F("session", s.id), obs.F("reason", reason))
	}
	d.goFinalize(s, "quota exceeded: "+reason)
}

// terminate moves an active session to the killed state and hands the kill
// to the live connection's ackSender, which delivers the terminal TDBGQUO
// line in order behind any ack it is writing. Returns false if the session
// already left the active state (a concurrent kill or finalize won).
func (d *Daemon) terminate(s *session, reason string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if s.state != sessActive {
		return false
	}
	s.state = sessKilled
	s.killReason = reason
	if s.conn != nil {
		wakeSender(s.wake)
	}
	return true
}

// sessionError records a session-scoped error.
func (d *Daemon) sessionError(s *session, err error) {
	d.mu.Lock()
	d.errs = append(d.errs, fmt.Errorf("remote: session %s: %w", s.id, err))
	d.mu.Unlock()
}

// sessionIOError handles a disk error on a session's write path: the session
// is terminally killed (everything durable so far is preserved; the manifest
// incomplete marker carries the error), and a disk-full condition additionally
// flips the whole daemon into degraded mode so admission pauses until the
// recovery probe sees the disk come back.
func (d *Daemon) sessionIOError(s *session, err error) {
	d.mu.Lock()
	s.ioFailed = true
	d.errs = append(d.errs, fmt.Errorf("remote: session %s: %w", s.id, err))
	d.mu.Unlock()
	if l := obs.Events(); l.Enabled(obs.LevelWarn) {
		l.Log(obs.LevelWarn, "daemon.io_error",
			obs.F("session", s.id), obs.F("err", err.Error()))
	}
	if iofault.IsDiskFull(err) {
		d.enterDegraded("disk full: " + err.Error())
	}
	if d.terminate(s, KillDiskError) {
		metrics().sessIOKills.Inc()
		d.goFinalize(s, "disk error: "+err.Error())
	}
}

// enterDegraded pauses admission with a retryable RejectDegraded while the
// read-side APIs (/metrics, /sessions, live tails) keep serving, and starts
// the background probe that re-opens admission when the disk recovers.
func (d *Daemon) enterDegraded(reason string) {
	d.mu.Lock()
	if d.degraded || d.draining {
		d.mu.Unlock()
		return
	}
	d.degraded = true
	d.degradedReason = reason
	startProbe := !d.probing
	d.probing = true
	d.mu.Unlock()
	metrics().sessDegraded.Set(1)
	if l := obs.Events(); l.Enabled(obs.LevelWarn) {
		l.Log(obs.LevelWarn, "daemon.degraded", obs.F("reason", reason))
	}
	if startProbe {
		d.wg.Add(1)
		go d.degradedProbe()
	}
}

// degradedProbe periodically exercises the session root with a small durable
// write through the same (possibly fault-injected) filesystem the sessions
// use; the first success re-opens admission.
func (d *Daemon) degradedProbe() {
	defer d.wg.Done()
	tick := time.NewTicker(d.opts.DegradedProbeEvery)
	defer tick.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-tick.C:
		}
		if err := d.probeDisk(); err != nil {
			metrics().sessProbeFails.Inc()
			continue
		}
		d.mu.Lock()
		d.degraded = false
		d.degradedReason = ""
		d.probing = false
		d.mu.Unlock()
		metrics().sessDegraded.Set(0)
		if l := obs.Events(); l.Enabled(obs.LevelInfo) {
			l.Log(obs.LevelInfo, "daemon.disk_recovered", obs.F("dir", d.opts.Dir))
		}
		return
	}
}

// probeDisk performs one small durable create/write/sync/remove cycle in the
// session root. A disk that completes the full cycle can host sessions again.
func (d *Daemon) probeDisk() error {
	path := filepath.Join(d.opts.Dir, ".tracedbg-probe")
	f, err := d.fs.Create(path)
	if err != nil {
		return err
	}
	_, werr := f.Write([]byte("tracedbg disk probe\n"))
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		d.fs.Remove(path) //nolint:ioerr // best-effort cleanup on a broken disk
		return werr
	}
	return d.fs.Remove(path)
}

// HealthState is the daemon's coarse health classification, served on
// /healthz and /readyz.
type HealthState struct {
	Status string `json:"status"` // "ok", "degraded", or "draining"
	Reason string `json:"reason,omitempty"`
}

// Health reports whether the daemon is admitting sessions ("ok"), alive but
// refusing admission over disk trouble ("degraded"), or shutting down
// ("draining").
func (d *Daemon) Health() HealthState {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case d.draining:
		return HealthState{Status: "draining"}
	case d.degraded:
		return HealthState{Status: "degraded", Reason: d.degradedReason}
	}
	return HealthState{Status: "ok"}
}

// goFinalize runs finalizeSession on its own goroutine (it blocks on the
// session's handler and writer, so callers on those paths must not wait).
func (d *Daemon) goFinalize(s *session, incompleteReason string) {
	d.mu.Lock()
	if s.finalizing {
		d.mu.Unlock()
		return
	}
	s.finalizing = true
	d.mu.Unlock()
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		d.finalizeSession(s, incompleteReason)
	}()
}

// finalizeSession drains and closes one session: sever the connection, wait
// for its handler, close the queue, wait for the writer, stamp incomplete
// reasons, write the final manifest and metadata. Runs at most once per
// session (goFinalize guards).
func (d *Daemon) finalizeSession(s *session, incompleteReason string) {
	d.mu.Lock()
	conn := s.conn
	s.conn = nil
	killed := s.state == sessKilled
	d.mu.Unlock()
	if conn != nil && !killed {
		// A killed session's connection belongs to its ackSender, which
		// closes it once the peer has drained the kill line (or killDrain).
		conn.Close() //nolint:ioerr // network teardown; durability is decided by the session store
	}
	s.handlerWG.Wait()
	close(s.queue)
	<-s.qdone
	d.mu.Lock()
	ioFailed := s.ioFailed
	d.mu.Unlock()
	if ioFailed && incompleteReason == "" {
		// A clean-looking finalize raced a disk error in the writer: the tail
		// of the stream never became durable, so the session must not be
		// marked complete.
		incompleteReason = "disk error during ingest; durable prefix only"
	}
	if s.recovered {
		// The pre-crash tail may be missing even if the resumed stream ended
		// cleanly only when the client never came back; a resumed session
		// retransmitted everything past the salvage point, so it is whole.
		d.mu.Lock()
		resumed := s.gen > 0
		d.mu.Unlock()
		if !resumed && incompleteReason == "" {
			incompleteReason = "recovered after collector crash; client never resumed"
		}
	}
	if incompleteReason != "" {
		if err := s.gw.WriteIncomplete(incompleteReason); err != nil {
			d.sessionError(s, err)
		}
	}
	if err := s.gw.Close(); err != nil {
		d.sessionError(s, err)
	}
	d.accountDisk(s)
	complete := incompleteReason == ""
	if err := writeSessionMeta(d.fs, s.dir, &sessionMeta{
		SessionID: s.id, ClientID: s.clientID, NumRanks: s.numRanks,
		Complete: complete, Incomplete: incompleteReason,
	}); err != nil {
		d.sessionError(s, err)
	}
	// Tails of this session finish on the flipped metadata; wake them to it.
	trace.NoteGrowth(filepath.Join(s.dir, sessionMetaName))
	d.mu.Lock()
	s.state = sessDone
	s.incomplete = incompleteReason
	d.active--
	d.perClient[s.clientID]--
	if d.perClient[s.clientID] <= 0 {
		delete(d.perClient, s.clientID)
	}
	reject := RejectClosed
	if s.killReason != "" {
		reject = s.killReason
	}
	ixDone, ixPend := s.gw.IndexStatus()
	d.retireLocked(s.id, &retiredSession{
		status: &SessionStatus{
			ID: s.id, ClientID: s.clientID, State: sessDone.String(),
			Accepted: s.accepted, Durable: s.durable, Bytes: s.lastBytes,
			Recovered: s.recovered, SegsIndexed: ixDone, SegsPending: ixPend,
		},
		reject: reject,
	})
	d.mu.Unlock()
	metrics().sessActive.Add(-1)
	metrics().sessDrained.Inc()
	if l := obs.Events(); l.Enabled(obs.LevelInfo) {
		l.Log(obs.LevelInfo, "daemon.finalized", obs.F("session", s.id),
			obs.F("complete", complete), obs.F("records", s.durable))
	}
}

// retireLocked evicts a finalized session from the live map, keeping a
// capped tombstone so resume attempts are refused and Sessions() keeps
// reporting it. Caller holds d.mu.
func (d *Daemon) retireLocked(id string, r *retiredSession) {
	delete(d.sessions, id)
	if _, known := d.retired[id]; !known {
		d.retiredOrder = append(d.retiredOrder, id)
	}
	d.retired[id] = r
	for len(d.retiredOrder) > retiredRetention {
		delete(d.retired, d.retiredOrder[0])
		d.retiredOrder = d.retiredOrder[1:]
	}
}

// ackWriteTimeout bounds one daemon→client line write. It is deliberately
// not derived from the keepalive cadence: a short cadence must not turn a
// scheduling hiccup into a failed write.
const ackWriteTimeout = 2 * time.Second

// killDrain bounds how long a killed session's connection stays half-open
// waiting for the peer to read the kill line and hang up.
const killDrain = 2 * time.Second

// writeAck sends one acknowledgement line, "TDBGACK <n> <win>".
func writeAck(conn net.Conn, n, win uint64) error {
	return writeLine(conn, fmt.Sprintf("%s%d %d\n", ackPrefix, n, win))
}

// writeLine writes one protocol line under ackWriteTimeout.
func writeLine(conn net.Conn, line string) error {
	conn.SetWriteDeadline(time.Now().Add(ackWriteTimeout))
	_, err := io.WriteString(conn, line)
	conn.SetWriteDeadline(time.Time{})
	return err
}

// ackSender is the only writer on a streaming connection after the
// handshake, so acks and the terminal kill line reach the client in order.
//
// Credit follows durability: the session's writer wakes the sender as soon
// as the durable count is a quarter window past the last one advertised
// (publishDurableLocked), and the sender answers with "TDBGACK durable win".
// That is the HTTP/2 window-update rule, and it cannot deadlock: a client is
// only ever stalled with a full window in flight beyond the last advertised
// count, and a full window becoming durable crosses a quarter of it. The
// ticker is the idle keepalive — liveness and a fresh resume point for
// connections that earn no grant.
//
// A failed ack write is fatal to the connection, not just to the sender: a
// connection that stays open with nobody granting credit wedges both ends
// ("connected, err=nil" forever), so the sender closes it and the client's
// ackReader reconnects and resumes from accepted.
func (d *Daemon) ackSender(conn net.Conn, s *session, myGen int, win uint64, wake <-chan struct{}, stop <-chan struct{}) {
	defer d.wg.Done()
	var keepalive <-chan time.Time
	if d.opts.Heartbeat > 0 {
		tick := time.NewTicker(d.opts.Heartbeat)
		defer tick.Stop()
		keepalive = tick.C
	}
	for {
		select {
		case <-stop:
			return
		case <-wake:
		case <-keepalive:
		}
		d.mu.Lock()
		mine := s.gen == myGen
		state, reason := s.state, s.killReason
		live := mine && s.conn == conn && state == sessActive
		durable := s.durable
		if live {
			s.advertised = durable
		}
		d.mu.Unlock()
		if mine && state == sessKilled {
			d.sendKill(conn, reason, stop)
			return
		}
		if !live {
			return // superseded, or finalizing closed the connection
		}
		if err := writeAck(conn, durable, win); err != nil {
			d.ackWriteFailed(conn, s, myGen, err)
			return
		}
		metrics().collHeartbeats.Inc()
	}
}

// sendKill delivers the terminal TDBGQUO line, half-closes so the line is
// followed by a FIN rather than overtaken by an RST, and gives the peer
// killDrain to hang up (the handler lingers reading meanwhile) before the
// connection is closed under it.
func (d *Daemon) sendKill(conn net.Conn, reason string, stop <-chan struct{}) {
	writeLine(conn, quoPrefix+reason+"\n") //nolint:ioerr // peer may already be gone; the kill is recorded server-side
	if hc, ok := conn.(interface{ CloseWrite() error }); ok {
		hc.CloseWrite() //nolint:ioerr // peer may already be gone
	}
	t := time.NewTimer(killDrain)
	defer t.Stop()
	select {
	case <-stop:
	case <-t.C:
		conn.Close() //nolint:ioerr // peer never hung up; the kill is recorded server-side
	}
}

// ackWriteFailed closes a connection whose ack could not be written. The
// sender is gone after this, so the connection must go with it whatever
// state the session has moved to meanwhile; only the warning is kept for
// writes that did not merely lose a race with the connection's own teardown.
func (d *Daemon) ackWriteFailed(conn net.Conn, s *session, myGen int, err error) {
	d.mu.Lock()
	live := s.gen == myGen && s.conn == conn && s.state == sessActive && !s.finalizing
	d.mu.Unlock()
	if l := obs.Events(); live && l.Enabled(obs.LevelWarn) {
		l.Log(obs.LevelWarn, "daemon.ack_write_failed",
			obs.F("session", s.id), obs.F("err", err.Error()))
	}
	conn.Close() //nolint:ioerr // unusable for acks; the client resumes on a new connection
}

// idleDropped classifies a read error as the idle-timeout deadline firing.
func (d *Daemon) idleDropped(conn net.Conn, s *session, err error) error {
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		return nil
	}
	metrics().collIdleDrops.Inc()
	if l := obs.Events(); l.Enabled(obs.LevelWarn) {
		l.Log(obs.LevelWarn, "daemon.idle_drop", obs.F("session", s.id),
			obs.F("peer", conn.RemoteAddr().String()))
	}
	return fmt.Errorf("idle timeout after %v", d.opts.IdleTimeout)
}

// Sessions returns a snapshot of every live session plus the retained
// statuses of recently finalized ones (sessions finalized by a previous
// daemon life are admission tombstones only and are not listed).
func (d *Daemon) Sessions() []SessionStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]SessionStatus, 0, len(d.sessions)+len(d.retired))
	for _, s := range d.sessions {
		ixDone, ixPend := s.gw.IndexStatus()
		out = append(out, SessionStatus{
			ID: s.id, ClientID: s.clientID, State: s.state.String(),
			Accepted: s.accepted, Durable: s.durable, Bytes: s.lastBytes,
			Recovered: s.recovered, Connected: s.conn != nil,
			SegsIndexed: ixDone, SegsPending: ixPend,
		})
	}
	for _, r := range d.retired {
		if r.status != nil {
			out = append(out, *r.status)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SessionManifest returns the manifest path of a session's segment store —
// the path to hand to store.Open.
func (d *Daemon) SessionManifest(sessionID string) string {
	return filepath.Join(d.opts.Dir, sessionID, sessionBase+".manifest")
}

// DiskUsed returns bytes written across all sessions.
func (d *Daemon) DiskUsed() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.diskUsed
}

// Errs returns stream and session errors observed so far.
func (d *Daemon) Errs() []error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]error(nil), d.errs...)
}

// Drain stops accepting, finalizes every session (writing each manifest and
// marking unfinished ones incomplete), and waits for all daemon goroutines
// to exit, up to timeout (<= 0: wait forever). Sessions finalize in
// parallel; a drain that times out returns an error with the laggard count.
func (d *Daemon) Drain(timeout time.Duration) error {
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		d.wg.Wait()
		return nil
	}
	d.draining = true
	close(d.stop)
	open := make([]*session, 0, len(d.sessions))
	for _, s := range d.sessions {
		if s.state != sessDone {
			open = append(open, s)
		}
	}
	// Unblock handshake-phase connections that will never finish.
	for conn, phase := range d.conns {
		if phase == phaseHandshake {
			conn.Close() //nolint:ioerr // drain; handshake-phase conns are abandoned by design
		}
	}
	d.mu.Unlock()
	d.ln.Close() //nolint:ioerr // listener teardown on drain
	if l := obs.Events(); l.Enabled(obs.LevelInfo) {
		l.Log(obs.LevelInfo, "daemon.drain", obs.F("sessions", len(open)))
	}
	for _, s := range open {
		d.goFinalize(s, "daemon drained before session completed")
	}
	done := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(done)
	}()
	if timeout <= 0 {
		<-done
		return nil
	}
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
		d.mu.Lock()
		laggards := 0
		for _, s := range d.sessions {
			if s.state != sessDone {
				laggards++
			}
		}
		d.mu.Unlock()
		return fmt.Errorf("remote: drain timed out after %v with %d session(s) unfinalized", timeout, laggards)
	}
}

// Close is Drain with no time bound.
func (d *Daemon) Close() error { return d.Drain(0) }

// Kill tears the daemon down without finalizing: no manifests are written
// and session metadata stays in the not-complete state, leaving the session
// directories exactly as crash recovery expects to find them. Unlike a real
// crash it still waits for every goroutine (so tests stay leak-clean), which
// flushes queued records — tests wanting a torn tail truncate the last
// segment afterwards.
func (d *Daemon) Kill() {
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		d.wg.Wait()
		return
	}
	d.draining = true
	close(d.stop)
	conns := make([]net.Conn, 0, len(d.conns))
	for conn := range d.conns {
		conns = append(conns, conn)
	}
	open := make([]*session, 0, len(d.sessions))
	for _, s := range d.sessions {
		if s.state != sessDone && !s.finalizing {
			s.finalizing = true // block any later finalize from double-closing
			open = append(open, s)
		}
	}
	d.mu.Unlock()
	d.ln.Close() //nolint:ioerr // hard kill; abrupt teardown is the point
	for _, conn := range conns {
		conn.Close() //nolint:ioerr // hard kill; abrupt teardown is the point
	}
	for _, s := range open {
		s.handlerWG.Wait()
		close(s.queue)
		<-s.qdone
	}
	d.wg.Wait()
}

// writeSessionMeta persists session.json atomically and durably: the bytes
// are fsynced before the rename and the directory entry after it, so crash
// recovery never reads a torn metadata file and a published update cannot
// revert to a zero-length tmp artifact (the classic write-then-rename-without-
// fsync hazard).
func writeSessionMeta(fsys iofault.FS, dir string, m *sessionMeta) error {
	body, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	body = append(body, '\n')
	tmp := filepath.Join(dir, sessionMetaName+".tmp")
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	_, werr := f.Write(body)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fsys.Remove(tmp) //nolint:ioerr // best-effort cleanup on a failing disk
		return werr
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, sessionMetaName)); err != nil {
		fsys.Remove(tmp) //nolint:ioerr // best-effort cleanup on a failing disk
		return err
	}
	return fsys.SyncDir(dir)
}

func (d *Daemon) readSessionMeta(dir string) (*sessionMeta, error) {
	body, err := d.fs.ReadFile(filepath.Join(dir, sessionMetaName))
	if err != nil {
		return nil, err
	}
	var m sessionMeta
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// recoverSessions scans the root directory for sessions a previous daemon
// left behind. Finalized sessions only contribute their bytes to the disk
// budget; partial ones are salvaged — every segment is reduced to its clean
// prefix (rewritten atomically when damaged) — and reopened for resume, so
// no accepted-then-durable record is ever lost to a daemon crash.
func (d *Daemon) recoverSessions() error {
	entries, err := d.fs.ReadDir(d.opts.Dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(d.opts.Dir, e.Name())
		meta, err := d.readSessionMeta(dir)
		if err != nil {
			if os.IsNotExist(err) {
				continue // not a session directory
			}
			d.errs = append(d.errs, fmt.Errorf("remote: recover %s: %w", e.Name(), err))
			continue
		}
		size := d.sessionDirBytes(dir)
		if meta.Complete || meta.Incomplete != "" {
			// Already finalized: count its bytes against the disk budget and
			// leave an admission tombstone (status nil: not listed) so a late
			// resume attempt is refused instead of clobbering the sealed store.
			d.diskUsed += size
			d.retireLocked(meta.SessionID, &retiredSession{reject: RejectClosed})
			continue
		}
		s, err := d.salvageSession(dir, meta)
		if err != nil {
			d.errs = append(d.errs, fmt.Errorf("remote: recover %s: %w", e.Name(), err))
			continue
		}
		d.diskUsed += s.lastBytes
		metrics().sessRecovered.Inc()
		metrics().sessActive.Add(1)
		if l := obs.Events(); l.Enabled(obs.LevelInfo) {
			l.Log(obs.LevelInfo, "daemon.recovered", obs.F("session", s.id),
				obs.F("durable", s.durable))
		}
	}
	metrics().sessDiskUsed.Set(d.diskUsed)
	return nil
}

// sessionDirBytes sums the segment bytes of a session directory.
func (d *Daemon) sessionDirBytes(dir string) int64 {
	var n int64
	names, _ := d.fs.Glob(filepath.Join(dir, sessionBase+"-*.trace"))
	for _, name := range names {
		if fi, err := d.fs.Stat(name); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// salvageSession rebuilds a partial session directory into a resumable
// session. Each segment is loaded with clean-prefix semantics (the
// sequential sink guarantees the prefix is wire-order, so the surviving
// record count is an exact resume point); damaged segments are rewritten
// atomically without incomplete markers — whether the *session* ends up
// incomplete is decided at finalize time, once we know whether the client
// resumed.
func (d *Daemon) salvageSession(dir string, meta *sessionMeta) (*session, error) {
	names, err := d.fs.Glob(filepath.Join(dir, sessionBase+"-*.trace"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names) // zero-padded numbering sorts chronologically
	segs := make([]trace.SegmentInfo, 0, len(names))
	for _, name := range names {
		data, err := d.fs.ReadFile(name)
		if err != nil {
			return nil, err
		}
		info, err := d.salvageSegment(name, data, meta.NumRanks)
		if err != nil {
			return nil, fmt.Errorf("segment %s: %w", filepath.Base(name), err)
		}
		segs = append(segs, info)
	}
	gw, err := trace.ResumeSegmentedWriter(dir, sessionBase, meta.NumRanks, d.opts.SegmentBytes, segs,
		trace.WriterOptions{Writer: "tcollect-daemon/" + meta.SessionID, Sync: d.opts.Sync, FS: d.opts.FS,
			BuildIndex: true})
	if err != nil {
		return nil, err
	}
	if err := gw.SyncManifest(); err != nil {
		return nil, err
	}
	durable := uint64(0)
	for _, seg := range segs {
		durable += uint64(seg.Records)
	}
	s := &session{
		id: meta.SessionID, clientID: meta.ClientID, numRanks: meta.NumRanks,
		dir: dir, gw: gw, recovered: true,
		accepted: durable, durable: durable, lastBytes: gw.BytesWritten(),
		queue: make(chan trace.Record, d.opts.QueueRecords),
		qdone: make(chan struct{}),
	}
	d.sessions[meta.SessionID] = s
	d.perClient[meta.ClientID]++
	d.active++
	d.wg.Add(1)
	go d.writerLoop(s)
	return s, nil
}

// salvageSegment reduces one segment file to its clean record prefix. An
// empty or headerless file (created but never flushed) becomes an empty
// segment; a damaged one is rewritten in place (atomic rename) holding just
// the prefix. The prefix property is load-bearing: the surviving record
// count feeds the session's durable/accepted resume point, so keeping any
// record from BEYOND a damaged span would let the client skip retransmitting
// the span and finalize the session "complete" around a silent hole.
func (d *Daemon) salvageSegment(path string, data []byte, numRanks int) (trace.SegmentInfo, error) {
	info := trace.SegmentInfo{Name: filepath.Base(path)}
	st, err := store.OpenBytes(data, store.Options{Mode: store.ModePartial})
	var t *trace.Trace
	if err == nil {
		t, err = st.Trace()
	}
	if err == nil && t.HasGaps() {
		// ModePartial stops at the first damage and records no gaps today; if
		// its semantics ever drift toward salvage (records surviving beyond
		// quarantined spans), fall back to the scanner's strict clean-prefix
		// decode rather than counting post-gap records into the resume point.
		t, err = trace.ReadAllPartial(bytes.NewReader(data))
	}
	if err != nil {
		// Unreadable header: nothing salvageable. Rewrite as an empty,
		// well-formed segment so the store stays loadable.
		t = trace.New(numRanks)
	}
	if err == nil && !t.Incomplete() {
		// Fully clean: keep the original bytes untouched.
		info.Bytes = int64(len(data))
		info.Records = t.Len()
		d.ensureSidecar(path, data)
		return info, nil
	}
	n, werr := rewriteSegment(d.fs, path, t)
	if werr != nil {
		return info, werr
	}
	fi, serr := d.fs.Stat(path)
	if serr != nil {
		return info, serr
	}
	info.Bytes = fi.Size()
	info.Records = n
	if rewritten, rerr := d.fs.ReadFile(path); rerr == nil {
		d.ensureSidecar(path, rewritten)
	}
	return info, nil
}

// ensureSidecar backfills the segment's index sidecar during recovery: the
// crash interrupted the ingest-time build (the in-progress segment never
// got one, and a salvage rewrite invalidates whatever was there). Validated
// existing sidecars are kept; otherwise one is rebuilt from the segment's
// final bytes. Best-effort — on failure any stale sidecar is removed so the
// store falls back to scanning instead of distrusting the whole manifest.
func (d *Daemon) ensureSidecar(path string, data []byte) {
	ip := trace.IndexPath(path)
	if si, err := trace.ReadIndexFileFS(d.fs, ip); err == nil && si.Validate(data) == nil {
		return
	}
	si, err := trace.BuildSegmentIndexBytes(data, trace.DefaultIndexStride)
	if err == nil {
		err = trace.WriteIndexFileFS(d.fs, ip, si)
	}
	if err != nil {
		d.fs.Remove(ip) //nolint:ioerr // scan fallback beats a stale sidecar
		if l := obs.Events(); l.Enabled(obs.LevelWarn) {
			l.Log(obs.LevelWarn, "daemon.sidecar_rebuild_failed",
				obs.F("segment", filepath.Base(path)), obs.F("err", err.Error()))
		}
	}
}

// rewriteSegment atomically replaces a segment file with the salvaged
// records, dropping damage markers (session-level incompleteness is decided
// at finalize). The rename is made durable with a directory fsync: a salvaged
// segment that reverted to its damaged form on the next crash would re-run
// recovery, but one that reverted to the half-written tmp would not load.
func rewriteSegment(fsys iofault.FS, path string, t *trace.Trace) (n int, err error) {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return 0, err
	}
	defer func() {
		if err != nil {
			f.Close()        //nolint:ioerr // best-effort cleanup on a failing disk
			fsys.Remove(tmp) //nolint:ioerr // best-effort cleanup on a failing disk
		}
	}()
	fw, err := trace.NewFileWriterOptions(f, t.NumRanks(), trace.WriterOptions{Writer: "tcollect-recovery"})
	if err != nil {
		return 0, err
	}
	for _, id := range t.MergedOrder() {
		if err = fw.Write(t.MustAt(id)); err != nil {
			return 0, err
		}
	}
	if err = fw.Flush(); err != nil {
		return 0, err
	}
	if err = f.Sync(); err != nil {
		return 0, err
	}
	if err = f.Close(); err != nil {
		return 0, err
	}
	if err = fsys.Rename(tmp, path); err != nil {
		return 0, err
	}
	if err = fsys.SyncDir(filepath.Dir(path)); err != nil {
		return 0, err
	}
	return t.Len(), nil
}
