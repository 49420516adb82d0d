// Command tcollect is the central history collector of the client/server
// debugging architecture: instrumented runs stream their records to it over
// TCP (internal/remote), and it writes the merged history as a trace file
// that tvis/tanalyze/tdbg consume.
//
// Usage:
//
//	tcollect -addr 127.0.0.1:7777 -out run.trace
//
// The collector is the daemon below limited to one session, in a temporary
// directory next to -out. It writes -out and exits once the client closes
// its stream. It gives up after -max-wait if no client
// connects. A client that stays disconnected for -max-wait is given up on
// too: -out is then written with the history received so far, marked
// incomplete. When replacing a crashed collector on a fixed port, -retry
// keeps attempting the bind until the OS releases the address. Clients
// reconnect on their own and resume from whatever the new collector
// acknowledges, so a restarted tcollect ends up with the complete history.
//
// With -daemon, tcollect instead runs as a long-lived multi-session
// collector: every v3 client session lands in its own live-openable segment
// store under -dir, admission control and quotas bound resource use
// (-max-sessions, -session-quota-bytes, -disk-budget-bytes, ...), and
// SIGTERM/SIGINT triggers a graceful drain that finalizes every session's
// manifest within -drain-timeout:
//
//	tcollect -daemon -addr 127.0.0.1:7777 -dir /var/lib/tracedbg/sessions
//
// With -metrics-addr, a daemon also serves its streaming session API next to
// /metrics: GET /sessions is a JSON overview of live sessions and retained
// tombstones, and GET /sessions/<id>/tail streams a session's records as
// NDJSON (or SSE) while they arrive. The -sessions one-shot queries the
// overview of a running daemon and prints it as a table:
//
//	tcollect -sessions 127.0.0.1:9100
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"tracedbg/internal/obs"
	"tracedbg/internal/remote"
	"tracedbg/internal/store"
	"tracedbg/internal/trace"
)

// options bundles the collector invocation parameters.
type options struct {
	addr        string
	out         string
	maxWait     time.Duration
	retry       int           // bind attempts before giving up
	backoffMax  time.Duration // cap on the bind retry delay
	metricsAddr string        // observability endpoint; "" disables
	logLevel    string        // structured event log threshold; "" disables
	sync        string        // output durability policy
	segBytes    int64         // rotate output into segments of this size; 0 = single file
	verify      bool          // round-trip the written output through store.Open

	daemon       bool          // long-lived multi-session mode
	drainTimeout time.Duration // graceful-drain budget on SIGTERM/SIGINT
	dmn          remote.DaemonOptions

	sessionsAddr string // one-shot: query a running daemon's /sessions and exit
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:0", "listen address")
	flag.StringVar(&o.out, "out", "run.trace", "output trace file")
	flag.DurationVar(&o.maxWait, "max-wait", time.Minute,
		"give up if no client connects in time, or if the connected client stays away this long (then -out is written marked incomplete)")
	flag.IntVar(&o.retry, "retry", 1, "attempts to bind the listen address (a just-killed collector may still hold it)")
	flag.DurationVar(&o.backoffMax, "backoff-max", 2*time.Second, "cap on the delay between bind attempts")
	flag.DurationVar(&o.dmn.Heartbeat, "heartbeat", 500*time.Millisecond, "idle keepalive cadence: how often a quiet connection still gets an acknowledgement (credit is granted as records land, so this does not bound throughput)")
	flag.DurationVar(&o.dmn.IdleTimeout, "idle-timeout", 0, "drop connections silent for this long (0 = never)")
	flag.StringVar(&o.metricsAddr, "metrics-addr", "",
		"serve /metrics and /debug/pprof on this address (e.g. 127.0.0.1:9100; empty = off)")
	flag.StringVar(&o.logLevel, "log-level", "",
		"emit structured JSON events to stderr at this level or above (debug|info|warn|error; empty = off)")
	flag.StringVar(&o.sync, "sync", "none",
		"output durability policy: none, interval, every-chunk")
	flag.Int64Var(&o.segBytes, "segment-bytes", 0,
		"rotate the output into size-bounded segments with a checksummed manifest (0 = single file)")
	flag.BoolVar(&o.verify, "verify", false,
		"after writing, re-open the output through the trace store and check it round-trips cleanly")
	flag.BoolVar(&o.daemon, "daemon", false,
		"run as a long-lived multi-session daemon; every session lands under -dir")
	flag.StringVar(&o.dmn.Dir, "dir", "tcollect-sessions",
		"daemon mode: session root directory (one segment store per session)")
	flag.IntVar(&o.dmn.MaxSessions, "max-sessions", 64,
		"daemon mode: max concurrently active sessions before admission rejects")
	flag.IntVar(&o.dmn.MaxSessionsPerClient, "max-sessions-per-client", 4,
		"daemon mode: max active sessions per client ID")
	flag.Int64Var(&o.dmn.SessionQuotaBytes, "session-quota-bytes", 0,
		"daemon mode: byte quota per session (0 = unlimited)")
	flag.Uint64Var(&o.dmn.SessionQuotaRecords, "session-quota-records", 0,
		"daemon mode: record quota per session (0 = unlimited)")
	flag.Int64Var(&o.dmn.DiskBudgetBytes, "disk-budget-bytes", 0,
		"daemon mode: global disk budget across all sessions (0 = unlimited)")
	flag.IntVar(&o.dmn.QueueRecords, "queue-records", 1024,
		"daemon mode: per-session ingest queue capacity = client credit window")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second,
		"daemon mode: graceful-drain budget on SIGTERM/SIGINT")
	flag.StringVar(&o.sessionsAddr, "sessions", "",
		"one-shot: query a running daemon's session overview at this metrics address and exit")
	flag.Parse()
	if o.sessionsAddr != "" {
		if err := runSessions(o.sessionsAddr, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "tcollect:", err)
			os.Exit(1)
		}
		return
	}
	if o.daemon {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
		if err := runDaemon(o, os.Stdout, sig); err != nil {
			fmt.Fprintln(os.Stderr, "tcollect:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tcollect:", err)
		os.Exit(1)
	}
}

// setupObs wires the opt-in observability surfaces: the live endpoint (with
// any extra application mounts — the daemon's /sessions streaming API) and
// the structured event log. It returns a teardown func (never nil).
func setupObs(o options, log interface{ Write([]byte) (int, error) }, mounts map[string]http.Handler) (func(), error) {
	if o.logLevel != "" {
		lv, ok := obs.ParseLevel(o.logLevel)
		if !ok {
			return nil, fmt.Errorf("bad -log-level %q (want debug|info|warn|error)", o.logLevel)
		}
		obs.SetEvents(obs.NewEventLog(os.Stderr, lv))
	}
	if o.metricsAddr == "" {
		return func() {}, nil
	}
	srv, err := obs.ServeWith(o.metricsAddr, obs.Default(), mounts)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "tcollect: metrics on %s/metrics\n", srv.URL())
	if mounts != nil {
		fmt.Fprintf(log, "tcollect: session API on %s/sessions\n", srv.URL())
	}
	return func() { srv.Close() }, nil
}

func run(o options, log interface{ Write([]byte) (int, error) }) error {
	policy, err := trace.ParseSyncPolicy(o.sync)
	if err != nil {
		return err
	}
	stopObs, err := setupObs(o, log, nil)
	if err != nil {
		return err
	}
	defer stopObs()
	// The session store is scratch: -out is what the run leaves behind.
	tmp, err := os.MkdirTemp(filepath.Dir(o.out), ".tcollect-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	o.dmn = remote.DaemonOptions{
		Dir: tmp, MaxSessions: 1,
		Heartbeat: o.dmn.Heartbeat, IdleTimeout: o.dmn.IdleTimeout,
	}
	d, err := listenDaemon(o)
	if err != nil {
		return err
	}
	defer d.Close()
	fmt.Fprintf(log, "tcollect: listening on %s\n", d.Addr())

	id, err := awaitSession(d, o.maxWait)
	if err != nil {
		return err
	}
	if err := d.Close(); err != nil {
		return err
	}
	st, err := store.Open(d.SessionManifest(id))
	if err != nil {
		return err
	}
	tr, err := st.Trace()
	st.Close()
	if err != nil {
		return err
	}

	wopts := trace.WriterOptions{Writer: "tcollect", Sync: policy}
	written := o.out
	if o.segBytes > 0 {
		manifest, err := writeSegmented(o, tr, wopts)
		if err != nil {
			return err
		}
		written = manifest
	} else if err := trace.WriteFileAtomic(o.out, tr, wopts); err != nil {
		return err
	}
	fmt.Fprintf(log, "tcollect: wrote %d records from %d ranks to %s\n", tr.Len(), tr.NumRanks(), o.out)
	if tr.Incomplete() {
		fmt.Fprintf(log, "tcollect: history incomplete: %s\n", tr.IncompleteReason())
	}
	if o.verify {
		if err := verifyOutput(written, tr); err != nil {
			return fmt.Errorf("verify %s: %w", written, err)
		}
		fmt.Fprintf(log, "tcollect: verified %s: %d records round-trip\n", written, tr.Len())
	}
	for _, e := range d.Errs() {
		fmt.Fprintf(log, "tcollect: stream error: %v\n", e)
	}
	return nil
}

// awaitSession waits for the daemon's one session to finalize and returns
// its ID. It fails if no session opens within maxWait; a session whose
// client stays disconnected for maxWait is drained, which finalizes it
// marked incomplete.
func awaitSession(d *remote.Daemon, maxWait time.Duration) (string, error) {
	start := time.Now()
	var away time.Time // when the session was first seen disconnected
	for {
		time.Sleep(10 * time.Millisecond)
		sessions := d.Sessions()
		if len(sessions) == 0 {
			if time.Since(start) > maxWait {
				return "", fmt.Errorf("no client connected within %v", maxWait)
			}
			continue
		}
		s := sessions[0]
		for _, t := range sessions {
			if t.State == "done" {
				s = t // one finished while a newcomer was admitted
				break
			}
		}
		switch {
		case s.State == "done":
			return s.ID, nil
		case s.Connected:
			away = time.Time{}
		case away.IsZero():
			away = time.Now()
		case time.Since(away) > maxWait:
			return s.ID, d.Close()
		}
	}
}

// runDaemon is the -daemon entry point: serve multi-session collection until
// a SIGTERM/SIGINT arrives, then drain gracefully — every admitted session's
// manifest is finalized before exit, so each one opens via the trace store.
func runDaemon(o options, log interface{ Write([]byte) (int, error) }, sig <-chan os.Signal) error {
	policy, err := trace.ParseSyncPolicy(o.sync)
	if err != nil {
		return err
	}
	o.dmn.Sync = policy
	if o.segBytes > 0 {
		o.dmn.SegmentBytes = o.segBytes
	}
	// Bind the daemon before the observability endpoint so its streaming
	// session API (/sessions, /sessions/<id>/tail) can mount next to /metrics.
	d, err := listenDaemon(o)
	if err != nil {
		return err
	}
	stopObs, err := setupObs(o, log, d.Mounts())
	if err != nil {
		d.Close()
		return err
	}
	defer stopObs()
	fmt.Fprintf(log, "tcollect: daemon listening on %s, sessions in %s\n", d.Addr(), d.Dir())
	if n := len(d.Sessions()); n > 0 {
		fmt.Fprintf(log, "tcollect: recovered %d session(s) from a previous run\n", n)
	}

	s := <-sig
	fmt.Fprintf(log, "tcollect: %v: draining (budget %v)\n", s, o.drainTimeout)
	drainErr := d.Drain(o.drainTimeout)
	for _, st := range d.Sessions() {
		note := "complete"
		if st.State != "done" {
			note = "UNFINALIZED"
		} else if st.Recovered {
			note = "recovered"
		}
		fmt.Fprintf(log, "tcollect: session %s: %d records, %d bytes (%s)\n",
			st.ID, st.Durable, st.Bytes, note)
	}
	for _, e := range d.Errs() {
		fmt.Fprintf(log, "tcollect: stream error: %v\n", e)
	}
	fmt.Fprintf(log, "tcollect: drained, %d bytes on disk\n", d.DiskUsed())
	return drainErr
}

// runSessions is the -sessions one-shot: fetch a running daemon's session
// overview from its metrics endpoint and print it as a table.
func runSessions(addr string, log interface{ Write([]byte) (int, error) }) error {
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	url = strings.TrimSuffix(url, "/") + "/sessions"
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var ov remote.SessionsOverview
	if err := json.NewDecoder(resp.Body).Decode(&ov); err != nil {
		return fmt.Errorf("decode %s: %w", url, err)
	}
	state := "accepting"
	if ov.Draining {
		state = "draining"
	}
	fmt.Fprintf(log, "daemon: %s, %d/%d active session(s), %d bytes on disk", state, ov.Active, ov.MaxSessions, ov.DiskUsedBytes)
	if ov.DiskBudgetBytes > 0 {
		fmt.Fprintf(log, " (budget %d)", ov.DiskBudgetBytes)
	}
	fmt.Fprintln(log)
	if len(ov.Sessions) == 0 {
		fmt.Fprintln(log, "no sessions")
		return nil
	}
	tw := tabwriter.NewWriter(log, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "SESSION\tCLIENT\tSTATE\tACCEPTED\tDURABLE\tQUEUED\tBYTES\tIDX\tFLAGS")
	for _, s := range ov.Sessions {
		var flags []string
		if s.Recovered {
			flags = append(flags, "recovered")
		}
		if s.Connected {
			flags = append(flags, "connected")
		}
		// IDX is sidecar progress: sealed segments indexed / total segments
		// owed one. A finalized session should read n/n — anything else
		// means a sidecar write failed and trepair -index can backfill.
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%d\t%d\t%d/%d\t%s\n",
			s.ID, s.ClientID, s.State, s.Accepted, s.Durable, s.Queued, s.Bytes,
			s.SegsIndexed, s.SegsIndexed+s.SegsPending, strings.Join(flags, ","))
	}
	return tw.Flush()
}

// listenDaemon binds the daemon, retrying with growing delays: a collector
// restarted in place of a crashed one may race the kernel for the port.
func listenDaemon(o options) (*remote.Daemon, error) {
	delay := 100 * time.Millisecond
	for attempt := 1; ; attempt++ {
		d, err := remote.NewDaemon(o.addr, o.dmn)
		if err == nil || attempt >= o.retry {
			return d, err
		}
		if delay > o.backoffMax {
			delay = o.backoffMax
		}
		time.Sleep(delay)
		delay *= 2
	}
}

// verifyOutput re-opens what was just written through the store — the same
// path every consumer takes — and checks the history round-tripped intact.
func verifyOutput(path string, want *trace.Trace) error {
	st, err := store.Open(path)
	if err != nil {
		return err
	}
	got, err := st.Trace()
	if err != nil {
		return err
	}
	if got.Len() != want.Len() {
		return fmt.Errorf("record count mismatch: wrote %d, read back %d", want.Len(), got.Len())
	}
	if got.NumRanks() != want.NumRanks() {
		return fmt.Errorf("rank count mismatch: wrote %d, read back %d", want.NumRanks(), got.NumRanks())
	}
	if got.HasGaps() {
		return fmt.Errorf("read back %d damaged span(s)", len(got.Gaps()))
	}
	if got.Incomplete() != want.Incomplete() {
		return fmt.Errorf("incomplete flag mismatch: wrote %v, read back %v", want.Incomplete(), got.Incomplete())
	}
	return nil
}

// writeSegmented rotates the collected history into size-bounded segment
// files next to -out, each independently checksummed and loadable, with a
// manifest tying them together (store.Open reassembles). Returns the
// manifest path.
func writeSegmented(o options, tr *trace.Trace, wopts trace.WriterOptions) (string, error) {
	dir := filepath.Dir(o.out)
	base := strings.TrimSuffix(filepath.Base(o.out), filepath.Ext(o.out))
	gw, err := trace.NewSegmentedWriter(dir, base, tr.NumRanks(), o.segBytes, wopts)
	if err != nil {
		return "", err
	}
	for _, id := range tr.MergedOrder() {
		if err := gw.Write(tr.MustAt(id)); err != nil {
			return "", err
		}
	}
	if tr.Incomplete() {
		if err := gw.WriteIncomplete(tr.IncompleteReason()); err != nil {
			return "", err
		}
	}
	return gw.ManifestPath(), gw.Close()
}
