package remote

// The daemon's streaming session API: dash-style HTTP endpoints mounted
// next to the obs /metrics handler (obs.HandlerWith).
//
//	GET /sessions                 JSON overview: admission/quota state plus
//	                              every live session and retained tombstone
//	GET /sessions/<id>/tail       live record stream, NDJSON by default or
//	                              SSE under Accept: text/event-stream
//
// A tail consumer reads from the session's on-disk segment store through
// store.Tail (ModeLive), never from the ingest path: a slow or stalled
// consumer cannot exert backpressure on the client connection. Each consumer
// gets its own bounded record queue; when the consumer falls behind the
// queue, overflow records are dropped and counted (surfaced in the trailing
// eof object and in tracedbg_collector_stream_dropped_total) rather than
// buffered without bound or allowed to stall the pump. The stream finalizes
// — a trailing {"eof":true,...} line — when the session completes, because
// the daemon marks session.json complete only after the final manifest is
// durable (the store's default Done predicate).

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"tracedbg/internal/store"
	"tracedbg/internal/trace"
)

// wireRecord is the JSON shape of one streamed trace record. Field names
// follow the Record struct; zero-valued message fields are elided so pure
// compute records stay one short line.
type wireRecord struct {
	Kind        string   `json:"kind"`
	Rank        int      `json:"rank"`
	Marker      uint64   `json:"marker"`
	Start       int64    `json:"start"`
	End         int64    `json:"end"`
	File        string   `json:"file,omitempty"`
	Line        int      `json:"line,omitempty"`
	Func        string   `json:"func,omitempty"`
	Name        string   `json:"name,omitempty"`
	Src         int      `json:"src,omitempty"`
	Dst         int      `json:"dst,omitempty"`
	Tag         int      `json:"tag,omitempty"`
	Bytes       int      `json:"bytes,omitempty"`
	MsgID       uint64   `json:"msg_id,omitempty"`
	WasWildcard bool     `json:"was_wildcard,omitempty"`
	Fault       string   `json:"fault,omitempty"`
	Args        [2]int64 `json:"args,omitempty"`
}

func toWire(r *trace.Record) wireRecord {
	return wireRecord{
		Kind: r.Kind.String(), Rank: r.Rank, Marker: r.Marker,
		Start: r.Start, End: r.End,
		File: r.Loc.File, Line: r.Loc.Line, Func: r.Loc.Func, Name: r.Name,
		Src: r.Src, Dst: r.Dst, Tag: r.Tag, Bytes: r.Bytes, MsgID: r.MsgID,
		WasWildcard: r.WasWildcard, Fault: r.Fault, Args: r.Args,
	}
}

// SessionEntry is the JSON shape of one session in the /sessions overview.
type SessionEntry struct {
	ID        string `json:"id"`
	ClientID  string `json:"client_id"`
	State     string `json:"state"`
	Accepted  uint64 `json:"accepted"`
	Durable   uint64 `json:"durable"`
	Queued    uint64 `json:"queued"` // accepted but not yet durable
	Bytes     int64  `json:"bytes"`
	Recovered bool   `json:"recovered,omitempty"`
	Connected bool   `json:"connected"`

	// Persistent-index progress of the session's segment store.
	SegsIndexed int `json:"segs_indexed"`
	SegsPending int `json:"segs_pending"`
}

// SessionsOverview is the GET /sessions response body.
type SessionsOverview struct {
	Draining           bool           `json:"draining"`
	Degraded           bool           `json:"degraded,omitempty"`
	DegradedReason     string         `json:"degraded_reason,omitempty"`
	Active             int            `json:"active"`
	MaxSessions        int            `json:"max_sessions"`
	DiskUsedBytes      int64          `json:"disk_used_bytes"`
	DiskBudgetBytes    int64          `json:"disk_budget_bytes,omitempty"`
	QueueRecords       int            `json:"queue_records"`
	StreamQueueRecords int            `json:"stream_queue_records"`
	Sessions           []SessionEntry `json:"sessions"`
}

// HTTPHandler returns the daemon's streaming session API, for mounting at
// /sessions and /sessions/ (both patterns, so the bare collection URL and
// the per-session subtree resolve) on the observability mux.
func (d *Daemon) HTTPHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		rest := strings.TrimPrefix(r.URL.Path, "/sessions")
		rest = strings.Trim(rest, "/")
		switch {
		case rest == "":
			d.serveSessions(w)
		case strings.HasSuffix(rest, "/tail") && !strings.Contains(strings.TrimSuffix(rest, "/tail"), "/"):
			d.serveTail(w, r, strings.TrimSuffix(rest, "/tail"))
		default:
			http.NotFound(w, r)
		}
	})
}

func (d *Daemon) serveSessions(w http.ResponseWriter) {
	d.mu.Lock()
	ov := SessionsOverview{
		Draining:           d.draining,
		Degraded:           d.degraded,
		DegradedReason:     d.degradedReason,
		Active:             d.active,
		MaxSessions:        d.opts.MaxSessions,
		DiskUsedBytes:      d.diskUsed,
		DiskBudgetBytes:    d.opts.DiskBudgetBytes,
		QueueRecords:       d.opts.QueueRecords,
		StreamQueueRecords: d.opts.StreamQueueRecords,
	}
	d.mu.Unlock()
	for _, s := range d.Sessions() {
		ov.Sessions = append(ov.Sessions, SessionEntry{
			ID: s.ID, ClientID: s.ClientID, State: s.State,
			Accepted: s.Accepted, Durable: s.Durable, Queued: s.Accepted - s.Durable,
			Bytes: s.Bytes, Recovered: s.Recovered, Connected: s.Connected,
			SegsIndexed: s.SegsIndexed, SegsPending: s.SegsPending,
		})
	}
	if ov.Sessions == nil {
		ov.Sessions = []SessionEntry{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(ov); err != nil {
		return // consumer went away mid-write; nothing to salvage
	}
}

// sessionKnown reports whether the id names a session this daemon can serve:
// live, retired with a retained status, or present on disk from a previous
// daemon life.
func (d *Daemon) sessionKnown(id string) bool {
	d.mu.Lock()
	_, live := d.sessions[id]
	_, retiredHere := d.retired[id]
	d.mu.Unlock()
	if live || retiredHere {
		return true
	}
	fi, err := os.Stat(filepath.Join(d.opts.Dir, id))
	return err == nil && fi.IsDir()
}

func (d *Daemon) serveTail(w http.ResponseWriter, r *http.Request, id string) {
	if strings.ContainsAny(id, `/\`) || id == "." || id == ".." || !d.sessionKnown(id) {
		http.NotFound(w, r)
		return
	}
	m := metrics()
	ctx := r.Context()
	manifest := d.SessionManifest(id)
	sessionDone := trace.TailDoneWhenComplete(filepath.Dir(manifest))

	// The manifest appears at the writer's first sync (ManifestEvery after
	// admission); wait for it rather than bouncing early consumers.
	var st *store.Store
	for {
		var err error
		st, err = store.Open(manifest, store.Options{Mode: store.ModeLive})
		if err == nil {
			break
		}
		if sessionDone() {
			// Finalized yet unreadable: nothing will ever stream.
			http.Error(w, fmt.Sprintf("session %s has no readable manifest: %v", id, err), http.StatusNotFound)
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(trace.DefaultTailPoll):
		}
	}
	// The pump is woken by this daemon's own writers like any in-process
	// tail, so it takes the store's defaults.
	tc, err := st.Tail()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer tc.Close()

	m.streams.Inc()
	m.streamConsumers.Add(1)
	defer m.streamConsumers.Add(-1)

	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush() // commit headers before the first record arrives
	}

	// Per-consumer bounded queue: the pump drains the disk tail at full
	// speed and drops (counting) what a slow consumer cannot absorb, so one
	// stalled dashboard neither buffers without bound nor holds the cursor
	// open on a retired session forever.
	queue := make(chan trace.Record, d.opts.StreamQueueRecords)
	var dropped atomic.Int64
	pumpCtx, cancelPump := context.WithCancel(ctx)
	defer cancelPump()
	go func() {
		defer close(queue)
		for {
			rec, err := tc.Next(pumpCtx)
			if err != nil {
				return // io.EOF (session finalized) or consumer gone
			}
			select {
			case queue <- *rec:
			default:
				dropped.Add(1)
				m.streamDropped.Inc()
			}
		}
	}()

	var delivered int64
	write := func(v any) bool {
		body, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if sse {
			_, err = fmt.Fprintf(w, "data: %s\n\n", body)
		} else {
			_, err = fmt.Fprintf(w, "%s\n", body)
		}
		return err == nil
	}
	for rec := range queue {
		if !write(toWire(&rec)) {
			return // consumer went away mid-write
		}
		delivered++
		m.streamRecords.Inc()
		if flusher != nil && len(queue) == 0 {
			flusher.Flush()
		}
	}
	if ctx.Err() != nil {
		return
	}
	write(struct {
		EOF     bool  `json:"eof"`
		Records int64 `json:"records"`
		Dropped int64 `json:"dropped"`
	}{true, delivered, dropped.Load()})
	if flusher != nil {
		flusher.Flush()
	}
}

// Mounts returns the handler mounted under the patterns obs.HandlerWith
// expects for this API: the session endpoints plus the health probes.
func (d *Daemon) Mounts() map[string]http.Handler {
	h := d.HTTPHandler()
	return map[string]http.Handler{
		"/sessions": h, "/sessions/": h,
		"/healthz": http.HandlerFunc(d.serveHealthz),
		"/readyz":  http.HandlerFunc(d.serveReadyz),
	}
}

// serveHealthz is the liveness probe: it answers 200 whenever the process is
// up, with the daemon's coarse state in the body for operators. A degraded or
// draining daemon is still alive — its read-side APIs keep serving.
func (d *Daemon) serveHealthz(w http.ResponseWriter, _ *http.Request) {
	writeHealth(w, d.Health(), http.StatusOK)
}

// serveReadyz is the readiness probe: 200 only while the daemon admits new
// sessions. Degraded (disk trouble) and draining read as 503 so load
// balancers stop routing new work while existing consumers finish.
func (d *Daemon) serveReadyz(w http.ResponseWriter, _ *http.Request) {
	h := d.Health()
	code := http.StatusOK
	if h.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	writeHealth(w, h, code)
}

func writeHealth(w http.ResponseWriter, h HealthState, code int) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	body, _ := json.Marshal(h)
	body = append(body, '\n')
	if _, err := w.Write(body); err != nil {
		return // probe went away mid-write
	}
}
