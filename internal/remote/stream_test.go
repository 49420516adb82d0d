package remote

// End-to-end coverage of the daemon's streaming session API: the /sessions
// overview, live NDJSON/SSE tails racing real wire ingest, and the
// slow-consumer contract (bounded queue, drop-and-count, honest trailing
// accounting).

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"tracedbg/internal/iofault"
	"tracedbg/internal/obs"
	"tracedbg/internal/trace"
)

// wireLine is the union of the two NDJSON line shapes a tail emits.
type wireLine struct {
	EOF     bool   `json:"eof"`
	Records int64  `json:"records"`
	Dropped int64  `json:"dropped"`
	Kind    string `json:"kind"`
	Rank    int    `json:"rank"`
	Marker  uint64 `json:"marker"`
}

func TestHTTPSessionsOverview(t *testing.T) {
	d, err := NewDaemon("127.0.0.1:0", fastDaemon(t))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := httptest.NewServer(obs.HandlerWith(obs.Nop(), d.Mounts()))
	defer srv.Close()

	cl, err := DialOptions(d.Addr(), 2, sessionClient("overview-a"))
	if err != nil {
		t.Fatal(err)
	}
	var next uint64
	emitMarkers(cl, 2, 50, &next)
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}

	getOverview := func() SessionsOverview {
		t.Helper()
		resp, err := http.Get(srv.URL + "/sessions")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /sessions: %s", resp.Status)
		}
		var ov SessionsOverview
		if err := json.NewDecoder(resp.Body).Decode(&ov); err != nil {
			t.Fatalf("decode overview: %v", err)
		}
		return ov
	}

	ov := getOverview()
	if ov.Active != 1 || ov.MaxSessions != 64 || ov.QueueRecords != 1024 || ov.StreamQueueRecords != 256 {
		t.Fatalf("overview while live: %+v", ov)
	}
	found := false
	for _, s := range ov.Sessions {
		if s.ID == "overview-a" {
			found = true
			if s.Queued != s.Accepted-s.Durable {
				t.Fatalf("queued %d != accepted %d - durable %d", s.Queued, s.Accepted, s.Durable)
			}
		}
	}
	if !found {
		t.Fatalf("live session missing from overview: %+v", ov.Sessions)
	}

	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, d, "overview-a")
	ov = getOverview()
	if ov.Active != 0 {
		t.Fatalf("active = %d after finalize", ov.Active)
	}
	found = false
	for _, s := range ov.Sessions {
		if s.ID == "overview-a" && s.State == "done" {
			found = true
		}
	}
	if !found {
		t.Fatalf("finalized session tombstone missing: %+v", ov.Sessions)
	}

	// Method and route guards.
	if resp, err := http.Post(srv.URL+"/sessions", "text/plain", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST /sessions: %s", resp.Status)
		}
	}
	if resp, err := http.Get(srv.URL + "/sessions/no-such-session/tail"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET unknown tail: %s", resp.Status)
		}
	}
}

// TestHTTPTailLiveWhileIngesting pins the tentpole scenario: an HTTP
// consumer receives records from a session while the client is still
// emitting over the wire, and the finished stream accounts for every record
// the session ingested.
func TestHTTPTailLiveWhileIngesting(t *testing.T) {
	const ranks, perRank = 2, 150
	opts := fastDaemon(t)
	opts.StreamQueueRecords = 1 << 16 // no drops: the audit below needs continuity
	d, err := NewDaemon("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := httptest.NewServer(obs.HandlerWith(obs.Nop(), d.Mounts()))
	defer srv.Close()

	cl, err := DialOptions(d.Addr(), ranks, sessionClient("live-tail"))
	if err != nil {
		t.Fatal(err)
	}
	var next uint64
	emitMarkers(cl, ranks, perRank/2, &next)
	if err := cl.Flush(); err != nil { // live monitors flush; buffered records are not yet durable
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/sessions/live-tail/tail")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET tail: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	var lines []wireLine
	readLine := func() wireLine {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("stream ended early after %d lines: %v", len(lines), sc.Err())
		}
		var l wireLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
		return l
	}

	// Records must arrive while the session is still live: the client has
	// not closed, so the session cannot have finalized yet.
	first := readLine()
	if first.EOF {
		t.Fatal("stream finalized before the session did")
	}
	for _, s := range d.Sessions() {
		if s.ID == "live-tail" && s.State == "done" {
			t.Fatal("session finalized before the tail proved liveness")
		}
	}

	emitMarkers(cl, ranks, perRank-perRank/2, &next)
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}

	var eof wireLine
	for {
		l := readLine()
		if l.EOF {
			eof = l
			break
		}
	}
	total := int64(ranks * perRank)
	if eof.Records+eof.Dropped != total {
		t.Fatalf("eof accounting: records %d + dropped %d != ingested %d", eof.Records, eof.Dropped, total)
	}
	if eof.Dropped != 0 {
		t.Fatalf("unexpected drops with an oversized stream queue: %d", eof.Dropped)
	}
	// Continuity audit: per rank, markers 1..perRank in order.
	seen := make(map[int]uint64, ranks)
	for _, l := range lines[:len(lines)-1] {
		if l.Kind != trace.KindMarker.String() {
			t.Fatalf("unexpected kind %q", l.Kind)
		}
		if l.Marker != seen[l.Rank]+1 {
			t.Fatalf("rank %d: marker %d after %d", l.Rank, l.Marker, seen[l.Rank])
		}
		seen[l.Rank] = l.Marker
	}
	for r := 0; r < ranks; r++ {
		if seen[r] != perRank {
			t.Fatalf("rank %d: last marker %d, want %d", r, seen[r], perRank)
		}
	}
}

// TestHTTPTailRetiredSSE tails an already-finalized session with an SSE
// accept header: the full history streams as data: frames and finishes with
// the eof object.
func TestHTTPTailRetiredSSE(t *testing.T) {
	const ranks, perRank = 2, 60
	d, err := NewDaemon("127.0.0.1:0", fastDaemon(t))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := httptest.NewServer(obs.HandlerWith(obs.Nop(), d.Mounts()))
	defer srv.Close()

	cl, err := DialOptions(d.Addr(), ranks, sessionClient("retired-sse"))
	if err != nil {
		t.Fatal(err)
	}
	var next uint64
	emitMarkers(cl, ranks, perRank, &next)
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, d, "retired-sse")

	req, err := http.NewRequest("GET", srv.URL+"/sessions/retired-sse/tail", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var n int64
	var eof wireLine
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		body, ok := stringsCutPrefix(line, "data: ")
		if !ok {
			t.Fatalf("non-SSE line %q", line)
		}
		var l wireLine
		if err := json.Unmarshal([]byte(body), &l); err != nil {
			t.Fatalf("bad frame %q: %v", body, err)
		}
		if l.EOF {
			eof = l
			break
		}
		n++
	}
	if !eof.EOF || eof.Records != n || n != int64(ranks*perRank) {
		t.Fatalf("SSE stream: %d records, eof %+v, want %d", n, eof, ranks*perRank)
	}
}

func stringsCutPrefix(s, prefix string) (string, bool) {
	if len(s) >= len(prefix) && s[:len(prefix)] == prefix {
		return s[len(prefix):], true
	}
	return s, false
}

// gatedWriter is an http.ResponseWriter whose Write blocks until the gate
// opens — a deterministic stand-in for a stalled consumer.
type gatedWriter struct {
	gate chan struct{}
	hdr  http.Header
	mu   sync.Mutex
	body []byte
}

func (g *gatedWriter) Header() http.Header { return g.hdr }
func (g *gatedWriter) WriteHeader(int)     {}
func (g *gatedWriter) Write(p []byte) (int, error) {
	<-g.gate
	g.mu.Lock()
	g.body = append(g.body, p...)
	g.mu.Unlock()
	return len(p), nil
}

// TestHTTPTailSlowConsumerDrops pins the backpressure contract: a consumer
// that stops reading loses overflow records beyond its bounded queue — with
// the losses counted in the trailing eof object — instead of buffering the
// session without bound or stalling ingest.
func TestHTTPTailSlowConsumerDrops(t *testing.T) {
	const ranks, perRank = 2, 300
	opts := fastDaemon(t)
	opts.StreamQueueRecords = 4
	d, err := NewDaemon("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	cl, err := DialOptions(d.Addr(), ranks, sessionClient("slow-consumer"))
	if err != nil {
		t.Fatal(err)
	}
	var next uint64
	emitMarkers(cl, ranks, perRank, &next)

	gw := &gatedWriter{gate: make(chan struct{}), hdr: make(http.Header)}
	req := httptest.NewRequest("GET", "/sessions/slow-consumer/tail", nil)
	var hdone sync.WaitGroup
	hdone.Add(1)
	go func() {
		defer hdone.Done()
		d.HTTPHandler().ServeHTTP(gw, req)
	}()

	// Ingest finishes and the session finalizes while the consumer is
	// stalled; the pump must keep draining the tail (dropping) regardless.
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, d, "slow-consumer")
	time.Sleep(100 * time.Millisecond) // let the pump drain to EOF against the full queue
	close(gw.gate)
	hdone.Wait()

	gw.mu.Lock()
	body := string(gw.body)
	gw.mu.Unlock()
	var eof wireLine
	var delivered int64
	sc := bufio.NewScanner(newStringReader(body))
	for sc.Scan() {
		var l wireLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		if l.EOF {
			eof = l
			break
		}
		delivered++
	}
	total := int64(ranks * perRank)
	if !eof.EOF {
		t.Fatalf("no eof object in stalled-consumer stream:\n%s", body)
	}
	if eof.Records != delivered {
		t.Fatalf("eof.records %d, counted %d", eof.Records, delivered)
	}
	if eof.Dropped == 0 {
		t.Fatal("stalled consumer recorded no drops")
	}
	if eof.Records+eof.Dropped != total {
		t.Fatalf("accounting: records %d + dropped %d != ingested %d", eof.Records, eof.Dropped, total)
	}
	// The bounded queue held at most its capacity plus the one record the
	// writer had already taken when it blocked.
	if delivered > int64(opts.StreamQueueRecords)+1 {
		t.Fatalf("delivered %d > queue bound %d", delivered, opts.StreamQueueRecords+1)
	}
	if errs := d.Errs(); len(errs) != 0 {
		t.Fatalf("daemon errors: %v", errs)
	}
}

func newStringReader(s string) io.Reader { return &stringReader{s: s} }

type stringReader struct{ s string }

func (r *stringReader) Read(p []byte) (int, error) {
	if len(r.s) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.s)
	r.s = r.s[n:]
	return n, nil
}

// landFS reports every write that lands in a segment file — the event a
// session's durable count follows — so a test can stand at the durability
// horizon without sleeping up to it.
type landFS struct {
	iofault.FS
	landed chan struct{}
}

func (l landFS) Create(name string) (iofault.File, error) {
	f, err := l.FS.Create(name)
	if err != nil || !strings.HasSuffix(name, ".trace") {
		return f, err
	}
	return landFile{f, l.landed}, nil
}

type landFile struct {
	iofault.File
	landed chan struct{}
}

func (f landFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	select {
	case f.landed <- struct{}{}:
	default:
	}
	return n, err
}

// TestHTTPTailDeliversAtDurable pins that /sessions/<id>/tail consumers are
// woken by the daemon's own writer like any in-process tail: an NDJSON line
// reaches the consumer within 10 ms of Sessions() reporting its record
// durable (half a poll interval would be 12.5 ms, and was 25 ms when the
// stream polled at its own 50 ms).
func TestHTTPTailDeliversAtDurable(t *testing.T) {
	const n = 21
	opts := fastDaemon(t)
	opts.SegmentBytes = 0 // no rotation: one file's writes are the whole story
	landed := make(chan struct{}, 1)
	opts.FS = landFS{iofault.OS(), landed}
	d, err := NewDaemon("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := httptest.NewServer(obs.HandlerWith(obs.Nop(), d.Mounts()))
	defer srv.Close()
	cl, err := DialOptions(d.Addr(), 1, sessionClient("lag"))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := http.Get(srv.URL + "/sessions/lag/tail")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET tail: %s", resp.Status)
	}
	arrived := make(chan time.Time, n)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			arrived <- time.Now()
		}
	}()

	guard := time.After(30 * time.Second)
	lags := make([]time.Duration, 0, n)
	for i := uint64(1); i <= n; i++ {
		select {
		case <-landed: // the header's, or the previous record's second write
		default:
		}
		cl.Emit(&trace.Record{Kind: trace.KindMarker, Marker: i, Start: int64(i), End: int64(i)})
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
		select {
		case <-landed:
		case <-guard:
			t.Fatalf("record %d never reached the segment file", i)
		}
		// The writer publishes the durable count right after the write that
		// just landed: a spin of microseconds, not a wait.
		for durableCount(d, "lag") < i {
			select {
			case <-guard:
				t.Fatalf("record %d landed but was never reported durable", i)
			default:
				runtime.Gosched()
			}
		}
		durable := time.Now()
		select {
		case at := <-arrived:
			lags = append(lags, at.Sub(durable))
		case <-guard:
			t.Fatalf("record %d durable but never streamed", i)
		}
	}
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	t.Logf("durable-to-consumer lag: median %v, max %v", lags[n/2], lags[n-1])
	if lags[n/2] > 10*time.Millisecond {
		t.Fatalf("median durable-to-consumer lag %v over %d records, want <= 10ms: the stream is polling, not woken", lags[n/2], n)
	}
}
