package main

import (
	"bufio"
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"tracedbg/internal/apps"
	"tracedbg/internal/instr"
	"tracedbg/internal/mp"
	"tracedbg/internal/remote"
	"tracedbg/internal/store"
	"tracedbg/internal/trace"
)

// logBuf is a concurrency-safe writer for the collector's log output.
type logBuf struct {
	mu sync.Mutex
	sb strings.Builder
}

func (l *logBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sb.Write(p)
}

func (l *logBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sb.String()
}

func TestCollectEndToEnd(t *testing.T) {
	out := filepath.Join(t.TempDir(), "run.trace")
	log := &logBuf{}

	done := make(chan error, 1)
	// We need the collector's chosen port; run it on a fixed loopback port
	// chosen by the OS via a pre-bound listener is not exposed, so use a
	// known port via remote directly... instead: start run() with :0 and
	// parse the printed address.
	go func() { done <- run(testOptions("127.0.0.1:0", out, 10*time.Second), log) }()

	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("collector never printed its address: %q", log.String())
		}
		for _, line := range strings.Split(log.String(), "\n") {
			if strings.HasPrefix(line, "tcollect: listening on ") {
				addr = strings.TrimPrefix(line, "tcollect: listening on ")
			}
		}
		time.Sleep(10 * time.Millisecond)
	}

	client, err := remote.Dial(addr, 3)
	if err != nil {
		t.Fatal(err)
	}
	in := instr.New(3, client, instr.LevelAll)
	if err := in.Run(mp.Config{NumRanks: 3}, apps.Ring(2, nil)); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}

	if err := <-done; err != nil {
		t.Fatalf("collector: %v", err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NumRanks() != 3 || tr.Len() == 0 {
		t.Fatalf("collected trace: %d ranks, %d records", tr.NumRanks(), tr.Len())
	}
	if !strings.Contains(log.String(), "wrote") {
		t.Errorf("log: %q", log.String())
	}
}

// startCollect runs the one-shot collector on a loopback port and returns
// its address and the channel run's result arrives on.
func startCollect(t *testing.T, o options, log *logBuf) (string, <-chan error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- run(o, log) }()
	return waitAddr(t, log, "tcollect: listening on "), done
}

// emitMarkers emits n records per rank with contiguous marker values
// continuing from *next.
func emitMarkers(cl *remote.Client, ranks, n int, next *uint64) {
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

// readOut opens the collector's output through the store.
func readOut(t *testing.T, path string) *trace.Trace {
	t.Helper()
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tr, err := st.Trace()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestCollectWaitsOutPausedTarget: a target that goes quiet mid-run is not
// finished. The collector writes -out only once the client closes its
// stream, so the history holds the records emitted after the pause too.
func TestCollectWaitsOutPausedTarget(t *testing.T) {
	const ranks = 2
	out := filepath.Join(t.TempDir(), "run.trace")
	addr, done := startCollect(t, testOptions("127.0.0.1:0", out, 10*time.Second), &logBuf{})
	cl, err := remote.Dial(addr, ranks)
	if err != nil {
		t.Fatal(err)
	}
	var next uint64
	emitMarkers(cl, ranks, 20, &next)
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Second)
	emitMarkers(cl, ranks, 20, &next)
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("collector: %v", err)
	}
	tr := readOut(t, out)
	if tr.Incomplete() {
		t.Errorf("closed run written incomplete: %s", tr.IncompleteReason())
	}
	for r := 0; r < ranks; r++ {
		if n := tr.RankLen(r); n != int(next) {
			t.Errorf("rank %d: %d records in -out, want %d", r, n, next)
		}
	}
}

// TestCollectDeadClientIncomplete: a client that dies without closing its
// stream leaves a session that never finishes. After -max-wait the
// collector gives up on it and writes what arrived, marked incomplete.
func TestCollectDeadClientIncomplete(t *testing.T) {
	const maxWait = 300 * time.Millisecond
	out := filepath.Join(t.TempDir(), "run.trace")
	addr, done := startCollect(t, testOptions("127.0.0.1:0", out, maxWait), &logBuf{})

	// Stream one whole chunk frame and a torn second one, then drop the
	// connection: the target died mid-write.
	var stream bytes.Buffer
	fw, err := trace.NewFileWriter(&stream, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		if i == 11 {
			if err := fw.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		fw.Write(&trace.Record{Kind: trace.KindMarker, Marker: uint64(i), Start: int64(i), End: int64(i)})
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("TDBGREMOTE3 1 doomed doomed\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := bufio.NewReader(conn).ReadString('\n'); err != nil {
		t.Fatalf("handshake ack: %v", err)
	}
	if _, err := conn.Write(stream.Bytes()[:stream.Len()-3]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the whole frame land first
	conn.Close()
	died := time.Now()

	if err := <-done; err != nil {
		t.Fatalf("collector: %v", err)
	}
	if waited := time.Since(died); waited < maxWait {
		t.Errorf("-out written %v after the client died, before -max-wait (%v)", waited, maxWait)
	}
	tr := readOut(t, out)
	if !tr.Incomplete() {
		t.Error("history of a client that never closed written as complete")
	}
	if tr.Len() != 10 {
		t.Errorf("-out holds %d records, want the 10 of the whole frame", tr.Len())
	}
}

func TestCollectTimeout(t *testing.T) {
	log := &logBuf{}
	err := run(testOptions("127.0.0.1:0", filepath.Join(t.TempDir(), "x.trace"), 200*time.Millisecond), log)
	if err == nil || !strings.Contains(err.Error(), "no client connected") {
		t.Fatalf("err = %v", err)
	}
}

func TestCollectBadAddr(t *testing.T) {
	if err := run(testOptions("999.999.999.999:1", "x", time.Second), &logBuf{}); err == nil {
		t.Error("bad address accepted")
	}
}

func TestCollectBadAddrRetriesThenFails(t *testing.T) {
	o := testOptions("999.999.999.999:1", "x", time.Second)
	o.retry = 3
	o.backoffMax = 10 * time.Millisecond
	start := time.Now()
	if err := run(o, &logBuf{}); err == nil {
		t.Error("bad address accepted")
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Error("retry loop did not back off between attempts")
	}
}

// testOptions mirrors the flag defaults for direct run() invocations.
func testOptions(addr, out string, maxWait time.Duration) options {
	return options{
		addr: addr, out: out, maxWait: maxWait,
		retry: 1, backoffMax: 2 * time.Second,
		dmn: remote.DaemonOptions{Heartbeat: 20 * time.Millisecond},
	}
}

// waitAddr polls the log for a listen line with the given prefix and returns
// the address that follows it.
func waitAddr(t *testing.T, log *logBuf, prefix string) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, line := range strings.Split(log.String(), "\n") {
			if strings.HasPrefix(line, prefix) {
				return strings.TrimPrefix(line, prefix)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("collector never printed its address: %q", log.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDaemonEndToEnd drives the -daemon mode in-process: two instrumented
// sessions stream concurrently, SIGTERM drains, and both sessions come back
// intact through the store.
func TestDaemonEndToEnd(t *testing.T) {
	dir := t.TempDir()
	log := &logBuf{}
	sig := make(chan os.Signal, 1)

	o := testOptions("127.0.0.1:0", "", time.Second)
	o.daemon = true
	o.drainTimeout = 5 * time.Second
	o.dmn = remote.DaemonOptions{Dir: dir, Heartbeat: 5 * time.Millisecond, ManifestEvery: 10 * time.Millisecond}
	done := make(chan error, 1)
	go func() { done <- runDaemon(o, log, sig) }()
	addr := strings.TrimSuffix(waitAddr(t, log, "tcollect: daemon listening on "), ", sessions in "+dir)

	for _, session := range []string{"ring-a", "ring-b"} {
		cl, err := remote.DialOptions(addr, 3, remote.ClientOptions{
			ID: "tcollect-test-" + session, SessionID: session, MaxRetries: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		in := instr.New(3, cl, instr.LevelAll)
		if err := in.Run(mp.Config{NumRanks: 3}, apps.Ring(2, nil)); err != nil {
			t.Fatal(err)
		}
		if err := cl.Close(); err != nil {
			t.Fatalf("session %s close: %v", session, err)
		}
	}

	sig <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatalf("daemon: %v", err)
	}
	for _, session := range []string{"ring-a", "ring-b"} {
		st, err := store.Open(filepath.Join(dir, session, "trace.manifest"))
		if err != nil {
			t.Fatalf("open session %s: %v", session, err)
		}
		tr, err := st.Trace()
		if err != nil {
			t.Fatal(err)
		}
		if tr.NumRanks() != 3 || tr.Len() == 0 {
			t.Fatalf("session %s: %d ranks, %d records", session, tr.NumRanks(), tr.Len())
		}
		if tr.Incomplete() {
			t.Fatalf("session %s marked incomplete: %s", session, tr.IncompleteReason())
		}
		if !strings.Contains(log.String(), "session "+session+": ") {
			t.Errorf("drain summary missing session %s: %q", session, log.String())
		}
	}
	if !strings.Contains(log.String(), "drained") {
		t.Errorf("log: %q", log.String())
	}
}

// TestDaemonSessionsQuery runs -daemon with a metrics endpoint (which mounts
// the streaming session API) and checks the -sessions one-shot against it.
func TestDaemonSessionsQuery(t *testing.T) {
	dir := t.TempDir()
	log := &logBuf{}
	sig := make(chan os.Signal, 1)

	o := testOptions("127.0.0.1:0", "", time.Second)
	o.daemon = true
	o.drainTimeout = 5 * time.Second
	o.metricsAddr = "127.0.0.1:0"
	o.dmn = remote.DaemonOptions{Dir: dir, Heartbeat: 5 * time.Millisecond, ManifestEvery: 10 * time.Millisecond}
	done := make(chan error, 1)
	go func() { done <- runDaemon(o, log, sig) }()
	apiURL := waitAddr(t, log, "tcollect: session API on ")
	apiURL = strings.TrimSuffix(apiURL, "/sessions")
	addr := strings.TrimSuffix(waitAddr(t, log, "tcollect: daemon listening on "), ", sessions in "+dir)

	cl, err := remote.DialOptions(addr, 3, remote.ClientOptions{
		ID: "tcollect-test-query", SessionID: "query-a", MaxRetries: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := instr.New(3, cl, instr.LevelAll)
	if err := in.Run(mp.Config{NumRanks: 3}, apps.Ring(2, nil)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}

	qlog := &logBuf{}
	if err := runSessions(apiURL, qlog); err != nil {
		t.Fatalf("runSessions: %v", err)
	}
	out := qlog.String()
	for _, want := range []string{"daemon: accepting", "SESSION", "query-a"} {
		if !strings.Contains(out, want) {
			t.Errorf("sessions output missing %q:\n%s", want, out)
		}
	}

	if err := runSessions("127.0.0.1:1", &logBuf{}); err == nil {
		t.Error("unreachable daemon accepted")
	}

	sig <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatalf("daemon: %v", err)
	}
}

func TestDaemonBadDir(t *testing.T) {
	o := testOptions("127.0.0.1:0", "", time.Second)
	o.daemon = true
	o.dmn.Dir = ""
	if err := runDaemon(o, &logBuf{}, make(chan os.Signal)); err == nil {
		t.Error("empty -dir accepted")
	}
}

// ringTrace records a small run in memory for writer tests.
func ringTrace(t *testing.T) *trace.Trace {
	t.Helper()
	sink := instr.NewMemorySink(3)
	in := instr.New(3, sink, instr.LevelAll)
	if err := in.Run(mp.Config{NumRanks: 3}, apps.Ring(2, nil)); err != nil {
		t.Fatal(err)
	}
	return sink.Trace()
}

// TestSegmentedWriteAndVerify: -segment-bytes output must round-trip through
// the store (the -verify path), and the manifest is what gets verified.
func TestSegmentedWriteAndVerify(t *testing.T) {
	tr := ringTrace(t)
	o := testOptions("", filepath.Join(t.TempDir(), "run.trace"), time.Second)
	o.segBytes = 1 << 10
	manifest, err := writeSegmented(o, tr, trace.WriterOptions{Writer: "tcollect"})
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Ext(manifest) != ".manifest" {
		t.Fatalf("writeSegmented returned %q, want the manifest path", manifest)
	}
	if err := verifyOutput(manifest, tr); err != nil {
		t.Fatalf("verify of segmented output: %v", err)
	}
}

func TestVerifyOutputDetectsMismatch(t *testing.T) {
	tr := ringTrace(t)
	out := filepath.Join(t.TempDir(), "run.trace")
	if err := trace.WriteFileAtomic(out, tr, trace.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := verifyOutput(out, tr); err != nil {
		t.Fatalf("clean round-trip rejected: %v", err)
	}
	other := trace.New(tr.NumRanks() + 1)
	if err := verifyOutput(out, other); err == nil {
		t.Error("rank mismatch not detected")
	}
	if err := verifyOutput(filepath.Join(t.TempDir(), "absent"), tr); err == nil {
		t.Error("missing output not detected")
	}
}
