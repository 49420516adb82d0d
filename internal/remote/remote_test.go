package remote

import (
	"errors"
	"net"
	"strings"
	"testing"

	"tracedbg/internal/apps"
	"tracedbg/internal/instr"
	"tracedbg/internal/mp"
	"tracedbg/internal/store"
	"tracedbg/internal/trace"
)

// TestStreamWholeRun streams a whole instrumented run through a client with
// default options: it lands in the session named after the client ID, and
// the session holds exactly what a local sink recorded.
func TestStreamWholeRun(t *testing.T) {
	d, err := NewDaemon("127.0.0.1:0", fastDaemon(t))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const ranks = 3
	client, err := Dial(d.Addr(), ranks)
	if err != nil {
		t.Fatal(err)
	}
	// Record locally too, for comparison.
	local := instr.NewMemorySink(ranks)
	in := instr.New(ranks, instr.TeeSink{local, client}, instr.LevelAll)
	if err := in.Run(mp.Config{NumRanks: ranks}, apps.Ring(3, nil)); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatalf("client close: %v", err)
	}
	session := "c-" + client.ID()
	waitDone(t, d, session)
	got := openSession(t, d, session)
	if err := got.Validate(); err != nil {
		t.Fatalf("streamed trace invalid: %v", err)
	}
	if got.Incomplete() {
		t.Errorf("closed session incomplete: %s", got.IncompleteReason())
	}
	for r := 0; r < ranks; r++ {
		if got.RankLen(r) != local.Trace().RankLen(r) {
			t.Errorf("rank %d: %d streamed vs %d local", r, got.RankLen(r), local.Trace().RankLen(r))
		}
	}
	if errs := d.Errs(); len(errs) != 0 {
		t.Errorf("daemon errors: %v", errs)
	}
	if client.Err() != nil {
		t.Errorf("client error: %v", client.Err())
	}
}

// TestFlushOnDemandMidRun is the paper's flush on demand: while the target
// is still running, a flush makes its history so far readable through the
// session's live store.
func TestFlushOnDemandMidRun(t *testing.T) {
	d, err := NewDaemon("127.0.0.1:0", fastDaemon(t))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	client, err := DialOptions(d.Addr(), 2, sessionClient("mid-run"))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	in := instr.New(2, client, instr.LevelAll)
	w, err := in.World(mp.Config{NumRanks: 2})
	if err != nil {
		t.Fatal(err)
	}
	sent := make(chan struct{})
	release := make(chan struct{})
	if err := w.Start(func(p *mp.Proc) {
		c := in.Ctx(p)
		if c.Rank() == 0 {
			c.Send(1, 1, []byte("mid-run"))
			close(sent)
		} else {
			c.Recv(0, 1)
		}
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	<-sent
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	// The debugger side sees the partial history while the target still runs.
	waitFor(t, "mid-run flush readable in the live store", func() bool {
		st, err := store.Open(d.SessionManifest("mid-run"))
		if err != nil {
			return false
		}
		defer st.Close()
		tr, err := st.Trace()
		return err == nil && len(tr.Sends()) >= 1
	})
	close(release)
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestHandshakeErrors: a malformed handshake is an error on the daemon, and
// a resume that changes the rank count is refused permanently.
func TestHandshakeErrors(t *testing.T) {
	d, err := NewDaemon("127.0.0.1:0", fastDaemon(t))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	conn, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte(handshakeV3 + "3 only-two-fields\n"))
	conn.Close()
	waitFor(t, "bad handshake reported", func() bool {
		for _, e := range d.Errs() {
			if strings.Contains(e.Error(), "bad handshake") {
				return true
			}
		}
		return false
	})

	good, err := DialOptions(d.Addr(), 3, sessionClient("ranks"))
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	good.Emit(&trace.Record{Kind: trace.KindMarker, Rank: 0, Marker: 1})
	_, err = DialOptions(d.Addr(), 5, sessionClient("ranks"))
	var rej *ErrRejected
	if !errors.As(err, &rej) || rej.Reason != RejectRankCount || rej.RetryAfter >= 0 {
		t.Fatalf("resume with a different rank count = %v, want permanent *ErrRejected(%s)", err, RejectRankCount)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", 2); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestCollectorCloseIdempotent(t *testing.T) {
	d, err := NewDaemon("127.0.0.1:0", fastDaemon(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(d.Sessions()); n != 0 {
		t.Errorf("empty daemon lists %d sessions", n)
	}
}

// FuzzParseHandshake: the daemon's handshake parser never panics, and what
// it accepts is a positive rank count and a session ID that is safe as a
// directory name.
func FuzzParseHandshake(f *testing.F) {
	for _, seed := range []string{
		handshakeV3 + "3 client-1 run-a\n",
		handshakeV3 + "1 c c-c\n",
		handshakeV3 + "0 c s\n",
		handshakeV3 + "-2 c s\n",
		handshakeV3 + "2 c ..\n",
		handshakeV3 + "2 c .hidden\n",
		handshakeV3 + "2 c a/b\n",
		handshakeV3 + "99999999999999999999 c s\n",
		handshakeV3 + "2 c s extra\n",
		"TDBGREMOTE2 2 oldie\n",
		"TDBGREMOTE1 2\n",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		ranks, client, session, err := parseHandshake(line)
		if err != nil {
			return
		}
		if ranks <= 0 {
			t.Errorf("accepted rank count %d from %q", ranks, line)
		}
		if !validSessionID(session) {
			t.Errorf("accepted session ID %q from %q", session, line)
		}
		if client == "" || strings.ContainsAny(client, " \t\r\n") {
			t.Errorf("accepted client ID %q from %q", client, line)
		}
	})
}

// FuzzParseAck covers both daemon→client admission replies: an accepted ack
// always grants a window, and a rejection always yields a reason and either
// a permanent (-1) or a non-negative retry hint.
func FuzzParseAck(f *testing.F) {
	for _, seed := range []string{
		ackPrefix + "0 1024\n",
		ackPrefix + "18446744073709551615 1\n",
		ackPrefix + "5\n",
		ackPrefix + "5 0\n",
		ackPrefix + "5 -1\n",
		rejPrefix + "max-sessions 2000\n",
		rejPrefix + "bad-session -1\n",
		rejPrefix + "draining 9223372036854775807\n",
		rejPrefix + "\n",
		quoPrefix + "session-bytes\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		if _, win, ok := parseAck(line); ok && win == 0 {
			t.Errorf("ack %q accepted with a zero window", line)
		}
		e := parseReject(line)
		if e.Reason == "" {
			t.Errorf("reject %q parsed to an empty reason", line)
		}
		if e.RetryAfter < 0 && e.RetryAfter != -1 {
			t.Errorf("reject %q parsed to retry-after %v", line, e.RetryAfter)
		}
	})
}
