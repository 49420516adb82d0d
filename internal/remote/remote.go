// Package remote streams execution history over the network — the
// client/server split of the original p2d2, which ran a debug server next
// to each target process and a central debugger UI. Here each world runs a
// Client sink that streams its records to a collector Daemon, which lands
// every session in its own live-openable segment store that the debugger
// consumes through store.Open (optionally while the target is still
// running, via the same flush-on-demand the local pipeline has).
//
// Wire protocol (v3, the only one): each connection starts with a handshake
// line naming the rank count, the client's resume identity and the session
// the records belong to:
//
//	TDBGREMOTE3 <numRanks> <clientID> <sessionID>\n
//
// The daemon answers with exactly one of
//
//	TDBGACK <n> <win>\n   admission: n records of this session are already
//	                      accepted, and the client may have at most win
//	                      records in flight beyond n
//	TDBGREJ <reason> <retryAfterMs>\n   admission refused; retryAfterMs < 0
//	                      means permanent (do not retry)
//
// and after an admission keeps sending TDBGACK lines — credit grants as
// records become durable, plus an idle keepalive — until the session ends
// or a terminal "TDBGQUO <reason>\n" quota kill. After the handshake the
// client→daemon direction carries an ordinary trace-file stream (the format
// trace.FileWriter produces), so the daemon reuses trace.Scanner and
// captures of the wire stay debuggable. Older TDBGREMOTE1/TDBGREMOTE2 peers
// are refused: they carry no session, and a v2 ack has no credit window.
//
// Record counts double as sequence numbers: TCP delivers the stream in
// order, so "n records accepted" identifies an exact resume point. A
// reconnecting client retransmits only the records after the daemon's
// acknowledged count; a daemon restarted over a fresh directory replies
// with 0 and receives the full history again. Either way the session has no
// gaps and no duplicates.
//
// The credit window is what keeps an overloaded daemon's memory bounded: a
// client never has more than win unacknowledged-but-sent records
// outstanding, so the daemon's per-session queue (capacity win) cannot be
// overrun by a compliant client, and non-compliant ones fall back to TCP
// backpressure.
package remote

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

const (
	handshakeV3 = "TDBGREMOTE3 "
	ackPrefix   = "TDBGACK "
	rejPrefix   = "TDBGREJ "
	quoPrefix   = "TDBGQUO "
)

type connPhase int

const (
	phaseHandshake connPhase = iota
	phaseStreaming
)

// errBadSession marks a well-formed handshake whose session ID cannot be a
// directory name; the daemon answers it with a permanent RejectBadSession.
var errBadSession = errors.New("bad session ID")

// parseHandshake parses "TDBGREMOTE3 <numRanks> <clientID> <sessionID>\n".
// A session ID that fails validSessionID is reported as errBadSession (with
// the fields, for the refusal's log line), so an accepted handshake always
// names a usable session directory.
func parseHandshake(line string) (ranks int, client, session string, err error) {
	if !strings.HasPrefix(line, handshakeV3) {
		return 0, "", "", fmt.Errorf("daemon requires v3 handshake, got %q", strings.TrimSpace(line))
	}
	fields := strings.Fields(line)[1:]
	if len(fields) != 3 {
		return 0, "", "", fmt.Errorf("bad handshake %q", strings.TrimSpace(line))
	}
	ranks, err = strconv.Atoi(fields[0])
	if err != nil || ranks <= 0 {
		return 0, "", "", fmt.Errorf("bad rank count in handshake %q", strings.TrimSpace(line))
	}
	if !validSessionID(fields[2]) {
		return ranks, fields[1], fields[2], errBadSession
	}
	return ranks, fields[1], fields[2], nil
}

// parseAck parses "TDBGACK <n> <win>\n". A zero window grants nothing and
// could never be grown, so it is malformed.
func parseAck(line string) (ack, win uint64, ok bool) {
	if !strings.HasPrefix(line, ackPrefix) {
		return 0, 0, false
	}
	fields := strings.Fields(strings.TrimPrefix(line, ackPrefix))
	if len(fields) != 2 {
		return 0, 0, false
	}
	ack, err := strconv.ParseUint(fields[0], 10, 64)
	if err != nil {
		return 0, 0, false
	}
	if win, err = strconv.ParseUint(fields[1], 10, 64); err != nil || win == 0 {
		return 0, 0, false
	}
	return ack, win, true
}

// parseReject parses "TDBGREJ <reason> <retryAfterMs>\n" into the typed
// error. A malformed line degrades to a retryable one-second hint rather
// than a permanent refusal.
func parseReject(line string) *ErrRejected {
	fields := strings.Fields(strings.TrimPrefix(line, rejPrefix))
	e := &ErrRejected{Reason: "unknown", RetryAfter: time.Second}
	if len(fields) >= 1 {
		e.Reason = fields[0]
	}
	if len(fields) >= 2 {
		if ms, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
			switch {
			case ms < 0:
				e.RetryAfter = -1
			case ms <= int64(math.MaxInt64/time.Millisecond):
				e.RetryAfter = time.Duration(ms) * time.Millisecond
			}
		}
	}
	return e
}
