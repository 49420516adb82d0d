package remote

import (
	"fmt"
	"time"
)

// ErrRejected is the typed form of a collector admission refusal (wire line
// "TDBGREJ <reason> <retryAfterMs>"). The client's reconnect loop honors
// RetryAfter instead of hot-retrying; callers can errors.As for it to
// distinguish overload from network failure.
type ErrRejected struct {
	// Reason is the collector's machine-readable refusal token, e.g.
	// "max-sessions", "client-limit", "disk-budget", "draining".
	Reason string
	// RetryAfter is the collector's hint for when admission may succeed.
	// Negative means the refusal is permanent (e.g. rank-count mismatch):
	// retrying will not help and the client gives up immediately.
	RetryAfter time.Duration
}

func (e *ErrRejected) Error() string {
	if e.RetryAfter < 0 {
		return fmt.Sprintf("remote: rejected by collector: %s (permanent)", e.Reason)
	}
	return fmt.Sprintf("remote: rejected by collector: %s (retry after %v)", e.Reason, e.RetryAfter)
}

// ErrQuotaExceeded is the typed form of a mid-session quota kill (wire line
// "TDBGQUO <reason>"): the collector accepted the session but its byte or
// record quota ran out. The kill is terminal — everything accepted so far is
// durable on the collector, but further records are refused, so the client
// stops retrying and surfaces the error.
type ErrQuotaExceeded struct {
	// Reason names the exhausted resource, e.g. "session-bytes",
	// "session-records", "disk-budget".
	Reason string
}

func (e *ErrQuotaExceeded) Error() string {
	return fmt.Sprintf("remote: session quota exceeded: %s", e.Reason)
}

// terminal is the error a permanent refusal ends a session with. A resume
// refused with a kill reason is the same verdict the in-band TDBGQUO line
// carries — the line was merely lost to the outage that caused the resume —
// so it surfaces as the same type: one cause, one error, whichever message
// delivered it.
func (e *ErrRejected) terminal() error {
	switch e.Reason {
	case QuotaSessionBytes, QuotaSessionRecords, QuotaDiskBudget, KillDiskError:
		return &ErrQuotaExceeded{Reason: e.Reason}
	}
	return e
}
