// Package analysis implements the paper's §4.4 history analysis: the
// online list of unmatched sends and receives, deadlock detection from
// circular wait dependencies, wildcard message-race detection, the action
// graph summarization of the call graph, and the message-traffic
// irregularity report that pinpoints anomalies like Figure 6's missed
// message.
package analysis

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"tracedbg/internal/trace"
)

// MatchTracker maintains the unmatched send/receive lists online, updated
// as execution progresses; it can be installed as an instrumentation sink.
type MatchTracker struct {
	mu           sync.Mutex
	pendingSends map[uint64]trace.Record // sends whose receive has not appeared
	matched      int
	blockedRecvs []trace.Record // receives that never completed (KindBlocked)
	orphanRecvs  []trace.Record // receives whose send never appeared (window truncation)
	totalSends   int
	totalRecvs   int
}

// NewMatchTracker creates an empty tracker.
func NewMatchTracker() *MatchTracker {
	return &MatchTracker{pendingSends: make(map[uint64]trace.Record)}
}

// Emit implements the instrumentation Sink interface.
func (t *MatchTracker) Emit(rec *trace.Record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch rec.Kind {
	case trace.KindSend:
		t.totalSends++
		// Records are emitted when an operation completes, each rank on its
		// own goroutine: a blocked receiver can complete, and report, before
		// the sender that released it does.
		for i := range t.orphanRecvs {
			if t.orphanRecvs[i].MsgID == rec.MsgID {
				t.orphanRecvs = append(t.orphanRecvs[:i], t.orphanRecvs[i+1:]...)
				t.matched++
				return
			}
		}
		t.pendingSends[rec.MsgID] = *rec
	case trace.KindRecv:
		t.totalRecvs++
		if _, ok := t.pendingSends[rec.MsgID]; ok {
			delete(t.pendingSends, rec.MsgID)
			t.matched++
		} else {
			t.orphanRecvs = append(t.orphanRecvs, *rec)
		}
	case trace.KindBlocked:
		if strings.Contains(rec.Name, "Recv") || strings.Contains(rec.Name, "Wait") {
			t.blockedRecvs = append(t.blockedRecvs, *rec)
		}
	}
}

// AddTrace feeds a whole trace through the tracker in completion order —
// the order in which a live run would have emitted the records (a receive
// always completes after its send completes).
func (t *MatchTracker) AddTrace(tr *trace.Trace) {
	var ids []trace.EventID
	for r := 0; r < tr.NumRanks(); r++ {
		for i := range tr.Rank(r) {
			ids = append(ids, trace.EventID{Rank: r, Index: i})
		}
	}
	sort.Slice(ids, func(a, b int) bool {
		ra, rb := tr.MustAt(ids[a]), tr.MustAt(ids[b])
		if ra.End != rb.End {
			return ra.End < rb.End
		}
		if ra.Kind == trace.KindSend && rb.Kind == trace.KindRecv {
			return true // a send sorts before a same-instant receive
		}
		if ra.Kind == trace.KindRecv && rb.Kind == trace.KindSend {
			return false
		}
		return ids[a].Less(ids[b])
	})
	for _, id := range ids {
		t.Emit(tr.MustAt(id))
	}
}

// UnmatchedSends returns the sends that have not (yet) been received, in
// message-id order.
func (t *MatchTracker) UnmatchedSends() []trace.Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]trace.Record, 0, len(t.pendingSends))
	for _, r := range t.pendingSends {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MsgID < out[j].MsgID })
	return out
}

// UnmatchedRecvs returns receives that could not complete: blocked receive
// operations plus orphan receive records.
func (t *MatchTracker) UnmatchedRecvs() []trace.Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]trace.Record(nil), t.blockedRecvs...)
	out = append(out, t.orphanRecvs...)
	return out
}

// Matched returns the number of completed pairs so far.
func (t *MatchTracker) Matched() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.matched
}

// Totals returns (sends, recvs) observed.
func (t *MatchTracker) Totals() (int, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totalSends, t.totalRecvs
}

// Report renders the unmatched lists for the user.
func (t *MatchTracker) Report() string {
	sends := t.UnmatchedSends()
	recvs := t.UnmatchedRecvs()
	var sb strings.Builder
	fmt.Fprintf(&sb, "message matching: %d matched, %d unmatched sends, %d unmatched receives\n",
		t.Matched(), len(sends), len(recvs))
	for _, s := range sends {
		fmt.Fprintf(&sb, "  unmatched send: %s\n", s.String())
	}
	for _, r := range recvs {
		fmt.Fprintf(&sb, "  unmatched recv: %s\n", r.String())
	}
	return sb.String()
}
