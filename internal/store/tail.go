package store

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"tracedbg/internal/trace"
)

// Live tailing: Store.Tail yields records as they become durable in a
// still-growing input — a plain file another process is writing, a rotating
// segment chain, or a collector-daemon session directory. Tailing is only
// offered in ModeLive: following an unfinalized trace is an explicit choice,
// not something the post-mortem modes do behind the caller's back.

// TailOptions tunes Store.Tail. The zero value is woken by an in-process
// writer, polls at the trace layer's default cadence for any other (DESIGN.md
// §15), and, for path-backed stores, finishes automatically when a
// collector session finalizes (a sibling session.json marked complete);
// otherwise it follows until the context passed to Next is cancelled.
type TailOptions struct {
	// Poll is the growth re-check cadence when no in-process writer wakes
	// the tail; <= 0 selects the default.
	Poll time.Duration
	// Done overrides finalization detection: once it returns true and no
	// further growth is observed, the cursor drains and returns io.EOF.
	Done func() bool
}

// TailCursor is a blocking pull iterator over records as they become
// durable. Next blocks until a record arrives, ctx is cancelled, or the
// producer finalizes (io.EOF). The returned pointer is valid only until the
// following Next call.
type TailCursor interface {
	Next(ctx context.Context) (*trace.Record, error)
	Close() error
}

// Tail opens a live cursor over the store's input. The store must have been
// opened with Options{Mode: ModeLive}; every other mode reads finalized
// traces and refuses. The stream a tail delivers is identical to what a
// post-mortem Open of the finalized input yields — the durability horizon
// only defers records, never changes them (DESIGN.md §15).
func (s *Store) Tail(opts ...TailOptions) (TailCursor, error) {
	if s.opts.Mode != ModeLive {
		return nil, fmt.Errorf("store: Tail requires Options{Mode: ModeLive} (got mode %d): tailing an unfinalized trace must be explicit", s.opts.Mode)
	}
	m := metrics()
	var o TailOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	done := o.Done
	if done == nil && s.info.Path != "" {
		// Collector session directories carry a session.json that flips when
		// the daemon finalizes the session; for any other directory the
		// predicate never fires and the tail follows until cancelled.
		done = trace.TailDoneWhenComplete(filepath.Dir(s.info.Path))
	}
	topts := trace.TailOptions{
		Poll:     o.Poll,
		Done:     done,
		OnPoll:   func() { m.tailPolls.Inc() },
		OnWake:   func() { m.tailWakes.Inc() },
		OnResync: func() { m.tailResyncs.Inc() },
		OnRotate: func() { m.tailRotations.Inc() },
		OnReopen: func() { m.tailReopens.Inc() },
	}
	var inner trace.TailCursor
	switch {
	case s.manifest != nil:
		ct, err := trace.TailChain(s.info.Path, topts)
		if err != nil {
			return nil, err
		}
		inner = ct
	case s.info.Path != "":
		ft, err := trace.TailFile(s.info.Path, topts)
		if err != nil {
			return nil, err
		}
		inner = ft
	default:
		// OpenBytes: a memory image cannot grow; serve the static drain with
		// tail semantics so callers need not special-case it.
		c, err := trace.NewSalvageCursorBytes(s.data)
		if err != nil {
			return nil, err
		}
		inner = staticTail{c}
	}
	m.tails.Inc()
	m.tailActive.Add(1)
	return &meteredTail{inner: inner, m: m}, nil
}

// meteredTail wraps the trace-layer cursor with the store's tail metrics.
type meteredTail struct {
	inner  trace.TailCursor
	m      *storeMetrics
	closed bool
}

func (t *meteredTail) Next(ctx context.Context) (*trace.Record, error) {
	rec, err := t.inner.Next(ctx)
	if err == nil {
		t.m.tailRecords.Inc()
	}
	return rec, err
}

func (t *meteredTail) Close() error {
	if !t.closed {
		t.closed = true
		t.m.tailActive.Add(-1)
	}
	return t.inner.Close()
}

// staticTail adapts a post-mortem salvage cursor to the TailCursor shape.
type staticTail struct{ c *trace.SalvageCursor }

func (st staticTail) Next(ctx context.Context) (*trace.Record, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return st.c.Next()
}

func (st staticTail) Close() error { return st.c.Close() }

// loadLive materializes a snapshot of the durable prefix of a
// possibly-still-growing input. The growth frontier is not damage: a
// trailing partial frame (bytes the producer has not finished writing) is
// dropped silently instead of being quarantined and marked incomplete the
// way a post-mortem load would. Interior damage — spans followed by more
// verified frames — is still quarantined, and a writer-declared incomplete
// marker is still honored.
func (s *Store) loadLive() (*trace.Trace, *trace.SalvageReport, error) {
	if s.manifest != nil {
		ct, err := trace.TailChain(s.info.Path, trace.TailOptions{Done: func() bool { return true }})
		if err != nil {
			return nil, nil, err
		}
		defer ct.Close()
		out := trace.New(s.info.NumRanks)
		for {
			rec, err := ct.Next(nil)
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, nil, err
			}
			if _, err := out.Append(*rec); err != nil {
				return nil, nil, err
			}
		}
		return out, nil, nil
	}
	data := s.data
	if data == nil {
		var err error
		data, err = os.ReadFile(s.info.Path)
		if err != nil {
			return nil, nil, err
		}
	}
	c, err := trace.NewSalvageCursorBytes(data)
	if err != nil {
		return nil, nil, err
	}
	nr := c.NumRanks()
	if nr < 0 {
		nr = 0
	}
	out := trace.New(nr)
	for {
		rec, err := c.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		if _, err := out.Append(*rec); err != nil {
			return nil, nil, err
		}
	}
	kept := 0
	for _, g := range c.Gaps() {
		if g.Offset+g.Bytes == int64(len(data)) {
			continue // the growth frontier, not damage
		}
		out.RecordGap(g)
		kept++
	}
	if inc, why := c.WriterIncomplete(); inc {
		out.MarkIncomplete(why)
	} else if kept > 0 {
		if inc, why := c.Incomplete(); inc {
			out.MarkIncomplete(why)
		}
	}
	return out, c.Report(), nil
}
