package trace

import (
	"path/filepath"
	"sync"
	"sync/atomic"
)

// In-process growth notification.
//
// A tail learns that its file grew by re-checking it every TailOptions.Poll.
// When the writer lives in the same process — a collector daemon serving
// /sessions/<id>/tail, a benchmark or tool following its own session — that
// wait is pure idleness: the writer knows the instant bytes land. Writer and
// tail never hold a handle on each other (the tail is opened from a path,
// through store.Open), so they meet in a registry keyed by the directory the
// files live in: SegmentedWriter notes growth there after every write that
// lands in a named file, tails of files in that directory subscribe while
// open. A note is a hint to look now, never data: the tail still delivers
// only what it reads back from the file, and a file grown by another process
// (no notes) is still found by the poll.

// growth is the process-wide registry. active counts subscriptions so that a
// writer nobody follows pays one atomic load per note and never takes mu.
var growth = struct {
	active atomic.Int32
	mu     sync.Mutex
	subs   map[string][]*growthWatch
}{subs: make(map[string][]*growthWatch)}

// growthWatch is one tail's subscription. wake holds at most one pending
// token: a note that lands while the tail is busy is kept for its next wait,
// and any number of notes collapse into one look at the file. Because they
// collapse, a note of anything but appended bytes — a new segment, a
// manifest, session.json — also raises changed, so the tail knows that
// finding fresh bytes does not account for everything it was woken for.
type growthWatch struct {
	key     string
	wake    chan struct{}
	changed atomic.Bool
}

// growthKey names the directory holding path, so that relative, absolute
// and "./"-prefixed spellings of one location meet. Symlinked spellings do
// not; such a tail falls back to polling.
func growthKey(path string) string {
	if abs, err := filepath.Abs(path); err == nil {
		path = abs
	}
	return filepath.Dir(path)
}

// watchGrowth subscribes to notes for the directory holding path.
func watchGrowth(path string) *growthWatch {
	w := &growthWatch{key: growthKey(path), wake: make(chan struct{}, 1)}
	growth.mu.Lock()
	growth.subs[w.key] = append(growth.subs[w.key], w)
	growth.active.Add(1)
	growth.mu.Unlock()
	return w
}

// close unsubscribes; later calls are no-ops.
func (w *growthWatch) close() {
	growth.mu.Lock()
	defer growth.mu.Unlock()
	subs := growth.subs[w.key]
	for i, s := range subs {
		if s != w {
			continue
		}
		last := len(subs) - 1
		subs[i], subs[last] = subs[last], nil
		if last == 0 {
			delete(growth.subs, w.key)
		} else {
			growth.subs[w.key] = subs[:last]
		}
		growth.active.Add(-1)
		return
	}
}

// noteGrowth wakes every tail subscribed to key (a growthKey result).
// appended says the note is for bytes appended to a trace file and nothing
// else.
func noteGrowth(key string, appended bool) {
	if growth.active.Load() == 0 {
		return
	}
	growth.mu.Lock()
	for _, w := range growth.subs[key] {
		if !appended {
			w.changed.Store(true)
		}
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
	growth.mu.Unlock()
}

// NoteGrowth tells in-process tails that path, a file written outside
// SegmentedWriter but inside a directory one may follow (the collector's
// session.json), changed.
func NoteGrowth(path string) {
	if growth.active.Load() != 0 {
		noteGrowth(growthKey(path), false)
	}
}
