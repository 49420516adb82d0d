package trace

import (
	"context"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// never is a Poll no test outlives: a delivery that arrives under it was
// woken, not polled.
const never = time.Hour

// testCtx bounds a test that would otherwise hang on a lost wake.
func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func markerRecord(i int) Record {
	return Record{Kind: KindMarker, Rank: i % 2, Marker: uint64(i), Start: int64(2 * i), End: int64(2*i + 1), Name: "m"}
}

func registryEmpty(t *testing.T) {
	t.Helper()
	growth.mu.Lock()
	defer growth.mu.Unlock()
	if n := growth.active.Load(); n != 0 || len(growth.subs) != 0 {
		t.Fatalf("growth registry: %d active, %d keys, want none", n, len(growth.subs))
	}
}

// TestGrowthWakeNotLost races an unsynchronized writer against a tail whose
// poll never fires: every record must still arrive, so a note that lands
// between the tail's last look at the file and its wait is kept, not lost.
func TestGrowthWakeNotLost(t *testing.T) {
	const n = 300
	dir := t.TempDir()
	gw, err := NewSequentialSegmentedWriter(dir, "sess", 2, 1<<10, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	if err := gw.SyncManifest(); err != nil {
		t.Fatal(err)
	}
	var wakes atomic.Int64
	ct, err := TailChain(gw.ManifestPath(), TailOptions{Poll: never, OnWake: func() { wakes.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	go func() {
		for i := 1; i <= n; i++ {
			rec := markerRecord(i)
			if err := gw.Write(&rec); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			if err := gw.Flush(); err != nil {
				t.Errorf("flush %d: %v", i, err)
				return
			}
		}
	}()
	ctx := testCtx(t)
	for i := 1; i <= n; i++ {
		rec, err := ct.Next(ctx)
		if err != nil {
			t.Fatalf("record %d of %d (after %d wakes): %v", i, n, wakes.Load(), err)
		}
		if rec.Marker != uint64(i) {
			t.Fatalf("record %d: marker %d", i, rec.Marker)
		}
	}
	if ct.Rotations() == 0 {
		t.Fatal("the writer never rotated: the handoff wake went untested")
	}
}

// TestGrowthFinalizeWake pins that a session's end reaches its tail through
// the finalize note, not the poll: session.json flips, the daemon notes it,
// and a tail whose poll never fires drains to io.EOF.
func TestGrowthFinalizeWake(t *testing.T) {
	dir := t.TempDir()
	meta := filepath.Join(dir, "session.json")
	if err := os.WriteFile(meta, []byte(`{"complete":false}`), 0o644); err != nil {
		t.Fatal(err)
	}
	gw, err := NewSequentialSegmentedWriter(dir, "sess", 2, 0, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.SyncManifest(); err != nil {
		t.Fatal(err)
	}
	ct, err := TailChain(gw.ManifestPath(), TailOptions{Poll: never, Done: TailDoneWhenComplete(dir)})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	go func() {
		for i := 1; i <= 3; i++ {
			rec := markerRecord(i)
			if err := gw.Write(&rec); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		}
		if err := gw.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		// What the daemon does at finalize: replace the metadata, note it.
		if err := os.WriteFile(meta+".tmp", []byte(`{"complete":true}`), 0o644); err != nil {
			t.Errorf("meta: %v", err)
		}
		if err := os.Rename(meta+".tmp", meta); err != nil {
			t.Errorf("meta: %v", err)
		}
		NoteGrowth(meta)
	}()
	got, err := drainTail(t, ct, testCtx(t))
	if err != nil {
		t.Fatalf("tail did not finalize on the note: %v (after %d records)", err, len(got))
	}
	if len(got) != 3 {
		t.Fatalf("drained %d records, want 3", len(got))
	}
}

// TestGrowthFinalizeCoalesced is the interleaving the test above cannot
// force: the tail sleeps in its wait while the last records, the final
// manifest and the session.json flip all land, so their notes collapse into
// the one token it wakes on. Finding fresh bytes must not count as having
// seen everything it was woken for.
func TestGrowthFinalizeCoalesced(t *testing.T) {
	dir := t.TempDir()
	meta := filepath.Join(dir, "session.json")
	if err := os.WriteFile(meta, []byte(`{"complete":false}`), 0o644); err != nil {
		t.Fatal(err)
	}
	gw, err := NewSequentialSegmentedWriter(dir, "sess", 2, 0, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	write := func(i int) {
		t.Helper()
		rec := markerRecord(i)
		if err := gw.Write(&rec); err != nil {
			t.Fatal(err)
		}
		if err := gw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	write(1)
	ft, err := TailFile(filepath.Join(dir, "sess-00000.trace"), TailOptions{Poll: never, Done: TailDoneWhenComplete(dir)})
	if err != nil {
		t.Fatal(err)
	}
	defer ft.Close()
	ctx := testCtx(t)
	if _, err := ft.Next(ctx); err != nil {
		t.Fatal(err)
	}
	write(2)
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(meta, []byte(`{"complete":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	NoteGrowth(meta)
	// The tail "was asleep" through all of that: it wakes once.
	if ft.woken, err = ft.tw.wait(ctx, &ft.opts); err != nil || !ft.woken || ft.tw.noted() {
		t.Fatalf("wait = (%v, %v), noted %v; want one collapsed wake", ft.woken, err, ft.tw.noted())
	}
	if rec, err := ft.Next(ctx); err != nil || rec.Marker != 2 {
		t.Fatalf("Next = %v, %v; want record 2", rec, err)
	}
	if _, err := ft.Next(ctx); err != io.EOF {
		t.Fatalf("Next after the last record = %v, want io.EOF: the finalize note was lost in the collapse", err)
	}
}

// TestGrowthCloseUnsubscribes opens and closes tails a thousand times; the
// registry must end as empty as it began, and a second Close must not
// unsubscribe someone else.
func TestGrowthCloseUnsubscribes(t *testing.T) {
	dir := t.TempDir()
	gw, err := NewSequentialSegmentedWriter(dir, "sess", 2, 0, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	if err := gw.SyncManifest(); err != nil {
		t.Fatal(err)
	}
	keep, err := TailChain(gw.ManifestPath(), TailOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "sess-00000.trace")
	for i := 0; i < 1000; i++ {
		ct, err := TailChain(gw.ManifestPath(), TailOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ft, err := TailFile(seg, TailOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ct.Close()
		ft.Close()
		ct.Close()
		ft.Close()
	}
	if n := growth.active.Load(); n != 1 {
		t.Fatalf("%d subscriptions after 1000 open/close cycles, want the 1 still open", n)
	}
	keep.Close()
	registryEmpty(t)
}

// TestGrowthKeySpellings pins that relative, "./"-prefixed and absolute
// spellings of one directory meet at one key, and that a writer opened under
// one spelling wakes a tail opened under another.
func TestGrowthKeySpellings(t *testing.T) {
	root := t.TempDir()
	if err := os.Mkdir(filepath.Join(root, "sess"), 0o777); err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd) //nolint:errcheck // restoring the test's directory
	abs, err := filepath.Abs("sess")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"sess/x.manifest", "./sess/x.manifest", "sess/../sess/x-00000.trace", filepath.Join(abs, "session.json")} {
		if got := growthKey(p); got != abs {
			t.Errorf("growthKey(%q) = %q, want %q", p, got, abs)
		}
	}

	gw, err := NewSequentialSegmentedWriter("./sess", "x", 2, 0, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	if err := gw.SyncManifest(); err != nil {
		t.Fatal(err)
	}
	ct, err := TailChain(filepath.Join(abs, "x.manifest"), TailOptions{Poll: never})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	go func() {
		rec := markerRecord(1)
		if err := gw.Write(&rec); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := gw.Flush(); err != nil {
			t.Errorf("flush: %v", err)
		}
	}()
	if _, err := ct.Next(testCtx(t)); err != nil {
		t.Fatalf("tail under the absolute spelling was not woken: %v", err)
	}
}

// TestTailPolledWithoutNotifier grows a file through a plain os.File — the
// out-of-process case, no notes — and the poll alone must deliver it.
func TestTailPolledWithoutNotifier(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	image := encodeChunked(t, richTrace(rng, 2, 40), 256)
	frames := frameBounds(t, image)
	cut := frames[len(frames)/2].end
	path := filepath.Join(t.TempDir(), "plain.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(image[:cut]); err != nil {
		t.Fatal(err)
	}
	const poll = 20 * time.Millisecond
	var polls, wakes atomic.Int64
	ft, err := TailFile(path, TailOptions{Poll: poll,
		OnPoll: func() { polls.Add(1) }, OnWake: func() { wakes.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	defer ft.Close()
	pc, err := NewSalvageCursorBytes(image[:cut])
	if err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	for range drainSalvage(t, pc) {
		if _, err := ft.Next(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// The tail has everything; let it reach its wait, then append.
	got := make(chan time.Time, 1)
	go func() {
		if _, err := ft.Next(ctx); err != nil {
			t.Errorf("Next after growth: %v", err)
		}
		got <- time.Now()
	}()
	for polls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	wrote := time.Now()
	if _, err := f.Write(image[cut:]); err != nil {
		t.Fatal(err)
	}
	if lag := (<-got).Sub(wrote); lag > poll+500*time.Millisecond {
		t.Fatalf("polled delivery took %v, want within one %v poll (plus scheduling slack)", lag, poll)
	}
	if wakes.Load() != 0 {
		t.Fatalf("%d wakes on a file no notifier writes", wakes.Load())
	}
}

// TestNoteGrowthUnwatched pins the writer's price when nobody follows: no
// allocation, and no lock — the note returns while the registry is held.
func TestNoteGrowthUnwatched(t *testing.T) {
	registryEmpty(t)
	key := growthKey(filepath.Join(t.TempDir(), "x.manifest"))
	if n := testing.AllocsPerRun(1000, func() { noteGrowth(key, true) }); n != 0 {
		t.Fatalf("noteGrowth allocates %v times with no tail open", n)
	}
	growth.mu.Lock()
	defer growth.mu.Unlock()
	returned := make(chan struct{})
	go func() {
		noteGrowth(key, true)
		NoteGrowth(filepath.Join(key, "session.json"))
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("noteGrowth took the registry lock with no tail open")
	}
}

// TestTailDrainNeverWaits pins what store.loadLive relies on: an
// immediately-done chain tail drains a many-segment store without waiting
// once per segment (or at all), even while a writer in this process holds
// the last segment open.
func TestTailDrainNeverWaits(t *testing.T) {
	const n = 400
	dir := t.TempDir()
	gw, err := NewSequentialSegmentedWriter(dir, "sess", 2, 512, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	for i := 1; i <= n; i++ {
		rec := markerRecord(i)
		if err := gw.Write(&rec); err != nil {
			t.Fatal(err)
		}
		if err := gw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := gw.SyncManifest(); err != nil {
		t.Fatal(err)
	}
	var waits atomic.Int64
	ct, err := TailChain(gw.ManifestPath(), TailOptions{Poll: never, Done: doneTrue,
		OnPoll: func() { waits.Add(1) }, OnWake: func() { waits.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	got, err := drainTail(t, ct, testCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n || ct.Rotations() < 10 {
		t.Fatalf("drained %d records over %d rotations, want %d over >= 10", len(got), ct.Rotations(), n)
	}
	if waits.Load() != 0 {
		t.Fatalf("the drain waited %d times", waits.Load())
	}
}

// TestTailSyscallBudget follows a session written at 1 kHz the way the
// daemon's tail consumers do and counts what each delivered record costs on
// the tail side: file-system calls (the FileTail's own, plus two per Done
// evaluation — the successor-segment stat and TailDoneWhenComplete's guard
// stat) and waits.
func TestTailSyscallBudget(t *testing.T) {
	const n = 300
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "session.json"), []byte(`{"complete":false}`), 0o644); err != nil {
		t.Fatal(err)
	}
	gw, err := NewSequentialSegmentedWriter(dir, "sess", 2, 0, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	if err := gw.SyncManifest(); err != nil {
		t.Fatal(err)
	}
	complete := TailDoneWhenComplete(dir)
	var dones, wakes, polls int
	ct, err := TailChain(gw.ManifestPath(), TailOptions{
		Done:   func() bool { dones++; return complete() },
		OnWake: func() { wakes++ },
		OnPoll: func() { polls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	go func() {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for i := 1; i <= n; i++ {
			<-tick.C
			rec := markerRecord(i)
			if err := gw.Write(&rec); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			if err := gw.Flush(); err != nil {
				t.Errorf("flush %d: %v", i, err)
				return
			}
		}
	}()
	ctx := testCtx(t)
	for i := 1; i <= n; i++ {
		if _, err := ct.Next(ctx); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	calls := ct.cur.sys + 2*dones
	t.Logf("%d records: %d fs calls (%d Done evaluations), %d wakes, %d polls", n, calls, dones, wakes, polls)
	if calls > 3*n {
		t.Fatalf("%d file-system calls for %d records, budget 3 per record", calls, n)
	}
	if wakes > n+n/10 {
		t.Fatalf("%d wakes for %d records, want about one each", wakes, n)
	}
}

// TestTailDoneWhenCompleteGuard pins that the predicate re-reads session.json
// only when a stat shows it changed (an in-place edit that keeps size and
// mtime is answered from the cache — the daemon never makes one, it renames a
// new file in), and that every replacement is seen.
func TestTailDoneWhenCompleteGuard(t *testing.T) {
	dir := t.TempDir()
	meta := filepath.Join(dir, "session.json")
	replace := func(body string) {
		t.Helper()
		tmp := meta + ".tmp"
		if err := os.WriteFile(tmp, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, meta); err != nil {
			t.Fatal(err)
		}
	}
	done := TailDoneWhenComplete(dir)
	replace(`{"complete":false}`)
	if done() {
		t.Fatal("running session reads as done")
	}
	fi, err := os.Stat(meta)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(meta, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(`{"complete": true}`)); err != nil { // same length
		t.Fatal(err)
	}
	f.Close()
	if err := os.Chtimes(meta, fi.ModTime(), fi.ModTime()); err != nil {
		t.Fatal(err)
	}
	if done() {
		t.Fatal("unchanged stat was not answered from the cached verdict")
	}
	replace(`{"complete":true}`)
	if !done() {
		t.Fatal("flip to complete not seen")
	}
	if !done() {
		t.Fatal("cached complete verdict lost")
	}
	if err := os.Remove(meta); err != nil {
		t.Fatal(err)
	}
	if done() {
		t.Fatal("missing session.json reads as done")
	}
}
