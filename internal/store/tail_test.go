package store_test

// Live-tail differential suite: a Store.Tail cursor following a growing
// input must deliver exactly the record stream a post-mortem Open of the
// finalized input yields — over plain files, rotating segment chains, and
// collector session directories. These tests run under -race in CI (the
// store package is on the race list): the writer goroutines here are real
// concurrency, not staged replays.

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"tracedbg/internal/obs"
	"tracedbg/internal/store"
	"tracedbg/internal/trace"
)

// mergedOrder flattens a trace into one globally Start-ordered sequence —
// the order a collector writes a multi-rank session in.
func mergedOrder(tr *trace.Trace) []trace.Record {
	var out []trace.Record
	for r := 0; r < tr.NumRanks(); r++ {
		out = append(out, tr.Rank(r)...)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Start < out[j-1].Start; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func drainTailCursor(t *testing.T, tc store.TailCursor) []trace.Record {
	t.Helper()
	var out []trace.Record
	for {
		rec, err := tc.Next(context.Background())
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("tail Next: %v", err)
		}
		out = append(out, *rec)
	}
}

func drainRecordCursor(t *testing.T, c trace.RecordCursor) []trace.Record {
	t.Helper()
	defer c.Close()
	var out []trace.Record
	for {
		rec, err := c.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("cursor Next: %v", err)
		}
		out = append(out, *rec)
	}
}

func TestTailRequiresModeLive(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	tr := genTrace(rng, 2, 20)
	dir := t.TempDir()
	path := filepath.Join(dir, "t.trace")
	if err := trace.WriteFileAtomic(path, tr, trace.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []store.Mode{store.ModeAuto, store.ModeStrict, store.ModePartial} {
		st, err := store.Open(path, store.Options{Mode: mode})
		if err != nil {
			t.Fatalf("Open mode %d: %v", mode, err)
		}
		if _, err := st.Tail(); err == nil {
			t.Fatalf("Tail allowed in mode %d", mode)
		}
	}
	st, err := store.Open(path, store.Options{Mode: store.ModeLive})
	if err != nil {
		t.Fatal(err)
	}
	tc, err := st.Tail(store.TailOptions{Done: func() bool { return true }})
	if err != nil {
		t.Fatalf("Tail in ModeLive: %v", err)
	}
	defer tc.Close()
	got := drainTailCursor(t, tc)
	want := mergedOrder(tr)
	// File order for a single-writer file is merged Start order.
	if len(got) != len(want) {
		t.Fatalf("tailed %d records, want %d", len(got), len(want))
	}
}

// TestTailChainDifferential runs a segment writer and a chain tailer
// concurrently; once the writer finalizes, the tailed stream must equal the
// post-mortem store's file-order cursor over the same finalized manifest.
func TestTailChainDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	tr := genTrace(rng, 3, 400)
	recs := mergedOrder(tr)
	dir := t.TempDir()
	gw, err := trace.NewSequentialSegmentedWriter(dir, "trace", tr.NumRanks(), 4096,
		trace.WriterOptions{ChunkBytes: 512, Writer: "tail-differential"})
	if err != nil {
		t.Fatal(err)
	}
	var done atomic.Bool
	go func() {
		defer done.Store(true)
		wrng := rand.New(rand.NewSource(92))
		for i := range recs {
			if err := gw.Write(&recs[i]); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			if wrng.Intn(32) == 0 {
				gw.Flush()
				gw.SyncManifest()
				if wrng.Intn(4) == 0 {
					time.Sleep(time.Duration(wrng.Intn(300)) * time.Microsecond)
				}
			}
		}
		if err := gw.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	manifest := gw.ManifestPath()
	// The store may open before the writer's first manifest sync: retry the
	// way a live consumer has to.
	var st *store.Store
	for {
		st, err = store.Open(manifest, store.Options{Mode: store.ModeLive})
		if err == nil {
			break
		}
		if done.Load() {
			if st, err = store.Open(manifest, store.Options{Mode: store.ModeLive}); err != nil {
				t.Fatalf("Open after writer done: %v", err)
			}
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	tc, err := st.Tail(store.TailOptions{Poll: 200 * time.Microsecond, Done: done.Load})
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	got := drainTailCursor(t, tc)

	post, err := store.Open(manifest)
	if err != nil {
		t.Fatal(err)
	}
	all, err := post.All()
	if err != nil {
		t.Fatal(err)
	}
	want := drainRecordCursor(t, all)
	if len(got) != len(want) {
		t.Fatalf("tailed %d records, post-mortem has %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("record %d: tail %+v, post-mortem %+v", i, got[i], want[i])
		}
	}
}

// TestTailSessionAutoDone pins the collector-session convention: with no
// explicit Done, a path-backed tail finalizes when a sibling session.json
// marks the session complete.
func TestTailSessionAutoDone(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	tr := genTrace(rng, 2, 60)
	dir := t.TempDir()
	path := filepath.Join(dir, "trace-00000.trace")
	if err := trace.WriteFileAtomic(path, tr, trace.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(path, store.Options{Mode: store.ModeLive})
	if err != nil {
		t.Fatal(err)
	}
	tc, err := st.Tail(store.TailOptions{Poll: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()

	// Without session.json the tail keeps following.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	n := 0
	for {
		_, err := tc.Next(ctx)
		if err == context.DeadlineExceeded {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		n++
	}
	cancel()
	if n == 0 {
		t.Fatal("no records before session finalized")
	}

	// Finalize the session: the same cursor must now drain to EOF.
	meta := filepath.Join(dir, "session.json")
	if err := os.WriteFile(meta, []byte(`{"complete":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	rest := drainTailCursor(t, tc)
	total := n + len(rest)
	want := 0
	for r := 0; r < tr.NumRanks(); r++ {
		want += len(tr.Rank(r))
	}
	if total != want {
		t.Fatalf("delivered %d records, want %d", total, want)
	}
}

// TestLiveTraceSnapshot pins ModeLive materialization: a trailing partial
// frame is the growth frontier, not damage — unlike ModeAuto over the same
// bytes — while interior damage stays quarantined.
func TestLiveTraceSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	tr := genTrace(rng, 2, 120)
	var buf bytes.Buffer
	if err := trace.WriteAllOptions(&buf, tr, trace.WriterOptions{ChunkBytes: 256}); err != nil {
		t.Fatal(err)
	}
	image := buf.Bytes()
	cut := image[:len(image)-7] // mid-frame: a partial trailing chunk

	postSt, err := store.OpenBytes(cut)
	if err != nil {
		t.Fatal(err)
	}
	postTr, err := postSt.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if !postTr.Incomplete() || !postTr.HasGaps() {
		t.Fatal("post-mortem load of a truncated file must flag damage")
	}

	liveSt, err := store.OpenBytes(cut, store.Options{Mode: store.ModeLive})
	if err != nil {
		t.Fatal(err)
	}
	liveTr, err := liveSt.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if liveTr.Incomplete() {
		t.Fatalf("live snapshot marked incomplete: %s", liveTr.IncompleteReason())
	}
	if liveTr.HasGaps() {
		t.Fatalf("live snapshot reported the growth frontier as damage: %+v", liveTr.Gaps())
	}
	// Same records either way: the frontier only defers, never changes.
	for r := 0; r < postTr.NumRanks(); r++ {
		if !reflect.DeepEqual(postTr.Rank(r), liveTr.Rank(r)) {
			t.Fatalf("rank %d: live snapshot diverges from post-mortem records", r)
		}
	}

	// Interior damage (more verified frames after the corruption) stays
	// quarantined even live.
	corrupt := append([]byte(nil), image...)
	corrupt[len(image)/2] ^= 0x42
	liveC, err := store.OpenBytes(corrupt, store.Options{Mode: store.ModeLive})
	if err != nil {
		t.Fatal(err)
	}
	liveCT, err := liveC.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if !liveCT.HasGaps() {
		t.Fatal("live snapshot dropped interior damage")
	}
}

// TestTailMetrics pins the tracedbg_store_tail_* instrumentation.
func TestTailMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	store.SetObsRegistry(reg)
	defer store.SetObsRegistry(obs.Default())

	rng := rand.New(rand.NewSource(95))
	tr := genTrace(rng, 2, 30)
	dir := t.TempDir()
	path := filepath.Join(dir, "m.trace")
	if err := trace.WriteFileAtomic(path, tr, trace.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(path, store.Options{Mode: store.ModeLive})
	if err != nil {
		t.Fatal(err)
	}
	tc, err := st.Tail(store.TailOptions{Done: func() bool { return true }})
	if err != nil {
		t.Fatal(err)
	}
	got := drainTailCursor(t, tc)
	tc.Close()
	tc.Close() // idempotent: the active gauge must not go negative

	snap := map[string]float64{}
	for _, m := range reg.Snapshot().Metrics {
		snap[m.Name] = m.Value
	}
	if snap["tracedbg_store_tails_total"] != 1 {
		t.Fatalf("tails_total = %v, want 1", snap["tracedbg_store_tails_total"])
	}
	if snap["tracedbg_store_tail_records_total"] != float64(len(got)) {
		t.Fatalf("tail_records_total = %v, want %d", snap["tracedbg_store_tail_records_total"], len(got))
	}
	if snap["tracedbg_store_tail_active"] != 0 {
		t.Fatalf("tail_active = %v after Close, want 0", snap["tracedbg_store_tail_active"])
	}
}

func markerRec(i int) trace.Record {
	return trace.Record{Kind: trace.KindMarker, Rank: i % 2, Marker: uint64(i), Start: int64(2 * i), End: int64(2*i + 1)}
}

// TestTailWakeAndPollMetrics pins what the two wait counters mean: a record
// an in-process writer notes is a wake, never a poll (the poll here never
// fires), and a wait that runs out its Poll with nobody writing is a poll.
func TestTailWakeAndPollMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	store.SetObsRegistry(reg)
	defer store.SetObsRegistry(obs.Default())
	counter := func(name string) float64 {
		for _, m := range reg.Snapshot().Metrics {
			if m.Name == name {
				return m.Value
			}
		}
		return 0
	}

	const n = 50
	gw, err := trace.NewSequentialSegmentedWriter(t.TempDir(), "sess", 2, 0, trace.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	if err := gw.SyncManifest(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(gw.ManifestPath(), store.Options{Mode: store.ModeLive})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tc, err := st.Tail(store.TailOptions{Poll: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i := 1; i <= n; i++ {
		// Written only once the previous one is delivered, so each record
		// costs the tail one wait.
		go func() {
			time.Sleep(200 * time.Microsecond)
			rec := markerRec(i)
			if err := gw.Write(&rec); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
			if err := gw.Flush(); err != nil {
				t.Errorf("flush %d: %v", i, err)
			}
		}()
		if _, err := tc.Next(ctx); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	if polls := counter("tracedbg_store_tail_polls_total"); polls != 0 {
		t.Fatalf("tail_polls_total = %v under a poll that never fires: deliveries were counted as polls", polls)
	}
	if wakes := counter("tracedbg_store_tail_wakes_total"); wakes < 1 || wakes > 2*n {
		t.Fatalf("tail_wakes_total = %v for %d noted records", wakes, n)
	}

	// A second tail nobody writes to, with a short poll: expiries are polls.
	idle, err := st.Tail(store.TailOptions{Poll: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	idleCtx, stop := context.WithTimeout(ctx, 50*time.Millisecond)
	defer stop()
	for {
		if _, err := idle.Next(idleCtx); err != nil {
			break
		}
	}
	if polls := counter("tracedbg_store_tail_polls_total"); polls < 1 {
		t.Fatal("an idle tail's expired waits were not counted as polls")
	}
}

// TestLiveLoadDoesNotWaitPerSegment pins that materializing a live store — an
// immediately-done chain tail underneath — costs no poll interval per
// segment: 64 segments at the 25 ms default would be 1.6 s.
func TestLiveLoadDoesNotWaitPerSegment(t *testing.T) {
	const n = 2000
	gw, err := trace.NewSequentialSegmentedWriter(t.TempDir(), "sess", 2, 512, trace.WriterOptions{ChunkBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close() // still open: the last segment is live, written in this process
	for i := 1; i <= n; i++ {
		rec := markerRec(i)
		if err := gw.Write(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := gw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := gw.SyncManifest(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(gw.ManifestPath(), store.Options{Mode: store.ModeLive})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if segs := st.Info().Segments; segs < 64 {
		t.Fatalf("%d segments, want >= 64 for the bound below to mean anything", segs)
	}
	t0 := time.Now()
	tr, err := st.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took > 800*time.Millisecond {
		t.Fatalf("live load took %v: it waited on the tail's poll", took)
	}
	if got := tr.Len(); got != n {
		t.Fatalf("live load has %d records, want %d", got, n)
	}
}
