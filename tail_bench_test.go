// BenchmarkTailLatency measures the live-monitoring hot path end to end: a
// producer goroutine writes one record, flushes it, syncs the manifest, and
// an attached tail cursor (store.Open in ModeLive + Store.Tail) is already
// blocked in Next waiting for it. ns/op is the whole round (dominated by the
// manifest's fsync); deliver-ns/op is the part a `tvis -follow` or HTTP tail
// consumer waits on top of the producer's own flush cadence: from the flush
// returning to Next returning.
//
// 2-core sandbox, -benchtime 2000x -count 3: 1.19 ms/op with 1 166 µs
// deliver at the parent of PR 16 (the tail slept out the whole 1 ms Poll set
// below; its sleep starts with the write, so it is a full poll, not half),
// 0.74-0.80 ms/op with 75-78 µs deliver with the in-process wake (what is
// left is the woken goroutine waiting for a processor while the producer
// sits in the manifest's fsync). Through PR 15 the producer ran on the
// consumer's goroutine, so Next never waited and the benchmark could not see
// the poll at all (0.65 ms/op at either commit).
package tracedbg_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"tracedbg/internal/store"
	"tracedbg/internal/trace"
)

func BenchmarkTailLatency(b *testing.B) {
	const ranks = 2
	dir := b.TempDir()
	gw, err := trace.NewSequentialSegmentedWriter(dir, "trace", ranks, 1<<30, trace.WriterOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer gw.Close()
	var flushed atomic.Int64 // when the last record's flush returned
	write := func(marker uint64) {
		clock := int64(marker) * 2
		err := gw.Write(&trace.Record{
			Kind: trace.KindMarker, Rank: int(marker) % ranks, Marker: marker,
			Start: clock - 1, End: clock, Name: "bench",
		})
		if err == nil {
			err = gw.Flush()
		}
		flushed.Store(time.Now().UnixNano())
		if err == nil {
			err = gw.SyncManifest()
		}
		if err != nil {
			b.Error(err)
		}
	}
	// Seed one record so the manifest exists before the cursor attaches.
	marker := uint64(1)
	write(marker)

	st, err := store.Open(gw.ManifestPath(), store.Options{Mode: store.ModeLive})
	if err != nil {
		b.Fatal(err)
	}
	tc, err := st.Tail(store.TailOptions{Poll: time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	defer tc.Close()
	ctx := context.Background()
	if _, err := tc.Next(ctx); err != nil {
		b.Fatal(err)
	}

	var deliver int64
	wrote := make(chan struct{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		marker++
		go func() {
			write(marker)
			wrote <- struct{}{}
		}()
		if _, err := tc.Next(ctx); err != nil {
			b.Fatal(err)
		}
		got := time.Now().UnixNano()
		<-wrote
		// A woken tail can return before the producer's Flush does.
		deliver += max(0, got-flushed.Load())
	}
	b.ReportMetric(float64(deliver)/float64(b.N), "deliver-ns/op")
}
